"""Score bits are pinned: any change to them fails here.

Each case runs one fixed-seed ``importance`` call on a small generated
input and compares the sha256 of ``scores_encoded.csv`` with a recorded
digest. The CSV prints every score and its SD across trees with ``repr``,
so a change in the last bit of any score changes the digest. A change
that moves score bits on purpose must update the digests and say why.

The pins that hold a Gini value were recorded when the Gini sum was a BLAS
dot, whose summation order depended on the CPU's kernel. They now hold
the elementwise sum in class order, which is the same on every CPU, and
``test_gini_pins_rederive_with_a_scalar_python_gini`` re-derives each of
them with a plain-Python Gini.

The pins of forests whose trees draw feature subsets (every classification
pin) were recorded when a tree drew them in preorder from its generator.
They now hold the subsets keyed by each node's place in its tree, and
``test_keyed_draw_pins_rederive_with_the_reference_grower`` re-derives each
of them with every tree grown by the recursive reference grower.

The regression pins that hold node sums (si, ufi, the model, the regression
summary and the deep out-of-bag permutation) were recorded when those sums
repeated np.add.reduce's pairwise order. They now hold np.add.reduceat
sums, and the same test re-derives each of them through the reference
grower and a per-node reference ufi, each summing a node on its own.
"""

import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import reference_grow, reference_ufi_regression, scalar_gini

from ufitree import forest as forest_mod, importance as importance_mod, tree as tree_mod
from ufitree.cli import main

LEVELS = "abc"


def _rows(n, offset, task):
    """Deterministic rows from modular arithmetic: no RNG stream to drift."""
    lines = []
    for i in range(offset, offset + n):
        x1 = (i * 37 % 101) / 10
        x2 = LEVELS[i * 7 % 3]
        x3 = (i * 13 % 17) / 4
        if task == "classification":
            target = "yes" if x1 + 3 * (x2 == "a") + (i * 5 % 11) / 4 > 7 else "no"
        else:
            target = repr(0.5 * x1 - (x2 == "b") + (i * 11 % 7) / 3)
        lines.append(f"{x1},{x2},{x3},{target}")
    return "x1,x2,x3,y\n" + "\n".join(lines) + "\n"


# (task, method, test source) -> sha256 of scores_encoded.csv. The test rows
# 80-119 meet x2's levels in the order c, a, b, while training meets them as
# a, b, c. The test.csv digests were first recorded when each file coded its
# own levels in first-appearance order, so test column x2=a held x2=c's
# indicator. They were re-derived by scoring a test matrix encoded by
# column=level name under the training labels, apart from the loader.
DIGESTS = {
    ("classification", "si", "oob"):
        "1a0fd76bf57d0cf92c10bad9210e6989e579d9c59ff3e3d4eb036b50a532736f",
    ("classification", "ufi", "oob"):
        "0febbf7a0e385286735b801059b0dc3ada2b965bdf81b86347156a5afc24ee41",
    ("classification", "ufi", "test.csv"):
        "6cfa24f338266ce8fcf21eaf1c5338ffb7ba4219e7c8e1a77d52197ef4ec294c",
    ("classification", "permutation", "oob"):
        "c5072f48675ea7e0643193ed20765d1ff0c4b9696270b80eed0e01b6d7a9a703",
    ("classification", "permutation", "test.csv"):
        "62745f91f136e58af1450219fd092b2b196e5229fad6c525daf4d8429e542ce5",
    ("regression", "si", "oob"):
        "77a2002c52525f4f01f94ff97baf75734edadea55d50b25c29d9e3a589b9b35b",
    ("regression", "ufi", "oob"):
        "a0bae9b81b8da3e1b3218bb81efe774518021e45ad4f64dea029ce44a9b0523f",
    ("regression", "ufi", "test.csv"):
        "a2be629a227e040b4bad711bb04c5b2d950ccac06b1217f5575ea69d1d0d80b6",
    ("regression", "permutation", "oob"):
        "e84827d9aee357ea4415312c9cdcc3886e04b19073241f22af382f4a97cbbc21",
    ("regression", "permutation", "test.csv"):
        "6937ee6c955d8c7d6dfef522f975f043852ccf9e2ccbf30bef8100947c127e39",
}


def _importance_digest(tmp_path, task, method, test):
    (tmp_path / "train.csv").write_text(_rows(80, 0, task))
    (tmp_path / "test.csv").write_text(_rows(40, 80, task))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "y", "task": task,
        "kinds": {"x1": "continuous", "x2": "categorical", "x3": "ordinal"},
    }))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "importance", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--method", method,
        "--test", test if test == "oob" else str(tmp_path / test),
        "--trees", "8", "--seed", "7", "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "scores_encoded.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("task,method,test", list(DIGESTS))
def test_scores_encoded_bits_are_pinned(tmp_path, task, method, test):
    assert _importance_digest(tmp_path, task, method, test) \
        == DIGESTS[(task, method, test)]


# sha256 of summary.json from a small fixed-seed simulate run. Its depth-2
# trees leave many features at a score of 0, so avg_rank holds tied ranks.
# The digest holds for every --threads count.
SUMMARY_DIGEST = "fd5e39fe45b45420df30a985d1e89bd3a79ca696ca1d9b1b0255bed9fed80a43"


def _simulate_digest(tmp_path, threads):
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, [
        "simulate", "--scenario", "null-mixed", "--task", "classification",
        "--n", "60", "--reps", "5", "--trees", "4", "--max-depth", "2",
        "--methods", "si,ufi", "--seed", "3", "--threads", threads,
        "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_summary_bits_are_pinned(tmp_path, threads):
    assert _simulate_digest(tmp_path, threads) == SUMMARY_DIGEST


def _three_class_rows(n):
    """A 3-class CSV from modular arithmetic, big enough that an unlimited
    tree grows nodes of more and of fewer than 64 rows."""
    lines = []
    for i in range(n):
        x1 = (i * 37 % 101) / 10
        x2 = LEVELS[i * 7 % 3]
        x3 = (i * 13 % 17) / 4
        score = x1 + 3 * (x2 == "a") + x3 / 2 + (i * 5 % 11) / 4
        target = "lo" if score < 6 else "mid" if score < 9 else "hi"
        lines.append(f"{x1},{x2},{x3},{target}")
    return "x1,x2,x3,y\n" + "\n".join(lines) + "\n"


# sha256 of model.json from a fixed-seed train run with unlimited depth. The
# digest holds for every --threads count.
MODEL_DIGEST = "1997c6f82d0d5d3e5c58012138fea4d19a085adb398c2c730c88a330c9be69f3"


def _train_digest(tmp_path, threads):
    (tmp_path / "train.csv").write_text(_three_class_rows(300))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "y", "task": "classification",
        "kinds": {"x1": "continuous", "x2": "categorical", "x3": "ordinal"},
    }))
    out = tmp_path / "model"
    res = CliRunner().invoke(main, [
        "train", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--trees", "6",
        "--min-samples-leaf", "3", "--seed", "11", "--threads", threads,
        "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "model.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_model_bits_are_pinned(tmp_path, threads):
    assert _train_digest(tmp_path, threads) == MODEL_DIGEST


def _regression_rows(n):
    """A regression CSV from modular arithmetic, with unrounded targets, big
    enough that an unlimited tree grows nodes of more and of fewer than 64
    rows."""
    lines = []
    for i in range(n):
        x1 = (i * 37 % 101) / 10
        x2 = LEVELS[i * 7 % 3]
        x3 = (i * 13 % 17) / 4
        target = 0.7 * x1 - 1.3 * (x2 == "b") + x3 / 3 + (i * 11 % 7) / 9
        lines.append(f"{x1},{x2},{x3},{target!r}")
    return "x1,x2,x3,y\n" + "\n".join(lines) + "\n"


# sha256 of model.json from a fixed-seed regression train run with unlimited
# depth. The digest holds for every --threads count.
REGRESSION_MODEL_DIGEST = (
    "b934e7fcb6419b145c863e3a3deeeb7b683e33c268e338d253bc8569512ebaf1")


def _regression_train_digest(tmp_path, threads):
    (tmp_path / "train.csv").write_text(_regression_rows(300))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "y", "task": "regression",
        "kinds": {"x1": "continuous", "x2": "categorical", "x3": "ordinal"},
    }))
    out = tmp_path / "model"
    res = CliRunner().invoke(main, [
        "train", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--trees", "6",
        "--min-samples-leaf", "3", "--seed", "11", "--threads", threads,
        "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "model.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regression_train_model_bits_are_pinned(tmp_path, threads):
    assert _regression_train_digest(tmp_path, threads) == REGRESSION_MODEL_DIGEST


# sha256 of summary.json from a small fixed-seed discrete10 regression
# simulate run, whose ufi sums out-of-bag segments of about 147 rows at the
# root. The digest holds for every --threads count.
REGRESSION_SUMMARY_DIGEST = (
    "da2ec6130d88f642a23ee5d1f66237e2c72ff4d5223a7b0361c3a27175d19342")


def _regression_simulate_digest(tmp_path, threads):
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, [
        "simulate", "--scenario", "discrete10", "--task", "regression",
        "--encoding", "ordinal", "--n", "400", "--reps", "3", "--trees", "5",
        "--max-depth", "10", "--methods", "si,ufi", "--seed", "5",
        "--threads", threads, "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regression_simulate_summary_bits_are_pinned(tmp_path, threads):
    assert _regression_simulate_digest(tmp_path, threads) == REGRESSION_SUMMARY_DIGEST


TEN_LEVELS = "abcdefghij"


def _ten_level_rows(n, offset, task):
    """Rows with a 10-level categorical, big enough that unlimited-depth
    trees split on the same encoded column more than once along a path."""
    lines = []
    for i in range(offset, offset + n):
        x1 = (i * 37 % 101) / 10
        c = TEN_LEVELS[i * 7 % 10]
        x3 = (i * 13 % 17) / 4
        if task == "classification":
            score = x1 + 2 * (c in "aeh") + x3 / 3 + (i * 5 % 11) / 4
            target = "yes" if score > 8 else "no"
        else:
            target = repr(0.5 * x1 - 1.2 * (c in "bdf") + x3 / 5 + (i * 11 % 7) / 3)
        lines.append(f"{x1},{c},{x3},{target}")
    return "x1,c,x3,y\n" + "\n".join(lines) + "\n"


# (task, test source) -> sha256 of scores_encoded.csv from a fixed-seed
# permutation run with unlimited depth on 300 training rows. The test rows
# start at 320, where the first label and level are the training file's, so
# that both files encode alike.
DEEP_PERMUTATION_DIGESTS = {
    ("classification", "oob"):
        "10f4dfd49ce33b117fd5f1a50ebcc7d34455b17184e07fdf505f441ff6fb6b7b",
    ("classification", "test.csv"):
        "61f806f963dfaff45541222a4e631c3f4f806e9eb822149be94fcf53513fec23",
    ("regression", "oob"):
        "1b5e628c78d859838655cc5884cf81c4c400f193a9fdc0c37abb90b121da76b9",
    ("regression", "test.csv"):
        "f42c2bde3c80df8dc6887ae9ca3300aec74690f52ccf606d21513d0d70e7daa1",
}


def _deep_permutation_digest(tmp_path, task, test):
    (tmp_path / "train.csv").write_text(_ten_level_rows(300, 0, task))
    (tmp_path / "test.csv").write_text(_ten_level_rows(120, 320, task))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "y", "task": task,
        "kinds": {"x1": "continuous", "c": "categorical", "x3": "ordinal"},
    }))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "importance", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--method", "permutation",
        "--test", test if test == "oob" else str(tmp_path / test),
        "--trees", "10", "--seed", "13", "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "scores_encoded.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("task,test", list(DEEP_PERMUTATION_DIGESTS))
def test_deep_permutation_bits_are_pinned(tmp_path, task, test):
    assert _deep_permutation_digest(tmp_path, task, test) \
        == DEEP_PERMUTATION_DIGESTS[(task, test)]


MIXED_CARDS = {"c2": 2, "c4": 4, "c10": 10, "c20": 20}


def _mixed_rows(n):
    """A yes/no CSV shaped like the benchmark's: one continuous column and
    categoricals of 2, 4, 10 and 20 levels (37 encoded columns), from
    modular arithmetic, with a label noisy enough that unlimited-depth
    trees grow hundreds of nodes."""
    lines = []
    for i in range(n):
        x = (i * 7919 % 1009) / 100 - 5
        levels = {name: i * mult % mod % k for (name, k), (mult, mod)
                  in zip(MIXED_CARDS.items(), [(5, 7), (7, 13), (11, 23),
                                               (17, 41)])}
        score = x / 2 + (levels["c4"] - 1.5) / 2 + (i * 31 % 17) / 3 - 2.7
        label = "yes" if score > 0 else "no"
        cells = [f"{name}_L{v}" for name, v in levels.items()]
        lines.append(",".join([f"{x:.2f}", *cells, label]))
    return ",".join(["x", *MIXED_CARDS, "label"]) + "\n" + "\n".join(lines) + "\n"


# sha256 of model.json from a fixed-seed train run of 10 unlimited-depth
# trees on 2000 rows. Its trees scan nodes of more than 64 rows, draw more
# than 256 feature subsets each, and rescan unsplittable drawn subsets over
# all 37 columns. The digest holds for every --threads count.
MIXED_MODEL_DIGEST = (
    "565fd7dc42a4b6ef1214cd2573dfa142d7e3ad7e7c2307111748558f7cfca536")


def _mixed_train_digest(tmp_path, threads):
    (tmp_path / "train.csv").write_text(_mixed_rows(2000))
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "label", "task": "classification",
        "kinds": {"x": "continuous", **dict.fromkeys(MIXED_CARDS, "categorical")},
    }))
    out = tmp_path / "model"
    res = CliRunner().invoke(main, [
        "train", "--data", str(tmp_path / "train.csv"),
        "--schema", str(tmp_path / "schema.json"), "--trees", "10",
        "--seed", "17", "--threads", threads, "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    return hashlib.sha256((out / "model.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mixed_train_model_bits_are_pinned(tmp_path, threads):
    assert _mixed_train_digest(tmp_path, threads) == MIXED_MODEL_DIGEST


def _scalar_predictive_gini(p, q):
    """predictive_gini in plain Python floats, a row at a time."""
    p, q = np.asarray(p), np.asarray(q)
    if p.ndim == 1:
        return scalar_gini(p, q)
    return np.array([scalar_gini(a, b) for a, b in zip(p, q)])


# Every pin that holds a Gini value: how to run it (with a --threads
# count where the pin has one) and the digest it must give
GINI_PINS = {
    **{f"classification-{m}-{t}": (
        lambda tmp, m=m, t=t: _importance_digest(tmp, "classification", m, t),
        DIGESTS[("classification", m, t)])
       for m, t in [("si", "oob"), ("ufi", "oob"), ("ufi", "test.csv")]},
    **{f"{name}-{threads}": (
        lambda tmp, run=run, threads=threads: run(tmp, threads), digest)
       for name, run, digest in [("simulate", _simulate_digest, SUMMARY_DIGEST),
                                 ("train", _train_digest, MODEL_DIGEST),
                                 ("mixed-train", _mixed_train_digest,
                                  MIXED_MODEL_DIGEST)]
       for threads in ["1", "2"]},
}


@pytest.mark.parametrize("pin", list(GINI_PINS))
def test_gini_pins_rederive_with_a_scalar_python_gini(tmp_path, monkeypatch, pin):
    """Each Gini-holding pin, re-derived with the library's predictive_gini
    replaced by plain-Python sums in class order. Forked fit workers
    inherit the replacement; the parent's own calls are counted."""
    calls = []

    def gini(p, q):
        calls.append(1)
        return _scalar_predictive_gini(p, q)

    monkeypatch.setattr(tree_mod, "predictive_gini", gini)
    monkeypatch.setattr(importance_mod, "predictive_gini", gini)
    run, digest = GINI_PINS[pin]
    assert run(tmp_path) == digest
    assert calls or pin.endswith("train-2")  # there only workers grow trees


# Every pin of a forest whose trees draw feature subsets, and every pin
# that holds regression node sums and moved when they became
# np.add.reduceat calls: how to run it (at one --threads count; the pins
# hold for every count) and its digest
REFERENCE_GROWER_PINS = {
    **{f"classification-{m}-{t}": (
        lambda tmp, m=m, t=t: _importance_digest(tmp, "classification", m, t),
        digest)
       for (task, m, t), digest in DIGESTS.items() if task == "classification"},
    **{f"deep-permutation-{t}": (
        lambda tmp, t=t: _deep_permutation_digest(tmp, "classification", t),
        DEEP_PERMUTATION_DIGESTS[("classification", t)])
       for t in ["oob", "test.csv"]},
    "simulate": (lambda tmp: _simulate_digest(tmp, "1"), SUMMARY_DIGEST),
    "train": (lambda tmp: _train_digest(tmp, "1"), MODEL_DIGEST),
    "mixed-train": (lambda tmp: _mixed_train_digest(tmp, "1"), MIXED_MODEL_DIGEST),
    **{f"regression-{m}-{t}": (
        lambda tmp, m=m, t=t: _importance_digest(tmp, "regression", m, t),
        DIGESTS[("regression", m, t)])
       for m, t in [("si", "oob"), ("ufi", "oob"), ("ufi", "test.csv")]},
    "regression-train": (lambda tmp: _regression_train_digest(tmp, "1"),
                         REGRESSION_MODEL_DIGEST),
    "regression-simulate": (lambda tmp: _regression_simulate_digest(tmp, "1"),
                            REGRESSION_SUMMARY_DIGEST),
    "regression-deep-permutation-oob": (
        lambda tmp: _deep_permutation_digest(tmp, "regression", "oob"),
        DEEP_PERMUTATION_DIGESTS[("regression", "oob")]),
}


@pytest.mark.parametrize("pin", list(REFERENCE_GROWER_PINS))
def test_keyed_draw_pins_rederive_with_the_reference_grower(tmp_path, monkeypatch,
                                                           pin):
    """Each pin of a drawing forest or of regression node sums, re-derived
    with fit's grow_trees replaced by the reference grower, one recursive
    tree at a time, which draws each node's subset with splitmix64 on plain
    Python ints and sums each regression node with np.add.reduceat calls of
    its own, and with regression ufi replaced by its per-node reference."""
    grown = []

    def reference_grow_trees(X, y, bags, rngs, config, task, n_classes=None,
                             keys=None):
        grown.append(len(bags))
        return [reference_grow(X, y, rows, config, task, n_classes, rng=rng,
                               keys=keys) for rows, rng in zip(bags, rngs)]

    monkeypatch.setattr(forest_mod, "grow_trees", reference_grow_trees)
    monkeypatch.setattr(importance_mod, "ufi_tree_regression", reference_ufi_regression)
    run, digest = REFERENCE_GROWER_PINS[pin]
    assert run(tmp_path) == digest
    assert grown
