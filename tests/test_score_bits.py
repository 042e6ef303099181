"""Score bits are pinned: any change to them fails here.

Each case runs one fixed-seed ``importance`` call on a small generated
input and compares the sha256 of ``scores_encoded.csv`` with a recorded
digest. The CSV prints every score and its SD across trees with ``repr``,
so a change in the last bit of any score changes the digest. A change
that moves score bits on purpose must update the digests and say why.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

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
        "9e76a5a40fd8397f6aa403c87f62412a7c0c730f987cdd46608853e219dd4bd7",
    ("classification", "ufi", "oob"):
        "52dfc01abcff560519e40220f04eab4ea17f61aba4141345c4f40aec2c5941ab",
    ("classification", "ufi", "test.csv"):
        "39f04134131d61176bbbf818f6871ffc183bf9efc51398cacf9cc19caa4f1dd7",
    ("classification", "permutation", "oob"):
        "934f3e33c69a80fa273c8ab30c5ff655818ab183993a4faef6e5a2a399202bb1",
    ("classification", "permutation", "test.csv"):
        "d1f5992bf1bff4aa97c2082cd60a37e3b430240518455a2f5b49124a3f73db35",
    ("regression", "si", "oob"):
        "45f39165fb3770971fdbbf0fb863da39aeca86d7dc8f6a812683e26638d85192",
    ("regression", "ufi", "oob"):
        "9c4662459b44e72ab787b68f5d65a8a6cec671c39f9868a4bfb4d6c0888f2530",
    ("regression", "ufi", "test.csv"):
        "d0b8c3034aa543f00fa5ece3c9ae7255913bf2f3c5c85ea17083cb0bff3704a4",
    ("regression", "permutation", "oob"):
        "e84827d9aee357ea4415312c9cdcc3886e04b19073241f22af382f4a97cbbc21",
    ("regression", "permutation", "test.csv"):
        "6937ee6c955d8c7d6dfef522f975f043852ccf9e2ccbf30bef8100947c127e39",
}


@pytest.mark.parametrize("task,method,test", list(DIGESTS))
def test_scores_encoded_bits_are_pinned(tmp_path, task, method, test):
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
    digest = hashlib.sha256((out / "scores_encoded.csv").read_bytes()).hexdigest()
    assert digest == DIGESTS[(task, method, test)]


# sha256 of summary.json from a small fixed-seed simulate run. Its depth-2
# trees leave many features at a score of 0, so avg_rank holds tied ranks.
# The digest holds for every --threads count.
SUMMARY_DIGEST = "9947ac2086f091e4a2b1e547c6800df8dc9ab43aa480b2e0180e05c7b21db6d5"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_summary_bits_are_pinned(tmp_path, threads):
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, [
        "simulate", "--scenario", "null-mixed", "--task", "classification",
        "--n", "60", "--reps", "5", "--trees", "4", "--max-depth", "2",
        "--methods", "si,ufi", "--seed", "3", "--threads", threads,
        "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == SUMMARY_DIGEST


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
MODEL_DIGEST = "e932ddcc214bfd2316c2be088c3e4b3f220f3b97a056ed0b2e4e20ce7f291560"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_model_bits_are_pinned(tmp_path, threads):
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
    digest = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
    assert digest == MODEL_DIGEST


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
    "5a98a3143b6677063a7e5ec0073475b18d9bfcc1a238e3d773c75010c33f8f74")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regression_train_model_bits_are_pinned(tmp_path, threads):
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
    digest = hashlib.sha256((out / "model.json").read_bytes()).hexdigest()
    assert digest == REGRESSION_MODEL_DIGEST


# sha256 of summary.json from a small fixed-seed discrete10 regression
# simulate run. At n=400 a tree's out-of-bag rows number about 147, so ufi
# sums test segments of more and of fewer than 128 rows. The digest holds
# for every --threads count.
REGRESSION_SUMMARY_DIGEST = (
    "8c09a719a5120b595cde388625cbd1a222db0a986f631a564d58385d42b5488b")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regression_simulate_summary_bits_are_pinned(tmp_path, threads):
    out = tmp_path / "sim"
    res = CliRunner().invoke(main, [
        "simulate", "--scenario", "discrete10", "--task", "regression",
        "--encoding", "ordinal", "--n", "400", "--reps", "3", "--trees", "5",
        "--max-depth", "10", "--methods", "si,ufi", "--seed", "5",
        "--threads", threads, "--out", str(out)],
        catch_exceptions=False)
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    assert digest == REGRESSION_SUMMARY_DIGEST


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
        "26e004540c886f77ca5bd728bba0721ac15bbb52141fcf0623e9d15550fe6488",
    ("classification", "test.csv"):
        "a6f6ace72bcddeceb0a5efa4aeb9be652453663055238098e653042c80b02f06",
    ("regression", "oob"):
        "da4e3b7123651a8ef28eaea3d0349f101f036915cc76c483dc77d137aa357d33",
    ("regression", "test.csv"):
        "f42c2bde3c80df8dc6887ae9ca3300aec74690f52ccf606d21513d0d70e7daa1",
}


@pytest.mark.parametrize("task,test", list(DEEP_PERMUTATION_DIGESTS))
def test_deep_permutation_bits_are_pinned(tmp_path, task, test):
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
    digest = hashlib.sha256((out / "scores_encoded.csv").read_bytes()).hexdigest()
    assert digest == DEEP_PERMUTATION_DIGESTS[(task, test)]
