"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see per-criterion
pass/fail lines.  The simulation-scale criteria 5-8 are slow (several
minutes total at desk scale) and marked ``slow``: ``-m "not slow"`` leaves
them out of a quick run.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import brute_force_best_split, random_instance

from ufitree.cli import main as cli_main
from ufitree.data import dummy_encode, fold_importances, inject_random_feature
from ufitree.forest import ForestConfig, fit
from ufitree.importance import (
    si_forest, si_tree, ufi_forest, ufi_tree_classification, ufi_tree_regression,
)
from ufitree.simgen import SimSetting, gen_signal, run_experiment
from ufitree.tree import Split, TreeConfig, best_split, evaluate_split, grow


def _report(num, desc, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _margin(record_property, name, value, low=None, high=None):
    """Record a statistic of a check, its bounds and its margin, the
    distance to the nearer bound (negative outside), as a property of the
    test in the JUnit XML (``--junitxml``). A margin gates nothing: it
    shows a statistic drifting toward its bound before the check flips."""
    value = float(value)
    margin = min(np.inf if low is None else value - low,
                 np.inf if high is None else high - value)
    record_property(name, json.dumps({"value": value, "low": low, "high": high,
                                      "margin": margin}))


def _grow(X, y, task, **kw):
    n_classes = int(np.max(y)) + 1 if task == "classification" else None
    return grow(X, y, np.arange(len(y)), TreeConfig(**kw), task, n_classes)


def _sim(scenario, task, depth, reps, seed, methods, rho=0.0, n=1000,
         trees=100, encoding="dummy"):
    setting = SimSetting(scenario, task, rho=rho, encoding=encoding,
                         n=n, reps=reps, seed=seed)
    config = ForestConfig(
        n_trees=trees, seed=0,
        tree=TreeConfig(max_depth=depth),
    )
    return run_experiment(setting, config, methods)


def _within_3se(result, feature_idx):
    se = result.stderr()[feature_idx]
    return abs(result.mean[feature_idx]) <= 3 * se


# ---------------------------------------------------------------------------
# shared heavy runs

@pytest.fixture(scope="module")
def null_cls():
    return _sim("null_mixed", "classification", depth=5, reps=100, seed=101,
                methods=["si", "ufi"])


@pytest.fixture(scope="module")
def null_reg():
    return _sim("null_mixed", "regression", depth=5, reps=100, seed=102,
                methods=["si", "ufi"])


# ---------------------------------------------------------------------------

def test_criterion_1_split_search_oracle_equivalence():
    rng = np.random.default_rng(2024)
    started = time.time()
    checked = 0
    for trial in range(500):
        task = "classification" if trial % 2 == 0 else "regression"
        X, y, k = random_instance(rng, task, duplicates=trial % 3 == 0)
        msl = int(rng.integers(1, 4))
        idx = np.arange(len(y))
        feats = np.arange(X.shape[1])
        got = best_split(X, y, idx, feats, n_classes=k, min_samples_leaf=msl)
        want = brute_force_best_split(X, y, idx, feats, n_classes=k,
                                      min_samples_leaf=msl)
        if want is None:
            assert got is None, f"trial {trial}: expected no split, got {got}"
        else:
            assert got is not None and got[0] == want[0], \
                f"trial {trial}: {got} != {want}"
        checked += 1
    elapsed = time.time() - started
    _report(1, f"best_split == brute force on {checked} instances "
               f"({elapsed:.1f}s < 10s)", elapsed < 10.0)


def test_criterion_2_weighted_mean_square_identity_and_nonnegativity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        X, y, _ = random_instance(rng, "regression")
        n = len(y)
        idx = np.arange(n)
        j = int(rng.integers(0, X.shape[1]))
        vals = np.unique(X[idx, j])
        if len(vals) < 2:
            continue
        mids = (vals[:-1] + vals[1:]) / 2
        s = float(mids[rng.integers(0, len(mids))])
        out = evaluate_split(X, y, idx, Split(j, s), n_root=n)
        assert out is not None
        _, delta = out
        mask = X[idx, j] <= s
        yl, yr = y[idx[mask]], y[idx[~mask]]
        closed_form = (len(yl) / n) * yl.mean() ** 2 \
            + (len(yr) / n) * yr.mean() ** 2 - y.mean() ** 2
        worst = max(worst, abs(delta - closed_form))
        assert delta >= -1e-15

        yc = (y > np.median(y)).astype(int)
        out_g = evaluate_split(X, yc, idx, Split(j, s), n_root=n, n_classes=2)
        assert out_g is not None and out_g[1] >= -1e-15
    _report(2, f"regression decrease identity (max dev {worst:.2e} < 1e-10) "
               "and nonnegative Gini/MSE decreases", worst < 1e-10)


def test_criterion_3_reduction_identities_exact():
    rng = np.random.default_rng(303)
    for trial in range(100):
        task = "classification" if trial % 2 == 0 else "regression"
        X, y, _ = random_instance(rng, task, n_max=60)
        tree = _grow(X, y, task, max_depth=5)
        si = si_tree(tree)
        inner = ~tree.is_leaf
        if task == "classification":
            scores, skipped, terms = ufi_tree_classification(tree, X, y)
            assert np.array_equal(scores, si)
            assert np.array_equal(terms[inner], tree.train_decrease[inner])
        else:
            scores, skipped, terms = ufi_tree_regression(tree, X, y)
            assert np.array_equal(scores, 2.0 * si)
            assert np.array_equal(terms[inner], 2.0 * tree.train_decrease[inner])
        assert skipped == 0
    _report(3, "UFI-C(test=train) == SI and UFI-R(test=train) == 2*SI, "
               "exact per node and per feature on 100 random trees", True)


def test_criterion_4_lemma_level_unbiasedness(record_property):
    started = time.time()
    rng = np.random.default_rng(404)
    results = {}
    for task in ("classification", "regression"):
        vals = []
        for _ in range(2000):
            n = 60
            X = rng.standard_normal((n, 1))
            Xt = rng.standard_normal((n, 1))
            if task == "classification":
                y = rng.integers(0, 2, size=n)
                yt = rng.integers(0, 2, size=n)
            else:
                y = rng.standard_normal(n)
                yt = rng.standard_normal(n)
            tree = _grow(X, y, task, max_depth=1)
            if tree.is_leaf[0]:
                continue
            if task == "classification":
                scores = ufi_tree_classification(tree, Xt, yt)[0]
            else:
                scores = ufi_tree_regression(tree, Xt, yt)[0]
            vals.append(scores[0])
        vals = np.array(vals)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        results[task] = (vals.mean(), se)
        _margin(record_property, f"criterion_4.{task}.abs_mean_over_se",
                abs(vals.mean()) / se, high=3.0)
        assert abs(vals.mean()) <= 3 * se, \
            f"{task}: mean {vals.mean():.3e} exceeds 3 SE ({se:.3e})"
    elapsed = time.time() - started
    _report(4, "single-split corrected decreases center on 0 "
               f"(cls mean {results['classification'][0]:.2e}, "
               f"reg mean {results['regression'][0]:.2e}; {elapsed:.0f}s < 60s)",
            elapsed < 60.0)


@pytest.mark.slow
def test_criterion_5_bias_reproduction(null_cls, null_reg, record_property):
    started = time.time()
    si_c = null_cls["si"]
    si_r = null_reg["si"]
    names = si_c.feature_names
    all_positive = np.all(si_c.mean > 0) and np.all(si_r.mean > 0)
    x5_over_x2 = si_c.mean[names.index("X5")] > si_c.mean[names.index("X2")]
    x1 = names.index("X1")
    x1_largest_reg = int(np.argmax(si_r.mean)) == x1
    _margin(record_property, "criterion_5.classification.min_si_mean",
            si_c.mean.min(), low=0.0)
    _margin(record_property, "criterion_5.regression.min_si_mean",
            si_r.mean.min(), low=0.0)
    _margin(record_property, "criterion_5.classification.si_X5_less_X2",
            si_c.mean[names.index("X5")] - si_c.mean[names.index("X2")], low=0.0)
    _margin(record_property, "criterion_5.regression.si_X1_less_next",
            si_r.mean[x1] - np.delete(si_r.mean, x1).max(), low=0.0)
    elapsed = time.time() - started
    _report(5, "null-data SI means all positive; X5 > X2 in classification; "
               f"X1 largest in regression ({elapsed:.0f}s)",
            all_positive and x5_over_x2 and x1_largest_reg)


@pytest.mark.slow
def test_criterion_6_unbiasedness_reproduction(null_cls, null_reg, record_property):
    ok = True
    for label, res in (("classification", null_cls["ufi"]),
                       ("regression", null_reg["ufi"])):
        for j, name in enumerate(res.feature_names):
            _margin(record_property, f"criterion_6.{label}.ufi_{name}.abs_mean_over_se",
                    abs(res.mean[j]) / res.stderr()[j], high=3.0)
            inside = _within_3se(res, j)
            if not inside:
                print(f"  {label} {name}: mean {res.mean[j]:.3e} vs "
                      f"3 SE {3 * res.stderr()[j]:.3e}")
            ok = ok and inside
    _report(6, "null-data UFI mean within 3 SE of 0 for every feature, "
               "both tasks", ok)


@pytest.mark.slow
def test_criterion_7_discrete_benchmark_ranks(record_property):
    started = time.time()
    checks = []
    for task in ("classification", "regression"):
        for depth in (3, 10):
            # shallow forests are cheap, so spend extra repetitions to keep
            # the average-rank estimate well inside the tolerance band
            reps = 60 if depth == 3 else 30
            res = _sim("discrete10", task, depth=depth, reps=reps,
                       seed=700 + depth, methods=["si", "ufi"],
                       encoding="ordinal")
            x1 = res["si"].feature_names.index("X1")
            si_rank = res["si"].avg_rank[x1]
            ufi_rank = res["ufi"].avg_rank[x1]
            prefix = f"criterion_7.{task}.depth_{depth}"
            _margin(record_property, f"{prefix}.si_rank_X1", si_rank,
                    *((9.0, None) if depth == 10 else (2.5, 5.5)))
            _margin(record_property, f"{prefix}.ufi_rank_X1", ufi_rank, high=2.5)
            if depth == 10:
                checks.append((f"{task} deep SI rank {si_rank:.2f} >= 9.0",
                               si_rank >= 9.0))
            else:
                checks.append((f"{task} shallow SI rank {si_rank:.2f} in [2.5, 5.5]",
                               2.5 <= si_rank <= 5.5))
            checks.append((f"{task} depth {depth} UFI rank {ufi_rank:.2f} <= 2.5",
                           ufi_rank <= 2.5))
    elapsed = time.time() - started
    for desc, ok in checks:
        print(f"  {desc}: {'ok' if ok else 'FAILED'}")
    _report(7, f"discrete benchmark ranks ({elapsed:.0f}s < 900s)",
            all(ok for _, ok in checks) and elapsed < 900.0)


@pytest.mark.slow
def test_criterion_8_signal_detection(record_property):
    res_01 = _sim("signal", "classification", depth=5, reps=100, seed=801,
                  methods=["si", "ufi"], rho=0.1)
    names = res_01["ufi"].feature_names
    x2 = names.index("X2")
    ufi_finds_x2 = res_01["ufi"].avg_rank[x2] < 2.0

    def si_misses_x2(res):
        # "missing" X2 = not consistently ranked first: its average rank
        # stays well above 1, i.e. noise features still beat it in a
        # non-negligible share of repetitions
        return res["si"].avg_rank[x2] > 1.2

    si_miss_01 = si_misses_x2(res_01)
    res_02 = _sim("signal", "classification", depth=5, reps=100, seed=802,
                  methods=["si"], rho=0.2)
    si_miss_02 = si_misses_x2(res_02)
    res_r5 = _sim("signal", "regression", depth=5, reps=100, seed=803,
                  methods=["si"], rho=0.5)
    si_miss_r5 = si_misses_x2(res_r5)
    _margin(record_property, "criterion_8.classification.rho_0.1.ufi_rank_X2",
            res_01["ufi"].avg_rank[x2], high=2.0)
    for label, res in (("classification.rho_0.1", res_01),
                       ("classification.rho_0.2", res_02),
                       ("regression.rho_0.5", res_r5)):
        _margin(record_property, f"criterion_8.{label}.si_rank_X2",
                res["si"].avg_rank[x2], low=1.2)
    print(f"  UFI rank(X2) at rho=0.1: {res_01['ufi'].avg_rank[x2]:.2f}")
    print(f"  SI rank(X2): rho=0.1 cls {res_01['si'].avg_rank[x2]:.2f}, "
          f"rho=0.2 cls {res_02['si'].avg_rank[x2]:.2f}, "
          f"rho=0.5 reg {res_r5['si'].avg_rank[x2]:.2f}")
    _report(8, "UFI detects X2 at rho=0.1; SI misses it at rho<=0.2 (cls) "
               "and rho=0.5 (reg)",
            ufi_finds_x2 and si_miss_01 and si_miss_02 and si_miss_r5)


def test_criterion_9_random_probe_workflow(record_property):
    reps = 100
    master = np.random.SeedSequence(909)
    si_scores = []
    ufi_scores = []
    names = None
    for r, seed in enumerate(master.spawn(reps)):
        rng = np.random.default_rng(seed)
        raw = gen_signal(1000, 0.5, "classification", rng)
        raw = inject_random_feature(raw, seed=int(rng.integers(0, 2**31)))
        enc, encoder = dummy_encode(raw)
        config = ForestConfig(n_trees=20, seed=int(rng.integers(0, 2**31)),
                              tree=TreeConfig(max_depth=5))
        forest = fit(enc, config)
        names, si_f = fold_importances(si_forest(forest).scores, encoder)
        _, ufi_f = fold_importances(
            ufi_forest(forest, enc.X, enc.y).scores, encoder)
        si_scores.append(si_f)
        ufi_scores.append(ufi_f)
    si_scores = np.vstack(si_scores)
    ufi_scores = np.vstack(ufi_scores)
    probe = names.index("random")
    real = [i for i in range(len(names)) if i != probe]
    si_mean = si_scores.mean(axis=0)
    n_below_probe = int(np.sum(si_mean[real] < si_mean[probe]))
    ufi_probe = ufi_scores[:, probe]
    se = ufi_probe.std(ddof=1) / np.sqrt(reps)
    probe_near_zero = abs(ufi_probe.mean()) <= 3 * se
    _margin(record_property, "criterion_9.si_real_features_below_probe",
            n_below_probe, low=2)
    _margin(record_property, "criterion_9.ufi_probe.abs_mean_over_se",
            abs(ufi_probe.mean()) / se, high=3.0)
    print(f"  SI ranks probe above {n_below_probe} real features; "
          f"UFI probe mean {ufi_probe.mean():.3e} (3 SE {3 * se:.3e})")
    _report(9, "SI overrates the injected probe; UFI probe mean within "
               "3 SE of 0", n_below_probe >= 2 and probe_near_zero)


def test_criterion_10_determinism(tmp_path):
    (tmp_path / "data.csv").write_text(
        "x1,x2,label\n" + "\n".join(
            f"{i / 7:.4f},{'ab'[i % 2]},{i % 2}" for i in range(30)) + "\n")
    (tmp_path / "schema.json").write_text(json.dumps({
        "target": "label", "task": "classification",
        "kinds": {"x1": "continuous", "x2": {"categorical": 2}},
    }))
    runner = CliRunner()

    train_args = ["train", "--data", str(tmp_path / "data.csv"),
                  "--schema", str(tmp_path / "schema.json"),
                  "--trees", "5", "--seed", "21"]
    for out, extra in (("m1", []), ("m2", []), ("m3", ["--threads", "4"])):
        res = runner.invoke(cli_main, train_args
                            + extra + ["--out", str(tmp_path / out)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
    model_bytes = [(tmp_path / m / "model.json").read_bytes()
                   for m in ("m1", "m2", "m3")]
    models_identical = model_bytes[0] == model_bytes[1] == model_bytes[2]

    sim_args = ["simulate", "--scenario", "discrete10", "--task", "regression",
                "--n", "200", "--reps", "3", "--trees", "5", "--max-depth", "3",
                "--seed", "33", "--methods", "si,ufi"]
    for out, extra in (("s1", []), ("s2", ["--threads", "2"])):
        res = runner.invoke(cli_main, sim_args
                            + extra + ["--out", str(tmp_path / out)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
    sims_identical = (tmp_path / "s1" / "scores.csv").read_bytes() \
        == (tmp_path / "s2" / "scores.csv").read_bytes()

    imp_args = ["importance", "--data", str(tmp_path / "data.csv"),
                "--schema", str(tmp_path / "schema.json"),
                "--method", "ufi", "--trees", "5", "--seed", "44"]
    for out in ("i1", "i2"):
        res = runner.invoke(cli_main, imp_args + ["--out", str(tmp_path / out)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
    imps_identical = (tmp_path / "i1" / "scores.csv").read_bytes() \
        == (tmp_path / "i2" / "scores.csv").read_bytes()

    _report(10, "same seed gives byte-identical model files and score CSVs "
                "across runs and thread counts",
            models_identical and sims_identical and imps_identical)
