import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import assert_same_tree, reference_grow
from hypothesis import HealthCheck, given, settings, strategies as st

from ufitree import forest as forest_mod, tree as tree_mod
from ufitree.data import CONTINUOUS, Dataset, FeatureKind
from ufitree.forest import (
    Forest, ForestConfig, bootstrap_indices, draw_bag, fit, tree_rngs,
    worker_count,
)
from ufitree.importance import si_forest
from ufitree.tree import COLUMNS, TreeConfig, grow, grow_trees, sort_keys

SRC = os.path.dirname(os.path.dirname(forest_mod.__file__))


def _dataset(task="classification", n=120, p=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if task == "classification":
        y = (X[:, 0] + 0.5 * rng.standard_normal(n) > 0).astype(int)
        return Dataset(X, y, [f"x{j}" for j in range(p)],
                       [FeatureKind(CONTINUOUS)] * p, task, 2)
    y = X[:, 0] + rng.standard_normal(n)
    return Dataset(X, y, [f"x{j}" for j in range(p)],
                   [FeatureKind(CONTINUOUS)] * p, task)


class TestBootstrapIndices:
    def test_n_one_only_possibility(self):
        in_bag, oob = bootstrap_indices(1, np.random.default_rng(0))
        assert in_bag.tolist() == [0]
        assert oob.tolist() == []

    def test_fixed_seed_repeats(self):
        a = bootstrap_indices(50, np.random.default_rng(4))
        b = bootstrap_indices(50, np.random.default_rng(4))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_oob_fraction_matches_closed_form(self):
        # E|oob|/n = (1 - 1/n)^n for n draws with replacement
        rng = np.random.default_rng(11)
        n = 1000
        fracs = [len(bootstrap_indices(n, rng)[1]) / n for _ in range(200)]
        assert abs(np.mean(fracs) - (1 - 1 / n) ** n) < 0.01

    def test_partition_of_rows(self):
        rng = np.random.default_rng(2)
        in_bag, oob = bootstrap_indices(200, rng)
        assert set(in_bag) | set(oob) == set(range(200))
        assert set(in_bag) & set(oob) == set()


class TestFit:
    def test_single_tree_no_bootstrap_reduces_to_grow(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=1, bootstrap=False, seed=3,
                           tree=TreeConfig(max_depth=3,
                                           max_features="all"))
        f = fit(d, cfg)
        solo = grow(d.X, d.y, np.arange(d.n),
                    TreeConfig(max_depth=3, max_features="all"),
                    d.task, d.n_classes)
        assert f.trees[0].to_dict() == solo.to_dict()
        assert len(f.oob[0]) == 0

    def test_structural_invariants_with_bootstrap(self):
        d = _dataset(n=150)
        f = fit(d, ForestConfig(n_trees=20, seed=5,
                                tree=TreeConfig(max_depth=4)))
        assert f.n_trees == 20
        for in_bag, oob in zip(f.in_bag, f.oob):
            assert len(in_bag) == d.n
            assert len(oob) > 0
            assert set(in_bag) | set(oob) == set(range(d.n))
            assert set(in_bag) & set(oob) == set()

    def test_same_seed_same_importances(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=10, seed=9, tree=TreeConfig(max_depth=4))
        r1 = si_forest(fit(d, cfg))
        r2 = si_forest(fit(d, cfg))
        assert np.array_equal(r1.scores, r2.scores)

    def test_classification_defaults_to_sqrt_features(self):
        d = _dataset()
        cfg = ForestConfig(n_trees=1, seed=0, tree=TreeConfig(max_depth=2))
        assert fit(d, cfg).config.tree.max_features == "sqrt"
        reg = ForestConfig(n_trees=1, tree=TreeConfig(max_depth=2))
        assert fit(_dataset("regression"), reg).config.tree.max_features == "all"

    def test_regression_with_default_tree_config(self):
        # the impurity follows from the task, so TreeConfig() fits either task
        f = fit(_dataset("regression"), ForestConfig(n_trees=2, seed=0))
        assert f.task == "regression" and f.n_trees == 2

    def test_no_trees_rejected(self):
        with pytest.raises(ValueError, match="n_trees"):
            fit(_dataset(), ForestConfig(n_trees=0))


class TestWorkerCount:
    """The clamp is pure: none of these cases starts a process."""

    @pytest.mark.parametrize("jobs,n_trees,cpus,want", [
        (1, 100, 4, 1),
        (3, 100, 4, 3),
        (10**6, 100, 4, 4),
        (4, 2, 4, 2),
        (4, 1, 4, 1),
        (8, 100, None, 1),  # os.cpu_count() can be unknown
    ])
    def test_clamped_to_cpus_and_trees(self, monkeypatch, jobs, n_trees,
                                       cpus, want):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert worker_count(jobs, n_trees) == want

    @pytest.mark.parametrize("jobs", [0, -1, -(10**6)])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            worker_count(jobs, 10)
        with pytest.raises(ValueError, match="jobs"):
            fit(_dataset(n=20), ForestConfig(n_trees=2), jobs=jobs)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs whatever the machine has, so jobs=2 takes the pool path."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def test_fit_is_serial_when_platform_cannot_fork(two_cpus, monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    calls = []

    def recording_grow_trees(X, y, bags, *args, **kwargs):
        # a worker's append stays in the worker
        calls.append((os.getpid(), len(bags)))
        return grow_trees(X, y, bags, *args, **kwargs)

    monkeypatch.setattr(forest_mod, "grow_trees", recording_grow_trees)
    d = _dataset(n=60)
    cfg = ForestConfig(n_trees=5, seed=2, tree=TreeConfig(max_depth=3))
    f = fit(d, cfg, jobs=2)
    assert calls == [(os.getpid(), 5)]
    assert f.to_dict() == fit(d, cfg).to_dict()


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes need the fork start method")


@needs_fork
class TestParallelFit:
    @pytest.mark.parametrize("task,bootstrap,max_features", [
        ("classification", True, "sqrt"),
        ("regression", True, None),
        ("classification", False, "sqrt"),
        ("regression", False, 2),
    ])
    def test_two_workers_grow_the_serial_forest(self, two_cpus, task,
                                                bootstrap, max_features):
        d = _dataset(task, n=150)
        cfg = ForestConfig(n_trees=9, seed=13, bootstrap=bootstrap,
                           tree=TreeConfig(max_depth=6,
                                           max_features=max_features))
        assert worker_count(2, cfg.n_trees) == 2
        serial, pooled = fit(d, cfg, jobs=1), fit(d, cfg, jobs=2)
        assert json.dumps(pooled.to_dict()) == json.dumps(serial.to_dict())
        for a, b in zip(serial.trees, pooled.trees):
            for name in COLUMNS:
                x, y = getattr(a, name), getattr(b, name)
                assert (x is None and y is None) or (
                    x.dtype == y.dtype and np.array_equal(x, y)), name
        for got, want in zip(pooled.in_bag + pooled.oob,
                             serial.in_bag + serial.oob):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_worker_value_error_reaches_caller(self, two_cpus, monkeypatch):
        parent = os.getpid()

        def grow_failing_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("raised in a worker")
            return grow_trees(*args, **kwargs)

        monkeypatch.setattr(forest_mod, "grow_trees", grow_failing_in_workers)
        with pytest.raises(ValueError, match="raised in a worker"):
            fit(_dataset(n=40), ForestConfig(n_trees=4, seed=1), jobs=2)

    def test_dead_worker_raises_instead_of_hanging(self):
        # in a child interpreter, so that a hang is a timeout, not a stuck suite
        code = (
            "import os\n"
            "from ufitree import forest\n"
            "from ufitree.simgen import gen_null_mixed\n"
            "import numpy as np\n"
            "os.cpu_count = lambda: 2\n"
            "parent = os.getpid()\n"
            "grow_trees = forest.grow_trees\n"
            "def dying_grow_trees(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(1)\n"
            "    return grow_trees(*args, **kwargs)\n"
            "forest.grow_trees = dying_grow_trees\n"
            "d = gen_null_mixed(40, 'classification', np.random.default_rng(0))\n"
            "forest.fit(d, forest.ForestConfig(n_trees=4), jobs=2)\n")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                 filter(None, [SRC, os.environ.get("PYTHONPATH")]))})
        assert res.returncode != 0
        assert "BrokenProcessPool" in res.stderr, res.stderr


@st.composite
def forest_cases(draw):
    """A small dataset with tie-heavy columns, and a forest config."""
    task = draw(st.sampled_from(["classification"] * 3 + ["regression"]))
    n = draw(st.integers(3, 300))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # each column takes 2 levels up to n distinct values, so ties abound
    X = np.column_stack([
        rng.integers(0, draw(st.integers(2, max(2, n))), n) / 4.0
        for _ in range(p)])
    if task == "classification":
        k = draw(st.integers(2, 4))
        d = Dataset(X, rng.integers(0, k, n), [f"x{j}" for j in range(p)],
                    [FeatureKind(CONTINUOUS)] * p, task, k)
    else:
        d = Dataset(X, np.round(rng.standard_normal(n), 1),
                    [f"x{j}" for j in range(p)],
                    [FeatureKind(CONTINUOUS)] * p, task)
    tree = TreeConfig(
        max_depth=draw(st.one_of(st.none(), st.integers(0, 6))),
        min_samples_leaf=draw(st.integers(1, 5)),
        max_features=draw(st.one_of(st.sampled_from(["sqrt", "all"]),
                                    st.integers(1, p))))
    return d, ForestConfig(n_trees=draw(st.integers(1, 4)), tree=tree,
                           bootstrap=draw(st.booleans()),
                           seed=draw(st.integers(0, 2**16)))


@needs_fork
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=forest_cases())
def test_fit_grows_the_reference_trees(case):
    d, cfg = case
    rngs = tree_rngs(cfg)
    bags = [draw_bag(d.n, rng, cfg.bootstrap)[0] for rng in rngs]
    want = [reference_grow(d.X, d.y, rows, cfg.tree, d.task, d.n_classes,
                           rng=rng, keys=sort_keys(d.X))
            for rows, rng in zip(bags, rngs)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 2)
        for jobs in (1, 2):
            for got, expected in zip(fit(d, cfg, jobs=jobs).trees, want):
                assert_same_tree(got, expected)
    # keys=X.T, the fallback for data that uint16 ranks cannot hold, takes
    # the per-node scan for every node, and grows the same trees
    rngs = tree_rngs(cfg)
    bags = [draw_bag(d.n, rng, cfg.bootstrap)[0] for rng in rngs]
    for got, expected in zip(
            grow_trees(d.X, d.y, bags, rngs, cfg.tree, d.task, d.n_classes,
                       keys=d.X.T), want):
        assert_same_tree(got, expected)


@st.composite
def regression_cases(draw):
    """A tie-heavy regression dataset with unrounded targets, a forest
    config scanning all features or sqrt of them, and a SMALL_SCAN gate
    that puts no small node, some or all of them in the batch."""
    n = draw(st.integers(3, 300))
    p = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([
        rng.integers(0, draw(st.integers(2, max(2, n))), n) / 4.0
        for _ in range(p)])
    y = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    d = Dataset(X, y, [f"x{j}" for j in range(p)],
                [FeatureKind(CONTINUOUS)] * p, "regression")
    tree = TreeConfig(
        max_depth=draw(st.one_of(st.none(), st.integers(0, 8))),
        min_samples_leaf=draw(st.integers(1, 5)),
        max_features=draw(st.sampled_from(["all", "sqrt"])))
    cfg = ForestConfig(n_trees=draw(st.integers(1, 4)), tree=tree,
                       bootstrap=draw(st.booleans()),
                       seed=draw(st.integers(0, 2**16)))
    return d, cfg, draw(st.sampled_from([0, 60, tree_mod.SMALL_SCAN, 10**6]))


@needs_fork
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=regression_cases())
def test_fit_grows_the_reference_regression_trees(case):
    d, cfg, gate = case
    rngs = tree_rngs(cfg)
    bags = [draw_bag(d.n, rng, cfg.bootstrap)[0] for rng in rngs]
    want = [reference_grow(d.X, d.y, rows, cfg.tree, d.task, rng=rng,
                           keys=sort_keys(d.X))
            for rows, rng in zip(bags, rngs)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "cpu_count", lambda: 2)
        mp.setattr(tree_mod, "SMALL_SCAN", gate)  # forked workers inherit it
        for jobs in (1, 2):
            for got, expected in zip(fit(d, cfg, jobs=jobs).trees, want):
                assert_same_tree(got, expected)


def test_small_regression_nodes_scan_on_both_sides_of_the_gate(monkeypatch):
    """With 20 features, nodes of at most 32 rows scan in the batch, and
    nodes of 33 to 64 rows, like larger ones, scan one at a time; both
    grow the reference trees."""
    d = _dataset("regression", n=300, p=20, seed=4)
    cfg = ForestConfig(n_trees=3, seed=9)
    batched, alone = [], []
    scan_segments, best_split = tree_mod._scan_segments, tree_mod.best_split

    def recording_scan_segments(X, keys, y, nodes, *args):
        batched.extend(len(rows) for rows, _, _ in nodes)
        return scan_segments(X, keys, y, nodes, *args)

    def recording_best_split(X, y, idx, *args):
        alone.append(len(idx))
        return best_split(X, y, idx, *args)

    monkeypatch.setattr(tree_mod, "_scan_segments", recording_scan_segments)
    monkeypatch.setattr(tree_mod, "best_split", recording_best_split)
    got = fit(d, cfg).trees
    monkeypatch.undo()
    assert batched and max(batched) == tree_mod.SMALL_SCAN // 20
    assert any(33 <= n <= tree_mod.SMALL_NODE for n in alone)
    assert any(n > tree_mod.SMALL_NODE for n in alone)
    rngs = tree_rngs(cfg)
    for tree, rng in zip(got, rngs):
        rows = draw_bag(d.n, rng, cfg.bootstrap)[0]
        assert_same_tree(tree, reference_grow(d.X, d.y, rows, cfg.tree,
                                              d.task, rng=rng))


class TestPredict:
    def test_identical_single_leaf_trees(self):
        d = _dataset(n=30)
        cfg = ForestConfig(n_trees=5, bootstrap=False, seed=1,
                           tree=TreeConfig(max_depth=0, max_features="all"))
        f = fit(d, cfg)
        proba = f.predict_proba(d.X[:3])
        expected = np.bincount(d.y, minlength=2) / d.n
        for row in proba:
            assert row == pytest.approx(expected.tolist())

    def test_regression_mean_of_trees(self):
        d = _dataset("regression", n=40)
        f = fit(d, ForestConfig(n_trees=7, seed=2,
                                tree=TreeConfig(max_depth=3)))
        pred = f.predict(d.X[:5])
        manual = np.mean([t.predict(d.X[:5]) for t in f.trees], axis=0)
        assert pred == pytest.approx(manual.tolist())

    def test_probabilities_on_simplex(self):
        d = _dataset(n=80)
        f = fit(d, ForestConfig(n_trees=10, seed=6,
                                tree=TreeConfig(max_depth=4)))
        proba = f.predict_proba(d.X)
        assert np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(proba >= 0)


class TestSerialization:
    def test_round_trip(self):
        d = _dataset(n=60)
        for bootstrap in (True, False):
            f = fit(d, ForestConfig(n_trees=4, seed=8, bootstrap=bootstrap,
                                    tree=TreeConfig(max_depth=3)))
            payload = json.loads(json.dumps(f.to_dict()))
            assert "in_bag" not in payload and "oob" not in payload
            clone = Forest.from_dict(payload)
            assert np.array_equal(clone.predict(d.X), f.predict(d.X))
            assert clone.to_dict() == f.to_dict()
            for got, want in zip(clone.in_bag + clone.oob, f.in_bag + f.oob):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("key,value", [
        ("bag_sha256", "0" * 64),
        ("n_rows", 59),
        ("n_rows", 0),
    ])
    def test_tampered_bags_rejected(self, key, value):
        d = _dataset(n=60)
        payload = fit(d, ForestConfig(n_trees=3, seed=8,
                                      tree=TreeConfig(max_depth=2))).to_dict()
        payload[key] = value
        with pytest.raises(ValueError):
            Forest.from_dict(payload)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            Forest.from_dict({"version": "nope/0"})
        with pytest.raises(ValueError, match="ufiforest/2"):
            Forest.from_dict({"version": "ufiforest/2"})
        # v3 recorded a criterion that v4 no longer has; refuse, do not guess
        with pytest.raises(ValueError, match="ufiforest/3"):
            Forest.from_dict({"version": "ufiforest/3"})

