import itertools
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
from ufitree.data import (
    CATEGORICAL, CONTINUOUS, Dataset, Encoder, FeatureKind, dummy_encode,
)
from ufitree.forest import (
    Forest, ForestConfig, bootstrap_indices, draw_bags, fit, worker_count,
)
from ufitree.importance import permutation_importance, si_forest, ufi_forest
from ufitree.tree import COLUMNS, TreeConfig, grow, grow_trees, sort_keys

SRC = os.path.dirname(os.path.dirname(forest_mod.__file__))


def _patch_cpus(mp, count):
    """Make ``count`` CPUs usable, whatever the machine has: fit reads the
    affinity mask, or the host's count where the platform has no mask.
    None is a platform with no mask whose host count is unknown."""
    mp.setattr(os, "cpu_count", lambda: count)
    if count is None:
        mp.delattr(os, "sched_getaffinity", raising=False)
    else:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                   raising=False)


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

    def test_oob_is_the_sorted_complement(self):
        # the reference: np.setdiff1d, which bootstrap_indices once called
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 1000):
            in_bag, oob = bootstrap_indices(n, rng)
            want = np.setdiff1d(np.arange(n), in_bag)
            assert oob.dtype == want.dtype and np.array_equal(oob, want)

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
        assert_same_tree(f.trees[0], solo)
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
        _patch_cpus(monkeypatch, cpus)
        assert worker_count(jobs, n_trees) == want

    def test_clamped_to_the_affinity_mask(self, monkeypatch):
        # a process pinned to one of 8 CPUs (taskset -c 0) forks no worker
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert worker_count(8, 100) == 1

    def test_host_count_where_there_is_no_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert worker_count(8, 100) == 4

    @pytest.mark.parametrize("jobs", [0, -1, -(10**6)])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            worker_count(jobs, 10)
        with pytest.raises(ValueError, match="jobs"):
            fit(_dataset(n=20), ForestConfig(n_trees=2), jobs=jobs)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs whatever the machine has, so jobs=2 takes the worker path."""
    _patch_cpus(monkeypatch, 2)


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
    def test_two_workers_grow_the_serial_forest(self, monkeypatch, task,
                                                bootstrap, max_features):
        # 2 to 4 workers on 2, 3 or 9 trees: uneven shares and one-tree shares
        d = _dataset(task, n=150)
        for n_trees in (2, 3, 9):
            cfg = ForestConfig(n_trees=n_trees, seed=13, bootstrap=bootstrap,
                               tree=TreeConfig(max_depth=6,
                                               max_features=max_features))
            serial = fit(d, cfg, jobs=1)
            for cpus in (2, 3, 4):
                _patch_cpus(monkeypatch, cpus)
                assert worker_count(cpus, n_trees) == min(cpus, n_trees)
                pooled = fit(d, cfg, jobs=cpus)
                assert not multiprocessing.active_children()
                assert (json.dumps(pooled.to_dict())
                        == json.dumps(serial.to_dict()))
                for a, b in zip(serial.trees, pooled.trees):
                    for name in COLUMNS:
                        x, y = getattr(a, name), getattr(b, name)
                        assert (x is None and y is None) or (
                            x.dtype == y.dtype and np.array_equal(x, y)), name
                for got, want in zip(pooled.in_bag + pooled.oob,
                                     serial.in_bag + serial.oob):
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want)

    def test_worker_value_error_reaches_caller(self, two_cpus, monkeypatch):
        parent = os.getpid()

        def grow_failing_in_workers(*args, **kwargs):
            if os.getpid() != parent:
                raise ValueError("raised in a worker")
            return grow_trees(*args, **kwargs)

        monkeypatch.setattr(forest_mod, "grow_trees", grow_failing_in_workers)
        with pytest.raises(ValueError, match="raised in a worker"):
            fit(_dataset(n=40), ForestConfig(n_trees=4, seed=1), jobs=2)
        assert not multiprocessing.active_children()

    def test_error_after_part_of_a_share_reaches_caller(self, two_cpus,
                                                        monkeypatch):
        parent = os.getpid()

        def grow_failing_after_one_tree(*args, **kwargs):
            trees = grow_trees(*args, **kwargs)
            if os.getpid() != parent:
                yield trees[0]  # sent to the parent before the raise
                raise ValueError("raised after one tree")
            yield from trees

        monkeypatch.setattr(forest_mod, "grow_trees",
                            grow_failing_after_one_tree)
        with pytest.raises(ValueError, match="raised after one tree") as info:
            fit(_dataset(n=40), ForestConfig(n_trees=6, seed=1), jobs=2)
        # the worker's traceback comes along as the cause
        assert "grow_failing_after_one_tree" in str(info.value.__cause__)
        assert not multiprocessing.active_children()

    def test_bags_are_drawn_in_the_parent(self, two_cpus, monkeypatch):
        # so that the traced benchmark sees every bootstrap draw
        drawn = []

        def recording_bootstrap(n, rng):
            drawn.append(os.getpid())
            return bootstrap_indices(n, rng)

        monkeypatch.setattr(forest_mod, "bootstrap_indices",
                            recording_bootstrap)
        fit(_dataset(n=40), ForestConfig(n_trees=5, seed=1), jobs=2)
        assert drawn == [os.getpid()] * 5

    def test_dead_worker_raises_instead_of_hanging(self):
        # in a child interpreter, so that a hang is a timeout, not a stuck suite
        code = (
            "import os\n"
            "from ufitree import forest\n"
            "from ufitree.simgen import gen_null_mixed\n"
            "import numpy as np\n"
            "os.cpu_count = lambda: 2\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
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
                                    st.integers(1, p), st.floats(0.05, 1.0))))
    return d, ForestConfig(n_trees=draw(st.integers(1, 4)), tree=tree,
                           bootstrap=draw(st.booleans()),
                           seed=draw(st.integers(0, 2**16)))


@needs_fork
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=forest_cases())
def test_fit_grows_the_reference_trees(case):
    d, cfg = case
    rngs, bags, _ = draw_bags(d.n, cfg)
    want = [reference_grow(d.X, d.y, rows, cfg.tree, d.task, d.n_classes,
                           rng=rng, keys=sort_keys(d.X))
            for rows, rng in zip(bags, rngs)]
    with pytest.MonkeyPatch.context() as mp:
        _patch_cpus(mp, 2)
        for jobs in (1, 2):
            for got, expected in zip(fit(d, cfg, jobs=jobs).trees, want):
                assert_same_tree(got, expected)


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_fits_on_more_rows_than_uint16_ranks_grow_the_reference_trees(task):
    """70,000 rows take uint32 sort keys, and regression trees uint32
    presorted row ids; trees 12 deep scan nodes of many sizes together,
    drawing the task's default subsets, sqrt of the 4 features, a count
    of them or a fraction."""
    n = 70_000
    rng = np.random.default_rng(21)
    X = np.column_stack([rng.permutation(n) / 8.0 - 4000.0,
                         rng.integers(0, 40, n) / 2.0])
    y = rng.integers(0, 3, n) if task == "classification" \
        else rng.standard_normal(n)
    more = np.random.default_rng(22)
    X = np.column_stack([X, more.integers(0, 7, n) * 1.5,
                         np.round(more.standard_normal(n), 2)])
    names, kinds = [f"x{j}" for j in range(4)], [FeatureKind(CONTINUOUS)] * 4
    d = Dataset(X, y, names, kinds, task, 3 if task == "classification" else None)
    assert sort_keys(d.X).dtype == np.uint32
    for max_features in (None, "sqrt", 3, 0.25):
        cfg = ForestConfig(n_trees=2, seed=8, tree=TreeConfig(
            max_depth=12, max_features=max_features))
        got = fit(d, cfg).trees
        for tree, (rng, rows) in zip(got, zip(*draw_bags(d.n, cfg)[:2])):
            assert_same_tree(tree, reference_grow(d.X, d.y, rows, cfg.tree,
                                                  d.task, d.n_classes, rng=rng))
            assert (tree.n[~tree.is_leaf] <= 64).any()


@st.composite
def regression_cases(draw):
    """A tie-heavy regression dataset with unrounded targets, a forest
    config scanning all features, sqrt of them, a count or a fraction of
    them, and a presort budget
    that grows every tree in a group of its own, some trees together or
    all of them in one group."""
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
        max_features=draw(st.sampled_from(["all", "sqrt"]) | st.integers(1, p)
                          | st.floats(0.05, 1.0)))
    cfg = ForestConfig(n_trees=draw(st.integers(1, 4)), tree=tree,
                       bootstrap=draw(st.booleans()),
                       seed=draw(st.integers(0, 2**16)))
    return d, cfg, draw(st.sampled_from([1, 5000, tree_mod.PRESORT_VALUES]))


@needs_fork
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=regression_cases())
def test_fit_grows_the_reference_regression_trees(case):
    d, cfg, budget = case
    rngs, bags, _ = draw_bags(d.n, cfg)
    want = [reference_grow(d.X, d.y, rows, cfg.tree, d.task, rng=rng,
                           keys=sort_keys(d.X))
            for rows, rng in zip(bags, rngs)]
    with pytest.MonkeyPatch.context() as mp:
        _patch_cpus(mp, 2)
        mp.setattr(tree_mod, "PRESORT_VALUES", budget)  # forked workers inherit it
        for jobs in (1, 2):
            for got, expected in zip(fit(d, cfg, jobs=jobs).trees, want):
                assert_same_tree(got, expected)


def test_a_level_of_every_size_class_grows_the_reference_trees(monkeypatch):
    """Unlimited regression trees on 600 rows reach a level whose scan
    holds nodes of every size class from 2 rows to 129-256 rows. Each scan
    block holds one node, or several over half as large as its largest
    that, padded to its rows, hold at most SCAN_VALUES values; some hold
    several. The trees are the reference trees."""
    d = _dataset("regression", n=600, p=20, seed=4)
    cfg = ForestConfig(n_trees=3, seed=9)
    calls, blocks = [], []
    scan, block = tree_mod._scan_regression, tree_mod._scan_block

    def recording_scan(X, y, pairs, n, *args):
        calls.append(n.copy())
        return scan(X, y, pairs, n, *args)

    def recording_block(X, y, pairs, n, base, mean, imp, feats, msl, nodes, out):
        blocks.append((n[nodes], feats.shape[1]))
        return block(X, y, pairs, n, base, mean, imp, feats, msl, nodes, out)

    monkeypatch.setattr(tree_mod, "_scan_regression", recording_scan)
    monkeypatch.setattr(tree_mod, "_scan_block", recording_block)
    monkeypatch.setattr(tree_mod, "best_split", None)  # the grower never calls it
    got = fit(d, cfg).trees
    monkeypatch.undo()
    classes = [set(np.frexp(n - 1.0)[1].tolist()) for n in calls]
    assert any(c >= set(range(1, 9)) for c in classes), classes
    for size, k in blocks:
        top = int(size.max())
        assert len(size) == 1 or (2 * size.min() > top
                                  and len(size) * k * top <= tree_mod.SCAN_VALUES)
    assert max(len(size) for size, _ in blocks) > 1
    for tree, (rng, rows) in zip(got, zip(*draw_bags(d.n, cfg)[:2])):
        assert_same_tree(tree, reference_grow(d.X, d.y, rows, cfg.tree, d.task,
                                              rng=rng))


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

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_non_finite_row_rejected(self, task):
        d = _dataset(task, n=40)
        f = fit(d, ForestConfig(n_trees=3, seed=2, tree=TreeConfig(max_depth=3)))
        X = d.X[:5].copy()
        X[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            f.predict(X)

    def test_probabilities_on_simplex(self):
        d = _dataset(n=80)
        f = fit(d, ForestConfig(n_trees=10, seed=6,
                                tree=TreeConfig(max_depth=4)))
        proba = f.predict_proba(d.X)
        assert np.all(np.abs(proba.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(proba >= 0)


def _coded(task, categorical, n=60):
    """_dataset's columns, with a categorical column of three levels
    appended if ``categorical``, and their coding."""
    d = _dataset(task, n=n)
    if categorical:
        level = np.random.default_rng(1).integers(0, 3, n)
        d = Dataset(np.column_stack([d.X, level]), d.y, d.feature_names + ["c"],
                    d.kinds + [FeatureKind(CATEGORICAL, ("a", "b", "c"))],
                    task, d.n_classes)
    return dummy_encode(d)


def _payload(task="classification"):
    """A 4-tree model file's contents, as JSON reads them back."""
    f = fit(_dataset(task, n=60), ForestConfig(n_trees=4, seed=8,
                                              tree=TreeConfig(max_depth=2)))
    return json.loads(json.dumps(f.to_dict()))


def _stored_tree(task, feature, **columns):
    """A stored tree with these features, plausible other facts at every
    node, and the given columns in place of those."""
    m = len(feature)
    tree = {"feature": feature, "threshold": [0.5] * m}
    if task == "classification":
        tree["class_counts"] = [[1, 1]] * m
    else:
        tree.update(n=[2] * m, mean=[0.0] * m, impurity=[0.25] * m)
    return {**tree, **columns}


def _load_with(task, tree):
    """Load a model file whose tree 2 is ``tree``."""
    payload = _payload(task)
    payload["trees"][2] = tree
    return Forest.from_dict(payload)


class TestSerialization:
    def test_round_trip(self):
        """fit, the model file, then load: every tree's nine columns come
        back to the bit, and si, ufi and permutation score the same bits,
        for both tasks, with and without a categorical column, with and
        without bootstrap. The coding comes back too."""
        for task, categorical, bootstrap in itertools.product(
                ("classification", "regression"), (False, True), (True, False)):
            enc, encoder = _coded(task, categorical)
            f = fit(enc, ForestConfig(n_trees=4, seed=8, bootstrap=bootstrap,
                                      tree=TreeConfig(max_depth=6)))
            payload = json.loads(json.dumps({**f.to_dict(), **encoder.to_dict()}))
            assert "in_bag" not in payload and "oob" not in payload
            clone = Forest.from_dict(payload)
            assert Encoder.from_dict(payload) == encoder
            for got, want in zip(clone.trees, f.trees):
                assert_same_tree(got, want)
            assert clone.predict(enc.X).tobytes() == f.predict(enc.X).tobytes()
            assert clone.to_dict() == f.to_dict()
            for got, want in zip(clone.in_bag + clone.oob, f.in_bag + f.oob):
                assert np.array_equal(got, want)
            # out-of-bag rows need a bootstrap; without one, the training
            # rows are scored as a test set
            test = () if bootstrap else (enc.X, enc.y)
            for score in (si_forest, lambda m: ufi_forest(m, enc.X, enc.y, *test),
                          lambda m: permutation_importance(m, enc.X, enc.y, 5, *test)):
                got, want = score(clone), score(f)
                assert got.scores.tobytes() == want.scores.tobytes()
                assert (got.per_tree is None and want.per_tree is None) or \
                    got.per_tree.tobytes() == want.per_tree.tobytes()

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_children_and_decreases_follow_from_the_facts(self, task):
        """A stored tree holds no children, and for classification no row
        counts or impurities: its preorder and class counts fix them."""
        if task == "classification":
            tree = _stored_tree(task, [0, 1, -1, -1, -1], class_counts=[
                [3, 2], [3, 1], [3, 0], [0, 1], [0, 1]])
            imp = [0.48, 0.375, 0.0, 0.0, 0.0]
        else:
            imp = [0.5, 0.25, 0.0, 0.0, 0.0]
            tree = _stored_tree(task, [0, 1, -1, -1, -1], n=[5, 4, 3, 1, 1],
                                impurity=imp)
        got = _load_with(task, tree).trees[2]
        assert got.left.tolist() == [1, 2, -1, -1, -1]
        assert got.right.tolist() == [4, 3, -1, -1, -1]
        assert got.n.tolist() == [5, 4, 3, 1, 1]
        assert got.impurity.tolist() == pytest.approx(imp)
        assert got.train_decrease.tolist() == pytest.approx(
            [imp[0] - 4 / 5 * imp[1], 4 / 5 * imp[1], 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("feature", [[0, -1], [-1, -1, -1], [0, -1, -1, -1],
                                         [0, 0, -1, -1], []])
    def test_features_not_a_full_binary_preorder_rejected(self, task, feature):
        with pytest.raises(ValueError, match="tree 2"):
            _load_with(task, _stored_tree(task, feature))

    @pytest.mark.parametrize("index", [4, 9, -2])
    def test_feature_index_out_of_range_rejected(self, index):
        """The model's trees split on features 0 to 3."""
        with pytest.raises(ValueError, match=r"tree 2: a feature outside \[-1, 4\)"):
            _load_with("classification",
                       _stored_tree("classification", [index, -1, -1]))

    @pytest.mark.parametrize("task,column,value", [
        ("classification", "threshold", [0.5, 0.5]),
        ("classification", "class_counts", [[1, 1]] * 4),
        ("classification", "class_counts", [[1, 1, 1]] * 3),
        ("regression", "n", [2, 2]),
        ("regression", "mean", [0.0] * 4),
        ("regression", "impurity", [0.0]),
    ])
    def test_columns_of_unequal_length_rejected(self, task, column, value):
        with pytest.raises(ValueError, match=f"tree 2: {column} has shape"):
            _load_with(task, _stored_tree(task, [0, -1, -1], **{column: value}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, value):
        with pytest.raises(ValueError, match="tree 2: a non-finite threshold"):
            _load_with("regression", _stored_tree(
                "regression", [0, -1, -1], threshold=[value, 0.0, 0.0]))

    @pytest.mark.parametrize("task,column,value", [
        ("classification", "class_counts", [[1, 1], [2, -1], [0, 1]]),
        ("classification", "class_counts", [[1, 1], [0, 0], [1, 1]]),
        ("regression", "n", [2, 0, 2]),
        ("regression", "n", [2, 2, -3]),
    ])
    def test_bad_node_counts_rejected(self, task, column, value):
        with pytest.raises(ValueError, match="tree 2: a node count below 1 or "
                                             "a negative class count"):
            _load_with(task, _stored_tree(task, [0, -1, -1], **{column: value}))

    def test_a_cycle_through_stored_children_cannot_be_written(self):
        """ufiforest/4 stored each node's children: a file whose left[0]
        was 0 loaded, and then Forest.predict never returned. Now a tree's
        children follow from its preorder, each after its parent, and a
        file that holds a children column is refused."""
        payload = _payload()
        payload["trees"][2]["left"] = [0] * len(payload["trees"][2]["feature"])
        with pytest.raises(ValueError, match="tree 2: columns"):
            Forest.from_dict(payload)
        for tree in Forest.from_dict(_payload()).trees:
            inner = np.flatnonzero(tree.feature >= 0)
            assert (tree.left[inner] == inner + 1).all()
            assert (tree.right[inner] > tree.left[inner]).all()

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

    @pytest.mark.parametrize("edit", [
        lambda trees: trees.pop(1),
        lambda trees: trees.append(dict(trees[0])),
    ], ids=["tree-deleted", "tree-added"])
    def test_trees_that_do_not_match_the_forest_rejected(self, edit):
        """A deleted tree would have each later tree scored on the out-of-bag
        rows of the tree before it, which are partly in its bag."""
        d = _dataset(n=60)
        payload = fit(d, ForestConfig(n_trees=5, seed=8,
                                      tree=TreeConfig(max_depth=2))).to_dict()
        edit(payload["trees"])
        with pytest.raises(ValueError, match="tree"):
            Forest.from_dict(payload)

    @pytest.mark.parametrize("task", ["survival", "Classification", None])
    def test_unknown_task_rejected(self, task):
        """Such a file once raised KeyError from the lookup of its facts."""
        payload = _payload()
        payload["task"] = task
        with pytest.raises(ValueError, match=f"unknown task {task!r}"):
            Forest.from_dict(payload)

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            Forest.from_dict({"version": "nope/0"})
        with pytest.raises(ValueError, match="ufiforest/2"):
            Forest.from_dict({"version": "ufiforest/2"})
        # v3 recorded a criterion that v4 no longer has; refuse, do not guess
        with pytest.raises(ValueError, match="ufiforest/3"):
            Forest.from_dict({"version": "ufiforest/3"})
        # v4 stored columns that v5 derives; its reader is gone
        with pytest.raises(ValueError, match="ufiforest/4"):
            Forest.from_dict({"version": "ufiforest/4"})
