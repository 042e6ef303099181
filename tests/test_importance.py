from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    random_instance, reference_permutation_importance, reference_permuted_loss,
    reference_ufi_regression,
)
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ufitree import importance as importance_mod
from ufitree.data import CONTINUOUS, Dataset, FeatureKind
from ufitree.forest import ForestConfig, fit
from ufitree.importance import (
    _route_test, permutation_importance, segment_sums, si_forest, si_tree,
    ufi_forest, ufi_tree_classification, ufi_tree_regression,
)
from ufitree.tree import (
    TreeConfig, _node_stats, grow, predictive_gini,
    root_weighted_decrease,
)

FOUR_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FOUR_Y = np.array([0, 0, 1, 1])


def _grow(X, y, task, **kw):
    n_classes = int(np.max(y)) + 1 if task == "classification" else None
    return grow(X, y, np.arange(len(y)), TreeConfig(**kw), task, n_classes)


def _dataset(task, n=100, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if task == "classification":
        y = (X[:, 0] > 0).astype(int)
        return Dataset(X, y, [f"x{j}" for j in range(p)],
                       [FeatureKind(CONTINUOUS)] * p, task, 2)
    return Dataset(X, X[:, 0] + rng.standard_normal(n),
                   [f"x{j}" for j in range(p)],
                   [FeatureKind(CONTINUOUS)] * p, task)


class TestSiTree:
    def test_single_leaf_all_zero(self):
        tree = _grow(FOUR_X, FOUR_Y, "classification", max_depth=0)
        assert si_tree(tree).tolist() == [0.0]

    def test_pure_split_equals_root_decrease(self):
        tree = _grow(FOUR_X, FOUR_Y, "classification")
        assert si_tree(tree).tolist() == pytest.approx([0.5])

    def test_total_equals_decomposition(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((80, 4))
        y = rng.integers(0, 2, size=80)
        tree = _grow(X, y, "classification", max_depth=4)
        leaf = tree.is_leaf
        expected = tree.n[0] / tree.n_root * tree.impurity[0] \
            - (tree.n[leaf] / tree.n_root * tree.impurity[leaf]).sum()
        assert si_tree(tree).sum() == pytest.approx(expected, abs=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for task in ("classification", "regression"):
            X, y, _ = random_instance(rng, task)
            assert np.all(si_tree(_grow(X, y, task)) >= 0.0)


class TestSiForest:
    def test_copies_of_one_tree(self):
        d = _dataset("classification")
        cfg = ForestConfig(n_trees=5, bootstrap=False, seed=0,
                           tree=TreeConfig(max_depth=3, max_features="all"))
        f = fit(d, cfg)
        report = si_forest(f)
        assert report.scores == pytest.approx(si_tree(f.trees[0]).tolist())

    def test_forest_linearity_exact(self):
        d = _dataset("regression")
        f = fit(d, ForestConfig(n_trees=9, seed=4,
                                tree=TreeConfig(max_depth=3)))
        report = si_forest(f)
        assert np.array_equal(report.scores, report.per_tree.mean(axis=0))


class TestPredictiveGini:
    def test_reduces_to_gini_when_equal(self):
        assert predictive_gini(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.5
        p = np.array([0.3, 0.7])
        assert predictive_gini(p, p) == pytest.approx(1 - 0.3**2 - 0.7**2)

    def test_disjoint_masses(self):
        assert predictive_gini(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


class TestUfiReductions:
    def test_classification_test_equals_train_is_si(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X, y, k = random_instance(rng, "classification")
            tree = _grow(X, y, "classification", max_depth=4)
            scores, skipped, terms = ufi_tree_classification(
                X_test=X, y_test=y, tree=tree)
            assert skipped == 0
            assert np.array_equal(scores, si_tree(tree))
            inner = ~tree.is_leaf
            assert np.array_equal(terms[inner], tree.train_decrease[inner])

    def test_regression_test_equals_train_is_twice_si(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            X, y, _ = random_instance(rng, "regression")
            tree = _grow(X, y, "regression", max_depth=4)
            scores, skipped, terms = ufi_tree_regression(
                X_test=X, y_test=y, tree=tree)
            assert skipped == 0
            assert np.array_equal(scores, 2.0 * si_tree(tree))
            inner = ~tree.is_leaf
            assert np.array_equal(terms[inner], 2.0 * tree.train_decrease[inner])

    def test_test_label_outside_classes_rejected(self):
        tree = _grow(FOUR_X, FOUR_Y, "classification")
        with pytest.raises(ValueError):
            ufi_tree_classification(tree, FOUR_X, np.array([0, 1, 2, 1]))

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_y_test_length_mismatch_rejected(self, task):
        y = FOUR_Y if task == "classification" else FOUR_Y.astype(float)
        tree = _grow(FOUR_X, y, task)
        ufi = ufi_tree_classification if task == "classification" \
            else ufi_tree_regression
        with pytest.raises(ValueError, match="y_test has 4 entries for 3"):
            ufi(tree, FOUR_X[:3], y)

    def test_empty_test_set_all_zero_all_skipped(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 2))
        y = rng.integers(0, 2, size=50)
        tree = _grow(X, y, "classification", max_depth=3)
        scores, skipped, _ = ufi_tree_classification(tree, np.empty((0, 2)),
                                                     np.empty(0, dtype=int))
        assert np.array_equal(scores, np.zeros(2))
        assert skipped == np.count_nonzero(~tree.is_leaf)

    def test_forest_reduction_to_si(self):
        d = _dataset("classification")
        cfg = ForestConfig(n_trees=1, bootstrap=False, seed=1,
                           tree=TreeConfig(max_depth=3, max_features="all"))
        f = fit(d, cfg)
        ufi = ufi_forest(f, d.X, d.y, X_test=d.X, y_test=d.y)
        assert np.array_equal(ufi.scores, si_forest(f).scores)


class TestUfiForest:
    def test_oob_requires_bootstrap(self):
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=2, bootstrap=False, seed=0,
                                tree=TreeConfig(max_depth=2)))
        with pytest.raises(ValueError):
            ufi_forest(f, d.X, d.y)

    def test_linearity_exact(self):
        d = _dataset("regression")
        f = fit(d, ForestConfig(n_trees=6, seed=2,
                                tree=TreeConfig(max_depth=3)))
        report = ufi_forest(f, d.X, d.y)
        assert np.array_equal(report.scores, report.per_tree.mean(axis=0))

    def test_column_mismatch_rejected(self):
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=2, seed=3, tree=TreeConfig(max_depth=2)))
        with pytest.raises(ValueError):
            ufi_forest(f, d.X, d.y, X_test=np.zeros((4, d.p + 1)),
                       y_test=np.zeros(4, dtype=int))

    @pytest.mark.parametrize("given", ["X_test", "y_test"])
    def test_half_a_test_set_rejected(self, given):
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=2, seed=3, tree=TreeConfig(max_depth=2)))
        half = {"X_test": d.X} if given == "X_test" else {"y_test": d.y}
        with pytest.raises(ValueError, match="neither"):
            ufi_forest(f, d.X, d.y, **half)
        with pytest.raises(ValueError, match="neither"):
            permutation_importance(f, d.X, d.y, rng=0, **half)

    @pytest.mark.parametrize("score", ["ufi", "permutation"])
    def test_oob_rows_must_be_the_training_rows(self, score):
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=5, seed=3, tree=TreeConfig(max_depth=2)))
        other = _dataset("classification", n=150, seed=1)
        run = ufi_forest if score == "ufi" else permutation_importance
        with pytest.raises(ValueError, match="needs the 100 training rows"):
            run(f, other.X, other.y)
        with pytest.raises(ValueError, match="got 100 rows and 99 labels"):
            run(f, d.X, d.y[:99])

    @pytest.mark.parametrize("score", ["ufi", "permutation"])
    def test_non_finite_test_row_rejected(self, score):
        """A NaN compares False with every threshold, so its row would go
        right at every node."""
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=3, seed=3, tree=TreeConfig(max_depth=2)))
        X_test = d.X[:5].copy()
        X_test[2, 1] = np.nan
        run = ufi_forest if score == "ufi" else permutation_importance
        with pytest.raises(ValueError, match="finite"):
            run(f, d.X, d.y, X_test=X_test, y_test=d.y[:5])


class TestLemmaUnbiasedness:
    """Monte Carlo checks that single-split corrected decreases center on 0
    when the target is independent of the split feature."""

    def _mc(self, task, draws=400, n=60, seed=100):
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(draws):
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
        return np.array(vals)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_mean_within_three_se_of_zero(self, task):
        vals = self._mc(task)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean()) < 3 * se


class TestWeightIdentity:
    def test_exact_on_rational_counts(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((60, 3))
        y = rng.integers(0, 2, size=60)
        tree = _grow(X, y, "classification", max_depth=4)
        n_root = tree.n_root
        n = [int(v) for v in tree.n]
        counts = tree.class_counts.tolist()
        for node in np.flatnonzero(~tree.is_leaf):
            lo, hi = tree.left[node], tree.right[node]
            for k in range(2):
                lhs = Fraction(n[node], n_root) * Fraction(counts[node][k], n[node])
                rhs = (Fraction(n[lo], n_root) * Fraction(counts[lo][k], n[lo])
                       + Fraction(n[hi], n_root) * Fraction(counts[hi][k], n[hi]))
                assert lhs == rhs


def test_regression_node_sums_follow_one_rule(monkeypatch):
    """Every regression node statistic sums by one rule. segment_sums gives
    an empty segment 0.0, and any other the bits of np.add.reduceat over it
    alone; _node_stats gives each group the bits of np.add.reduceat calls
    of its own; and
    ufi_tree_regression, scoring a tree on its own in-bag rows, gets back
    each node's impurity as its test impurity h."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(400) * 10.0 ** rng.integers(-3, 4, 400)
    lens = [0, 1, 0, 0, 7, 8, 9, 0, 128, 129, 118, 0]
    offsets = np.r_[0, np.cumsum(lens)]
    want = [np.add.reduceat(values[a:b], [0])[0] if b > a else 0.0
            for a, b in zip(offsets[:-1], offsets[1:])]
    assert segment_sums(values, offsets).tobytes() == np.array(want).tobytes()

    sizes = np.array([1, 2, 7, 8, 9, 128, 129, 300])
    rows = rng.integers(0, len(values), sizes.sum())
    want = []
    for v in np.split(values[rows], np.cumsum(sizes)[:-1]):
        mean = np.add.reduceat(v, [0])[0] / len(v)
        dev = v - mean
        want.append((mean, np.add.reduceat(dev * dev, [0])[0] / len(v)))
    for column, expected in zip(_node_stats(values, rows, sizes, None), zip(*want)):
        assert column.tobytes() == np.array(expected).tobytes()

    X = np.round(rng.standard_normal((300, 3)), 1)
    y = X[:, 0] + rng.standard_normal(300)
    bag = rng.integers(0, 300, 300)
    tree = grow(X, y, bag, TreeConfig(), "regression")
    seen = []

    def decrease(w, h, node, lo, hi):
        seen.append(h)
        return root_weighted_decrease(w, h, node, lo, hi)

    monkeypatch.setattr(importance_mod, "root_weighted_decrease", decrease)
    ufi_tree_regression(tree, X[bag], y[bag])
    assert tree.n_nodes() > 100
    assert seen[0].tobytes() == tree.impurity.tobytes()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 400),
       n_test=st.integers(0, 400), max_depth=st.sampled_from([None, 2, 6]))
def test_ufi_regression_matches_per_node_reference(seed, n, n_test, max_depth):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 5))
    X = np.round(rng.standard_normal((n, p)), int(rng.integers(0, 3)))
    d = Dataset(X, X[:, 0] + rng.standard_normal(n),
                [f"x{j}" for j in range(p)], [FeatureKind(CONTINUOUS)] * p,
                "regression")
    forest = fit(d, ForestConfig(n_trees=3, seed=seed % 1000,
                                 tree=TreeConfig(max_depth=max_depth)))
    X_test = np.round(rng.standard_normal((n_test, p)), 1)
    y_test = X_test[:, 0] + rng.standard_normal(n_test)
    for tree in forest.trees:
        for xt, yt in ((X_test, y_test), (X, d.y)):
            scores, skipped, terms = ufi_tree_regression(tree, xt, yt)
            s0, k0, t0 = reference_ufi_regression(tree, xt, yt)
            assert scores.tobytes() == s0.tobytes()
            assert skipped == k0
            assert terms.tobytes() == t0.tobytes()


def test_ufi_regression_reference_includes_unreached_nodes():
    d = _dataset("regression", n=300)
    tree = fit(d, ForestConfig(n_trees=1, seed=3)).trees[0]
    X_test, y_test = d.X[:5], d.y[:5]
    assert (_route_test(tree, X_test, y_test)[2] == 0).any()
    scores, skipped, terms = ufi_tree_regression(tree, X_test, y_test)
    s0, k0, t0 = reference_ufi_regression(tree, X_test, y_test)
    assert scores.tobytes() == s0.tobytes() and terms.tobytes() == t0.tobytes()
    assert skipped == k0 > 0


class TestPermutationImportance:
    def test_unused_feature_exactly_zero(self):
        # column 1 is constant, so no tree can split on it
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.standard_normal(80), np.zeros(80)])
        y = (X[:, 0] > 0).astype(int)
        d = Dataset(X, y, ["a", "b"], [FeatureKind(CONTINUOUS)] * 2,
                    "classification", 2)
        f = fit(d, ForestConfig(n_trees=10, seed=1,
                                tree=TreeConfig(max_depth=3, max_features="all")))
        report = permutation_importance(f, d.X, d.y, rng=0)
        assert report.scores[1] == 0.0

    def test_identity_permutation_contributes_zero(self):
        # the tree fits the four points exactly, so the unpermuted loss is 0
        # and the permuted zero-one loss is the increase
        tree = _grow(FOUR_X, FOUR_Y, "classification")
        assert reference_permuted_loss(tree, FOUR_X, FOUR_Y, 0, np.arange(4)) == 0.0

    def test_reversing_permutation_on_pure_split(self):
        tree = _grow(FOUR_X, FOUR_Y, "classification")
        assert reference_permuted_loss(tree, FOUR_X, FOUR_Y, 0, np.array([3, 2, 1, 0])) == 1.0

    def test_oob_mode_smoke_and_signal_feature_wins(self):
        d = _dataset("classification", n=300)
        f = fit(d, ForestConfig(n_trees=30, seed=2, tree=TreeConfig(max_depth=4)))
        report = permutation_importance(f, d.X, d.y, rng=3)
        assert int(np.argmax(report.scores)) == 0

    def test_test_set_mode(self):
        d = _dataset("regression", n=200)
        f = fit(d, ForestConfig(n_trees=10, seed=4,
                                tree=TreeConfig(max_depth=4)))
        dt = _dataset("regression", n=100, seed=42)
        report = permutation_importance(f, d.X, d.y, rng=5,
                                        X_test=dt.X, y_test=dt.y)
        assert int(np.argmax(report.scores)) == 0

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_y_test_length_mismatch_rejected(self, task):
        d = _dataset(task)
        f = fit(d, ForestConfig(n_trees=3, seed=4, tree=TreeConfig(max_depth=2)))
        with pytest.raises(ValueError, match="y_test has 1 entries for 5"):
            permutation_importance(f, d.X, d.y, rng=0,
                                   X_test=d.X[:5], y_test=d.y[:1])


    def test_sd_across_trees_skips_trees_without_oob_rows(self):
        d = Dataset(FOUR_X, FOUR_Y, ["x"], [FeatureKind(CONTINUOUS)],
                    "classification", 2)
        f = fit(d, ForestConfig(n_trees=60, seed=3,
                                tree=TreeConfig(max_features="all")))
        used = [len(rows) > 0 for rows in f.oob]
        assert sum(used) == 54
        report = permutation_importance(f, d.X, d.y, rng=0)
        scores, per_tree = reference_permutation_importance(f, d.X, d.y, rng=0)
        assert report.per_tree.shape == (54, 1)
        assert report.per_tree.tobytes() == per_tree.tobytes()
        assert report.sd_across_trees().tolist() == \
            per_tree.std(axis=0, ddof=1).tolist()
        assert report.scores.tobytes() == scores.tobytes()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       task=st.sampled_from(["classification", "regression"]),
       n=st.integers(2, 120), p=st.integers(1, 4), n_test=st.integers(1, 40),
       n_trees=st.integers(1, 5), max_depth=st.sampled_from([0, 1, 3, None]),
       constant=st.booleans())
@example(seed=1, task="classification", n=6, p=1, n_test=1, n_trees=3,
         max_depth=0, constant=False)
@example(seed=2, task="regression", n=40, p=2, n_test=1, n_trees=4,
         max_depth=None, constant=True)
def test_permutation_importance_matches_reference(seed, task, n, p, n_test,
                                                  n_trees, max_depth, constant):
    """Bit for bit against one permuted copy per feature through predict,
    on the out-of-bag and the test-set path. max_depth=0 gives single-leaf
    trees, and a constant last column is one no node splits on."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.standard_normal((n, p)), int(rng.integers(0, 3)))
    X_test = np.round(rng.standard_normal((n_test, p)), 1)
    if constant:
        X[:, -1] = X_test[:, -1] = 0.0
    names, kinds = [f"x{j}" for j in range(p)], [FeatureKind(CONTINUOUS)] * p
    if task == "classification":
        k = int(rng.integers(2, 4))
        d = Dataset(X, rng.integers(0, k, size=n), names, kinds, task, k)
        y_test = rng.integers(0, k, size=n_test)
    else:
        d = Dataset(X, X[:, 0] + rng.standard_normal(n), names, kinds, task)
        y_test = X_test[:, 0] + rng.standard_normal(n_test)
    forest = fit(d, ForestConfig(n_trees=n_trees, seed=seed % 1000,
                                 tree=TreeConfig(max_depth=max_depth)))
    cases = [{"X_test": X_test, "y_test": y_test}]
    if any(len(rows) for rows in forest.oob):
        cases.append({})
    for test in cases:
        got = permutation_importance(forest, d.X, d.y, seed, **test)
        scores, per_tree = reference_permutation_importance(
            forest, d.X, d.y, seed, **test)
        assert got.scores.tobytes() == scores.tobytes()
        if per_tree is None:
            assert got.per_tree is None
        else:
            assert got.per_tree.shape == per_tree.shape
            assert got.per_tree.tobytes() == per_tree.tobytes()


class TestReportSerialization:
    def test_csv_and_json_shapes(self):
        d = _dataset("classification")
        f = fit(d, ForestConfig(n_trees=3, seed=0, tree=TreeConfig(max_depth=2)))
        report = si_forest(f)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "feature,score,sd_across_trees"
        assert len(lines) == 1 + d.p
        import json
        payload = json.loads(report.to_json())
        assert payload["method"] == "si"
        assert len(payload["scores"]) == d.p
