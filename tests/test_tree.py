import json

import numpy as np
import pytest
from conftest import brute_force_best_split, random_instance

from ufitree.tree import (
    Split, Tree, TreeConfig, best_split, evaluate_split, grow,
    impurity_from_counts, impurity_from_values, sort_keys,
)

FOUR_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FOUR_Y = np.array([0, 0, 1, 1])
ALL4 = np.arange(4)


class TestImpurity:
    def test_gini_symmetric_binary(self):
        assert impurity_from_counts([5, 5]) == 0.5

    def test_gini_pure(self):
        assert impurity_from_counts([8, 0]) == 0.0

    def test_gini_hand_value(self):
        # 1 - (0.75^2 + 0.25^2)
        assert impurity_from_counts([3, 1]) == pytest.approx(0.375)

    def test_mse(self):
        assert impurity_from_values([1.0, 1.0, 1.0]) == 0.0
        assert impurity_from_values([0.0, 2.0]) == pytest.approx(1.0)

    def test_empty_node_rejected(self):
        with pytest.raises(ValueError):
            impurity_from_counts([])
        with pytest.raises(ValueError):
            impurity_from_values([])


class TestEvaluateSplit:
    def test_four_point_pure_split(self):
        loss, delta = evaluate_split(FOUR_X, FOUR_Y, ALL4, Split(0, 2.5),
                                     n_root=4, n_classes=2)
        assert loss == 0.0
        assert delta == pytest.approx(0.5)

    def test_pure_node_zero_decrease(self):
        y = np.zeros(4, dtype=np.int64)
        loss, delta = evaluate_split(FOUR_X, y, ALL4, Split(0, 2.5),
                                     n_root=4, n_classes=2)
        assert delta == 0.0

    def test_regression_hand_value(self):
        y = np.array([0.0, 0.0, 2.0, 2.0])
        loss, delta = evaluate_split(FOUR_X, y, ALL4, Split(0, 2.5), n_root=4)
        assert loss == 0.0
        assert delta == pytest.approx(1.0)

    def test_child_below_min_samples_leaf_rejected(self):
        out = evaluate_split(FOUR_X, FOUR_Y, ALL4, Split(0, 1.5),
                             n_root=4, n_classes=2, min_samples_leaf=2)
        assert out is None


class TestBestSplit:
    def test_four_point_optimum(self):
        split, loss = best_split(FOUR_X, FOUR_Y, ALL4, [0], n_classes=2)
        assert split == Split(0, 2.5)
        assert loss == 0.0

    def test_all_constant_returns_none(self):
        X = np.ones((6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        assert best_split(X, y, np.arange(6), [0, 1], n_classes=2) is None

    def test_tie_breaks_to_lower_feature_index(self):
        X = np.column_stack([FOUR_X[:, 0], FOUR_X[:, 0]])
        split, _ = best_split(X, FOUR_Y, ALL4, [0, 1], n_classes=2)
        assert split.feature == 0

    # ids name the impurity that the task implies
    @pytest.mark.parametrize("task", ["classification", "regression"],
                             ids=["classification-gini", "regression-mse"])
    def test_matches_brute_force_on_random_instances(self, task):
        rng = np.random.default_rng(42)
        for trial in range(60):
            X, y, k = random_instance(rng, task, duplicates=trial % 2 == 0)
            msl = int(rng.integers(1, 4))
            idx = np.arange(len(y))
            feats = np.arange(X.shape[1])
            got = best_split(X, y, idx, feats, n_classes=k, min_samples_leaf=msl)
            want = brute_force_best_split(X, y, idx, feats, n_classes=k,
                                          min_samples_leaf=msl)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == want[0]

    @pytest.mark.parametrize("task", ["classification", "regression"],
                             ids=["classification-gini", "regression-mse"])
    def test_sort_keys_give_the_same_split(self, task):
        rng = np.random.default_rng(7)
        for trial in range(60):
            X, y, k = random_instance(rng, task, duplicates=trial % 2 == 0)
            idx = rng.integers(0, len(y), size=len(y))
            feats = np.arange(X.shape[1])
            want = best_split(X, y, idx, feats, n_classes=k)
            keys = sort_keys(X)
            assert keys.dtype == np.uint16
            got = best_split(X, y, idx, feats, n_classes=k, keys=keys)
            assert got == want

    def test_sort_keys_fall_back_to_values_on_nan(self):
        X = np.array([[1.0, np.nan], [2.0, 0.0]])
        keys = sort_keys(X)
        assert keys.dtype == np.float64
        assert np.array_equal(keys, X.T, equal_nan=True)


def _fit(X, y, task, seed=0, **kw):
    cfg = TreeConfig(**kw)
    n_classes = int(np.max(y)) + 1 if task == "classification" else None
    return grow(X, y, np.arange(len(y)), cfg, task, n_classes, rng=seed)


class TestGrow:
    def test_depth_zero_single_leaf(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification", max_depth=0)
        assert tree.n_nodes() == 1 and tree.is_leaf[0]
        assert tree.predict(FOUR_X).tolist() == [0, 0, 0, 0]

    def test_unlimited_depth_zero_training_error(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 3, size=40)
        tree = _fit(X, y, "classification")
        assert np.array_equal(tree.predict(X), y)

    def test_same_seed_identical_structure(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        t1 = _fit(X, y, "regression", max_features=2, seed=11)
        t2 = _fit(X, y, "regression", max_features=2, seed=11)
        assert t1.to_dict() == t2.to_dict()

    @pytest.mark.parametrize("bad", [
        dict(max_depth=-1),
        dict(min_samples_split=1),
        dict(min_samples_leaf=0),
        dict(max_features=0),
        dict(max_features=1.5),
    ])
    def test_bad_config_rejected(self, bad):
        with pytest.raises(ValueError):
            _fit(FOUR_X, FOUR_Y, "classification", **bad)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError):
            grow(FOUR_X, FOUR_Y, np.array([], dtype=int),
                 TreeConfig(), "classification", 2)

    def test_child_counts_sum_to_parent(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 3))
        y = rng.integers(0, 2, size=80)
        tree = _fit(X, y, "classification")
        inner = ~tree.is_leaf
        lo, hi = tree.left[inner], tree.right[inner]
        assert np.array_equal(tree.n[inner], tree.n[lo] + tree.n[hi])
        assert np.array_equal(tree.class_counts[inner],
                              tree.class_counts[lo] + tree.class_counts[hi])

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_decomposition_identity(self, task):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((100, 4))
        y = (rng.integers(0, 2, size=100) if task == "classification"
             else rng.standard_normal(100))
        tree = _fit(X, y, task, max_depth=4)
        total = tree.train_decrease[~tree.is_leaf].sum()
        leaf = tree.is_leaf
        expected = tree.n[0] / tree.n_root * tree.impurity[0] \
            - (tree.n[leaf] / tree.n_root * tree.impurity[leaf]).sum()
        assert total == pytest.approx(expected, abs=1e-10)

    def test_train_decrease_nonnegative(self):
        rng = np.random.default_rng(13)
        for task in ("classification", "regression"):
            X, y, k = random_instance(rng, task)
            tree = _fit(X, y, task)
            assert np.all(tree.train_decrease[~tree.is_leaf] >= 0.0)

    def test_feature_subset_falls_back_to_full_scan(self):
        # column 0 is constant; with max_features=1 some draws see only it
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        tree = _fit(X, y, "classification", max_features=1, max_depth=1, seed=0)
        assert not tree.is_leaf[0]
        assert tree.feature[0] == 1


class TestRouteAndPredict:
    def test_routing_training_set_reproduces_counts(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((50, 3))
        y = rng.integers(0, 2, size=50)
        tree = _fit(X, y, "classification", max_depth=3)
        _, offsets = tree.route(X)
        assert np.array_equal(np.diff(offsets), tree.n)

    def test_empty_sample_set(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        rows, offsets = tree.route(np.empty((0, 1)))
        assert len(rows) == 0
        assert np.array_equal(offsets, np.zeros(tree.n_nodes() + 1))

    def test_single_sample_hits_one_leaf_and_all_ancestors(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        _, offsets = tree.route(np.array([[3.7]]))
        routed = np.diff(offsets)
        hit_leaves = np.flatnonzero(tree.is_leaf & (routed == 1))
        assert len(hit_leaves) == 1
        assert routed[0] == 1

    def test_column_count_mismatch_rejected(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        with pytest.raises(ValueError):
            tree.route(np.zeros((2, 3)))

    @pytest.mark.parametrize("method", ["apply", "predict", "predict_proba"])
    def test_column_count_mismatch_rejected_by_every_reader(self, method):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        with pytest.raises(ValueError, match="expected 1 columns"):
            getattr(tree, method)(np.zeros((2, 2)))

    def test_apply_matches_route(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((60, 3))
        tree = _fit(X, rng.integers(0, 3, size=60), "classification")
        rows, offsets = tree.route(X)
        leaves = tree.apply(X)
        assert tree.is_leaf[leaves].all()
        for leaf in np.flatnonzero(tree.is_leaf):
            assert np.array_equal(rows[offsets[leaf]:offsets[leaf + 1]],
                                  np.flatnonzero(leaves == leaf))

    def test_single_leaf_probabilities(self):
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        tree = _fit(X, y, "classification")
        proba = tree.predict_proba(np.zeros((1, 1)))
        assert proba[0].tolist() == pytest.approx([2 / 3, 1 / 3])

    def test_pure_split_exact_labels(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        assert np.array_equal(tree.predict(FOUR_X), FOUR_Y)

    def test_regression_single_leaf_mean(self):
        X = np.zeros((2, 1))
        y = np.array([1.0, 3.0])
        tree = _fit(X, y, "regression", max_depth=0)
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(2.0)


class TestSerialization:
    def test_json_round_trip(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 2, size=40)
        tree = _fit(X, y, "classification", max_depth=3)
        payload = json.loads(json.dumps(tree.to_dict()))
        assert payload["version"] == "ufitree/4"
        assert "criterion" not in payload
        clone = Tree.from_dict(payload)
        assert np.array_equal(clone.predict(X), tree.predict(X))
        assert clone.to_dict() == tree.to_dict()

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            Tree.from_dict({"version": "bogus/9"})
        # a v3 tree may have been grown with entropy; it must not load as Gini
        with pytest.raises(ValueError, match="ufitree/3"):
            Tree.from_dict({"version": "ufitree/3", "criterion": "entropy"})
