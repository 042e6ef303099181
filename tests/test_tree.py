import json

import numpy as np
import pytest
from conftest import (
    assert_same_tree, brute_force_best_split, random_instance, reference_grow,
)
from hypothesis import given, settings, strategies as st

from ufitree import tree as tree_mod
from ufitree.data import CONTINUOUS, Dataset, FeatureKind
from ufitree.forest import ForestConfig, fit
from ufitree.tree import (
    FIRST_BLOCK, MAX_BLOCK, SMALL_NODE, Split, Tree, TreeConfig,
    _best_splits, _draw_subsets, _node_impurity, _scan_segments, _scan_table,
    best_split, evaluate_split, grow, impurity_from_counts,
    impurity_from_values, predictive_gini, predictive_gini_rows, sort_keys,
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


@st.composite
def small_node_batches(draw):
    """Up to 12 nodes of at most SMALL_NODE rows, drawn with repeats from
    one tie-heavy dataset, each with its own sorted feature subset. The
    targets are class labels or unrounded floats."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n = draw(st.integers(2, 200))
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([
        rng.integers(0, draw(st.integers(2, max(2, n))), n) / 4.0
        for _ in range(p)])
    if task == "classification":
        k = draw(st.integers(2, 4))
        y = rng.integers(0, k, n)
    else:
        k = None
        y = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    nodes = []
    for _ in range(draw(st.integers(1, 12))):
        rows = rng.integers(0, n, int(rng.integers(1, SMALL_NODE + 1)))
        feats = np.sort(rng.choice(p, int(rng.integers(1, p + 1)),
                                   replace=False))
        nodes.append((rows, feats, _node_impurity(y[rows], k)))
    return X, y, k, nodes, draw(st.integers(1, 5))


@settings(max_examples=200, deadline=None)
@given(case=small_node_batches())
def test_batched_scan_is_best_split_bit_for_bit(case):
    X, y, k, nodes, msl = case
    keys = sort_keys(X)
    found = _scan_segments(X, keys, y, nodes, k, msl)
    for (rows, feats, imp), got in zip(nodes, found):
        want = best_split(X, y, rows, feats, k, msl, imp, keys)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


@st.composite
def classification_nodes(draw):
    """Up to 8 classification nodes of 2 to 3000 rows, drawn with repeats
    from one dataset whose columns are tie-heavy, two-valued, or hold both
    signed zeros; each node has its own sorted feature subset. Labels take
    2 to 5 classes, and the batch cap on scanned values is tiny, moderate or
    the default."""
    n = draw(st.integers(2, 3000))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["ties", "two", "zeros"]),
                              min_size=p, max_size=p)):
        if kind == "two":
            columns.append(rng.integers(0, 2, n).astype(np.float64))
        elif kind == "zeros":
            v = rng.integers(-2, 3, n) / 2.0
            columns.append(np.where(rng.random(n) < 0.5, v, -v))
        else:
            columns.append(rng.integers(0, draw(st.integers(2, n + 1)), n) / 4.0)
    X = np.column_stack(columns)
    k = draw(st.integers(2, 5))
    y = rng.integers(0, k, n)
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.sampled_from([2, 3, 64, 65, 3000])
                    | st.integers(2, 3000))
        rows = rng.integers(0, n, size)
        feats = np.sort(rng.choice(p, int(rng.integers(1, p + 1)),
                                   replace=False))
        nodes.append((rows, feats, _node_impurity(y[rows], k)))
    cap = draw(st.sampled_from([1, 100, 5000, tree_mod.SCAN_VALUES]))
    return X, y, k, nodes, draw(st.integers(1, 5)), cap


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=classification_nodes())
def test_classification_scan_is_best_split_bit_for_bit(case):
    X, y, k, nodes, msl, cap = case
    keys = sort_keys(X)
    table = _scan_table(X, keys, y, k)
    want = [best_split(X, y, rows, feats, k, msl, imp, keys)
            for rows, feats, imp in nodes]
    for got, expected in zip(_scan_segments(X, keys, y, nodes, k, msl, table),
                             want):
        assert (got is None) == (expected is None)
        if got is not None:
            assert got[0].feature == expected[0].feature
            assert _same_float(got[0].threshold, expected[0].threshold)
            assert _same_float(got[1], expected[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod, "SCAN_VALUES", cap)
        found = _best_splits(X, y, keys, table, nodes, k, msl)
    for got, expected in zip(found, want):
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.feature == expected[0].feature
            assert _same_float(got.threshold, expected[0].threshold)


def test_scan_table_codes_keys_and_classes():
    X = np.array([[0.5, -0.0], [-1.0, 3.0], [0.5, 0.0], [2.0, 3.0]])
    y = np.array([2, 0, 1, 2])
    keys = sort_keys(X)
    coded, low, values, offsets = _scan_table(X, keys, y, 3)
    assert low == 2
    assert coded.reshape(2, 4).tolist() == [
        [k << 2 | c for k, c in zip(row, y)] for row in keys.tolist()]
    assert np.array_equal(values[offsets[:, None] + keys], X.T)
    assert values.tolist() == [-1.0, 0.5, 2.0, 0.0, 3.0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 33),
       rows=st.integers(1, 300), counts=st.booleans())
def test_gini_rows_are_predictive_gini_bit_for_bit(seed, classes, rows, counts):
    rng = np.random.default_rng(seed)
    if counts:  # proportions of counts, as the grower and ufi make them
        c = rng.integers(0, 40, (2, rows, classes))
        c[:, :, 0] += 1
        P, Q = c / c.sum(axis=2, keepdims=True)
    else:
        P, Q = rng.random((2, rows, classes))
    got = predictive_gini_rows(P, Q)
    want = np.array([predictive_gini(a, b) for a, b in zip(P, Q)])
    assert got.tobytes() == want.tobytes()


def test_gini_rows_match_on_every_node_of_a_forest():
    """Every node impurity of a fitted 5-class forest is impurity_from_counts
    of its class counts, and every node's predictive Gini against routed
    test rows is predictive_gini's, to the bit."""
    rng = np.random.default_rng(12)
    X = np.round(rng.standard_normal((600, 5)), 1)
    y = (np.floor(X[:, 0] * 2 + rng.standard_normal(600)) % 5).astype(int)
    d = Dataset(X, y, [f"x{j}" for j in range(5)],
                [FeatureKind(CONTINUOUS)] * 5, "classification", 5)
    X_test = np.round(rng.standard_normal((300, 5)), 1)
    y_test = rng.integers(0, 5, 300)
    nodes = 0
    for tree in fit(d, ForestConfig(n_trees=4, seed=3)).trees:
        q = tree.class_counts / tree.n[:, None]
        want = np.array([impurity_from_counts(c) for c in tree.class_counts])
        assert tree.impurity.tobytes() == want.tobytes()
        rows, offsets = tree.route(X_test)
        routed = np.diff(offsets)
        reached = np.flatnonzero(routed)
        tq = np.array([np.bincount(y_test[rows[offsets[i]:offsets[i + 1]]],
                                   minlength=5) / routed[i] for i in reached])
        want = np.array([predictive_gini(a, b) for a, b in zip(q[reached], tq)])
        assert predictive_gini_rows(q[reached], tq).tobytes() == want.tobytes()
        nodes += tree.n_nodes()
    assert nodes > 500


def _choice_rows(rng, p, k, count):
    """count successive sorted rng.choice draws: what _draw_subsets claims."""
    return np.array([np.sort(rng.choice(p, k, replace=False))
                     for _ in range(count)])


def _assert_same_stream(got, want):
    """Two generators in one state: their next 32-bit outputs, which take a
    held-over half word first, and their next raw words agree."""
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    for draw in (lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                 lambda g: g.bit_generator.random_raw(3)):
        assert np.array_equal(draw(got), draw(want))


def _skip_outputs(rng, outputs):
    """rng after `outputs` 32-bit outputs, so that an odd count leaves half
    a raw word held over."""
    rng.integers(0, 2**32, size=outputs, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == outputs % 2
    return rng


class TestDrawSubsets:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), data=st.data(),
           outputs=st.integers(0, 5),
           count=st.integers(1, MAX_BLOCK) | st.sampled_from(
               [FIRST_BLOCK << i for i in range(6)]))
    def test_rows_and_stream_are_those_of_choice(self, seed, data, outputs,
                                                  count):
        # every count up to MAX_BLOCK: the grower's blocks, and the redraw
        # of a block's used rows when a tree ends
        p = data.draw(st.integers(2, 300), label="p")
        k = data.draw(st.integers(1, p - 1), label="k")
        got_rng = _skip_outputs(np.random.default_rng(seed), outputs)
        want_rng = _skip_outputs(np.random.default_rng(seed), outputs)
        got = _draw_subsets(got_rng, p, k, count)
        want = _choice_rows(want_rng, p, k, count)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        _assert_same_stream(got_rng, want_rng)

    def test_a_redrawn_value_is_left_to_choice(self):
        # seed 47's first 256 rows hold a draw that Lemire's method rejects
        # and makes again (row 60); rows after it are shifted by one output
        p, k, count, seed = 10000, 100, 256, 47
        words = np.random.default_rng(seed).bit_generator.random_raw(
            count * (2 * k - 1))
        halves = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()
        r = np.concatenate([np.arange(p - k + 1, p + 1),
                            np.arange(k, 1, -1)]).astype(np.uint64)
        m = halves[:count * (2 * k - 1)].reshape(count, -1) * r
        assert ((m & 0xFFFFFFFF) < (2**32 - r) % r).any()
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        assert np.array_equal(_draw_subsets(got_rng, p, k, count),
                              _choice_rows(want_rng, p, k, count))
        _assert_same_stream(got_rng, want_rng)

    @pytest.mark.parametrize("p, k", [(10001, 201), (12000, 300)])
    def test_choice_tail_shuffle_is_drawn_by_choice(self, p, k):
        # p > 10000 and k > p // 50: choice shuffles the tail of arange(p)
        got_rng, want_rng = (np.random.default_rng(3) for _ in range(2))
        assert np.array_equal(_draw_subsets(got_rng, p, k, 3),
                              _choice_rows(want_rng, p, k, 3))
        _assert_same_stream(got_rng, want_rng)

    def test_other_bit_generators_are_drawn_by_choice(self):
        got_rng, want_rng = (np.random.Generator(np.random.Philox(4))
                             for _ in range(2))
        assert np.array_equal(_draw_subsets(got_rng, 37, 6, 20),
                              _choice_rows(want_rng, 37, 6, 20))
        _assert_same_stream(got_rng, want_rng)


def _block_ends():
    """The draw counts after which every block a tree drew is used up."""
    ends, rows, total = set(), FIRST_BLOCK, 0
    while total < 10**5:
        total += rows
        ends.add(total)
        rows = min(2 * rows, MAX_BLOCK)
    return ends


@pytest.mark.parametrize("kw", [
    dict(max_features=2),
    dict(max_features=2, max_depth=1),
    dict(max_features="all"),
], ids=["deep", "depth-1", "all-features"])
def test_grow_leaves_a_callers_generator_where_per_node_draws_do(kw):
    rng = np.random.default_rng(17)
    X = np.round(rng.standard_normal((300, 6)), 1)
    y = rng.integers(0, 3, 300)
    rows = rng.integers(0, 300, 300)
    cfg = TreeConfig(**kw)
    # start half a raw word in, as after an odd number of 32-bit outputs
    gen = _skip_outputs(np.random.default_rng(99), 1)
    ref = _skip_outputs(np.random.default_rng(99), 1)
    tree = grow(X, y, rows, cfg, "classification", 3, rng=gen)
    assert_same_tree(tree, reference_grow(X, y, rows, cfg, "classification",
                                          3, rng=ref))
    # a node draws unless a stop rule holds: depth, size or purity
    depth = np.zeros(tree.n_nodes(), dtype=int)
    for node in np.flatnonzero(~tree.is_leaf):
        depth[[tree.left[node], tree.right[node]]] = depth[node] + 1
    below = depth < (cfg.max_depth if cfg.max_depth is not None else 10**9)
    draws = int((below & (tree.n >= 2) & (tree.impurity > 0)).sum())
    if kw["max_features"] != "all":
        assert draws > 0 and draws not in _block_ends()  # last block partly used
    _assert_same_stream(gen, ref)

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

    def test_label_outside_n_classes_rejected(self):
        with pytest.raises(ValueError, match="class labels"):
            grow(FOUR_X, np.array([0, 1, 2, 1]), ALL4, TreeConfig(),
                 "classification", n_classes=2)

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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           m=st.integers(0, 30), max_depth=st.sampled_from([0, 2, None]))
    def test_apply_permuted_is_apply_of_permuted_copies(self, seed, n, m,
                                                         max_depth):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 5))
        # tied training values make repeated splits on one column likely,
        # and two-decimal test values can land on a midpoint threshold
        X = np.round(rng.standard_normal((n, p)), 1)
        tree = _fit(X, rng.integers(0, 3, size=n), "classification",
                    max_depth=max_depth)
        X_eval = np.round(rng.standard_normal((m, p)), 2)
        perms = np.array([rng.permutation(m) for _ in range(p)]).reshape(p, m)
        leaves, permuted = tree.apply_permuted(X_eval, perms)
        assert leaves.dtype == permuted.dtype == np.intp
        assert np.array_equal(leaves, tree.apply(X_eval))
        assert permuted.shape == (p, m)
        for j in range(p):
            Xp = X_eval.copy()
            Xp[:, j] = X_eval[perms[j], j]
            assert np.array_equal(permuted[j], tree.apply(Xp))

    def test_apply_permuted_rejects_a_wrong_perms_shape(self):
        tree = _fit(FOUR_X, FOUR_Y, "classification")
        with pytest.raises(ValueError, match="expected 1 permutations of 4"):
            tree.apply_permuted(FOUR_X, np.arange(3)[None])
        with pytest.raises(ValueError, match="expected 1 columns"):
            tree.apply_permuted(np.zeros((2, 2)), np.zeros((2, 2), dtype=int))

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
