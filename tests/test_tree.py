import numpy as np
import pytest
from conftest import (
    assert_same_tree, brute_force_best_split, random_instance,
    reference_best_split, reference_grow, scalar_gini,
)
from hypothesis import given, settings, strategies as st

from ufitree import tree as tree_mod
from ufitree.data import CONTINUOUS, Dataset, FeatureKind
from ufitree.forest import ForestConfig, fit
from ufitree.importance import ufi_tree_classification
from ufitree.tree import (
    Split, TreeConfig, _best_splits, _node_stats, _Nodes, _padded, _presort,
    _row_dtype, _scan_segments, _scan_table, best_split, build_trees,
    child_keys, draw_subsets, evaluate_split, grow, impurity_from_counts,
    impurity_from_values, mix, predictive_gini, sort_keys,
)

FOUR_X = np.array([[1.0], [2.0], [3.0], [4.0]])
FOUR_Y = np.array([0, 0, 1, 1])
ALL4 = np.arange(4)


def node_impurity(y_node, n_classes):
    """The Gini of a node's labels if n_classes is given, else their MSE:
    the impurity the grower gives the node."""
    if n_classes is None:
        return impurity_from_values(y_node)
    return impurity_from_counts(np.bincount(y_node, minlength=n_classes))


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

    @pytest.mark.parametrize("n_classes", [2, None], ids=["classification", "regression"])
    @pytest.mark.parametrize("feats", [[-1], [2], []], ids=["-1", "p", "none"])
    def test_feature_outside_the_columns_rejected(self, feats, n_classes):
        """Column p - 1 splits the rows perfectly, but -1 does not name it,
        and p names no column."""
        X = np.column_stack([np.zeros(4), FOUR_X[:, 0]])
        assert best_split(X, FOUR_Y, ALL4, [1], n_classes)[0] == Split(1, 2.5)
        with pytest.raises(ValueError, match="candidate features"):
            best_split(X, FOUR_Y, ALL4, feats, n_classes)

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
                if task == "regression":
                    # the between-groups loss against the two-pass child MSEs
                    assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0)

    @pytest.mark.parametrize("task", ["classification", "regression"],
                             ids=["classification-gini", "regression-mse"])
    def test_sort_keys_give_the_same_split(self, task):
        """A scan over the integer ranks finds what a scan over the float
        values finds."""
        rng = np.random.default_rng(7)
        for trial in range(60):
            X, y, k = random_instance(rng, task, duplicates=trial % 2 == 0)
            idx = rng.integers(0, len(y), size=len(y))
            feats = np.arange(X.shape[1])
            assert sort_keys(X).dtype == np.uint16
            # the reference scans the float values
            want = reference_best_split(X, y, idx, feats, k, 1,
                                        node_impurity(y[idx], k))
            assert best_split(X, y, idx, feats, k) == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sort_keys_reject_non_finite_values(self, bad):
        X = np.array([[1.0, bad], [2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            sort_keys(X)
        with pytest.raises(ValueError, match="finite"):
            grow(X, np.array([0, 1]), [0, 1], TreeConfig(), "classification")

    @pytest.mark.parametrize("n,dtype", [(2**16, np.uint16), (2**16 + 1, np.uint32)])
    def test_sort_keys_are_dense_ranks_as_wide_as_the_rows_need(self, n, dtype):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.permutation(n) / 3.0 - 7.0,
                             rng.integers(-2, 3, n) * 0.0])
        keys = sort_keys(X)
        assert keys.dtype == dtype
        assert np.array_equal(keys[0], np.argsort(np.argsort(X[:, 0])))
        assert keys[0].max() == n - 1
        assert not keys[1].any()  # -0.0 and 0.0 tie


def scan_batch(X, y, keys, nodes, n_classes, msl):
    """(feature, threshold) arrays of (rows, feats, impurity) nodes, whose
    feats have one length, from one _best_splits call on them as one set,
    as the grower makes it: for regression, with every node's rows
    presorted (one tree, ids = rows) and its mean."""
    rows = [np.asarray(r, dtype=np.intp) for r, _, _ in nodes]
    n = np.array([len(r) for r in rows])
    zero = np.zeros(len(nodes), dtype=np.intp)
    table = mean = pairs = None
    if n_classes is None:
        mean = np.array([np.add.reduceat(y[r], [0])[0] / len(r) for r in rows])
        pairs = _padded([_presort(keys, r, 0, _row_dtype(len(X))) for r in rows],
                        int(n.max()))
    else:
        table = _scan_table(X, keys, y, n_classes)
    batch = _Nodes(zero, zero, zero, n, np.array([i for _, _, i in nodes]),
                   None, mean, np.concatenate(rows))
    batch.pairs = pairs
    return _best_splits(X, y, table, batch, np.arange(len(nodes)),
                        np.array([f for _, f, _ in nodes]), n_classes, msl)[:2]


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@st.composite
def regression_batches(draw):
    """Up to 60 regression nodes of 1 to 3, 20 or 300 rows, drawn with repeats from
    one tie-heavy dataset with unrounded targets, each with its own sorted
    subset of one size, so that a batch holds nodes of every size class.
    The scan's block size is tiny or the default."""
    n = draw(st.integers(2, 300))
    p = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([
        rng.integers(0, draw(st.integers(2, max(2, n))), n) / 4.0
        for _ in range(p)])
    y = rng.standard_normal(n) * 10.0 ** draw(st.integers(-3, 3))
    k = draw(st.just(p) | st.integers(1, p))
    top = draw(st.sampled_from([3, 20, 300]))
    nodes = []
    for _ in range(draw(st.integers(1, 60))):
        size = draw(st.sampled_from([1, 2, 3]) | st.integers(1, top))
        rows = rng.integers(0, n, size)
        feats = np.sort(rng.choice(p, k, replace=False))
        nodes.append((rows, feats, impurity_from_values(y[rows])))
    values = draw(st.sampled_from([1, 64, tree_mod.SCAN_VALUES]))
    return X, y, nodes, draw(st.integers(1, 5)), values


@settings(max_examples=200, deadline=None)
@given(case=regression_batches())
def test_batched_scan_is_best_split_bit_for_bit(case):
    """The batched regression scan finds, for every node, the split of the
    per-node reference scan, to the bit; so does best_split."""
    X, y, nodes, msl, values = case
    keys = sort_keys(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod, "SCAN_VALUES", values)
        feature, threshold = scan_batch(X, y, keys, nodes, None, msl)
    for (rows, feats, imp), f, s in zip(nodes, feature, threshold):
        want = reference_best_split(X, y, rows, feats, None, msl, imp)
        assert (f < 0) == (want is None)
        if want is not None:
            assert f == want[0].feature and _same_float(s, want[0].threshold)
        got = best_split(X, y, rows, feats, None, msl)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].feature == want[0].feature
            assert _same_float(got[0].threshold, want[0].threshold)
            assert _same_float(got[1], want[1])


@pytest.mark.parametrize("scan_values", [1, 500, tree_mod.SCAN_VALUES])
def test_node_stats_are_per_group_reductions_bit_for_bit(monkeypatch, scan_values):
    """The regression stats of 1 to 40 groups of 1 to 300 rows are those
    of np.add.reduceat calls per group, to the bit, whatever the cap on
    scanned values."""
    monkeypatch.setattr(tree_mod, "SCAN_VALUES", scan_values)
    rng = np.random.default_rng(7)
    y = rng.standard_normal(500) * 10.0 ** rng.integers(-3, 4, 500)
    for m in (1, 2, 15, 16, 17, 39, 40):
        sizes = rng.integers(1, 301, m)
        sizes[:m // 2] = rng.choice([1, 7, 8, 9, 127, 128, 129, 300], m // 2)
        rows = rng.integers(0, len(y), sizes.sum())
        want = []
        for v in np.split(y[rows], np.cumsum(sizes)[:-1]):
            mean = np.add.reduceat(v, [0])[0] / len(v)
            dev = v - mean
            want.append((mean, np.add.reduceat(dev * dev, [0])[0] / len(v)))
        got = _node_stats(y, rows, sizes, None)
        assert len(got) == 2
        for column, expected in zip(got, zip(*want)):
            assert column.tobytes() == np.array(expected).tobytes()


@st.composite
def classification_nodes(draw):
    """Up to 8 classification nodes of 2 to 3000 rows, drawn with repeats
    from one dataset whose columns are tie-heavy, two-valued, or hold both
    signed zeros; each node has its own sorted feature subset, all of one
    size. Labels take 2 to 5 classes, and the batch cap on scanned values
    is tiny, moderate or the default."""
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
    n_feats = int(rng.integers(1, p + 1))
    nodes = []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.sampled_from([2, 3, 64, 65, 3000])
                    | st.integers(2, 3000))
        rows = rng.integers(0, n, size)
        feats = np.sort(rng.choice(p, n_feats, replace=False))
        nodes.append((rows, feats, node_impurity(y[rows], k)))
    cap = draw(st.sampled_from([1, 100, 5000, tree_mod.SCAN_VALUES]))
    return X, y, k, nodes, draw(st.integers(1, 5)), cap


@settings(max_examples=150, deadline=None)
@given(case=classification_nodes())
def test_classification_scan_is_best_split_bit_for_bit(case):
    X, y, k, nodes, msl, cap = case
    keys = sort_keys(X)
    table = _scan_table(X, keys, y, k)
    want = [reference_best_split(X, y, rows, feats, k, msl, imp)
            for rows, feats, imp in nodes]
    rows = [np.asarray(r, dtype=np.intp) for r, _, _ in nodes]
    n = np.array([len(r) for r in rows])
    found = _scan_segments(table, len(X), np.concatenate(rows), np.cumsum(n) - n,
                           n, np.array([f for _, f, _ in nodes]),
                           np.array([i for _, _, i in nodes]), k, msl)
    for (rows, feats, imp), f, s, loss, expected in zip(nodes, *found, want):
        assert (f < 0) == (expected is None)
        if expected is not None:
            assert f == expected[0].feature
            assert _same_float(s, expected[0].threshold)
            assert _same_float(loss, expected[1])
        # best_split scans a classification node on its own rows
        got = best_split(X, y, rows, feats, k, msl)
        assert (got is None) == (expected is None)
        if got is not None:
            assert (got[0].feature, got[1]) == (f, loss)
            assert _same_float(got[0].threshold, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod, "SCAN_VALUES", cap)
        feature, threshold = scan_batch(X, y, keys, nodes, k, msl)
    for f, s, expected in zip(feature, threshold, want):
        assert (f < 0) == (expected is None)
        if expected is not None:
            assert f == expected[0].feature
            assert _same_float(s, expected[0].threshold)


@pytest.mark.parametrize("n_nodes,bits,dtype", [(8192, 32, np.uint32),
                                                (8193, 33, np.int64)])
def test_classification_scan_on_codes_of_32_and_33_bits(monkeypatch, n_nodes,
                                                        bits, dtype):
    """One scan call of n_nodes nodes of 2 to 6 rows, 2 features each, on
    4,096 distinct values (12 key bits) and 33 classes (6 class bits):
    8,192 nodes make 16,384 segments, whose codes need 14 more bits, 32 in
    all, and one node more needs 33, so the codes are int64. The first 200
    nodes and the last 800, the last node's segments among them, find the
    reference scan's split, to the bit."""
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.permutation(4096), rng.integers(0, 4096, 4096)]) / 8.0
    y = rng.integers(0, 33, 4096)
    y[:33] = np.arange(33)
    widths, code_dtype = [], tree_mod._code_dtype

    def spy(b):
        widths.append(b)
        return code_dtype(b)

    monkeypatch.setattr(tree_mod, "_code_dtype", spy)
    table = _scan_table(X, sort_keys(X), y, 33)
    assert (table[1], table[2]) == (12, 6)
    n = rng.integers(2, 7, n_nodes)
    rows = rng.integers(0, 4096, n.sum())
    start = np.cumsum(n) - n
    feats = np.tile([0, 1], (n_nodes, 1))
    imp = np.array([node_impurity(y[rows[a:a + k]], 33) for a, k in zip(start, n)])
    found = _scan_segments(table, len(X), rows, start, n, feats, imp, 33, 1)
    assert widths[-1] == bits and code_dtype(bits) == dtype
    check = np.r_[0:200, n_nodes - 800:n_nodes]
    splits = 0
    for i in check:
        want = reference_best_split(X, y, rows[start[i]:start[i] + n[i]], [0, 1], 33,
                                    1, imp[i])
        f, s, loss = (a[i] for a in found)
        assert (f < 0) == (want is None)
        if want is not None:
            splits += 1
            assert f == want[0].feature and _same_float(s, want[0].threshold)
            assert _same_float(loss, want[1])
    assert splits > len(check) // 2


def test_scan_table_codes_keys_and_classes():
    X = np.array([[0.5, -0.0], [-1.0, 3.0], [0.5, 0.0], [2.0, 3.0]])
    y = np.array([2, 0, 1, 2])
    keys = sort_keys(X)
    coded, key_bits, low, values, offsets = _scan_table(X, keys, y, 3)
    assert (key_bits, low) == (2, 2)
    assert coded.dtype == np.uint32
    assert coded.reshape(2, 4).tolist() == [
        [k << 2 | c for k, c in zip(row, y)] for row in keys.tolist()]
    assert np.array_equal(values[offsets[:, None] + keys], X.T)
    assert values.tolist() == [-1.0, 0.5, 2.0, 0.0, 3.0]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), classes=st.integers(2, 33),
       rows=st.integers(1, 300), counts=st.booleans())
def test_predictive_gini_is_the_scalar_class_order_gini(seed, classes, rows,
                                                        counts):
    rng = np.random.default_rng(seed)
    if counts:  # proportions of counts, as the grower and ufi make them
        c = rng.integers(0, 40, (2, rows, classes))
        c[:, :, 0] += 1
        P, Q = c / c.sum(axis=2, keepdims=True)
    else:
        P, Q = rng.random((2, rows, classes))
    want = np.array([scalar_gini(a, b) for a, b in zip(P, Q)])
    assert predictive_gini(P, Q).tobytes() == want.tobytes()
    assert [predictive_gini(a, b) for a, b in zip(P, Q)] == want.tolist()
    assert [impurity_from_counts(c) for c in P] == \
        [scalar_gini(a, a) for a in P / P.sum(axis=1, keepdims=True)]


def test_gini_rows_match_on_every_node_of_a_forest():
    """Every node impurity of a fitted 5-class forest is the scalar Gini of
    its class proportions, and every node's ufi term is its decrease in
    the scalar predictive Gini against routed test rows, to the bit."""
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
        want = np.array([scalar_gini(a, a) for a in q])
        assert tree.impurity.tobytes() == want.tobytes()
        rows, offsets = tree.route(X_test)
        routed = np.diff(offsets)
        h = np.zeros(tree.n_nodes())
        for i in np.flatnonzero(routed):
            tq = np.bincount(y_test[rows[offsets[i]:offsets[i + 1]]],
                             minlength=5) / routed[i]
            h[i] = scalar_gini(q[i], tq)
        w = tree.n / tree.n_root
        inner = np.flatnonzero(~tree.is_leaf)
        lo, hi = tree.left[inner], tree.right[inner]
        ok = (routed[lo] > 0) & (routed[hi] > 0)
        want = np.zeros(tree.n_nodes())
        want[inner[ok]] = (w[inner] * h[inner]
                           - (w[lo] * h[lo] + w[hi] * h[hi]))[ok]
        terms = ufi_tree_classification(tree, X_test, y_test)[2]
        assert terms.tobytes() == want.tobytes()
        nodes += tree.n_nodes()
    assert nodes > 500


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


@pytest.mark.parametrize("kw", [
    dict(max_features=2),
    dict(max_features=2, max_depth=1),
    dict(max_features="all"),
], ids=["deep", "depth-1", "all-features"])
def test_grow_takes_one_raw_word_of_a_callers_generator(kw):
    """However many nodes draw, grow advances its generator by one raw
    word, the tree's seed, and a held-over half word stays held over."""
    rng = np.random.default_rng(17)
    X = np.round(rng.standard_normal((300, 6)), 1)
    y = rng.integers(0, 3, 300)
    rows = rng.integers(0, 300, 300)
    cfg = TreeConfig(**kw)
    # start half a raw word in, as after an odd number of 32-bit outputs
    gen = _skip_outputs(np.random.default_rng(99), 1)
    ref = _skip_outputs(np.random.default_rng(99), 1)
    tree = grow(X, y, rows, cfg, "classification", 3, rng=gen)
    assert tree.n_nodes() == 3 if cfg.max_depth == 1 else tree.n_nodes() > 50
    ref.bit_generator.random_raw()
    _assert_same_stream(gen, ref)


def test_tree_grows_alike_alone_beside_others_and_in_any_group(monkeypatch):
    """A tree that draws is the same grown alone, beside other trees in one
    grow_trees call, and with any PRESORT_VALUES budget, which puts each
    regression tree in a group of its own, some trees together or all of
    them in one group."""
    rng = np.random.default_rng(23)
    X = np.round(rng.standard_normal((250, 9)), 1)
    bags = [rng.integers(0, 250, size) for size in (250, 40, 250, 3, 180)]
    seeds = [[23, b] for b in range(len(bags))]
    for task, y, n_classes in [
            ("classification", rng.integers(0, 3, 250), 3),
            ("regression", np.round(rng.standard_normal(250), 2), None)]:
        cfg = TreeConfig(max_features="sqrt", min_samples_leaf=2)
        alone = [grow(X, y, rows, cfg, task, n_classes, rng=seed)
                 for rows, seed in zip(bags, seeds)]
        for budget in (1, 250 * 9 * 2, tree_mod.PRESORT_VALUES):
            monkeypatch.setattr(tree_mod, "PRESORT_VALUES", budget)
            together = tree_mod.grow_trees(
                X, y, bags, [np.random.default_rng(s) for s in seeds], cfg,
                task, n_classes)
            for got, want in zip(together, alone):
                assert_same_tree(got, want)
        assert sum(t.n_nodes() for t in alone) > 300


def test_subset_draws_are_uniform_over_features():
    """Over about 20,000 nodes of complete trees, each feature is drawn
    k/p of the time, within 5 binomial standard deviations."""
    keys = mix(np.arange(5, dtype=np.uint64))  # five trees' roots
    level, levels = keys, [keys]
    for _ in range(11):
        level = np.concatenate(child_keys(level))
        levels.append(level)
    keys = np.concatenate(levels)
    assert 20_000 <= len(keys) <= 21_000
    for p, k in [(37, 6), (10, 3), (4, 1)]:
        subsets = draw_subsets(keys, p, k)
        assert (np.diff(subsets, axis=1) > 0).all()  # distinct, ascending
        counts = np.bincount(subsets.ravel(), minlength=p)
        q = k / p
        sd = np.sqrt(len(keys) * q * (1 - q))
        assert (np.abs(counts - len(keys) * q) <= 5 * sd).all(), counts


@st.composite
def growths(draw, task):
    """A tie-heavy dataset of the task (up to 4 classes), up to 4 bags with
    heavy duplicates (some of 1 to 3 rows), and a config over every
    max_features kind (all, sqrt, a count, a fraction), max_depth and
    min_samples_leaf setting the grower treats apart. Under min_samples_leaf
    m up to 7, impure nodes of 2 to 2m - 1 rows are common: the grower
    leaves them unscanned, and the reference scans them and finds nothing."""
    n = draw(st.integers(1, 120))
    p = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.integers(0, draw(st.integers(1, max(1, n))), n) / 2.0
                         for _ in range(p)])
    if task == "classification":
        y = rng.integers(0, draw(st.integers(1, 4)), n)
    else:
        y = np.round(rng.standard_normal(n), draw(st.integers(0, 3)))
    bags = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 2 * n))
        # rows from a narrow range repeat often
        rows = rng.integers(0, draw(st.integers(1, n)), size)
        bags.append(rows)
    cfg = TreeConfig(max_depth=draw(st.sampled_from([None, 2, 6])),
                     min_samples_leaf=draw(st.sampled_from([1, 2, 3, 7])),
                     max_features=draw(st.sampled_from(["all", "sqrt"])
                                       | st.integers(1, p)
                                       | st.floats(0.05, 1.0)))
    return X, y, bags, cfg, draw(st.integers(0, 2**16))


def _grows_the_reference_trees(case, task):
    """Level by level, with or without draws, the grower makes the
    reference trees, numbered in preorder (a left child's id is its
    parent's plus one), and leaves each generator where the reference
    leaves it."""
    X, y, bags, cfg, seed = case
    rngs = [np.random.default_rng([seed, b]) for b in range(len(bags))]
    refs = [np.random.default_rng([seed, b]) for b in range(len(bags))]
    grown = tree_mod.grow_trees(X, y, bags, rngs, cfg, task)
    n_classes = int(y.max()) + 1 if task == "classification" else None
    for tree, rows, gen, ref in zip(grown, bags, rngs, refs):
        assert_same_tree(tree, reference_grow(X, y, rows, cfg, task, n_classes,
                                              rng=ref))
        inner = np.flatnonzero(~tree.is_leaf)
        assert np.array_equal(tree.left[inner], inner + 1)
        _assert_same_stream(gen, ref)


@settings(max_examples=150, deadline=None)
@given(case=growths("regression"))
def test_grow_trees_grows_the_reference_regression_trees(case):
    _grows_the_reference_trees(case, "regression")


@settings(max_examples=150, deadline=None)
@given(case=growths("classification"))
def test_grow_trees_grows_the_reference_classification_trees(case):
    _grows_the_reference_trees(case, "classification")


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
        assert_same_tree(t1, t2)

    @pytest.mark.parametrize("bad", [
        dict(max_depth=-1),
        dict(min_samples_leaf=0),
        dict(max_features=0),
        dict(max_features=1.5),
        dict(max_features="half"),
    ])
    def test_bad_config_rejected(self, bad):
        with pytest.raises(ValueError):
            _fit(FOUR_X, FOUR_Y, "classification", **bad)

    def test_label_outside_n_classes_rejected(self):
        with pytest.raises(ValueError, match="class labels"):
            grow(FOUR_X, np.array([0, 1, 2, 1]), ALL4, TreeConfig(),
                 "classification", n_classes=2)

    @pytest.mark.parametrize("y,n_classes,match", [
        ([5, 5, 6, 6], 2, "class labels"),
        ([0, -1, 1, 1], None, "class labels"),
        ([0.0, 0.0, 1.0, 1.0], None, "integers"),
    ], ids=["above-n-classes", "negative", "float"])
    def test_bad_labels_rejected_by_grow_and_best_split(self, y, n_classes, match):
        """Labels 5 and 6 under two classes would spill into the scan
        codes' key bits."""
        y = np.array(y)
        with pytest.raises(ValueError, match=match):
            grow(FOUR_X, y, ALL4, TreeConfig(), "classification", n_classes)
        with pytest.raises(ValueError, match=match):
            best_split(FOUR_X, y, ALL4, [0], n_classes or 2)

    @pytest.mark.parametrize("rows", [[-1, 0, 1, 2], [0, 1, 2, 4], [0.5, 1.5, 2.5, 3.5],
                                      [True, False, True, True]],
                             ids=["-1", "n", "float", "mask"])
    def test_row_index_outside_the_data_rejected(self, rows):
        """-1 would take the last row, and a float or a mask would be cast
        to rows."""
        with pytest.raises(ValueError, match="row indices"):
            grow(FOUR_X, FOUR_Y, rows, TreeConfig(), "classification", 2)
        with pytest.raises(ValueError, match="row indices"):
            best_split(FOUR_X, FOUR_Y, rows, [0], 2)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    def test_targets_not_one_per_row_rejected(self, task):
        with pytest.raises(ValueError, match="one target per row"):
            grow(FOUR_X, FOUR_Y[:3], [0, 1, 2], TreeConfig(), task)
        with pytest.raises(ValueError, match="2-D"):
            grow(FOUR_X[:, 0], FOUR_Y, ALL4, TreeConfig(), task)

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

    @pytest.mark.parametrize("big", [1e200, np.inf, np.nan])
    def test_regression_target_whose_squares_overflow_rejected(self, big):
        X = np.arange(5.0)[:, None]
        y = np.array([1.0, 5.0, big, 1.0, 5.0])
        with pytest.raises(ValueError, match="regression targets"):
            grow(X, y, np.arange(5), TreeConfig(), "regression")
        # a row outside every bag is never summed
        grow(X, y, [0, 1, 3, 4], TreeConfig(), "regression")

    @pytest.mark.parametrize("shift,scale", [
        *(pytest.param(2.0**e, 1.0, id=repr(2.0**e)) for e in (10, 20, 26, 30)),
        *(pytest.param(0.0, 2.0**e, id=f"scale-2^{e}") for e in (-20, -10, 10, 20)),
    ])
    def test_shifted_targets_grow_the_same_tree(self, shift, scale):
        """Adding a constant to the targets, or scaling them, leaves every
        split as it is. The targets lie on a 1/1024 grid and the shifts and
        scales are powers of two, so y * scale + shift holds y exactly."""
        rng = np.random.default_rng(11)
        X = rng.standard_normal((1000, 5))
        y = np.round((X[:, 0] + 0.5 * X[:, 1] + rng.standard_normal(1000)) * 1024) / 1024
        moved = y * scale + shift
        assert np.array_equal((moved - shift) / scale, y)
        rows, config = np.arange(1000), TreeConfig(max_depth=8)
        want = grow(X, y, rows, config, "regression")
        got = grow(X, moved, rows, config, "regression")
        assert want.n_nodes() > 300
        assert np.array_equal(got.feature, want.feature)
        assert np.array_equal(got.threshold, want.threshold)
        # one node, scanned on its own
        idx = rows[X[:, 2] > 0.0]
        split, loss = best_split(X, y, idx, np.arange(5))
        got_split, got_loss = best_split(X, moved, idx, np.arange(5))
        assert got_split == split
        assert got_loss == pytest.approx(loss * scale**2, rel=1e-12, abs=0)

    def test_feature_subset_falls_back_to_full_scan(self):
        # column 0 is constant, and seed 3's root draws only it
        X = np.column_stack([np.ones(8), np.arange(8.0)])
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        word = np.random.default_rng(3).bit_generator.random_raw(1)
        assert draw_subsets(mix(word), 2, 1).tolist() == [[0]]
        tree = _fit(X, y, "classification", max_features=1, max_depth=1, seed=3)
        assert not tree.is_leaf[0]
        assert tree.feature[0] == 1


@st.composite
def root_cases(draw):
    """A tie-heavy dataset of either task (up to 4 classes), a bag that
    repeats rows of a narrow range, and min_samples_leaf 1 or 3."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n = draw(st.integers(1, 80))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.integers(0, draw(st.integers(1, n)), n) / 2.0
                         for _ in range(p)])
    if task == "classification":
        y = rng.integers(0, draw(st.integers(1, 4)), n)
    else:
        y = np.round(rng.standard_normal(n), draw(st.integers(0, 3)))
    bag = rng.integers(0, draw(st.integers(1, n)), draw(st.integers(1, 2 * n)))
    return X, y, bag, task, draw(st.sampled_from([1, 3]))


@settings(max_examples=150, deadline=None)
@given(case=root_cases())
def test_best_split_is_the_root_split_of_a_depth_one_tree(case):
    """best_split on a bag, over every feature, splits where grow splits
    the root of a tree on that bag, to the bit, and finds no split where
    the root stays a leaf."""
    X, y, bag, task, msl = case
    n_classes = int(y.max()) + 1 if task == "classification" else None
    cfg = TreeConfig(max_depth=1, max_features="all", min_samples_leaf=msl)
    tree = grow(X, y, bag, cfg, task, n_classes)
    got = best_split(X, y, bag, range(X.shape[1]), n_classes, msl)
    assert (got is None) == tree.is_leaf[0]
    if got is not None:
        assert got[0].feature == tree.feature[0]
        assert _same_float(got[0].threshold, tree.threshold[0])


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

    @pytest.mark.parametrize("depth,split_last,n_nodes", [
        (15, False, 65_535), (15, True, 65_537), (17, False, 262_143)])
    def test_route_of_trees_about_and_over_65536_nodes(self, depth, split_last,
                                                       n_nodes):
        """route groups a tree's visits as an int64 stable argsort of the
        node ids does, with ids as uint16 up to 65,536 nodes and as uint32
        above. A full binary tree has an odd node count: 65,535 nodes is
        the largest tree whose ids are uint16, and 65,537, the balanced
        tree with one leaf split again, the smallest whose ids are not.
        The trees split one feature at the midpoints of [0, 2**(depth + 1)),
        and route agrees with apply at every leaf."""
        span = 2 ** (depth + 1)
        feature, threshold = [], []

        def build(lo, hi, d):
            if d < depth or (split_last and hi - lo == 2 and hi == span):
                feature.append(0)
                threshold.append((lo + hi) / 2 - 0.5)
                mid = (lo + hi) // 2
                build(lo, mid, d + 1)
                build(mid, hi, d + 1)
            else:
                feature.append(-1)
                threshold.append(0.0)

        build(0, span, 0)
        facts = {"feature": np.array(feature), "threshold": np.array(threshold),
                 "class_counts": np.ones((len(feature), 2), dtype=np.int64)}
        tree, = build_trees(facts, [len(feature)], "classification", 2, 1)
        assert tree.n_nodes() == n_nodes
        # the last leaves, whose ids need the widest type, are reached too
        x = np.r_[np.random.default_rng(3).integers(0, span, 50_000), span - 4:span]
        X = x[:, None] - 0.25
        rows, offsets = tree.route(X)
        visits = tree._descend(X)
        nodes = np.concatenate([nd for _, nd in visits]).astype(np.int64)
        want = np.concatenate([r for r, _ in visits])[np.argsort(nodes, kind="stable")]
        assert np.array_equal(rows, want)
        assert np.array_equal(offsets[1:], np.cumsum(np.bincount(nodes, minlength=n_nodes)))
        leaves = tree.apply(X)
        of_visit = np.repeat(np.arange(n_nodes), np.diff(offsets))
        assert np.array_equal(rows[tree.is_leaf[of_visit]],
                              np.argsort(leaves, kind="stable"))

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
