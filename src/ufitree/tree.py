"""CART-style trees: impurity, best-split search, growth, routing, prediction.

``grow_trees`` grows the trees of a forest together, a level at a time, so
that the nodes they wait to split are scanned, split and counted in
batches. A node that draws a feature subset draws it from a hash of its
tree's seed and its place in the tree, so no draw depends on the order
nodes grow in. Regression nodes carry their rows presorted by every
feature. ``grow`` is that grower on one bag, and ``best_split`` its root
scan on one node. A grown ``Tree`` is a set of flat preorder arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

import numpy as np

# Gains at or below this share of the node's impurity are treated as zero
# (no admissible improvement).
GAIN_EPS = 1e-12

# Candidate losses within this share of the node's impurity above the
# minimum count as tied; ties resolve to the smallest feature index, then
# smallest threshold. Needed because distinct candidates can induce the
# same partition (e.g. one mirrored left/right) whose mathematically equal
# losses differ in the last floating-point bits. Both tolerances scale with
# the impurity, so regression targets scaled by a power of two grow the
# same tree.
LOSS_TIE_TOL = 1e-9

# the per-node arrays of a Tree, in constructor order
COLUMNS = ("feature", "threshold", "left", "right", "n", "class_counts", "mean",
           "impurity", "train_decrease")

# a tree's facts by task, with their type codes: what a model file stores
FACTS = {"classification": {"feature": "q", "threshold": "d", "class_counts": "q"},
         "regression": {"feature": "q", "threshold": "d", "n": "q", "mean": "d",
                        "impurity": "d"}}


@dataclass(frozen=True)
class Split:
    """Axis-aligned split: rows with x[feature] <= threshold go left."""

    feature: int
    threshold: float


@dataclass
class TreeConfig:
    """Growth limits. The impurity follows from the task: Gini for
    classification, mean squared error for regression."""

    max_depth: int | None = None
    min_samples_leaf: int = 1
    # "all" | "sqrt" | int count | float fraction; None picks the task
    # default: sqrt(p) for classification, all for regression
    max_features: object = None

    def resolved(self, task: str) -> "TreeConfig":
        """This config with max_features set to the task default if it is None."""
        if self.max_features is not None:
            return self
        return replace(self, max_features="sqrt" if task == "classification" else "all")

    def validate(self, p: int):
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if isinstance(self.max_features, int) and not isinstance(self.max_features, bool):
            if not 1 <= self.max_features <= p:
                raise ValueError("max_features count must be in [1, p]")
        elif isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("max_features fraction must be in (0, 1]")
        elif self.max_features not in ("all", "sqrt"):
            raise ValueError(f"bad max_features: {self.max_features!r}")


def resolve_max_features(max_features, p: int) -> int:
    if max_features == "all":
        return p
    if max_features == "sqrt":
        return max(1, int(np.sqrt(p)))
    if isinstance(max_features, float):
        return max(1, int(max_features * p))
    return int(max_features)


def predictive_gini(p_train: np.ndarray, p_test: np.ndarray):
    """Gini evaluated with train/test proportions mixed, 1 - sum_k p_k p'_k,
    over the last axis: a float for two vectors, an array for two arrays of
    rows. The sum adds one class at a time, in class order, with
    elementwise operations, as the split scan does, so its bits do not
    depend on the BLAS kernel."""
    p_train, p_test = np.asarray(p_train), np.asarray(p_test)
    s = 0.0
    for k in range(p_train.shape[-1]):
        s = s + p_train[..., k] * p_test[..., k]
    return 1.0 - s


def impurity_from_counts(counts: np.ndarray):
    """Gini impurity of class counts over the last axis: a float for one
    node's counts, an array for rows of them. The one Gini-of-counts rule:
    the grower's node stats and build_trees come here."""
    counts = np.asarray(counts, dtype=np.float64)
    n = counts.sum(axis=-1, keepdims=True)
    if not (n > 0).all():
        raise ValueError("empty node has no impurity")
    q = counts / n
    return predictive_gini(q, q)


def impurity_from_values(y: np.ndarray) -> float:
    """Mean squared deviation of a node's targets from their mean, with
    the grower's bits (_node_stats')."""
    if len(y) == 0:
        raise ValueError("empty node has no impurity")
    return float(_node_stats(y, np.arange(len(y)), np.array([len(y)]), None)[1][0])


class Tree:
    """A grown tree as parallel arrays indexed by node id, in preorder.

    Node 0 is the root, and an internal node's left subtree follows it
    directly, as in scikit-learn's ``Tree``. A leaf has ``left == -1``; its
    ``feature``, ``right`` and ``threshold`` are -1, -1 and 0.0, and its
    ``train_decrease`` is 0.0. ``class_counts`` (nodes x classes) is None on
    regression trees, and ``mean`` is None on classification trees.
    """

    def __init__(self, feature, threshold, left, right, n, class_counts, mean,
                 impurity, train_decrease, n_features, task, n_classes):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.n = np.asarray(n, dtype=np.int64)
        self.class_counts = None if class_counts is None \
            else np.asarray(class_counts, dtype=np.int64)
        self.mean = None if mean is None else np.asarray(mean, dtype=np.float64)
        self.impurity = np.asarray(impurity, dtype=np.float64)
        self.train_decrease = np.asarray(train_decrease, dtype=np.float64)
        self.n_features = n_features
        self.task = task
        self.n_classes = n_classes

    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_root(self) -> int:
        return int(self.n[0])

    @property
    def is_leaf(self) -> np.ndarray:
        return self.left == -1

    def _descend(self, X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(rows, nodes) per depth: the rows that reach that depth, ascending,
        and the node each reaches. One vectorized step per depth."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} columns, got {X.shape}")
        if not np.isfinite(X).all():
            # a NaN compares False with every threshold, so it would go right
            raise ValueError("feature values must be finite")
        rows = np.arange(X.shape[0])
        nodes = np.zeros(len(rows), dtype=np.intp)
        steps = [(rows, nodes)]
        while True:
            inner = self.left[nodes] != -1
            rows, nodes = rows[inner], nodes[inner]
            if not len(rows):
                return steps
            go_left = X.take(rows * X.shape[1] + self.feature[nodes]) \
                <= self.threshold[nodes]
            nodes = np.where(go_left, self.left[nodes], self.right[nodes])
            steps.append((rows, nodes))

    def route(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every row's root-to-leaf path, grouped by node.

        Returns (rows, offsets): the rows that pass through node i are
        ``rows[offsets[i]:offsets[i + 1]]``, in ascending order.
        """
        steps = self._descend(X)
        rows = np.concatenate([r for r, _ in steps])
        nodes = np.concatenate([nd for _, nd in steps])
        offsets = np.zeros(self.n_nodes() + 1, dtype=np.intp)
        np.cumsum(np.bincount(nodes, minlength=self.n_nodes()), out=offsets[1:])
        # every visit to a node happens at one depth, where rows ascend; as
        # uint16, up to 65,536 nodes, the stable sort is numpy's radix sort
        order = np.argsort(nodes.astype(_row_dtype(self.n_nodes())), kind="stable")
        return rows[order], offsets

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf id reached by each row."""
        steps = self._descend(X)
        leaves = np.empty(len(steps[0][0]), dtype=np.intp)
        for rows, nodes in steps:
            leaves[rows] = nodes
        return leaves

    def apply_permuted(self, X: np.ndarray, perms: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Leaf ids of X, and of X with one column permuted at a time.

        Returns (leaves, permuted): ``leaves`` is ``apply(X)``, and
        ``permuted[j]`` is ``apply`` of the copy of X whose column j is
        permuted by ``perms[j]``, that is, whose row r holds
        ``X[perms[j, r], j]`` in column j.

        Such a row differs from row r only in column j, so it follows r's
        path down to the first node on it that splits on j. One descent of
        X finds those nodes, and only the (j, r) pairs that reach one go on
        from there, one vectorized step per depth.
        """
        steps = self._descend(X)
        X = np.asarray(X, dtype=np.float64)
        m, p = X.shape
        if np.shape(perms) != (p, m):
            raise ValueError(f"expected {p} permutations of {m} rows, "
                             f"got {np.shape(perms)}")
        leaves = np.empty(m, dtype=np.intp)
        # start[j, r]: the first node on row r's path that splits on j, or -1;
        # going up the path, a shallower node overwrites a deeper one (node
        # ids fit int32, which halves the array)
        start = np.full((p, m), -1, dtype=np.int32)
        while steps:
            rows, nodes = steps.pop()
            inner = self.left[nodes] != -1
            leaves[rows[~inner]] = nodes[~inner]
            start[self.feature[nodes[inner]], rows[inner]] = nodes[inner]
        permuted = np.tile(leaves, (p, 1))
        j, r = np.nonzero(start >= 0)
        node = start[j, r]
        del start
        # every pair starts at a node that splits on its own column j
        x = X[perms[j, r], j]
        while len(node):
            node = np.where(x <= self.threshold[node],
                            self.left[node], self.right[node])
            go = self.left[node] != -1
            done = ~go
            permuted[j[done], r[done]] = node[done]
            j, r, node = j[go], r[go], node[go]
            f = self.feature[node]
            x = X[r, f]
            own = np.flatnonzero(f == j)
            x[own] = X[perms[j[own], r[own]], j[own]]
        return leaves, permuted

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("predict_proba requires a classification tree")
        leaves = self.apply(X)
        return self.class_counts[leaves] / self.n[leaves][:, None]

    def predict(self, X: np.ndarray) -> np.ndarray:
        leaves = self.apply(X)
        if self.task == "classification":
            return np.argmax(self.class_counts[leaves], axis=1)
        return self.mean[leaves]


def _row_dtype(n_rows: int):
    """The unsigned type of row ids and sort keys over n_rows rows."""
    return np.uint16 if n_rows <= 2**16 else np.uint32


def _code_dtype(bits: int):
    """The type of non-negative codes of at most ``bits`` bits: uint32 up
    to 32 bits, which numpy sorts about twice as fast, else int64."""
    return np.uint32 if bits <= 32 else np.int64


def sort_keys(X: np.ndarray) -> np.ndarray:
    """Per-feature sort keys, one row per column of X: dense ranks, which
    order and tie exactly like the values, as uint16 up to 65,536 rows and
    uint32 above. numpy sorts them several times faster than floats.
    Raises ValueError if X has a non-finite value, which orders unlike its
    rank."""
    if not np.isfinite(X).all():
        raise ValueError("sort keys need finite feature values")
    keys = np.empty((X.shape[1], X.shape[0]), dtype=_row_dtype(X.shape[0]))
    for j in range(X.shape[1]):
        keys[j] = np.unique(X[:, j], return_inverse=True)[1]
    return keys


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sum of values[offsets[i]:offsets[i + 1]] for every i, 0.0 for an
    empty segment: one np.add.reduceat call over the non-empty segments,
    the one summation rule of regression node statistics. A segment's sum
    has the bits of np.add.reduceat(segment, [0]), wherever it lies."""
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    starts = offsets[:-1]
    full = starts < offsets[1:]
    sums = np.zeros(len(starts))
    if full.any():
        sums[full] = np.add.reduceat(values[:offsets[-1]], starts[full])
    return sums


# A scan call takes nodes until they hold this many (row, feature) values,
# or one node if it alone holds more; a regression split filters its
# blocks in pieces of about this size too. The first steps of a 20-tree
# classification fit on 2,000 rows hold up to 240,000 values (6 features)
# or 1.5 million (37 in the rescans); scanned at once, they raised the
# process's peak RSS from 45.3 to 47.9 MB, and in calls of this size to
# 45.8 MB.
SCAN_VALUES = 1 << 16

# A regression forest grows in groups of trees whose bags hold at most
# this many (row, feature) values, or one tree if its bag alone holds more:
# a group carries every pending node's rows presorted by every feature, as
# 4-byte (id, key) pairs, twice while a step partitions them. Fitting
# perm-oob's 1,000-row, 37-column regression file, 2**18 values took 0.40 s
# CPU and 43.7 MB peak RSS, 2**19 0.36 s and 44.5 MB, and 2**20 (one group
# of 20 trees) 0.34 s and 48.1 MB, above the 47.9 MB of its classification
# call.
PRESORT_VALUES = 1 << 19


def _chunks(cost: np.ndarray, cap: int) -> list[tuple[int, int]]:
    """Consecutive ranges [a, b) of items whose costs add up to at most
    cap, or of one item that costs more."""
    ends = np.cumsum(cost)
    out, a = [], 0
    while a < len(ends):
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + cap, side="right")))
        out.append((a, b))
        a = b
    return out


def _presort(keys: np.ndarray, rows: np.ndarray, first: int, dtype) -> np.ndarray:
    """A node's block of p x n (id, key) pairs: for each feature, its rows
    in the stable order of their keys, as ids ``first + row``, with those
    keys, all of the given type."""
    pairs = np.empty((keys.shape[0], len(rows), 2), dtype=dtype)
    sub = keys.take(rows, axis=1)
    pairs[:, :, 0] = (rows + first)[sub.argsort(axis=1, kind="stable")]
    sub.sort(axis=1)  # the keys in that order, cheaper than gathering
    pairs[:, :, 1] = sub
    return pairs.reshape(-1, 2)


def _padded(blocks: list, pad: int) -> np.ndarray:
    """The blocks of pairs one after another, then ``pad`` zero pairs: a
    scan reads each block through windows as wide as its node's rows."""
    return np.concatenate(blocks + [np.zeros((pad, 2), dtype=blocks[0].dtype)])


def _windows(pairs: np.ndarray, width: int) -> np.ndarray:
    """The (start, position, id or key) view of every ``width`` consecutive
    pairs of a contiguous array of pairs: sliding_window_view's, at less
    cost."""
    size = pairs.itemsize
    return np.ndarray((len(pairs) - width + 1, width, 2), pairs.dtype, pairs,
                      0, (2 * size, 2 * size, size))


def _scan_regression(X, y, pairs, n, base, mean, imp, feats, msl):
    """best_split's (feature, threshold, loss) of each of m regression
    nodes, as arrays; the feature is -1 where no candidate improves on the
    node by more than GAIN_EPS.

    Node i has n[i] rows. Its rows in the stable order of feature j's keys
    are the (id, key) pairs ``pairs[base[i] + j * n[i]:][:n[i]]``: an id
    indexes the targets y, and id r is row r modulo len(X) of X. The pairs
    run on for at least max(n) pairs past the last block. mean[i] is the
    node's recorded mean, imp[i] its MSE and feats[i] the sorted features
    it scans (an m x k array).

    Nodes are scanned in blocks, largest first, under one rule: a block
    holds one node, or nodes over half as large as its largest that hold
    at most SCAN_VALUES (row, feature) values once each is padded to the
    largest's rows. A block is a (segment x position) array of targets
    less their node's mean, a segment being a (node, feature) pair read
    through a window as wide as the block's largest node. np.cumsum along
    each segment gives the left sums d and, at the segment's last row,
    its own total s: the bits of a per-node cumsum along the node's stable
    sort, whatever follows a segment in its window. A candidate threshold
    lies wherever the key changes, leaving msl rows on each side. Its
    loss, the weighted child MSE, is the node's MSE less the between-groups
    term nl nr gap**2 / n**2, gap = d/nl - (s - d)/nr being the difference
    of the side means (Breiman et al. 1984). Centred sums do not cancel
    when |mean(y)| >> sd(y), as sums of y and y**2 do (Chan, Golub and
    LeVeque 1983), so a shift of y leaves the tree as it is. _first_best
    picks the split. A threshold is the mean of the two values around it.
    """
    m, k = feats.shape
    out = (np.full(m, -1, dtype=np.intp), np.zeros(m), np.zeros(m))
    by_size = np.argsort(-n, kind="stable")
    fall = -n[by_size]  # ascending
    a = 0
    while a < m:
        width = -int(fall[a])
        b = min(a + max(1, SCAN_VALUES // (k * width)),
                int(np.searchsorted(fall, -(width // 2))))
        _scan_block(X, y, pairs, n, base, mean, imp, feats, msl,
                    by_size[a:b], out)
        a = b
    return out


def _scan_block(X, y, pairs, n, base, mean, imp, feats, msl, nodes, out):
    """_scan_regression on the given nodes, written into ``out``."""
    k = feats.shape[1]
    size = n[nodes]
    width = int(size.max())
    seg_n = np.repeat(size, k)
    seg_feat = feats[nodes].ravel()
    start = np.repeat(base[nodes], k) + seg_feat * seg_n
    block = _windows(pairs, width)[start]
    rows, keys = block[:, :, 0], block[:, :, 1]
    # candidate (segment, position) pairs, segment-major: between distinct
    # keys, leaving msl rows on each side (a window runs on past a shorter
    # segment)
    seg, t = np.divmod(np.flatnonzero(keys[:, 1:] != keys[:, :-1]), width - 1)
    keep = t <= seg_n[seg] - 1 - msl
    if msl > 1:
        keep &= t >= msl - 1
    seg, t = seg[keep], t[keep]
    if not len(seg):
        return
    # (segment, position): the targets less their node's mean, summed
    # along each segment
    cum = np.empty(rows.shape)
    y.take(rows, out=cum, mode="clip")  # unbuffered
    cum -= np.repeat(mean[nodes], k)[:, None]
    np.cumsum(cum, axis=1, out=cum)
    node = seg // k
    nl = t + 1.0
    total = seg_n[seg]
    nr = total - nl
    d, s = cum[seg, t], cum[seg, total - 1]
    gap = d / nl - (s - d) / nr
    loss = imp[nodes][node] - nl * nr / (total * total) * (gap * gap)
    best, found = _first_best(loss, node, imp[nodes])
    found = nodes[found]
    seg, t = seg[best], t[best]
    j = seg_feat[seg]
    lo, hi = rows[seg, t] % len(X), rows[seg, t + 1] % len(X)
    out[0][found] = j
    out[1][found] = (X[lo, j] + X[hi, j]) / 2.0
    out[2][found] = loss[best]


def _first_best(loss, node, imp) -> tuple[np.ndarray, np.ndarray]:
    """The pick rule of both split scans. ``node`` holds each candidate's
    node, in ascending order, and imp[i] is node i's impurity. Returns
    (best, nodes): for each node that splits, the index of its first
    candidate within LOSS_TIE_TOL times its impurity of its minimum loss,
    in (feature, threshold) order. A node splits if that loss improves on
    its impurity by more than GAIN_EPS times the impurity."""
    counts = np.bincount(node, minlength=len(imp))
    nodes = np.flatnonzero(counts)
    first = (np.cumsum(counts) - counts)[nodes]
    low = np.minimum.reduceat(loss, first)
    h = imp[nodes]
    tol = np.repeat(low + LOSS_TIE_TOL * h, counts[nodes])
    best = np.minimum.reduceat(
        np.where(loss <= tol, np.arange(len(loss)), len(loss)), first)
    ok = h - loss[best] > GAIN_EPS * h
    return best[ok], nodes[ok]


def best_split(X, y, idx, feats, n_classes=None, min_samples_leaf=1):
    """Best (feature, threshold) over the candidate features, or None.

    Returns (Split, loss) minimizing the weighted child impurity: Gini when
    ``n_classes`` is given, mean squared error when it is None. None when
    no admissible candidate improves on the parent (gain <= GAIN_EPS times
    its impurity). The node is the root of a fit on (X[idx], y[idx]): the
    grower's setup and checks (_prepare), its root (_roots) and one
    _best_splits call on the given features, so a call costs the node's
    size. Raises ValueError on what grow rejects, and on a feature outside
    [0, p).
    """
    X = np.asarray(X)
    idx = _bag(idx, len(X))
    task = "regression" if n_classes is None else "classification"
    config = TreeConfig(min_samples_leaf=min_samples_leaf, max_features="all")
    X, y, bags, config, n_classes, keys, table = _prepare(
        X[idx], np.asarray(y)[idx], [np.arange(len(idx))], config, task, n_classes)
    feats = np.sort(np.asarray(feats, dtype=np.intp))
    if feats.ndim != 1 or not len(feats) or feats[0] < 0 or feats[-1] >= X.shape[1]:
        raise ValueError(f"candidate features must be a non-empty subset of "
                         f"[0, {X.shape[1]})")
    root = _roots(X, y, keys, bags, np.zeros(1, np.uint64), _Record(task), config,
                  n_classes)
    if not len(root):  # pure, or too small for two leaves
        return None
    f, s, loss = (a[0] for a in _best_splits(X, y, table, root, np.arange(1),
                                             feats[None], n_classes, min_samples_leaf))
    if f < 0:
        return None
    return Split(int(f), float(s)), float(loss)


def _scan_table(X, keys, y, n_classes) -> tuple:
    """What _scan_segments reads of a classification fit's data, for
    integer keys = sort_keys(X): (coded, key_bits, low, values, offsets).

    ``coded[j * n + r]`` is row r's key in column j, of at most
    ``key_bits`` bits, shifted left by ``low`` bits, which hold the row's
    class, as _code_dtype(key_bits + low). The value of rank k in column j
    is ``values[offsets[j] + k]``.
    """
    key_bits = int(keys.max()).bit_length()
    low = int(n_classes - 1).bit_length()
    coded = keys.astype(_code_dtype(key_bits + low)) << low
    coded |= np.asarray(y, dtype=coded.dtype)
    sizes = keys.max(axis=1).astype(np.intp) + 1
    offsets = np.cumsum(sizes) - sizes
    values = np.empty(offsets[-1] + sizes[-1])
    values[offsets[:, None] + keys] = X.T
    return coded.ravel(), key_bits, low, values, offsets


def _scan_segments(table, n_data, rows, start, n, feats, imp, n_classes, msl):
    """best_split's (feature, threshold, loss) of each of m classification
    nodes in one pass, as arrays; the feature is -1 where no candidate
    improves on the node by more than GAIN_EPS. Node i's rows are
    ``rows[start[i]:start[i] + n[i]]`` of the n_data rows that ``table``
    (_scan_table's) codes, imp[i] its Gini and feats[i] the sorted
    features it scans (an m x k array).

    Each (node, feature) pair is a segment of one flat array of codes,
    each of which packs (segment, key, class), as _code_dtype of their
    width: uint32 whenever segment, key and class fit in 32 bits. A plain
    sort puts the codes in (segment, key, class) order, whatever their type
    and the order they start in. A candidate threshold lies wherever a run
    of equal codes with a new key starts inside a segment. Class counts do
    not depend on the order of the rows within a key, so left class counts
    are integer prefix sums over the runs less the segment's base, exact
    like a per-feature cumsum. The loss, the per-node minimum, the tie rule
    and the gain check repeat, operation by operation and in feature-major
    order, the per-node scan that tests/conftest.py keeps as the reference.
    A threshold is the mean of the values of the two keys around it, which
    are the values a per-node scan reads from X. Every node has rows.
    """
    coded, key_bits, low, values, offsets = table
    m, k = feats.shape
    seg_node = np.repeat(np.arange(m), k)
    seg_len = n[seg_node]
    seg_start = np.cumsum(seg_len) - seg_len
    seg_feat = feats.ravel()
    # the codes start as a (feature, row) array: row r of the nodes' rows
    # one after another, at position t of node i, is rows[start[i] + t],
    # and its code on node i's f-th feature is in segment i * k + f
    node = np.repeat(np.arange(m), n)
    ends = np.cumsum(n)
    at = np.arange(ends[-1]) + np.repeat(start - (ends - n), n)
    shift = key_bits + low
    dtype = _code_dtype((len(seg_len) - 1).bit_length() + shift)
    code = np.add.outer(np.arange(k, dtype=dtype) << shift,
                        (node * k).astype(dtype) << shift)
    flat = np.take(feats.T * n_data, node, axis=1)
    flat += rows[at]
    code |= coded[flat]
    code = code.ravel()
    del node, at, flat
    code.sort()
    # runs of equal codes; segment s's runs are bounds[s] to bounds[s + 1]
    starts = np.flatnonzero(code[1:] != code[:-1]) + 1
    before, after = code[starts - 1] >> low, code[starts] >> low  # (segment, key)
    new_seg = before >> key_bits != after >> key_bits
    run_start = np.concatenate([[0], starts])
    bounds = np.concatenate([[0], np.flatnonzero(new_seg) + 1, [len(run_start)]])
    # the candidates: the runs with a new key inside a segment, each with
    # the nl rows of its segment before it, leaving msl rows on each side
    cand = np.flatnonzero((before != after) & ~new_seg)
    before, after, run = before[cand], after[cand], cand + 1
    seg = after >> key_bits
    nl = run_start[run] - seg_start[seg]
    total = seg_len[seg]
    if msl > 1:
        keep = (nl >= msl) & (total - nl >= msl)
        before, after, run, seg, nl, total = (
            a[keep] for a in (before, after, run, seg, nl, total))
    out = (np.full(m, -1, dtype=np.intp), np.zeros(m), np.zeros(m))
    if len(run) == 0:
        return out
    nl = nl.astype(np.float64)
    nr = total - nl
    # per-class counts left of each candidate and in its segment, as prefix
    # sums over runs; the last class holds the rest
    prefix = np.zeros((n_classes - 1, len(run_start) + 1), dtype=np.int64)
    np.cumsum(np.where((code[run_start] & (1 << low) - 1)
                       == np.arange(n_classes - 1)[:, None],
                       np.diff(run_start, append=len(code)), 0),
              axis=1, out=prefix[:, 1:])
    base = prefix[:, bounds[seg]]
    cums = prefix[:, run] - base
    totals = prefix[:, bounds[seg + 1]] - base
    del prefix
    cums = np.vstack([cums, nl - cums.sum(axis=0)]).astype(np.float64)
    totals = np.vstack([totals, total - totals.sum(axis=0)]).astype(np.float64)
    sl = 0.0
    sr = 0.0
    for cum, tot in zip(cums, totals):
        pl = cum / nl
        pr = (tot - cum) / nr
        sl = sl + pl * pl
        sr = sr + pr * pr
    loss = (nl * (1.0 - sl) + nr * (1.0 - sr)) / total

    best, found = _first_best(loss, seg_node[seg], imp)
    j = seg_feat[seg[best]]
    key_mask = (1 << key_bits) - 1
    out[0][found] = j
    out[1][found] = (values[offsets[j] + (before[best] & key_mask)]
                     + values[offsets[j] + (after[best] & key_mask)]) / 2.0
    out[2][found] = loss[best]
    return out


def _best_splits(X, y, table, nodes, sel, feats, n_classes, msl):
    """(feature, threshold, loss) arrays of the nodes ``sel`` of a _Nodes
    set, scanning feats (one sorted row per node), with feature -1 where a
    node does not split: one _scan_regression call, or _scan_segments calls
    of about SCAN_VALUES values."""
    n = nodes.n[sel]
    if n_classes is None:
        return _scan_regression(X, y, nodes.pairs, n, X.shape[1] * nodes.start[sel],
                                nodes.mean[sel], nodes.imp[sel], feats, msl)
    out = (np.empty(len(sel), dtype=np.intp), np.empty(len(sel)), np.empty(len(sel)))
    for a, b in _chunks(n * feats.shape[1], SCAN_VALUES):
        part = sel[a:b]
        for column, found in zip(out, _scan_segments(
                table, len(X), nodes.rows, nodes.start[part], n[a:b],
                feats[a:b], nodes.imp[part], n_classes, msl)):
            column[a:b] = found
    return out


def evaluate_split(X, y, idx, split: Split, n_root, n_classes=None,
                   min_samples_leaf=1):
    """Loss L(Q, theta) and root-weighted decrease for one concrete split,
    under Gini when ``n_classes`` is given and MSE when it is None.

    Returns (loss, delta) or None when a child would fall below
    min_samples_leaf (the candidate is inadmissible, not an error).
    """
    idx = np.asarray(idx)
    n = len(idx)
    mask = X[idx, split.feature] <= split.threshold
    nl = int(mask.sum())
    nr = n - nl
    if nl < min_samples_leaf or nr < min_samples_leaf:
        return None
    h = _node_stats(y, np.concatenate([idx, idx[mask], idx[~mask]]),
                    np.array([n, nl, nr]), n_classes)[1]
    delta = root_weighted_decrease(np.array([n, nl, nr]) / n_root, h, 0, 1, 2)
    return float((nl * h[1] + nr * h[2]) / n), float(delta)


def root_weighted_decrease(w, h, node, lo, hi):
    """The root-weighted decrease of impurity h at internal nodes ``node``
    with children ``lo`` and ``hi``, w[i] being node i's share of the
    root's rows: w_m h_m - (w_l h_l + w_r h_r). A tree's train_decrease
    and ufi's test-side decrease both come from here, so scoring a tree on
    its own in-bag rows gives its train_decrease to the bit."""
    return w[node] * h[node] - (w[lo] * h[lo] + w[hi] * h[hi])


def build_trees(facts: dict, sizes, task: str, n_classes, p: int) -> list[Tree]:
    """Trees from their FACTS[task], numpy columns of trees one after
    another, tree t's sizes[t] nodes in preorder with feature -1 at leaves.
    A left child follows its parent; a right child follows its sibling's
    subtree, which ends at the first later node whose running count (+1
    per internal node, -1 per leaf) is one below the parent's. Derives
    train_decrease, and a classification node's n and impurity
    (impurity_from_counts). Raises ValueError naming the first tree at fault."""
    if not np.all(sizes):
        raise ValueError(f"tree {np.argmin(sizes)}: no nodes")
    ends = np.cumsum(sizes)
    firsts, feature, m = ends - sizes, facts["feature"], int(ends[-1])
    counts = facts["class_counts"] if task == "classification" else None
    n = facts["n"] if counts is None else counts.sum(axis=1)
    first = np.repeat(firsts, sizes)
    level = np.cumsum(np.where(feature == -1, -1, 1))
    # a full binary tree's own count falls below 0 at its last node alone
    closed = level < (level - 2 * (feature != -1) + 1)[first]
    closed[ends - 1] ^= True
    for ok, what in (((feature >= -1) & (feature < p), f"a feature outside [-1, {p})"),
                     (np.isfinite(facts["threshold"]), "a non-finite threshold"),
                     (~closed, "features not a full binary tree in preorder"),
                     ((n >= 1) & (True if counts is None else (counts >= 0).all(axis=1)),
                      "a node count below 1 or a negative class count")):
        if not ok.all():
            raise ValueError(f"tree {ends.searchsorted(ok.argmin(), 'right')}: {what}")
    inner = np.flatnonzero(feature != -1)
    key = (level - level.min()) * (m + 1) + np.arange(m)
    ranked = np.sort(key)
    hi = ranked[ranked.searchsorted(key[inner] - m - 1)] % (m + 1) + 1
    del closed, level, key, ranked
    if counts is None:
        mean, impurity = facts["mean"], facts["impurity"]
    else:
        mean, impurity = None, impurity_from_counts(counts)
    decrease = np.zeros(m)
    decrease[inner] = root_weighted_decrease(n / n[first], impurity, inner, inner + 1, hi)
    # child ids count from each tree's first node
    left, right = np.full(m, -1), np.full(m, -1)
    left[inner], right[inner] = inner + 1 - first[inner], hi - first[inner]
    columns = (feature, facts["threshold"], left, right, n, counts, mean, impurity,
               decrease)
    return [Tree(*(None if c is None else c[a:b] for c in columns), p, task, n_classes)
            for a, b in zip(firsts.tolist(), ends.tolist())]


# splitmix64 (Steele, Lea and Flood, OOPSLA 2014): its increment and the
# two multipliers of its finaliser
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_1, MIX_2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 of each word of a uint64 array: add GOLDEN_GAMMA, then
    the finaliser, in wrapping uint64 arithmetic."""
    z = x + GOLDEN_GAMMA
    z = (z ^ (z >> 30)) * MIX_1
    z = (z ^ (z >> 27)) * MIX_2
    return z ^ (z >> 31)


def child_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The path keys of the left and of the right children of nodes with
    these keys: mix(2 key + side), side 0 on the left and 1 on the right.
    A root's key is mix of its tree's seed."""
    twice = keys << 1
    return mix(twice), mix(twice | 1)


def draw_subsets(keys: np.ndarray, p: int, k: int) -> np.ndarray:
    """The sorted max_features subset of each node with these path keys,
    one row of k of the p features per node: the k features j with the
    smallest mix(key ^ mix(j)). A node's subset depends on its tree's seed
    and its place in the tree alone, as the counter-based generators of
    Salmon et al. (SC 2011) draw. mix is a bijection of uint64 words, and
    so is XOR with a key, so a node's p hashes are distinct: no tie needs
    a rule, and a partition finds the k smallest. Nodes are hashed in
    pieces of about SCAN_VALUES (node, feature) pairs."""
    out = np.empty((len(keys), k), dtype=np.intp)
    salt = mix(np.arange(p, dtype=np.uint64))
    step = max(1, SCAN_VALUES // p)
    for a in range(0, len(keys), step):
        h = mix(keys[a:a + step, None] ^ salt)
        out[a:a + step] = np.sort(np.argpartition(h, k - 1, axis=1)[:, :k], axis=1)
    return out


def grow(X, y, indices, config: TreeConfig, task: str,
         n_classes: int | None = None, rng=0) -> Tree:
    """Grow a tree on the given row indices of (X, y): grow_trees on one bag.

    ``rng`` is a seed or a Generator; the tree takes one raw word of it as
    the seed of its max_features subsets.
    """
    return grow_trees(X, y, [indices], [np.random.default_rng(rng)], config,
                      task, n_classes)[0]


class _Nodes:
    """Nodes waiting for a scan, in flat arrays. Per node: its tree (an
    index into the group), its id (the group's creation order), depth, row
    count, impurity and path key (child_keys'), and its mean (None for
    classification). ``rows`` holds each node's rows in node order, one
    node after another from ``start``; for regression, ``pairs`` holds each node's block of p x n (id, key)
    pairs (_presort's), one node after another, then padding (_padded)."""

    FIELDS = ("tree", "gid", "depth", "n", "imp", "key", "mean")

    def __init__(self, tree, gid, depth, n, imp, key, mean, rows):
        self.tree, self.gid, self.depth, self.n = tree, gid, depth, n
        self.imp, self.key, self.mean = imp, key, mean
        self.rows, self.pairs = rows, None
        self.start = np.cumsum(n) - n

    def __len__(self) -> int:
        return len(self.n)

    def _fields(self):
        return [getattr(self, name) for name in self.FIELDS]


class _Record:
    """What a group of growing trees has made, in typed arrays: each node's
    facts, class counts flat, in creation order, and each split (the node,
    its feature and threshold, and its children), one step after another.
    A step splits nodes of one depth."""

    def __init__(self, task: str):
        self.splits = {name: array("q") for name in ("node", "feature", "left", "right")}
        self.splits["threshold"] = array("d")
        self.nodes = {name: array(code) for name, code in FACTS[task].items()
                      if name not in self.splits}
        self.made, self.steps = 0, [0]  # nodes made; where each step's splits start

    @staticmethod
    def _extend(columns, values):
        """Append values[name] to each column; other values are not kept."""
        for name, col in columns.items():
            col.frombytes(np.asarray(values[name], dtype=np.dtype(col.typecode)).tobytes())

    def add(self, **values) -> np.ndarray:
        """Record new nodes; returns their ids."""
        self._extend(self.nodes, values)
        self.made += len(values["n"])
        return np.arange(self.made - len(values["n"]), self.made)

    def split(self, **values):
        """Record a step's splits."""
        self._extend(self.splits, values)
        self.steps.append(len(self.splits["node"]))

    def trees(self, task, n_classes, p, n_trees) -> list[Tree]:
        """The group's trees, from their facts in preorder (build_trees). Tree
        t's root is node t, and a node's place follows from subtree sizes,
        a step at a time. The columns move from typed to numpy arrays one at
        a time, so that the record's memory is held about once, not twice."""

        def take(columns, name):
            col = columns.pop(name)
            return np.frombuffer(col, dtype=np.dtype(col.typecode)).copy()

        inner, lo, hi = (take(self.splits, name) for name in ("node", "left", "right"))
        m = self.made
        levels = [slice(a, b) for a, b in zip(self.steps, self.steps[1:])]
        size = np.ones(m, dtype=np.int64)
        for at in reversed(levels):
            size[inner[at]] += size[lo[at]] + size[hi[at]]
        sizes = size[:n_trees]
        # place[i]: node i's place in the trees, one after another
        place = np.zeros(m, dtype=np.int64)
        place[:n_trees] = np.cumsum(sizes) - sizes
        for at in levels:
            place[lo[at]] = place[inner[at]] + 1
            place[hi[at]] = place[inner[at]] + 1 + size[lo[at]]
        perm = np.empty(m, dtype=np.intp)
        perm[place] = np.arange(m)
        del size, place, lo, hi
        facts = {}
        for name, fill in (("feature", -1), ("threshold", 0)):
            values = take(self.splits, name)
            facts[name] = np.full(m, fill, dtype=values.dtype)
            facts[name][inner] = values
            facts[name] = facts[name][perm]
        for name in list(self.nodes):
            c = take(self.nodes, name)
            facts[name] = (c.reshape(m, n_classes) if name == "class_counts" else c)[perm]
        del inner, perm, values, c
        return build_trees(facts, sizes, task, n_classes, p)


def _node_stats(y, rows, sizes, n_classes) -> tuple:
    """(stats, impurities) of consecutive groups of rows, ``rows`` holding
    them one after another and ``sizes`` their lengths, none of them 0.
    For classification: the class counts (groups x classes) from one
    bincount, and their Gini (impurity_from_counts). For regression: the
    mean and the MSE, from two np.add.reduceat calls: each group's bits
    are those of np.add.reduceat over its values alone."""
    if n_classes is not None:
        code = np.repeat(np.arange(len(sizes)) * n_classes, sizes) + y[rows]
        counts = np.bincount(code, minlength=len(sizes) * n_classes) \
            .reshape(len(sizes), n_classes)
        return counts, impurity_from_counts(counts)
    v = np.asarray(y, dtype=np.float64).take(rows)
    starts = np.cumsum(sizes) - sizes
    mean = np.add.reduceat(v, starts) / sizes
    dev = v - np.repeat(mean, sizes)
    return mean, np.add.reduceat(dev * dev, starts) / sizes


def _new_nodes(y, rec, tree, depth, key, rows, sizes, n_classes, config):
    """Record the nodes with these trees, depths, path keys and consecutive
    groups of rows, and return them as _Nodes, with the mask of those to
    scan: the others are at max_depth, pure, or too small for two leaves."""
    stats, imp = _node_stats(y, rows, sizes, n_classes)
    gid = rec.add(n=sizes, impurity=imp, class_counts=stats, mean=stats)
    scan = (sizes >= 2 * config.min_samples_leaf) & (imp > 0.0)
    if config.max_depth is not None:
        scan &= depth < config.max_depth
    return _Nodes(tree, gid, depth, sizes, imp, key,
                  None if n_classes is not None else stats, rows), scan


def _take(nodes: _Nodes, keep: np.ndarray) -> _Nodes:
    """The nodes where ``keep`` holds, with their rows and no blocks."""
    return _Nodes(*(None if f is None else f[keep] for f in nodes._fields()),
                  np.compress(np.repeat(keep, nodes.n), nodes.rows))


def grow_trees(X, y, bags, rngs, config: TreeConfig, task: str,
               n_classes: int | None = None) -> list[Tree]:
    """Grow one tree per bag of row indices of (X, y), all together.

    Trees grow in groups (one for classification; for regression, trees
    whose bags hold about PRESORT_VALUES (row, feature) values), a level at
    a time. A regression node carries its rows presorted by every feature:
    a root sorts its bag once, stably by sort_keys, and a child keeps its
    parent's order, filtered by the split, which is the stable order of its
    own rows. In each step every node that waits for a scan is scanned
    (_best_splits), and the nodes that split are partitioned, and their
    children get their stats, together (_split).

    Each tree takes one raw 64-bit word of its generator in ``rngs`` as its
    seed. A node whose tree draws feature subsets (max_features below p)
    scans draw_subsets' subset of its path key, chained from the seed by
    child_keys, or all features if that subset has no admissible split. So
    no node depends on the order nodes grow in: a tree is the same
    whichever trees grow beside it, and its nodes are numbered in
    preorder. Raises ValueError on bad input (_prepare).
    """
    if len(rngs) != len(bags):
        raise ValueError("grow_trees needs one generator per bag")
    X, y, bags, config, n_classes, keys, table = _prepare(X, y, bags, config, task,
                                                          n_classes)
    # a regression tree's group holds its bag's presorted rows and, per row
    # of X, a target and a code (_grow_group)
    groups = [(0, len(bags))] if table is not None else _chunks(
        np.array([len(rows) for rows in bags]) * X.shape[1] + len(X), PRESORT_VALUES)
    seeds = np.array([rng.bit_generator.random_raw() for rng in rngs],
                     dtype=np.uint64)
    grown = []
    for a, b in groups:
        grown += _grow_group(X, y, keys, table, bags[a:b], seeds[a:b], config,
                             task, n_classes)
    return grown


def _bag(rows, n: int) -> np.ndarray:
    """A bag of row indices as intp: at least one row, each an integer in
    [0, n). A float or boolean index would be cast to a row silently."""
    rows = np.asarray(rows)
    if rows.ndim != 1 or not len(rows) or rows.dtype.kind not in "iu" \
            or rows.min() < 0 or rows.max() >= n:
        raise ValueError(f"a bag must be a non-empty list of row indices in [0, {n})")
    return rows.astype(np.intp, copy=False)


def _prepare(X, y, bags, config: TreeConfig, task: str, n_classes) -> tuple:
    """What a fit does before it grows. Checks X and y, the bags (_bag), the
    config, and the labels (integers in [0, n_classes), the largest + 1 by
    default) or the bags' targets (finite, and small enough to square and
    sum). Returns (X, y, bags, config, n_classes, keys, table): keys is
    sort_keys(X), and table _scan_table's, None for regression."""
    X, y = np.ascontiguousarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(f"X must be 2-D with one target per row; got X of "
                         f"shape {X.shape} and y of shape {y.shape}")
    bags = [_bag(rows, len(X)) for rows in bags]
    config = config.resolved(task)
    config.validate(X.shape[1])
    if task != "classification":
        n_classes = None  # None selects MSE in the split scan
        y = np.asarray(y, dtype=np.float64)
        top = max(len(rows) for rows in bags)
        if not np.abs(y[np.concatenate(bags)]).max() <= target_limit(top):
            raise ValueError(
                "regression targets must be finite and within "
                f"±{target_limit(top):.6g}, so that a sum of squares over "
                f"{top} rows cannot overflow")
    else:
        if y.dtype.kind not in "biu":
            raise ValueError(f"class labels must be integers, not {y.dtype}")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        if y.min() < 0 or y.max() >= n_classes:
            # a batched bincount would count such a label in another node,
            # and a scan code would carry it into its key bits
            raise ValueError(f"class labels must lie in [0, {n_classes})")
    keys = sort_keys(X)
    table = None if n_classes is None else _scan_table(X, keys, y, n_classes)
    return X, y, bags, config, n_classes, keys, table


def target_limit(n: int) -> float:
    """The largest |y| for which no sum of squared deviations of n
    regression targets overflows: sqrt(DBL_MAX / (4 n))."""
    return float(np.sqrt(np.finfo(np.float64).max / (4.0 * n)))


def _roots(X, y, keys, bags, seeds, rec, config, n_classes) -> _Nodes:
    """Record the roots of trees on these bags, with these seeds, and
    return those to scan, as _Nodes. A regression root gets its bag
    presorted by every feature, as ids tree * len(X) + row (_presort)."""
    sizes = np.array([len(rows) for rows in bags])
    roots, scan = _new_nodes(y, rec, np.arange(len(bags)), np.zeros(len(bags), np.intp),
                             mix(seeds), np.concatenate(bags), sizes, n_classes,
                             config)
    nodes = _take(roots, scan)
    if n_classes is None and len(nodes):
        dtype = _row_dtype(len(bags) * len(X))
        nodes.pairs = _padded(
            [_presort(keys, nodes.rows[a:a + n], t * len(X), dtype)
             for t, a, n in zip(nodes.tree, nodes.start, nodes.n)],
            int(nodes.n.max()))
    return nodes


def _grow_group(X, y, keys, table, bags, seeds, config, task, n_classes):
    """grow_trees on one group of bags, with their trees' seeds."""
    p = X.shape[1]
    k_feats = resolve_max_features(config.max_features, p)
    every = np.arange(p)
    rec = _Record(task)
    nodes = _roots(X, y, keys, bags, seeds, rec, config, n_classes)
    code = scan_y = None
    if n_classes is None:
        # a node's presorted rows are ids tree * len(X) + row, which index
        # the group's copy of y per tree, and ``code``, which holds a row's
        # way out of its node for _split
        scan_y = np.concatenate([y] * len(bags))
        code = np.zeros(len(bags) * len(X), dtype=np.uint8)
    while len(nodes):
        feats = draw_subsets(nodes.key, p, k_feats) if k_feats < p \
            else np.broadcast_to(every, (len(nodes), p))
        feature, threshold, _ = _best_splits(X, scan_y, table, nodes,
                                             np.arange(len(nodes)), feats, n_classes,
                                             config.min_samples_leaf)
        retry = np.flatnonzero(feature < 0)
        if len(retry) and k_feats < p:
            # drawn subset unsplittable: fall back to scanning all features
            feature[retry], threshold[retry], _ = _best_splits(
                X, scan_y, table, nodes, retry, np.broadcast_to(every, (len(retry), p)),
                n_classes, config.min_samples_leaf)
        nodes = _split(X, y, nodes, feature, threshold, rec, config, n_classes,
                       code)
    return rec.trees(task, n_classes, p, len(bags))


def _split(X, y, nodes, feature, threshold, rec, config, n_classes, code):
    """Split each node of the set whose feature is not -1, and record its
    split and its children. Returns the children to scan, as _Nodes, left
    children first.

    Every node's rows are partitioned by one gather and one compare, and
    the children get their stats from one _node_stats call. For regression,
    each child to scan gets its blocks by filtering its parent's, in pieces
    of about SCAN_VALUES values: every row of the set gets a code in
    ``code`` by (tree, row), 1 if it goes to a left child to scan, 2 if to
    a right one and 0 otherwise, and np.compress keeps the codes 1, then
    the codes 2, of every block, in order."""
    p = X.shape[1]
    m = len(nodes)
    split = feature >= 0
    sp = np.flatnonzero(split)
    of_row = np.repeat(np.arange(m), nodes.n)
    # X is C-contiguous: a flat gather is about twice as fast as X[rows, j]
    go_left = X.take(nodes.rows * p + np.maximum(feature, 0)[of_row]) <= threshold[of_row]
    to_left = go_left & split[of_row]
    to_right = ~go_left & split[of_row]
    n_left = np.bincount(of_row[to_left], minlength=m)[sp]
    sizes = nodes.n[sp]
    children, scan = _new_nodes(
        y, rec, np.concatenate([nodes.tree[sp]] * 2),
        np.concatenate([nodes.depth[sp] + 1] * 2),
        np.concatenate(child_keys(nodes.key[sp])),
        np.concatenate([np.compress(to_left, nodes.rows),
                        np.compress(to_right, nodes.rows)]),
        np.concatenate([n_left, sizes - n_left]), n_classes, config)
    half = len(sp)
    rec.split(node=nodes.gid[sp], feature=feature[sp], threshold=threshold[sp],
              left=children.gid[:half], right=children.gid[half:])
    waiting = _take(children, scan)
    if n_classes is None and len(waiting):
        keep_left, keep_right = np.zeros(m, dtype=bool), np.zeros(m, dtype=bool)
        keep_left[sp], keep_right[sp] = scan[:half], scan[half:]
        n_data = X.shape[0]
        code[nodes.tree[of_row] * n_data + nodes.rows] = \
            (to_left & keep_left[of_row]) + 2 * (to_right & keep_right[of_row])
        waiting.pairs = np.empty((p * len(waiting.rows) + waiting.n.max(), 2),
                                 dtype=nodes.pairs.dtype)
        waiting.pairs[p * len(waiting.rows):] = 0
        # where the left, then the right children's blocks go
        at = [0, p * waiting.n[:np.count_nonzero(scan[:half])].sum()]
        busy = keep_left | keep_right
        for a, b in _chunks(p * nodes.n * busy, SCAN_VALUES):
            a, b = a + int(busy[a:b].argmax()), b - int(busy[a:b][::-1].argmax())
            if not busy[a]:
                continue
            lo, hi = p * nodes.start[a], p * (nodes.start[b - 1] + nodes.n[b - 1])
            way = code.take(nodes.pairs[lo:hi, 0])
            for side in (0, 1):
                mask = way == side + 1
                count = int(np.count_nonzero(mask))
                np.compress(mask, nodes.pairs[lo:hi], axis=0,
                            out=waiting.pairs[at[side]:at[side] + count])
                at[side] += count
    return waiting
