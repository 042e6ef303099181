"""CART-style trees: impurity, best-split search, growth, routing, prediction.

``grow_trees`` grows the trees of a forest together, in lockstep, so that
the split scans of their small nodes run as one batch;
``grow`` is that grower on one bag. A grown ``Tree`` is a set of flat
preorder arrays.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace

import numpy as np

# Gains at or below this are treated as zero (no admissible improvement).
GAIN_EPS = 1e-12

# Candidate losses within this relative tolerance of the minimum count as
# tied; ties resolve to the smallest feature index, then smallest threshold.
# Needed because distinct candidates can induce the same partition (e.g. one
# mirrored left/right) whose mathematically equal losses differ in the last
# floating-point bits.
LOSS_TIE_TOL = 1e-9

FORMAT_VERSION = "ufitree/4"

# the per-node arrays of a Tree, in constructor order; also its JSON columns
COLUMNS = ("feature", "threshold", "left", "right", "n", "class_counts", "mean",
           "impurity", "train_decrease")


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
    min_samples_split: int = 2
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
        if self.min_samples_split < 2 or self.min_samples_leaf < 1:
            raise ValueError("min_samples_split >= 2 and min_samples_leaf >= 1 required")
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


def predictive_gini(p_train: np.ndarray, p_test: np.ndarray) -> float:
    """Gini evaluated with train/test proportions mixed: 1 - sum_k p_k p'_k."""
    return 1.0 - float(np.dot(p_train, p_test))


def impurity_from_counts(counts: np.ndarray) -> float:
    """Gini impurity of a node's class counts."""
    counts = np.asarray(counts, dtype=np.float64)
    n = np.add.reduce(counts)
    if n <= 0:
        raise ValueError("empty node has no impurity")
    p = counts / n
    return predictive_gini(p, p)


def impurity_from_values(y: np.ndarray) -> float:
    """Mean squared deviation of a node's targets from their mean."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise ValueError("empty node has no impurity")
    return _mean_and_mse(y)[1]


def _mean_and_mse(y: np.ndarray) -> tuple[float, float]:
    """Mean and mean squared deviation of non-empty float64 values.

    add.reduce is what ndarray.mean and np.sum run, without their wrappers,
    so the bits are those of y.mean() and np.sum((y - y.mean()) ** 2) / n.
    """
    mean = np.add.reduce(y) / len(y)
    return float(mean), float(np.add.reduce((y - mean) ** 2)) / len(y)


class Tree:
    """A grown tree as parallel arrays indexed by node id, in preorder.

    Node 0 is the root, and an internal node's left subtree follows it
    directly, as in scikit-learn's ``Tree``. A leaf has ``left == -1``; its
    ``feature``, ``right`` and ``threshold`` are -1, -1 and 0.0, and its
    ``train_decrease`` is 0.0. ``class_counts`` (nodes x classes) is None on
    regression trees, and ``mean`` is None on classification trees.
    """

    def __init__(self, feature, threshold, left, right, n, class_counts, mean,
                 impurity, train_decrease, n_features, n_root, task, n_classes):
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
        self.n_root = n_root
        self.task = task
        self.n_classes = n_classes

    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def is_leaf(self) -> np.ndarray:
        return self.left == -1

    def _descend(self, X: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(rows, nodes) per depth: the rows that reach that depth, ascending,
        and the node each reaches. One vectorized step per depth."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} columns, got {X.shape}")
        rows = np.arange(X.shape[0])
        nodes = np.zeros(len(rows), dtype=np.intp)
        steps = [(rows, nodes)]
        while True:
            inner = self.left[nodes] != -1
            rows, nodes = rows[inner], nodes[inner]
            if not len(rows):
                return steps
            go_left = X[rows, self.feature[nodes]] <= self.threshold[nodes]
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
        # every visit to a node happens at one depth, where rows ascend
        return rows[np.argsort(nodes, kind="stable")], offsets

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

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "task": self.task,
            "n_features": self.n_features,
            "n_root": self.n_root,
            "n_classes": self.n_classes,
            **{name: None if getattr(self, name) is None else getattr(self, name).tolist()
               for name in COLUMNS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported tree format: {d.get('version')!r}")
        return cls(*(d[name] for name in COLUMNS), d["n_features"], d["n_root"],
                   d["task"], d["n_classes"])


def sort_keys(X: np.ndarray) -> np.ndarray:
    """Per-feature sort keys, one row per column of X.

    Dense ranks as uint16 order and tie exactly like the values, and numpy
    sorts them with a radix sort, several times faster than floats. X.T
    itself is returned when X has non-finite values (NaN orders unlike its
    rank) or more rows than uint16 ranks can hold.
    """
    if X.shape[0] > 2**16 or not np.isfinite(X).all():
        return X.T
    keys = np.empty((X.shape[1], X.shape[0]), dtype=np.uint16)
    for j in range(X.shape[1]):
        keys[j] = np.unique(X[:, j], return_inverse=True)[1]
    return keys


def _scan_features(X, keys, y, idx, feats, n_classes, msl):
    """Vectorized scan over candidate features; returns (feature, threshold, loss) or None.

    Loss is the weighted child impurity L(Q, theta) relative to the node:
    Gini when n_classes is given, mean squared error when it is None.
    Only admissible thresholds (between distinct values, leaving msl rows on
    each side) are scored. Ties resolve to the smallest feature index, then
    smallest threshold, because candidates are scanned feature-major in
    ascending order. Arrays are (feature, sorted position), so sorts and
    prefix sums run along contiguous rows.
    """
    n = len(idx)
    sub = keys[feats].take(idx, axis=1)
    order = sub.argsort(axis=1, kind="stable")
    sk = np.sort(sub, axis=1)  # sub in that order, and cheaper than gathering
    valid = sk[:, 1:] > sk[:, :-1]
    if msl > 1:
        pos = np.arange(1, n)
        valid = valid & (pos >= msl) & (n - pos >= msl)
    # candidate (feature, threshold position) pairs, feature-major
    f_pos, t_pos = np.nonzero(valid)
    if len(f_pos) == 0:
        return None

    nl = t_pos + 1.0
    nr = n - nl
    if n_classes is not None:
        yk = y[idx]
        yo = yk[order]
        # per-class left counts at every candidate; the last class holds the
        # rest, exactly, since the counts are integers
        cums = [(yo == k).cumsum(axis=1, dtype=np.float64)[f_pos, t_pos]
                for k in range(n_classes - 1)]
        cums.append(nl - sum(cums))
        totals = np.bincount(yk, minlength=n_classes).astype(np.float64)
        sl = 0.0
        sr = 0.0
        for cum, tot in zip(cums, totals):
            pl = cum / nl
            pr = (tot - cum) / nr
            sl = sl + pl * pl
            sr = sr + pr * pr
        Hl = 1.0 - sl
        Hr = 1.0 - sr
    else:
        yv = np.asarray(y[idx], dtype=np.float64)
        ys = yv[order]
        cum = ys.cumsum(axis=1)[f_pos, t_pos]
        cum2 = (ys * ys).cumsum(axis=1)[f_pos, t_pos]
        tot = np.add.reduce(yv)
        tot2 = float(np.dot(yv, yv))
        Hl = np.maximum(cum2 / nl - (cum / nl) ** 2, 0.0)
        Hr = np.maximum((tot2 - cum2) / nr - ((tot - cum) / nr) ** 2, 0.0)

    loss = (nl * Hl + nr * Hr) / n
    m = float(loss.min())
    # first candidate within tie tolerance of the minimum
    best = int((loss <= m + LOSS_TIE_TOL * max(1.0, abs(m))).argmax())
    f, t = f_pos[best], t_pos[best]
    rows, j = order[f], feats[f]
    threshold = (X[idx[rows[t]], j] + X[idx[rows[t + 1]], j]) / 2.0
    return int(j), float(threshold), float(loss[best])


def best_split(X, y, idx, feats, n_classes=None, min_samples_leaf=1,
               parent_impurity=None, keys=None):
    """Best (feature, threshold) over the candidate features, or None.

    Returns (Split, loss) minimizing the weighted child impurity: Gini when
    ``n_classes`` is given, mean squared error when it is None. None when
    no admissible candidate improves on the parent (gain <= GAIN_EPS).
    ``keys`` is sort_keys(X), which grow_trees computes once; X.T if None.
    """
    idx = np.asarray(idx, dtype=np.intp)
    feats = np.sort(np.asarray(feats, dtype=np.intp))
    if parent_impurity is None:
        parent_impurity = _node_impurity(y[idx], n_classes)
    found = _scan_features(X, X.T if keys is None else keys, y, idx, feats,
                           n_classes, min_samples_leaf)
    if found is None:
        return None
    f, s, loss = found
    if parent_impurity - loss <= GAIN_EPS:
        return None
    return Split(f, s), loss


# Nodes of at most this many rows are scanned together by _scan_segments.
# Below it a node's scan is mostly numpy call overhead, which the batch
# shares; above it the per-node scan is as fast. A row's position in its
# node must fit the 6 bits _scan_segments packs it into.
SMALL_NODE = 64

# A small regression node joins the batch only if it also scans at most
# this many (row, feature) values. Its padded cumsums cost more per value
# than a classification node's integer prefix sums: in a 37-column
# regression fit, nodes of 640 to 1280 values scanned slower in batches of
# 10 than alone, and bounds from 480 to 640 gave the fastest scans.
SMALL_SCAN = 640


def _best_splits(X, y, keys, nodes, n_classes, min_samples_leaf) -> list:
    """best_split's Split, or None, for each (rows, sorted feats, impurity)
    node: the small nodes in one _scan_segments pass when the keys are
    uint16 ranks, every other node on its own."""
    batched = keys.dtype == np.uint16
    found = [None] * len(nodes)
    small = []
    for i, (rows, feats, imp) in enumerate(nodes):
        if batched and len(rows) <= SMALL_NODE and (
                n_classes is not None or len(rows) * len(feats) <= SMALL_SCAN):
            small.append(i)
            continue
        hit = best_split(X, y, rows, feats, n_classes, min_samples_leaf, imp,
                         keys)
        if hit is not None:
            found[i] = hit[0]
    if small:
        hits = _scan_segments(X, keys, y, [nodes[i] for i in small], n_classes,
                              min_samples_leaf)
        for i, hit in zip(small, hits):
            if hit is not None:
                found[i] = hit[0]
    return found


def _scan_segments(X, keys, y, nodes, n_classes, msl) -> list:
    """best_split's (Split, loss), or None, of each of several small
    (rows, sorted feats, impurity) nodes in one pass, for uint16 keys:
    Gini when n_classes is given, mean squared error when it is None.

    Each (node, feature) pair is a segment of one flat array, ordered by
    (segment, key, position in the node): within a segment that is the
    order _scan_features' stable sort gives the feature. The three are
    packed into one distinct int64 code, so an unstable value sort gives
    that order. Left class counts are integer prefix sums less the
    segment's base, so they are exact. Left sums of targets are cumsums
    down one zero-padded column per segment, so each is _scan_features'
    sequential sum, and a node's target totals are its own add.reduce and
    dot. The loss, the per-node minimum, the tie rule, the threshold and
    the gain check repeat _scan_features and best_split operation by
    operation, in feature-major order. Every split and loss keeps its bits.
    """
    n_rows = np.array([len(rows) for rows, _, _ in nodes])
    n_feats = np.array([len(feats) for _, feats, _ in nodes])
    seg_node = np.repeat(np.arange(len(nodes)), n_feats)
    seg_len = n_rows[seg_node]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    elem_seg = np.repeat(np.arange(len(seg_len)), seg_len)
    pos = np.arange(seg_end[-1]) - seg_start[elem_seg]  # position in the node
    # an element's row is node_rows[row_base + its position in the node]
    row_base = np.repeat((np.cumsum(n_rows) - n_rows)[seg_node], seg_len)
    node_rows = np.concatenate([rows for rows, _, _ in nodes])
    seg_feat = np.concatenate([feats for _, feats, _ in nodes])
    key = keys[np.repeat(seg_feat, seg_len), node_rows[row_base + pos]]
    code = np.sort(elem_seg << 22 | key.astype(np.int64) << 6 | pos)
    rows = node_rows[row_base + (code & 63)]  # in sorted order
    code >>= 6  # (segment, key)

    # candidate e splits its segment after sorted position e: between
    # distinct keys, leaving msl rows on each side
    valid = (code[1:] > code[:-1]) & (pos[1:] > 0)
    if msl > 1:
        nl = pos[:-1] + 1
        valid &= (nl >= msl) & (seg_len[elem_seg[:-1]] - nl >= msl)
    cand = np.flatnonzero(valid)
    if len(cand) == 0:
        return [None] * len(nodes)
    seg = elem_seg[cand]
    node = seg_node[seg]
    n = seg_len[seg]
    nl = (pos[cand] + 1).astype(np.float64)
    nr = n - nl
    if n_classes is not None:
        # per-class counts left of each candidate and in its node; the last
        # class holds the rest
        prefix = np.zeros((n_classes - 1, len(rows) + 1), dtype=np.int32)
        np.cumsum(y[rows] == np.arange(n_classes - 1)[:, None], axis=1,
                  dtype=np.int32, out=prefix[:, 1:])
        base = prefix[:, seg_start[seg]]
        cums = prefix[:, cand + 1] - base
        totals = prefix[:, seg_end[seg]] - base
        cums = np.vstack([cums, nl - cums.sum(axis=0)]).astype(np.float64)
        totals = np.vstack([totals, n - totals.sum(axis=0)]).astype(np.float64)
        sl = 0.0
        sr = 0.0
        for cum, tot in zip(cums, totals):
            pl = cum / nl
            pr = (tot - cum) / nr
            sl = sl + pl * pl
            sr = sr + pr * pr
        Hl = 1.0 - sl
        Hr = 1.0 - sr
    else:
        # (sorted position, y or y**2, segment): a cumsum down axis 0 adds
        # each segment's values in order, as _scan_features' rows do
        pad = np.zeros((n_rows.max(), 2, len(seg_len)))
        pad[pos, 0, elem_seg] = y[rows]
        np.multiply(pad[:, 0], pad[:, 0], out=pad[:, 1])
        np.cumsum(pad, axis=0, out=pad)
        cum, cum2 = pad[pos[cand], :, seg].T
        tot, tot2 = np.array([(np.add.reduce(v), np.dot(v, v)) for v in
                              (y[rows] for rows, _, _ in nodes)])[node].T
        Hl = np.maximum(cum2 / nl - (cum / nl) ** 2, 0.0)
        Hr = np.maximum((tot2 - cum2) / nr - ((tot - cum) / nr) ** 2, 0.0)
    loss = (nl * Hl + nr * Hr) / n

    # per node: the first candidate within tie tolerance of the minimum
    counts = np.bincount(node, minlength=len(nodes))
    node = np.flatnonzero(counts)  # the nodes with candidates
    first = (np.cumsum(counts) - counts)[node]
    m = np.minimum.reduceat(loss, first)
    tol = np.repeat(m + LOSS_TIE_TOL * np.maximum(1.0, np.abs(m)), counts[node])
    best = np.minimum.reduceat(
        np.where(loss <= tol, np.arange(len(cand)), len(cand)), first)
    e = cand[best]
    j = seg_feat[seg[best]]
    threshold = (X[rows[e], j] + X[rows[e + 1], j]) / 2.0
    gain = np.array([imp for _, _, imp in nodes])[node] - loss[best] > GAIN_EPS
    found = [None] * len(nodes)
    for i, f, s, x in zip(node[gain].tolist(), j[gain].tolist(),
                          threshold[gain].tolist(), loss[best][gain].tolist()):
        found[i] = Split(f, s), x
    return found


def _node_impurity(y_node, n_classes) -> float:
    """Gini of the node's labels if n_classes is given, else their MSE."""
    if n_classes is None:
        return impurity_from_values(y_node)
    return impurity_from_counts(np.bincount(y_node, minlength=n_classes))


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
    hm = _node_impurity(y[idx], n_classes)
    hl = _node_impurity(y[idx[mask]], n_classes)
    hr = _node_impurity(y[idx[~mask]], n_classes)
    loss = (nl * hl + nr * hr) / n
    delta = (n / n_root) * hm - ((nl / n_root) * hl + (nr / n_root) * hr)
    return loss, delta


def grow(X, y, indices, config: TreeConfig, task: str,
         n_classes: int | None = None, rng=0, keys=None) -> Tree:
    """Grow a tree on the given row indices of (X, y): grow_trees on one bag.

    ``rng`` is a seed or a Generator; it draws the max_features subsets.
    ``keys`` is sort_keys(X); computed here if None.
    """
    return grow_trees(X, y, [indices], [np.random.default_rng(rng)], config,
                      task, n_classes, keys)[0]


class _Growing:
    """A tree being grown: its preorder columns, and its stack of pending
    nodes. A stack entry is (rows, depth, parent, stats, impurity), where
    parent is the node whose right child it is, or -1 for a left child or
    the root; a left child always takes the id after its parent's. The
    columns are typed arrays, so that a node costs a few machine words
    while the whole forest grows."""

    def __init__(self, rows, rng, stats, imp, classify):
        self.rng = rng
        self.n_root = len(rows)
        self.stack = [(rows, 0, -1, stats, imp)]
        self.feature, self.left, self.right, self.n = (array("q") for _ in range(4))
        self.threshold, self.impurity = array("d"), array("d")
        # each node's class counts, flat, or its mean
        self.stats = array("q" if classify else "d")

    def tree(self, task, n_classes, p) -> Tree:
        n = np.array(self.n, dtype=np.int64)
        imp = np.array(self.impurity)
        left = np.array(self.left, dtype=np.intp)
        right = np.array(self.right, dtype=np.intp)
        # the decrease is recomputed from node stats so downstream
        # identities are exact
        inner = np.flatnonzero(left != -1)
        lo, hi = left[inner], right[inner]
        decrease = np.zeros(len(n))
        decrease[inner] = n[inner] / self.n_root * imp[inner] - (
            n[lo] / self.n_root * imp[lo] + n[hi] / self.n_root * imp[hi])
        stats = np.array(self.stats)
        classify = task == "classification"
        return Tree(np.array(self.feature, dtype=np.intp), np.array(self.threshold),
                    left, right, n,
                    stats.reshape(len(n), n_classes) if classify else None,
                    None if classify else stats,
                    imp, decrease, p, self.n_root, task, n_classes)


def _node_stats(y, groups, n_classes) -> list:
    """(stats, impurity) of each non-empty group of rows: the class counts
    and their Gini when n_classes is given, else the mean and the MSE.

    One bincount counts every group of at most SMALL_NODE rows, and a
    larger group gets its own; each Gini is then impurity_from_counts'
    division and dot product, so it keeps that function's bits.
    """
    if n_classes is None:
        return [_mean_and_mse(y[rows]) for rows in groups]
    sizes = np.array([len(rows) for rows in groups])
    counts = np.empty((len(groups), n_classes), dtype=np.int64)
    small = np.flatnonzero(sizes <= SMALL_NODE)
    for i in np.flatnonzero(sizes > SMALL_NODE):
        counts[i] = np.bincount(y[groups[i]], minlength=n_classes)
    if len(small):
        code = np.repeat(np.arange(len(small)) * n_classes, sizes[small]) \
            + y[np.concatenate([groups[i] for i in small])]
        counts[small] = np.bincount(code, minlength=len(small) * n_classes) \
            .reshape(len(small), n_classes)
    return [(c, predictive_gini(q, q))
            for c, q in zip(counts, counts / sizes[:, None])]


def grow_trees(X, y, bags, rngs, config: TreeConfig, task: str,
               n_classes: int | None = None, keys=None) -> list[Tree]:
    """Grow one tree per bag of row indices of (X, y), all in lockstep.

    Each tree grows depth-first, numbering its nodes in preorder, and its
    generator in ``rngs`` draws its max_features subsets in that order, so
    a tree is the same whichever trees grow beside it. In each step every
    unfinished tree makes nodes until it reaches one to scan (leaves and
    stop rules cost no scan); then the waiting nodes, one per tree, are
    scanned together by _best_splits, and the children of those that split
    get their stats together. ``keys`` is sort_keys(X), which the trees
    share; computed here if None.
    """
    X = np.asarray(X, dtype=np.float64)
    bags = [np.asarray(rows, dtype=np.intp) for rows in bags]
    if any(len(rows) == 0 for rows in bags):
        raise ValueError("cannot grow a tree on an empty index set")
    if len(rngs) != len(bags):
        raise ValueError("grow_trees needs one generator per bag")
    config = config.resolved(task)
    config.validate(X.shape[1])
    classify = task == "classification"
    if not classify:
        n_classes = None  # None selects MSE in the split scan
        y = np.asarray(y, dtype=np.float64)
    elif n_classes is None:
        n_classes = int(y.max()) + 1
    elif y.min() < 0 or y.max() >= n_classes:
        # a batched bincount would count such a label in another node
        raise ValueError(f"class labels must lie in [0, {n_classes})")
    p = X.shape[1]
    k_feats = resolve_max_features(config.max_features, p)
    every_feature = np.arange(p)
    if keys is None:
        keys = sort_keys(X)
    max_depth, min_split = config.max_depth, config.min_samples_split

    trees = [_Growing(rows, rng, *stats, classify) for rows, rng, stats
             in zip(bags, rngs, _node_stats(y, bags, n_classes))]
    growing = trees
    while growing:
        waiting = []  # (tree, node, rows, depth, feats, impurity)
        for t in growing:
            while t.stack:
                rows, depth, parent, stats, imp = t.stack.pop()
                node = len(t.n)
                if parent >= 0:
                    t.right[parent] = node
                n = len(rows)
                if classify:
                    t.stats.frombytes(stats.tobytes())
                else:
                    t.stats.append(stats)
                t.n.append(n)
                t.impurity.append(imp)
                t.feature.append(-1)
                t.threshold.append(0.0)
                t.left.append(-1)
                t.right.append(-1)
                if (max_depth is not None and depth >= max_depth) \
                        or n < min_split or imp <= 0.0:
                    continue
                feats = np.sort(t.rng.choice(p, size=k_feats, replace=False)) \
                    if k_feats < p else every_feature
                waiting.append((t, node, rows, depth, feats, imp))
                break
        found = _best_splits(X, y, keys, [(w[2], w[4], w[5]) for w in waiting],
                             n_classes, config.min_samples_leaf)
        retry = [i for i, split in enumerate(found) if split is None]
        if retry and k_feats < p:
            # drawn subset unsplittable: fall back to scanning all features
            again = _best_splits(
                X, y, keys, [(waiting[i][2], every_feature, waiting[i][5])
                             for i in retry], n_classes, config.min_samples_leaf)
            for i, split in zip(retry, again):
                found[i] = split
        split_nodes, children = [], []
        for (t, node, rows, depth, _, _), split in zip(waiting, found):
            if split is None:
                continue
            mask = X[rows, split.feature] <= split.threshold
            t.feature[node] = split.feature
            t.threshold[node] = split.threshold
            t.left[node] = node + 1
            split_nodes.append((t, node, depth + 1))
            children += [rows[mask], rows[~mask]]
        if children:
            stats = _node_stats(y, children, n_classes)
            for i, (t, node, depth) in enumerate(split_nodes):
                t.stack.append((children[2 * i + 1], depth, node,
                                *stats[2 * i + 1]))
                t.stack.append((children[2 * i], depth, -1, *stats[2 * i]))
        growing = [t for t in growing if t.stack]
    grown = []
    for i, t in enumerate(trees):
        grown.append(t.tree(task, n_classes, p))
        trees[i] = None  # free the columns as soon as the tree holds them
    return grown
