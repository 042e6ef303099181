"""CART-style trees: impurity, best-split search, growth, routing, prediction.

``grow_trees`` grows the trees of a forest together, in lockstep, so that
the nodes they wait to split are scanned, split and counted in batches;
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


def impurity_from_counts(counts: np.ndarray) -> float:
    """Gini impurity of a node's class counts."""
    counts = np.asarray(counts, dtype=np.float64)
    n = np.add.reduce(counts)
    if n <= 0:
        raise ValueError("empty node has no impurity")
    p = counts / n
    return float(predictive_gini(p, p))


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
    """Per-feature sort keys, one row per column of X: dense ranks, which
    order and tie exactly like the values, as uint16 up to 65,536 rows and
    uint32 above. numpy sorts them several times faster than floats.
    Raises ValueError if X has a non-finite value, which orders unlike its
    rank."""
    if not np.isfinite(X).all():
        raise ValueError("sort keys need finite feature values")
    keys = np.empty((X.shape[1], X.shape[0]),
                    dtype=np.uint16 if X.shape[0] <= 2**16 else np.uint32)
    for j in range(X.shape[1]):
        keys[j] = np.unique(X[:, j], return_inverse=True)[1]
    return keys


def _scan_features(X, keys, y, idx, feats, msl):
    """Vectorized mean squared error scan of one regression node over its
    candidate features; returns (feature, threshold, loss) or None.

    Loss is the weighted child impurity L(Q, theta) relative to the node.
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
    yv = np.asarray(y[idx], dtype=np.float64)
    ys = yv[order]
    cum = ys.cumsum(axis=1)[f_pos, t_pos]
    cum2 = (ys * ys).cumsum(axis=1)[f_pos, t_pos]
    tot = np.add.reduce(yv)
    tot2 = np.add.reduce(yv * yv)
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
    ``keys`` is sort_keys(X), which grow_trees computes once. A regression
    node given ``keys`` is a _scan_features call on them. Any other node is
    scanned on its own rows, with their columns of ``keys`` or, if None,
    their own ranks, which order and tie as sort_keys(X)'s do: the same
    bits, at the node's cost rather than X's. A classification node is a
    one-node _scan_segments call.
    """
    idx = np.asarray(idx, dtype=np.intp)
    feats = np.sort(np.asarray(feats, dtype=np.intp))
    if parent_impurity is None:
        parent_impurity = _node_impurity(y[idx], n_classes)
    if n_classes is not None or keys is None:
        X, y = X[idx], y[idx]
        keys = sort_keys(X) if keys is None else keys[:, idx]
        idx = np.arange(len(idx))
    if n_classes is not None:
        return _scan_segments(X, keys, y, [(idx, feats, parent_impurity)],
                              n_classes, min_samples_leaf)[0]
    found = _scan_features(X, keys, y, idx, feats, min_samples_leaf)
    if found is None:
        return None
    f, s, loss = found
    if parent_impurity - loss <= GAIN_EPS:
        return None
    return Split(f, s), loss


# Regression nodes of at most this many rows are scanned together by
# _scan_segments. Below it a node's scan is mostly numpy call overhead,
# which the batch shares; above it the per-node scan is as fast.
SMALL_NODE = 64

# A small regression node joins the batch only if it also scans at most
# this many (row, feature) values. Its padded cumsums cost more per value
# than a classification node's integer prefix sums: in a 37-column
# regression fit, nodes of 640 to 1280 values scanned slower in batches of
# 10 than alone, and bounds from 480 to 640 gave the fastest scans.
SMALL_SCAN = 640

# A _scan_segments call takes nodes in order until they hold this many
# (row, feature) values, or one node if it alone holds more. The first
# steps of a 20-tree classification fit on 2,000 rows hold up to 240,000
# values (6 features) or 1.5 million (37 in the rescans); scanned at once,
# they raised the process's peak RSS from 45.3 to 47.9 MB, and in calls of
# this size to 45.8 MB.
SCAN_VALUES = 1 << 16


def _scan_table(X, keys, y, n_classes) -> tuple:
    """What _scan_segments reads of a fit's data, for integer keys =
    sort_keys(X): (coded, key_bits, low, values, offsets).

    ``coded[j * n + r]`` is row r's key in column j, of at most
    ``key_bits`` bits, shifted left by ``low`` bits, which hold the row's
    class for classification (and low is 0 for regression). It is uint32
    if key and class fit in 32 bits, else int64. The value of rank k in
    column j is ``values[offsets[j] + k]``.
    """
    key_bits = int(keys.max()).bit_length()
    low = int(n_classes - 1).bit_length() if n_classes is not None else 0
    coded = keys.astype(np.uint32 if key_bits + low <= 32 else np.int64) << low
    if n_classes is not None:
        coded |= np.asarray(y, dtype=coded.dtype)
    sizes = keys.max(axis=1).astype(np.intp) + 1
    offsets = np.cumsum(sizes) - sizes
    values = np.empty(offsets[-1] + sizes[-1])
    values[offsets[:, None] + keys] = X.T
    return coded.ravel(), key_bits, low, values, offsets


def _best_splits(X, y, keys, table, nodes, n_classes, min_samples_leaf) -> list:
    """best_split's Split, or None, for each (rows, sorted feats, impurity)
    node. _scan_segments takes every classification node and every small
    regression node (SMALL_NODE, SMALL_SCAN), in calls of about SCAN_VALUES
    values; each other regression node is a best_split call of its own.
    ``table`` is _scan_table's."""
    found = [None] * len(nodes)
    batches, size = [], 0
    for i, (rows, feats, imp) in enumerate(nodes):
        values = len(rows) * len(feats)
        if n_classes is None and (len(rows) > SMALL_NODE or values > SMALL_SCAN):
            hit = best_split(X, y, rows, feats, None, min_samples_leaf, imp, keys)
            if hit is not None:
                found[i] = hit[0]
            continue
        if not batches or size + values > SCAN_VALUES:
            batches.append([])
            size = 0
        batches[-1].append(i)
        size += values
    for batch in batches:
        hits = _scan_segments(X, keys, y, [nodes[i] for i in batch], n_classes,
                              min_samples_leaf, table)
        for i, hit in zip(batch, hits):
            if hit is not None:
                found[i] = hit[0]
    return found


def _scan_segments(X, keys, y, nodes, n_classes, msl, table=None) -> list:
    """best_split's (Split, loss), or None, of each of several
    (rows, sorted feats, impurity) nodes in one pass: Gini when n_classes
    is given, mean squared error when it is None. ``table`` is
    _scan_table(X, keys, y, n_classes), computed here if None.

    Each (node, feature) pair is a segment of one flat array of int64
    codes, each of which packs (segment, key, low bits); a plain sort puts
    the codes in (segment, key) order, and a candidate threshold lies
    wherever the key changes inside a segment. For classification the low
    bits are the row's class: class counts do not depend on the order of
    the rows within a key, so left class counts are integer prefix sums
    less the segment's base, exact like a per-feature cumsum. For
    regression they are the row's position in its node, as wide as the
    largest node of the call needs, so that the sort gives the order of
    _scan_features' stable sort, and left sums of targets are cumsums down
    one zero-padded column per segment: each is _scan_features' sequential
    sum, and a node's target totals are its own add.reduce calls. The
    loss, the per-node minimum, the tie rule and the gain check repeat a
    per-node scan operation by operation, in feature-major order:
    _scan_features for regression, and for classification the scan that
    tests/conftest.py keeps as the reference. A threshold is the mean of
    the values of the two keys around it, which are the values a per-node
    scan reads from X.
    """
    if table is None:
        table = _scan_table(X, keys, y, n_classes)
    coded, key_bits, low, values, offsets = table
    classify = n_classes is not None
    n_rows = np.array([len(rows) for rows, _, _ in nodes])
    n_feats = np.array([len(feats) for _, feats, _ in nodes])
    seg_node = np.repeat(np.arange(len(nodes)), n_feats)
    seg_len = n_rows[seg_node]
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    node_rows = np.concatenate([rows for rows, _, _ in nodes])
    seg_feat = np.concatenate([feats for _, feats, _ in nodes])
    # element e of segment s stands for its node's row at position
    # e - seg_start[s], which is node_rows[e + row_base[s] - seg_start[s]]
    row_base = (np.cumsum(n_rows) - n_rows)[seg_node]
    at = np.arange(seg_end[-1]) + np.repeat(row_base - seg_start, seg_len)
    flat = node_rows[at]
    flat += np.repeat(seg_feat * keys.shape[1], seg_len)
    code = np.repeat(np.arange(len(seg_len), dtype=np.int64) << (key_bits + low),
                     seg_len)
    code |= coded[flat]
    if not classify:
        # the table's low bits are empty: make room for a row's position
        low = int(n_rows.max() - 1).bit_length()
        code <<= low
        code |= at - np.repeat(row_base, seg_len)
    del flat, at
    shift = key_bits + low
    code.sort()
    sk = code >> low  # (segment, key)
    low_mask = (1 << low) - 1

    # candidate e splits its segment after sorted position e: between
    # distinct keys, leaving msl rows on each side
    valid = sk[1:] != sk[:-1]
    valid[seg_end[:-1] - 1] = False  # the last element of a segment
    cand = np.flatnonzero(valid)
    seg = code[cand] >> shift
    nl = cand + 1 - seg_start[seg]
    n = seg_len[seg]
    if msl > 1:
        keep = (nl >= msl) & (n - nl >= msl)
        cand, seg, nl, n = cand[keep], seg[keep], nl[keep], n[keep]
    if len(cand) == 0:
        return [None] * len(nodes)
    node = seg_node[seg]
    nl = nl.astype(np.float64)
    nr = n - nl
    if classify:
        # per-class counts left of each candidate and in its segment; the
        # last class holds the rest
        prefix = np.zeros((n_classes - 1, len(code) + 1), dtype=np.int32)
        np.cumsum((code & low_mask) == np.arange(n_classes - 1)[:, None],
                  axis=1, dtype=np.int32, out=prefix[:, 1:])
        base = prefix[:, seg_start[seg]]
        cums = prefix[:, cand + 1] - base
        totals = prefix[:, seg_end[seg]] - base
        del prefix
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
        elem_seg = code >> shift
        pos = np.arange(len(code)) - seg_start[elem_seg]
        rows = node_rows[row_base[elem_seg] + (code & low_mask)]
        pad = np.zeros((n_rows.max(), 2, len(seg_len)))
        pad[pos, 0, elem_seg] = y[rows]
        np.multiply(pad[:, 0], pad[:, 0], out=pad[:, 1])
        np.cumsum(pad, axis=0, out=pad)
        cum, cum2 = pad[pos[cand], :, seg].T
        tot, tot2 = np.array([(np.add.reduce(v), np.add.reduce(v * v)) for v
                              in (y[r] for r, _, _ in nodes)])[node].T
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
    gain = np.array([imp for _, _, imp in nodes])[node] - loss[best] > GAIN_EPS
    node, best = node[gain], best[gain]
    e = cand[best]
    j = seg_feat[seg[best]]
    key_mask = (1 << key_bits) - 1
    threshold = (values[offsets[j] + (sk[e] & key_mask)]
                 + values[offsets[j] + (sk[e + 1] & key_mask)]) / 2.0
    found = [None] * len(nodes)
    for i, f, s, x in zip(node.tolist(), j.tolist(), threshold.tolist(),
                          loss[best].tolist()):
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


# A growing tree draws its max_features subsets in blocks of _draw_subsets
# rows: the first holds FIRST_BLOCK rows, and each next one twice as many,
# up to MAX_BLOCK.
FIRST_BLOCK = 8
MAX_BLOCK = 256

# A _draw_subsets pass marks taken values in a table of rows x p bools, and
# takes as many rows as fit in this many bytes, or one.
MARK_BYTES = 1 << 21


def _draw_subsets(rng, p: int, k: int, count: int) -> np.ndarray:
    """``count`` rows equal to ``count`` successive
    ``np.sort(rng.choice(p, k, replace=False))`` calls, 0 < k < p, leaving
    rng in the state those calls leave it in.

    Unless p > 10000 and k > p // 50, choice runs Floyd's algorithm: for j
    in p-k .. p-1 it draws v in [0, j] and takes v, or j if v is taken;
    then it shuffles the k values, drawing in [0, i] for i = k-1 .. 1, and
    the sort undoes the shuffle. Each draw is Lemire's: a 32-bit output w
    and r = j+1 (or i+1) give w*r >> 32, unless the low half of w*r is
    below (2**32 - r) % r, and then it draws again. A PCG64 generator's
    32-bit outputs are the low, then the high halves of its raw 64-bit
    words, after the half its state holds over, if any. So a row with no
    draw made again takes 2k - 1 outputs, and the rows before the first
    that has one are computed at once from the raw words; choice draws that
    row itself. Other streams, and choice's other algorithm, are drawn row
    by row.
    """
    bg = rng.bit_generator
    if not isinstance(bg, np.random.PCG64) or (p > 10000 and k > p // 50):
        return np.array([np.sort(rng.choice(p, k, replace=False))
                         for _ in range(count)])
    width = 2 * k - 1
    r = np.concatenate([np.arange(p - k + 1, p + 1),
                        np.arange(k, 1, -1)]).astype(np.uint64)
    least = (2**32 - r) % r  # the smallest low half a draw keeps
    floor = np.arange(p - k, p)  # Floyd's j per step
    out = []
    while count:
        n = min(count, max(1, MARK_BYTES // p))
        state = bg.state
        carry = state["has_uint32"]
        words = bg.random_raw((n * width - carry + 1) // 2)
        halves = np.empty(2 * len(words) + carry, dtype=np.uint64)
        halves[:carry] = state["uinteger"]
        halves[carry::2] = words & 0xFFFFFFFF
        halves[carry + 1::2] = words >> 32
        m = halves[:n * width].reshape(n, width) * r
        kept = ((m & 0xFFFFFFFF) >= least).all(axis=1)
        n_ok = n if kept.all() else int(kept.argmin())
        v = (m[:n_ok, :k] >> 32).astype(np.int64)
        rows = np.empty((n_ok, k), dtype=np.int64)
        base = np.arange(n_ok) * p
        taken = np.zeros(n_ok * p, dtype=bool)
        for t in range(k):
            s = np.where(taken[base + v[:, t]], floor[t], v[:, t])
            taken[base + s] = True
            rows[:, t] = s
        rows.sort(axis=1)
        out.append(rows)
        # the stream just after those rows: `used` outputs of the raw words
        used = n_ok * width - carry
        bg.state = state
        bg.advance((used + 1) // 2)
        after = bg.state
        after["has_uint32"] = used % 2
        after["uinteger"] = int(words[(used - 1) // 2] >> 32) if used > 0 \
            else state["uinteger"]
        bg.state = after
        count -= n_ok
        if n_ok < n:
            out.append(np.sort(rng.choice(p, k, replace=False))[None])
            count -= 1
    return np.concatenate(out)


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
        # the block of drawn subsets, the generator's state before it, the
        # rows used and the size of the next block
        self.block, self.block_state, self.used = (), None, 0
        self.block_rows = FIRST_BLOCK
        self.n_root = len(rows)
        self.stack = [(rows, 0, -1, stats, imp)]
        self.feature, self.left, self.right, self.n = (array("q") for _ in range(4))
        self.threshold, self.impurity = array("d"), array("d")
        # each node's class counts, flat, or its mean
        self.stats = array("q" if classify else "d")

    def draw(self, p, k) -> np.ndarray:
        """The tree's next max_features subset: the next row of its block,
        after drawing a new block if this one is used up."""
        if self.used == len(self.block):
            self.block_state = self.rng.bit_generator.state
            self.block = _draw_subsets(self.rng, p, k, self.block_rows)
            self.block_rows = min(2 * self.block_rows, MAX_BLOCK)
            self.used = 0
        self.used += 1
        return self.block[self.used - 1]

    def rewind(self, p, k):
        """Leave the generator just after the last subset used, where a
        draw per node would leave it."""
        if self.used < len(self.block):
            self.rng.bit_generator.state = self.block_state
            _draw_subsets(self.rng, p, k, self.used)

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


def _node_stats(y, rows, sizes, n_classes) -> tuple[list, list]:
    """(stats, impurities) of consecutive groups of rows, ``rows`` holding
    them one after another and ``sizes`` their lengths, none of them 0: the
    class counts and their Gini when n_classes is given, else the mean and
    the MSE, as lists.

    One bincount counts every group, and one predictive_gini call gives
    impurity_from_counts' bits. Each group's mean and MSE is its own
    _mean_and_mse call: segment_sums gives the same bits, but its fixed
    cost made fits of 10 regression trees slower.
    """
    if n_classes is None:
        ends = np.cumsum(sizes).tolist()
        stats = [_mean_and_mse(y[rows[a:b]]) for a, b in zip([0] + ends, ends)]
        return [mean for mean, _ in stats], [mse for _, mse in stats]
    code = np.repeat(np.arange(len(sizes)) * n_classes, sizes) + y[rows]
    counts = np.bincount(code, minlength=len(sizes) * n_classes) \
        .reshape(len(sizes), n_classes)
    q = counts / sizes[:, None]
    return counts.tolist(), predictive_gini(q, q).tolist()


def grow_trees(X, y, bags, rngs, config: TreeConfig, task: str,
               n_classes: int | None = None, keys=None) -> list[Tree]:
    """Grow one tree per bag of row indices of (X, y), all in lockstep.

    Each tree grows depth-first, numbering its nodes in preorder, and its
    generator in ``rngs`` draws its max_features subsets in that order, so
    a tree is the same whichever trees grow beside it. The subsets are
    those of successive sorted ``choice`` calls, read in blocks
    (_draw_subsets), and each generator ends just after the last one used.
    In each step every unfinished tree makes nodes until it reaches one to
    scan (leaves and stop rules cost no scan); then the waiting nodes, one
    per tree, are scanned together by _best_splits, and the nodes that
    split are partitioned, and their children get their stats, together.
    ``keys`` is sort_keys(X), which the trees share; computed here if None.
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
    table = _scan_table(X, keys, y, n_classes)
    max_depth, min_split = config.max_depth, config.min_samples_split

    stats, imp = _node_stats(y, np.concatenate(bags),
                             np.array([len(rows) for rows in bags]), n_classes)
    trees = [_Growing(*root, classify) for root in zip(bags, rngs, stats, imp)]
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
                    t.stats.extend(stats)
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
                feats = t.draw(p, k_feats) if k_feats < p else every_feature
                waiting.append((t, node, rows, depth, feats, imp))
                break
        found = _best_splits(X, y, keys, table,
                             [(w[2], w[4], w[5]) for w in waiting],
                             n_classes, config.min_samples_leaf)
        retry = [i for i, split in enumerate(found) if split is None]
        if retry and k_feats < p:
            # drawn subset unsplittable: fall back to scanning all features
            again = _best_splits(
                X, y, keys, table,
                [(waiting[i][2], every_feature, waiting[i][5]) for i in retry],
                n_classes, config.min_samples_leaf)
            for i, split in zip(retry, again):
                found[i] = split
        split = [(w, s) for w, s in zip(waiting, found) if s is not None]
        if split:
            _split_nodes(X, y, split, n_classes)
        growing = [t for t in growing if t.stack]
    grown = []
    for i, t in enumerate(trees):
        t.rewind(p, k_feats)
        grown.append(t.tree(task, n_classes, p))
        trees[i] = None  # free the columns as soon as the tree holds them
    return grown


def _split_nodes(X, y, split, n_classes):
    """Record each (waiting node, Split) pair's split in its tree, and push
    its children onto the tree's stack, right then left: every node's rows
    are partitioned by one gather and one compare, and all the children get
    their stats from one _node_stats call. Each child's rows are copied out,
    so that no array spanning the step outlives it."""
    rows = np.concatenate([w[2] for w, _ in split])
    sizes = np.array([len(w[2]) for w, _ in split])
    feature = np.array([s.feature for _, s in split])
    threshold = np.array([s.threshold for _, s in split])
    go_left = X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    n_left = np.bincount(np.repeat(np.arange(len(split)), sizes)[go_left],
                         minlength=len(split))
    # the left children's rows, then the right children's
    child_sizes = np.concatenate([n_left, sizes - n_left])
    children = np.concatenate([rows[go_left], rows[~go_left]])
    stats, imp = _node_stats(y, children, child_sizes, n_classes)
    ends = np.cumsum(child_sizes).tolist()
    parts = [children[a:b].copy() for a, b in zip([0] + ends, ends)]
    m = len(split)
    for i, ((t, node, _, depth, _, _), s) in enumerate(split):
        t.feature[node] = s.feature
        t.threshold[node] = s.threshold
        t.left[node] = node + 1
        t.stack.append((parts[m + i], depth + 1, node, stats[m + i], imp[m + i]))
        t.stack.append((parts[i], depth + 1, -1, stats[i], imp[i]))
