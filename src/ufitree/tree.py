"""Single CART-style tree: impurity, best-split search, growth, routing, prediction."""

from __future__ import annotations

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
    ``keys`` is sort_keys(X), computed once per tree by grow; X.T if None.
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
    """Grow a tree on the given row indices of (X, y).

    ``rng`` is a seed or a Generator; it draws the max_features subsets.
    ``keys`` is sort_keys(X), which the trees of a forest share; computed
    here if None.
    """
    X = np.asarray(X, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.intp)
    if len(indices) == 0:
        raise ValueError("cannot grow a tree on an empty index set")
    config = config.resolved(task)
    config.validate(X.shape[1])
    classify = task == "classification"
    if not classify:
        n_classes = None  # None selects MSE in the split scan
        y = np.asarray(y, dtype=np.float64)
    elif n_classes is None:
        n_classes = int(y.max()) + 1
    rng = np.random.default_rng(rng)
    p = X.shape[1]
    k_feats = resolve_max_features(config.max_features, p)
    if keys is None:
        keys = sort_keys(X)
    n_root = len(indices)
    # one list per column of COLUMNS, appended in preorder as nodes are made
    (feature, threshold, left, right, n_rows, counts, means, impurity,
     decrease) = ([] for _ in COLUMNS)

    def build(idx, depth):
        node = len(n_rows)
        n = len(idx)
        if classify:
            c = np.bincount(y[idx], minlength=n_classes)
            imp = impurity_from_counts(c)
            counts.append(c)
        else:
            mean, imp = _mean_and_mse(y[idx])
            means.append(mean)
        n_rows.append(n)
        impurity.append(imp)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        decrease.append(0.0)
        if (config.max_depth is not None and depth >= config.max_depth) \
                or n < config.min_samples_split or imp <= 0.0:
            return node
        feats = np.sort(rng.choice(p, size=k_feats, replace=False)) if k_feats < p \
            else np.arange(p)
        found = best_split(X, y, idx, feats, n_classes,
                           config.min_samples_leaf, imp, keys)
        if found is None and k_feats < p:
            # drawn subset unsplittable: fall back to scanning all features
            found = best_split(X, y, idx, np.arange(p), n_classes,
                               config.min_samples_leaf, imp, keys)
        if found is None:
            return node
        split, _ = found
        mask = X[idx, split.feature] <= split.threshold
        lo = build(idx[mask], depth + 1)
        hi = build(idx[~mask], depth + 1)
        feature[node], threshold[node] = split.feature, split.threshold
        left[node], right[node] = lo, hi
        # recompute the decrease from node stats so downstream identities are exact
        decrease[node] = (
            n / n_root * imp
            - (n_rows[lo] / n_root * impurity[lo] + n_rows[hi] / n_root * impurity[hi])
        )
        return node

    build(indices, 0)
    return Tree(feature, threshold, left, right, n_rows,
                counts if classify else None, None if classify else means,
                impurity, decrease, p, n_root, task, n_classes)
