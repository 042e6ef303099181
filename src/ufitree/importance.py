"""Feature importance measures: split-improvement, its out-of-sample
corrected variants, and out-of-bag permutation importance."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .forest import Forest
from .tree import Tree, predictive_gini_rows


@dataclass
class ImportanceReport:
    method: str  # "si" | "ufi" | "permutation"
    feature_names: list[str]
    scores: np.ndarray
    skipped_nodes: int = 0
    n_trees: int = 1
    per_tree: np.ndarray | None = field(default=None, repr=False)

    def sd_across_trees(self) -> np.ndarray | None:
        if self.per_tree is None:
            return None
        return self.per_tree.std(axis=0, ddof=1) if len(self.per_tree) > 1 \
            else np.zeros(len(self.scores))

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method,
            "feature_names": self.feature_names,
            "scores": [float(s) for s in self.scores],
            "skipped_nodes": self.skipped_nodes,
            "n_trees": self.n_trees,
        }, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["feature", "score", "sd_across_trees"])
        sd = self.sd_across_trees()
        for i, name in enumerate(self.feature_names):
            w.writerow([name, repr(float(self.scores[i])),
                        "" if sd is None else repr(float(sd[i]))])
        return buf.getvalue()


def si_tree(tree: Tree) -> np.ndarray:
    """Per-feature sum of recorded train impurity decreases."""
    inner = ~tree.is_leaf
    # bincount adds in node order, as a += loop over the nodes would
    return np.bincount(tree.feature[inner], weights=tree.train_decrease[inner],
                       minlength=tree.n_features)


def si_forest(forest: Forest) -> ImportanceReport:
    per_tree = np.array([si_tree(t) for t in forest.trees])
    return ImportanceReport(
        method="si",
        feature_names=forest.feature_names or _default_names(forest.n_features),
        scores=per_tree.mean(axis=0),
        n_trees=forest.n_trees,
        per_tree=per_tree,
    )


def _default_names(p: int) -> list[str]:
    return [f"x{j}" for j in range(p)]


def _route_test(tree: Tree, X_test, y_test):
    """Route the test rows through the tree: (rows, offsets, routed), where
    routed[i] counts the rows through node i (see Tree.route)."""
    rows, offsets = tree.route(X_test)
    routed = np.diff(offsets)
    # every row passes through the root
    if len(y_test) != routed[0]:
        raise ValueError(f"y_test has {len(y_test)} entries for "
                         f"{routed[0]} test rows")
    return rows, offsets, routed


def _test_decrease(tree: Tree, h: np.ndarray, routed: np.ndarray):
    """Root-weighted decrease of a per-node test impurity ``h`` at each
    internal node: n_m/n h_m - (n_l/n h_l + n_r/n h_r).

    Returns (internal node ids, whether both children got test rows, decrease).
    """
    w = tree.n / tree.n_root
    node = np.flatnonzero(~tree.is_leaf)
    lo, hi = tree.left[node], tree.right[node]
    ok = (routed[lo] > 0) & (routed[hi] > 0)
    return node, ok, w[node] * h[node] - (w[lo] * h[lo] + w[hi] * h[hi])


def _ufi_result(tree: Tree, node: np.ndarray, ok: np.ndarray, term: np.ndarray):
    """(scores, skipped, terms): per-feature sums of the counted nodes' terms,
    the number of skipped nodes, and the per-node terms (0 at leaves and at
    skipped nodes)."""
    node, term = node[ok], term[ok]
    terms = np.zeros(tree.n_nodes())
    terms[node] = term
    # bincount adds in node order, as a += loop over the nodes would
    scores = np.bincount(tree.feature[node], weights=term, minlength=tree.n_features)
    return scores, int(len(ok) - len(node)), terms


def ufi_tree_classification(tree: Tree, X_test, y_test):
    """Corrected split-improvement for one classification (Gini) tree.

    Each internal node contributes its decrease in predictive Gini, where
    node impurities mix training proportions with test proportions routed
    through the same tree.  Nodes with an empty test side contribute 0 and
    are counted as skipped. Returns (scores, skipped, per-node terms).
    """
    if tree.task != "classification":
        raise ValueError("classification tree required")
    y_test = np.asarray(y_test, dtype=np.int64)
    k = tree.n_classes
    if len(y_test) and (y_test.min() < 0 or y_test.max() >= k):
        raise ValueError(f"test labels must lie in [0, {k})")
    rows, _, routed = _route_test(tree, X_test, y_test)
    visits = np.repeat(np.arange(tree.n_nodes()) * k, routed) + y_test[rows]
    tcounts = np.bincount(visits, minlength=tree.n_nodes() * k).reshape(-1, k)
    reached = np.flatnonzero(routed)
    h = np.zeros(tree.n_nodes())
    h[reached] = predictive_gini_rows(
        tree.class_counts[reached] / tree.n[reached, None],
        tcounts[reached] / routed[reached, None])
    return _ufi_result(tree, *_test_decrease(tree, h, routed))


def ufi_tree_regression(tree: Tree, X_test, y_test):
    """Corrected split-improvement for one MSE-grown tree.

    Test impurity at a node is the mean squared deviation of routed test
    targets from that node's training mean; each node contributes its train
    decrease plus the (typically negative) test-side decrease. Returns
    (scores, skipped, per-node terms).
    """
    if tree.task != "regression":
        raise ValueError("regression tree required")
    y_test = np.asarray(y_test, dtype=np.float64)
    rows, offsets, routed = _route_test(tree, X_test, y_test)
    sq = (y_test[rows] - np.repeat(tree.mean, routed)) ** 2
    # a node no test row reaches sums to 0.0, and its h stays 0.0
    h = segment_sums(sq, offsets) / np.maximum(routed, 1)
    node, ok, delta = _test_decrease(tree, h, routed)
    return _ufi_result(tree, node, ok, tree.train_decrease[node] + delta)


# numpy's add.reduce sums a float64 run of at most this many values with 8
# accumulators, and splits a longer run in two (pairwise summation)
PAIRWISE_BLOCK = 128

# the value add.reduce adds its pairwise sum to, as an empty sum shows
_REDUCE_START = np.add.reduce(np.empty(0))


def segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """np.add.reduce(values[offsets[i]:offsets[i + 1]]) for every i, bit for bit.

    A segment of at most PAIRWISE_BLOCK values repeats numpy's pairwise
    sum in vectorized steps: 8 accumulators start from the first 8 values
    and take each further full block of 8, they combine as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the remaining
    values follow in order. Below 8 values the accumulators are -0.0 and
    every value is a remaining one. Padding is -0.0, since x + -0.0 == x
    exactly. A longer segment calls add.reduce itself.
    """
    values = np.asarray(values, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.intp)
    lens = np.diff(offsets)
    sums = np.empty(len(lens))
    for i in np.flatnonzero(lens > PAIRWISE_BLOCK):
        sums[i] = np.add.reduce(values[offsets[i]:offsets[i + 1]])
    seg = np.flatnonzero(lens <= PAIRWISE_BLOCK)
    if not len(seg):
        return sums
    start, n = offsets[seg], lens[seg]
    n_blocked = n - n % 8  # values taken by the accumulators
    tail = np.full((8, len(seg)), -0.0)
    wide = np.flatnonzero(n_blocked)
    if len(wide):
        # (block, accumulator, segment): value k of a segment is in block
        # k // 8 at accumulator k % 8
        blocks = np.full((n_blocked.max() // 8, 8, len(wide)), -0.0)
        s, k = _positions(n_blocked[wide])
        blocks.reshape(-1, len(wide))[k, s] = values[start[wide][s] + k]
        r = blocks[0]
        for block in blocks[1:]:
            r += block
        tail[0, wide] = (((r[0] + r[1]) + (r[2] + r[3]))
                         + ((r[4] + r[5]) + (r[6] + r[7])))
    s, k = _positions(n - n_blocked)
    tail[k + 1, s] = values[(start + n_blocked)[s] + k]
    r = tail[0]
    for value in tail[1:]:
        r += value
    sums[seg] = _REDUCE_START + r
    return sums


def _positions(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, k) for every k < counts[i], i-major."""
    i = np.repeat(np.arange(len(counts)), counts)
    return i, np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)


def ufi_tree(tree: Tree, X_test, y_test):
    if tree.task == "classification":
        return ufi_tree_classification(tree, X_test, y_test)
    return ufi_tree_regression(tree, X_test, y_test)


def _use_oob(forest: Forest, X, y, X_test, y_test) -> bool:
    """True when no test set is given, so that each tree is scored on its
    out-of-bag rows of the training data (X, y). Raises ValueError when
    (X, y) is not the forest's n_rows training rows, or when y_test does
    not have one entry per row of X_test."""
    if (X_test is None) != (y_test is None):
        raise ValueError("pass both X_test and y_test, or neither")
    if X_test is not None:
        if len(y_test) != len(X_test):
            raise ValueError(f"y_test has {len(y_test)} entries for "
                             f"{len(X_test)} test rows")
        return False
    if not forest.config.bootstrap:
        raise ValueError("out-of-bag scoring requires a bootstrap-trained forest")
    if len(X) != forest.n_rows or len(y) != forest.n_rows:
        raise ValueError(f"out-of-bag scoring needs the {forest.n_rows} training "
                         f"rows; got {len(X)} rows and {len(y)} labels")
    return True


def ufi_forest(forest: Forest, X, y, X_test=None, y_test=None) -> ImportanceReport:
    """Average per-tree corrected importances over the forest.

    Every tree is scored on (X_test, y_test) if given, else on its
    out-of-bag rows of the training data (X, y).
    """
    oob = _use_oob(forest, X, y, X_test, y_test)
    per_tree = np.zeros((forest.n_trees, forest.n_features))
    skipped = 0
    for b, tree in enumerate(forest.trees):
        if oob:
            rows = forest.oob[b]
            xt, yt = np.asarray(X)[rows], np.asarray(y)[rows]
        else:
            xt, yt = X_test, y_test
        scores, sk, _ = ufi_tree(tree, xt, yt)
        per_tree[b] = scores
        skipped += sk
    return ImportanceReport(
        method="ufi",
        feature_names=forest.feature_names or _default_names(forest.n_features),
        scores=per_tree.mean(axis=0),
        skipped_nodes=skipped,
        n_trees=forest.n_trees,
        per_tree=per_tree,
    )


def _mean_loss(pred, y, task: str) -> float:
    """Zero-one loss for classification, squared error for regression."""
    if task == "classification":
        return float(np.mean(pred != y))
    return float(np.mean((pred - y) ** 2))


def _loss_increases(pred, permuted, y, task: str) -> np.ndarray:
    """Each permuted prediction's mean loss less that of the unpermuted one."""
    baseline = _mean_loss(pred, y, task)
    return np.array([_mean_loss(row, y, task) - baseline for row in permuted])


def _permutations(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    """One permutation of range(m) per column, drawn in column order."""
    perms = np.empty((p, m), dtype=np.int32)
    for j in range(p):
        perms[j] = rng.permutation(m)
    return perms


def permutation_importance(forest: Forest, X, y, rng=None,
                           X_test=None, y_test=None) -> ImportanceReport:
    """Mean per-sample loss increase when one feature's values are shuffled.

    With no test set, each tree permutes within its out-of-bag rows of
    (X, y) and the increases are averaged over the trees that have such
    rows; with (X_test, y_test), the whole forest is evaluated on the test
    set. Every tree descends once per scored block, for all features at
    once (Tree.apply_permuted).
    """
    rng = np.random.default_rng(rng)
    p = forest.n_features
    task = forest.task
    if _use_oob(forest, X, y, X_test, y_test):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        per_tree = np.zeros((forest.n_trees, p))
        used = np.zeros(forest.n_trees, dtype=bool)
        for b, tree in enumerate(forest.trees):
            rows = forest.oob[b]
            if len(rows) == 0:
                continue
            used[b] = True
            leaves, permuted = tree.apply_permuted(
                X[rows], _permutations(rng, p, len(rows)))
            value = np.argmax(tree.class_counts, axis=1) \
                if task == "classification" else tree.mean
            per_tree[b] = _loss_increases(
                value[leaves], (value[row] for row in permuted), y[rows], task)
        if not used.any():
            raise ValueError("no tree has out-of-bag samples")
        scores = per_tree.sum(axis=0) / int(used.sum())
        # a tree with no out-of-bag rows adds a row of zeros to the sum
        # above and no row to the SD across trees
        per_tree = per_tree[used]
    else:
        X_test = np.asarray(X_test, dtype=np.float64)
        y_test = np.asarray(y_test)
        perms = _permutations(rng, p, len(y_test))
        # row 0 is Forest.predict's sum, row 1 + j that with column j
        # permuted; the trees add in order, as in Forest.predict
        classify = task == "classification"
        acc = np.zeros((p + 1, len(y_test))
                       + ((forest.n_classes,) if classify else ()))
        for tree in forest.trees:
            leaves, permuted = tree.apply_permuted(X_test, perms)
            value = tree.class_counts / tree.n[:, None] if classify else tree.mean
            acc[0] += value[leaves]
            acc[1:] += value[permuted]
        acc /= forest.n_trees
        pred = np.argmax(acc, axis=2) if classify else acc
        scores = _loss_increases(pred[0], pred[1:], y_test, task)
        per_tree = None

    return ImportanceReport(
        method="permutation",
        feature_names=forest.feature_names or _default_names(p),
        scores=scores,
        n_trees=forest.n_trees,
        per_tree=per_tree,
    )
