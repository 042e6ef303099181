"""Shared oracles and data helpers for the test suite."""

import numpy as np

from ufitree.importance import _mean_loss
from ufitree.tree import (
    COLUMNS, GAIN_EPS, LOSS_TIE_TOL, Split, Tree, impurity_from_counts,
    resolve_max_features, sort_keys,
)


def scalar_gini(p, q):
    """1 - sum_k p_k q_k of two sequences of proportions, in plain Python
    floats, one class at a time in class order."""
    s = 0.0
    for a, b in zip(p, q):
        s = s + float(a) * float(b)
    return 1.0 - s


def oracle_impurity_cls(counts):
    counts = np.asarray(counts, dtype=np.float64)
    p = counts / counts.sum()
    return scalar_gini(p, p)


def oracle_impurity_reg(y):
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean((y - y.mean()) ** 2))


def brute_force_best_split(X, y, idx, feats, n_classes=None,
                           min_samples_leaf=1):
    """Exhaustive scan over every (feature, midpoint) candidate, under Gini
    when n_classes is given and MSE when it is None.

    Applies the documented contract: smallest loss wins, losses within the
    tie tolerance (LOSS_TIE_TOL times the parent's impurity) of the minimum
    count as tied and resolve to the smallest feature index then smallest
    threshold, and a best candidate that improves the parent by at most
    GAIN_EPS times its impurity counts as no split.
    """
    idx = np.asarray(idx)
    n = len(idx)
    is_cls = n_classes is not None
    if is_cls:
        parent = oracle_impurity_cls(np.bincount(y[idx], minlength=n_classes))
    else:
        parent = oracle_impurity_reg(y[idx])
    cands = []
    for f in sorted(int(f) for f in feats):
        vals = np.unique(X[idx, f])
        for s in (vals[:-1] + vals[1:]) / 2.0:
            mask = X[idx, f] <= s
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            if is_cls:
                hl = oracle_impurity_cls(np.bincount(y[idx[mask]], minlength=n_classes))
                hr = oracle_impurity_cls(np.bincount(y[idx[~mask]], minlength=n_classes))
            else:
                hl = oracle_impurity_reg(y[idx[mask]])
                hr = oracle_impurity_reg(y[idx[~mask]])
            cands.append(((nl * hl + nr * hr) / n, f, float(s)))
    if not cands:
        return None
    m = min(c[0] for c in cands)
    if parent - m <= GAIN_EPS * parent:
        return None
    best = next(c for c in cands if c[0] <= m + LOSS_TIE_TOL * parent)
    return Split(best[1], best[2]), best[0]


def reference_scan_classification(X, y, idx, feats, n_classes, msl, imp):
    """The per-node Gini scan that the batched scan must match bit for bit:
    (feature, threshold, loss) or None, for a node of Gini imp, over the
    float values of X.

    Only admissible thresholds (between distinct values, leaving msl rows on
    each side) are scored; per-class left counts are cumsums along each
    feature's stable sort; the first loss within LOSS_TIE_TOL imp of the
    minimum wins, in feature-major order.
    """
    n = len(idx)
    sub = X[:, feats].T.take(idx, axis=1)
    order = sub.argsort(axis=1, kind="stable")
    sk = np.sort(sub, axis=1)
    valid = sk[:, 1:] > sk[:, :-1]
    if msl > 1:
        pos = np.arange(1, n)
        valid = valid & (pos >= msl) & (n - pos >= msl)
    f_pos, t_pos = np.nonzero(valid)
    if len(f_pos) == 0:
        return None
    nl = t_pos + 1.0
    nr = n - nl
    yk = y[idx]
    yo = yk[order]
    # the last class holds the rest, exactly, since the counts are integers
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
    loss = (nl * (1.0 - sl) + nr * (1.0 - sr)) / n
    m = float(loss.min())
    best = int((loss <= m + LOSS_TIE_TOL * imp).argmax())
    f, t = f_pos[best], t_pos[best]
    rows, j = order[f], feats[f]
    threshold = (X[idx[rows[t]], j] + X[idx[rows[t + 1]], j]) / 2.0
    return int(j), float(threshold), float(loss[best])


def reference_scan_regression(X, keys, y, idx, feats, msl, imp):
    """The per-node mean squared error scan that the batched scan must
    match bit for bit: (feature, threshold, loss) or None, for a node of
    MSE imp. ``keys`` is sort_keys(X), or X.T itself, which orders and
    ties alike.

    Only admissible thresholds (between distinct values, leaving msl rows
    on each side) are scored. The targets less the node's mean (one
    np.add.reduceat over its rows in node order, over n) are summed by a
    cumsum along each feature's stable sort, whose last position holds
    their own total. The loss is imp less the between-groups term of the
    two side means; the first loss within LOSS_TIE_TOL imp of the minimum
    wins, in feature-major order.
    """
    n = len(idx)
    sub = keys[feats].take(idx, axis=1)
    order = sub.argsort(axis=1, kind="stable")
    sk = np.sort(sub, axis=1)
    valid = sk[:, 1:] > sk[:, :-1]
    if msl > 1:
        pos = np.arange(1, n)
        valid = valid & (pos >= msl) & (n - pos >= msl)
    f_pos, t_pos = np.nonzero(valid)
    if len(f_pos) == 0:
        return None
    nl = t_pos + 1.0
    nr = n - nl
    yv = np.asarray(y[idx], dtype=np.float64)
    cum = (yv - np.add.reduceat(yv, [0])[0] / n)[order].cumsum(axis=1)
    d, s = cum[f_pos, t_pos], cum[f_pos, n - 1]
    gap = d / nl - (s - d) / nr
    loss = imp - nl * nr / (n * n) * (gap * gap)
    m = float(loss.min())
    best = int((loss <= m + LOSS_TIE_TOL * imp).argmax())
    f, t = f_pos[best], t_pos[best]
    rows, j = order[f], feats[f]
    threshold = (X[idx[rows[t]], j] + X[idx[rows[t + 1]], j]) / 2.0
    return int(j), float(threshold), float(loss[best])


def reference_best_split(X, y, idx, feats, n_classes, min_samples_leaf,
                         parent_impurity, keys=None):
    """best_split as the grower claims it: reference_scan_classification
    for a classification node, reference_scan_regression for a regression
    node, then the gain check, relative to the node's impurity."""
    idx = np.asarray(idx, dtype=np.intp)
    feats = np.sort(np.asarray(feats, dtype=np.intp))
    if n_classes is None:
        found = reference_scan_regression(
            X, X.T if keys is None else keys, y, idx, feats, min_samples_leaf,
            parent_impurity)
    else:
        found = reference_scan_classification(X, y, idx, feats, n_classes,
                                              min_samples_leaf, parent_impurity)
    if found is None:
        return None
    f, s, loss = found
    if parent_impurity - loss <= GAIN_EPS * parent_impurity:
        return None
    return Split(f, s), loss


def reference_ufi_regression(tree, X_test, y_test):
    """ufi_tree_regression one node at a time: each reached node's squared
    test deviations summed by an np.add.reduceat call of its own, and the
    root-weighted decrease written out. Returns (scores, skipped, per-node
    terms); a node counts where both its children get test rows, and the
    scores add its term in node order."""
    y_test = np.asarray(y_test, dtype=np.float64)
    rows, offsets = tree.route(X_test)
    routed = np.diff(offsets)
    h = np.zeros(tree.n_nodes())
    for i in np.flatnonzero(routed):
        dev = y_test[rows[offsets[i]:offsets[i + 1]]] - tree.mean[i]
        h[i] = np.add.reduceat(dev * dev, [0])[0] / routed[i]
    w = tree.n / tree.n_root
    scores, terms, skipped = np.zeros(tree.n_features), np.zeros(tree.n_nodes()), 0
    for i in np.flatnonzero(~tree.is_leaf):
        lo, hi = tree.left[i], tree.right[i]
        if not (routed[lo] and routed[hi]):
            skipped += 1
            continue
        delta = w[i] * h[i] - (w[lo] * h[lo] + w[hi] * h[hi])
        terms[i] = tree.train_decrease[i] + delta
        scores[tree.feature[i]] += terms[i]
    return scores, skipped, terms


MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 mix of a 64-bit word, on plain Python ints masked to
    64 bits: add the golden increment, then the finaliser."""
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_subset(key: int, p: int, k: int) -> list[int]:
    """A node's max_features subset as the grower claims it: the k features
    j with the smallest splitmix64(key ^ splitmix64(j)), ties to the lower
    j, in ascending order."""
    ranked = sorted(range(p), key=lambda j: (splitmix64(key ^ splitmix64(j)), j))
    return sorted(ranked[:k])


def reference_grow(X, y, indices, config, task, n_classes=None, rng=0,
                   keys=None):
    """One tree grown by plain recursion in preorder, a reference_best_split
    call per node: the oracle that the lockstep grower must match column
    for column.

    The node numbering, the fallback to all features and the float
    operations are those the grower claims; a regression node's mean and
    MSE sum its values with np.add.reduceat calls of their own. The tree's
    seed is one raw word of ``rng``; the root's path key is
    splitmix64(seed), a child's is splitmix64(2 key + side), side 0 on the
    left and 1 on the right, and a node that draws scans reference_subset
    of its key.
    """
    X = np.asarray(X, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.intp)
    config = config.resolved(task)
    classify = task == "classification"
    if not classify:
        n_classes = None
        y = np.asarray(y, dtype=np.float64)
    elif n_classes is None:
        n_classes = int(y.max()) + 1
    seed = int(np.random.default_rng(rng).bit_generator.random_raw())
    p = X.shape[1]
    k_feats = resolve_max_features(config.max_features, p)
    if keys is None:
        keys = sort_keys(X)
    n_root = len(indices)
    (feature, threshold, left, right, n_rows, counts, means, impurity,
     decrease) = ([] for _ in COLUMNS)

    def build(idx, depth, key):
        node = len(n_rows)
        n = len(idx)
        if classify:
            c = np.bincount(y[idx], minlength=n_classes)
            imp = impurity_from_counts(c)
            counts.append(c)
        else:
            v = y[idx]
            mean = np.add.reduceat(v, [0])[0] / n
            dev = v - mean
            imp = float(np.add.reduceat(dev * dev, [0])[0] / n)
            means.append(float(mean))
        n_rows.append(n)
        impurity.append(imp)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        decrease.append(0.0)
        # a node too small for two leaves is scanned, and finds no candidate
        if (config.max_depth is not None and depth >= config.max_depth) \
                or imp <= 0.0:
            return node
        feats = np.array(reference_subset(key, p, k_feats)) \
            if k_feats < p else np.arange(p)
        found = reference_best_split(X, y, idx, feats, n_classes,
                                     config.min_samples_leaf, imp, keys)
        if found is None and k_feats < p:
            found = reference_best_split(X, y, idx, np.arange(p), n_classes,
                                         config.min_samples_leaf, imp, keys)
        if found is None:
            return node
        split, _ = found
        mask = X[idx, split.feature] <= split.threshold
        lo = build(idx[mask], depth + 1, splitmix64((2 * key) & MASK64))
        hi = build(idx[~mask], depth + 1, splitmix64((2 * key + 1) & MASK64))
        feature[node], threshold[node] = split.feature, split.threshold
        left[node], right[node] = lo, hi
        decrease[node] = (
            n / n_root * imp
            - (n_rows[lo] / n_root * impurity[lo]
               + n_rows[hi] / n_root * impurity[hi])
        )
        return node

    build(indices, 0, splitmix64(seed))
    return Tree(feature, threshold, left, right, n_rows,
                counts if classify else None, None if classify else means,
                impurity, decrease, p, task, n_classes)


def assert_same_tree(got, want):
    """Every column of two trees equal to the bit, dtypes included, and
    their metadata."""
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None and b is None) or (
            a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes()), name
    assert (got.n_features, got.n_root, got.task, got.n_classes) == \
        (want.n_features, want.n_root, want.task, want.n_classes)


def random_instance(rng, task, n_max=50, p_max=5, duplicates=False):
    """A small random training set, optionally with heavily tied values."""
    n = int(rng.integers(5, n_max + 1))
    p = int(rng.integers(1, p_max + 1))
    X = rng.standard_normal((n, p))
    if duplicates:
        X = np.round(X, 1)
    if task == "classification":
        k = int(rng.integers(2, 4))
        y = rng.integers(0, k, size=n)
        return X, y, k
    return X, rng.standard_normal(n), None


def reference_permuted_loss(model, X, y, j, perm):
    """Mean loss of a tree or forest on a copy of X with column j permuted
    by perm."""
    Xp = np.array(X, copy=True)
    Xp[:, j] = Xp[perm, j]
    return _mean_loss(model.predict(Xp), y, model.task)


def reference_permutation_importance(forest, X, y, rng=None, X_test=None,
                                     y_test=None):
    """Permutation importance from one permuted copy of the data per feature,
    each through a full predict: the oracle that permutation_importance
    must match bit for bit. Returns (scores, per_tree); per_tree holds a row
    for each tree with out-of-bag rows, and is None with a test set.
    """
    rng = np.random.default_rng(rng)
    p = forest.n_features
    if X_test is None:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        per_tree = np.zeros((forest.n_trees, p))
        used = np.zeros(forest.n_trees, dtype=bool)
        for b, tree in enumerate(forest.trees):
            rows = forest.oob[b]
            if len(rows) == 0:
                continue
            used[b] = True
            xo, yo = X[rows], y[rows]
            baseline = _mean_loss(tree.predict(xo), yo, forest.task)
            for j in range(p):
                perm = rng.permutation(len(rows))
                per_tree[b, j] = reference_permuted_loss(tree, xo, yo, j, perm) \
                    - baseline
        # the score sums every tree's row, zeros included
        return per_tree.sum(axis=0) / int(used.sum()), per_tree[used]
    X_test = np.asarray(X_test, dtype=np.float64)
    y_test = np.asarray(y_test)
    baseline = _mean_loss(forest.predict(X_test), y_test, forest.task)
    return np.array([
        reference_permuted_loss(forest, X_test, y_test, j,
                                rng.permutation(len(y_test))) - baseline
        for j in range(p)]), None
