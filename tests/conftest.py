"""Shared oracles and data helpers for the test suite."""

import numpy as np

from ufitree.importance import _mean_loss
from ufitree.tree import (
    COLUMNS, GAIN_EPS, LOSS_TIE_TOL, Split, Tree, _mean_and_mse, best_split,
    impurity_from_counts, resolve_max_features, sort_keys,
)


def oracle_impurity_cls(counts):
    counts = np.asarray(counts, dtype=np.float64)
    p = counts / counts.sum()
    return 1.0 - float(np.dot(p, p))


def oracle_impurity_reg(y):
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean((y - y.mean()) ** 2))


def brute_force_best_split(X, y, idx, feats, n_classes=None,
                           min_samples_leaf=1):
    """Exhaustive scan over every (feature, midpoint) candidate, under Gini
    when n_classes is given and MSE when it is None.

    Applies the documented contract: smallest loss wins, losses within the
    relative tie tolerance of the minimum count as tied and resolve to the
    smallest feature index then smallest threshold, and a best candidate that
    improves the parent by at most GAIN_EPS counts as no split.
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
    if parent - m <= GAIN_EPS:
        return None
    best = next(c for c in cands if c[0] <= m + LOSS_TIE_TOL * max(1.0, abs(m)))
    return Split(best[1], best[2]), best[0]



def reference_grow(X, y, indices, config, task, n_classes=None, rng=0,
                   keys=None):
    """One tree grown by plain recursion, a best_split call per node: the
    oracle that the lockstep grower must match column for column.

    The node numbering, the draws of the max_features subsets, the fallback
    to all features and the float operations are those the grower claims.
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
    rng = np.random.default_rng(rng)
    p = X.shape[1]
    k_feats = resolve_max_features(config.max_features, p)
    if keys is None:
        keys = sort_keys(X)
    n_root = len(indices)
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
        feats = np.sort(rng.choice(p, size=k_feats, replace=False)) \
            if k_feats < p else np.arange(p)
        found = best_split(X, y, idx, feats, n_classes,
                           config.min_samples_leaf, imp, keys)
        if found is None and k_feats < p:
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
        decrease[node] = (
            n / n_root * imp
            - (n_rows[lo] / n_root * impurity[lo]
               + n_rows[hi] / n_root * impurity[hi])
        )
        return node

    build(indices, 0)
    return Tree(feature, threshold, left, right, n_rows,
                counts if classify else None, None if classify else means,
                impurity, decrease, p, n_root, task, n_classes)


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
