"""Shared brute-force oracles and data helpers for the test suite."""

import numpy as np

from ufitree.tree import GAIN_EPS, LOSS_TIE_TOL, Split


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
