"""Synthetic benchmark generators and the repetition-based experiment runner."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import forest as forest_mod
from .data import (
    CATEGORICAL, CONTINUOUS, ORDINAL,
    Dataset, Encoder, FeatureKind, dummy_encode, fold_importances,
)
from .forest import ForestConfig
from .importance import permutation_importance, si_forest, ufi_forest

SCENARIOS = ("null_mixed", "signal", "discrete10")
METHODS = ("si", "ufi", "permutation")

# mixed-type design: one standard normal plus uniform categoricals of
# increasing cardinality, whose levels are their codes "0" ... "k-1"
_MIXED_CARDS = (2, 4, 10, 20)


@dataclass
class SimSetting:
    scenario: str
    task: str
    rho: float = 0.0
    encoding: str = "dummy"  # "dummy" | "ordinal"
    n: int = 1000
    reps: int = 100
    seed: int = 0

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")
        if self.encoding not in ("dummy", "ordinal"):
            raise ValueError(f"unknown encoding {self.encoding!r}")
        if self.n < 10 or self.reps < 1:
            raise ValueError("need n >= 10 and reps >= 1")


@dataclass
class ExperimentResult:
    method: str
    feature_names: list[str]
    scores: np.ndarray  # reps x p
    mean: np.ndarray = field(init=False)
    sd: np.ndarray = field(init=False)
    avg_rank: np.ndarray = field(init=False)

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.mean = self.scores.mean(axis=0)
        self.sd = self.scores.std(axis=0, ddof=1) if len(self.scores) > 1 \
            else np.zeros(self.scores.shape[1])
        self.avg_rank = average_rank(self.scores)

    def stderr(self) -> np.ndarray:
        return self.sd / np.sqrt(len(self.scores))


def average_rank(scores: np.ndarray) -> np.ndarray:
    """Mean rank per feature over repetitions; rank 1 = largest score.

    In each repetition the tied scores at sorted positions start..end-1 all
    get 0.5 * (start + end + 1), the mean of their ranks, and a repetition
    holding NaN ranks as all NaN: the bits of
    scipy.stats.rankdata(-row, method="average").
    """
    a = -np.atleast_2d(np.asarray(scores, dtype=np.float64))
    reps, p = a.shape
    order = np.argsort(a, axis=1, kind="stable")
    s = np.take_along_axis(a, order, axis=1)
    # each row's first sorted value starts a tie group; 0.0 ties -0.0
    first = np.ones((reps, p), dtype=bool)
    first[:, 1:] = s[:, 1:] != s[:, :-1]
    start = np.flatnonzero(first)  # flat sorted position of each group
    count = np.diff(start, append=first.size)
    start %= p  # position within its row
    end = start + count
    ranks = np.empty((reps, p))
    np.put_along_axis(ranks, order, np.repeat(
        0.5 * (start + end + 1), count).reshape(reps, p), axis=1)
    ranks[np.isnan(a).any(axis=1)] = np.nan
    return ranks.mean(axis=0)


def _mixed_features(n: int, rng: np.random.Generator):
    cols = [rng.standard_normal(n)] + [
        rng.integers(0, card, size=n).astype(np.float64) for card in _MIXED_CARDS]
    kinds = [FeatureKind(CONTINUOUS)] + [
        FeatureKind(CATEGORICAL, tuple(map(str, range(c)))) for c in _MIXED_CARDS]
    return np.column_stack(cols), [f"X{i}" for i in range(1, len(cols) + 1)], kinds


def gen_null_mixed(n: int, task: str, rng: np.random.Generator) -> Dataset:
    """Five mixed-type features with a target independent of all of them."""
    X, names, kinds = _mixed_features(n, rng)
    if task == "classification":
        y = rng.integers(0, 2, size=n)
        return Dataset(X, y, names, kinds, task, n_classes=2)
    return Dataset(X, rng.standard_normal(n), names, kinds, task)


def gen_signal(n: int, rho: float, task: str, rng: np.random.Generator) -> Dataset:
    """Same features as the null design, but the binary X2 carries signal rho.

    Regression: y = rho * X2 + N(0,1).  Classification: y = X2 with each
    label flipped independently with probability (1 - rho) / 2, so
    corr(X2, y) is approximately rho.
    """
    X, names, kinds = _mixed_features(n, rng)
    x2 = X[:, 1]
    if task == "classification":
        flips = rng.random(n) < (1.0 - rho) / 2.0
        y = np.where(flips, 1 - x2.astype(np.int64), x2.astype(np.int64))
        return Dataset(X, y, names, kinds, task, n_classes=2)
    y = rho * x2 + rng.standard_normal(n)
    return Dataset(X, y, names, kinds, task)


def gen_discrete10(n: int, task: str, rng: np.random.Generator) -> Dataset:
    """Ten uniform ordinal features of increasing support; only the binary X1
    is informative, with a deliberately weak signal."""
    # X1 is binary; X_i ranges over 0..i-1 for i >= 2
    X = np.column_stack([rng.integers(0, max(i, 2), size=n).astype(np.float64)
                         for i in range(1, 11)])
    names, kinds = [f"X{i}" for i in range(1, 11)], [FeatureKind(ORDINAL)] * 10
    x1 = X[:, 0]
    if task == "classification":
        p1 = np.where(x1 == 1, 0.55, 0.45)
        y = (rng.random(n) < p1).astype(np.int64)
        return Dataset(X, y, names, kinds, task, n_classes=2)
    y = x1 + 5.0 * rng.standard_normal(n)
    return Dataset(X, y, names, kinds, task)


def generate(setting: SimSetting, rng: np.random.Generator) -> Dataset:
    if setting.scenario == "null_mixed":
        return gen_null_mixed(setting.n, setting.task, rng)
    if setting.scenario == "signal":
        return gen_signal(setting.n, setting.rho, setting.task, rng)
    return gen_discrete10(setting.n, setting.task, rng)


def compute_method_scores(method: str, forest, enc: Dataset, encoder: Encoder,
                          rng: np.random.Generator):
    """Folded per-original-feature scores for one method on a fitted forest."""
    if method == "si":
        report = si_forest(forest)
    elif method == "ufi":
        report = ufi_forest(forest, enc.X, enc.y)
    elif method == "permutation":
        report = permutation_importance(forest, enc.X, enc.y, rng)
    else:
        raise ValueError(f"unknown method {method!r}")
    return fold_importances(report.scores, encoder)


def run_experiment(setting: SimSetting, config: ForestConfig,
                   methods: list[str], jobs: int = 1) -> dict[str, ExperimentResult]:
    """Repeat generate -> encode -> fit -> score and aggregate per method;
    each fit grows its trees in ``jobs`` processes (see forest.fit)."""
    setting.validate()
    if not methods:
        raise ValueError("name at least one method")
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is named twice")
        if m != "si" and not config.bootstrap:
            raise ValueError(f"{m} scores out-of-bag rows: it requires bootstrap")
    master = np.random.SeedSequence(setting.seed)
    rep_seeds = master.spawn(setting.reps)
    per_method: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    feature_names = None
    for r in range(setting.reps):
        rng = np.random.default_rng(rep_seeds[r])
        raw = generate(setting, rng)
        if setting.encoding == "ordinal":  # split on the level codes
            raw = replace(raw, kinds=[FeatureKind(ORDINAL) if k.is_categorical else k
                                      for k in raw.kinds])
        enc, encoder = dummy_encode(raw)
        rep_config = replace(config, seed=int(rng.integers(0, 2**31 - 1)))
        fitted = forest_mod.fit(enc, rep_config, jobs=jobs)
        for m in methods:
            names, scores = compute_method_scores(m, fitted, enc, encoder, rng)
            per_method[m].append(scores)
            feature_names = names
    return {
        m: ExperimentResult(m, feature_names, np.vstack(per_method[m]))
        for m in methods
    }


def tidy_csv(results: dict[str, ExperimentResult]) -> str:
    """Long-format per-repetition scores: rep, method, feature, score."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["rep", "method", "feature", "score"])
    for method in sorted(results):
        res = results[method]
        for r, row in enumerate(res.scores):
            for name, score in zip(res.feature_names, row):
                w.writerow([r, method, name, repr(float(score))])
    return buf.getvalue()


def summary_json(results: dict[str, ExperimentResult]) -> str:
    out = {}
    for method in sorted(results):
        res = results[method]
        out[method] = {
            "features": res.feature_names,
            "mean": [float(v) for v in res.mean],
            "sd": [float(v) for v in res.sd],
            "avg_rank": [float(v) for v in res.avg_rank],
            "reps": int(len(res.scores)),
        }
    return json.dumps(out, indent=2)
