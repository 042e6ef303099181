"""Bagged tree ensembles with per-tree bootstrap and out-of-bag bookkeeping.

``fit`` grows the trees with ``tree.grow_trees``: all of them in one call,
or, in forked workers, one call per contiguous chunk of at most
``TREES_PER_TASK`` trees.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
# grow stays importable from here: the traced benchmark run patches
# ufitree.forest.grow by name
from .tree import Tree, TreeConfig, grow, grow_trees, sort_keys  # noqa: F401

FORMAT_VERSION = "ufiforest/4"


@dataclass
class ForestConfig:
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "bootstrap": self.bootstrap,
            "seed": self.seed,
            "max_depth": self.tree.max_depth,
            "min_samples_split": self.tree.min_samples_split,
            "min_samples_leaf": self.tree.min_samples_leaf,
            "max_features": self.tree.max_features,
        }


class Forest:
    """B grown trees plus their in-bag multisets and out-of-bag index lists."""

    def __init__(self, trees, in_bag, oob, n_rows, task, n_classes, n_features,
                 config, feature_names=None):
        self.trees: list[Tree] = trees
        self.in_bag: list[np.ndarray] = in_bag
        self.oob: list[np.ndarray] = oob
        self.n_rows = n_rows  # rows of the training data
        self.task = task
        self.n_classes = n_classes
        self.n_features = n_features
        self.config = config
        self.feature_names = feature_names

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("predict_proba requires a classification forest")
        acc = np.zeros((np.asarray(X).shape[0], self.n_classes))
        for tree in self.trees:
            acc += tree.predict_proba(X)
        return acc / self.n_trees

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.task == "classification":
            # argmax breaks ties toward the smaller class index
            return np.argmax(self.predict_proba(X), axis=1)
        acc = np.zeros(np.asarray(X).shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / self.n_trees

    def to_dict(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "task": self.task,
            "n_classes": self.n_classes,
            "n_features": self.n_features,
            "feature_names": self.feature_names,
            "config": self.config.to_dict(),
            "trees": [t.to_dict() for t in self.trees],
            # the bags are redrawn from config.seed on load; the digest
            # catches a seed stream that no longer reproduces them
            "n_rows": self.n_rows,
            "bag_sha256": bag_digest(self.in_bag),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported forest format: {d.get('version')!r}")
        c = d["config"]
        config = ForestConfig(
            n_trees=c["n_trees"],
            tree=TreeConfig(
                max_depth=c["max_depth"],
                min_samples_split=c["min_samples_split"],
                min_samples_leaf=c["min_samples_leaf"],
                max_features=c["max_features"],
            ),
            bootstrap=c["bootstrap"],
            seed=c["seed"],
        )
        trees = [Tree.from_dict(td) for td in d["trees"]]
        bags = [draw_bag(d["n_rows"], rng, config.bootstrap)
                for rng in tree_rngs(config)]
        in_bag = [b[0] for b in bags]
        if bag_digest(in_bag) != d["bag_sha256"]:
            raise ValueError("rebuilt bootstrap samples do not match the "
                             "model's bag digest")
        return cls(trees, in_bag, [b[1] for b in bags], d["n_rows"], d["task"],
                   d["n_classes"], d["n_features"], config, d.get("feature_names"))


def bag_digest(in_bag: list[np.ndarray]) -> str:
    """sha256 over the trees' in-bag row indices as little-endian int64."""
    h = hashlib.sha256()
    for rows in in_bag:
        h.update(np.asarray(rows, dtype="<i8").tobytes())
    return h.hexdigest()


def tree_rngs(config: ForestConfig) -> list[np.random.Generator]:
    """One generator per tree, spawned from the master seed by tree index."""
    children = np.random.SeedSequence(config.seed).spawn(config.n_trees)
    return [np.random.default_rng(c) for c in children]


def bootstrap_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows with replacement; OOB is the complement of the drawn set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    in_bag = rng.integers(0, n, size=n)
    oob = np.setdiff1d(np.arange(n), in_bag)
    return in_bag, oob


def draw_bag(n: int, rng: np.random.Generator,
             bootstrap: bool) -> tuple[np.ndarray, np.ndarray]:
    """A tree's (in-bag, out-of-bag) rows: a bootstrap draw, or all n rows."""
    if bootstrap:
        return bootstrap_indices(n, rng)
    return np.arange(n), np.empty(0, dtype=np.intp)


def worker_count(jobs: int, n_trees: int) -> int:
    """How many processes fit grows n_trees trees in: jobs, at most one per
    CPU and one per tree, and 1 where the platform cannot fork."""
    if jobs < 1:
        raise ValueError("jobs (--threads) must be >= 1")
    count = min(jobs, os.cpu_count() or 1, n_trees)
    if count > 1:
        import multiprocessing  # imported here: start-up never needs it
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return count


# A worker task is a contiguous chunk of at most this many trees, grown
# together. Its trees and bags come back to the parent as one pickled
# message. On a 100-tree, depth-10 regression fit (n = 1000, 2 workers),
# 50 trees a message raised the parent's peak RSS by 2.7 MB (6%) over one
# tree a message, and 10 trees by 0.2 MB.
TREES_PER_TASK = 10

_worker_job = None  # the fit job a forked worker inherited from its parent


def _start_worker(job):
    global _worker_job
    _worker_job = job


def _grow_chunk(trees: np.ndarray, job=None) -> tuple[list, list, list]:
    """Trees ``trees`` of a fit job, by index: each one's bag, then the
    trees grown together. A worker passes no job and uses the one it
    inherited. Returns (trees, in-bag rows, out-of-bag rows)."""
    d, tree_cfg, bootstrap, keys, rngs = job or _worker_job
    rngs = [rngs[i] for i in trees]
    in_bag, oob = zip(*(draw_bag(d.n, rng, bootstrap) for rng in rngs))
    grown = grow_trees(d.X, d.y, in_bag, rngs, tree_cfg, d.task, d.n_classes,
                       keys)
    return grown, list(in_bag), list(oob)


def fit(d: Dataset, config: ForestConfig, jobs: int = 1) -> Forest:
    """Fit B trees on bootstrap (or full) samples; deterministic per master seed.

    Each tree's generator draws its bag and then its feature subsets, so a
    tree depends only on its index. One process grows all B trees together
    (grow_trees). With jobs > 1, worker_count(jobs, B) forked processes
    share contiguous chunks of at most TREES_PER_TASK trees, each grown
    together, and every count gives the same forest. The returned forest's
    config holds the resolved max_features.
    """
    if config.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    workers = worker_count(jobs, config.n_trees)
    tree_cfg = config.tree.resolved(d.task)
    tree_cfg.validate(d.p)
    config = replace(config, tree=tree_cfg)
    job = (d, tree_cfg, config.bootstrap, sort_keys(d.X), tree_rngs(config))
    if workers == 1:
        parts = [_grow_chunk(np.arange(config.n_trees), job)]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the job and the imported modules instead
        # of importing and unpickling them. The executor, unlike
        # multiprocessing.Pool, raises BrokenProcessPool if a worker dies
        # instead of waiting for its trees forever.
        ctx = multiprocessing.get_context("fork")
        tasks = max(workers, -(-config.n_trees // TREES_PER_TASK))
        chunks = np.array_split(np.arange(config.n_trees), tasks)
        with ProcessPoolExecutor(workers, ctx, _start_worker, (job,)) as pool:
            parts = list(pool.map(_grow_chunk, chunks))
    trees, in_bag, oob = ([x for part in parts for x in part[k]] for k in range(3))
    return Forest(trees, in_bag, oob, d.n, d.task, d.n_classes, d.p, config,
                  feature_names=list(d.feature_names))
