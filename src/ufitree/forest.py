"""Bagged tree ensembles with per-tree bootstrap and out-of-bag bookkeeping.

``fit`` draws every tree's bag, then grows the trees with
``tree.grow_trees``: all of them in one call, or, in forked workers, one
call per worker on a contiguous share of the trees. A worker sends its
trees back one message a tree, so the parent's memory holds one message at
a time.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .data import Dataset
# grow stays importable from here: the traced benchmark run patches
# ufitree.forest.grow by name
from .tree import FACTS, Tree, TreeConfig, build_trees, grow, grow_trees  # noqa: F401

FORMAT_VERSION = "ufiforest/5"


@dataclass
class ForestConfig:
    n_trees: int = 100
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    seed: int = 0

    def to_dict(self) -> dict:
        """The forest settings, then TreeConfig's fields in their order."""
        return {"n_trees": self.n_trees, "bootstrap": self.bootstrap,
                "seed": self.seed,
                **{f.name: getattr(self.tree, f.name) for f in fields(TreeConfig)}}


class Forest:
    """B grown trees plus their in-bag multisets and out-of-bag index lists."""

    def __init__(self, trees, in_bag, oob, n_rows, task, n_classes, config,
                 feature_names):
        self.trees: list[Tree] = trees
        self.in_bag: list[np.ndarray] = in_bag
        self.oob: list[np.ndarray] = oob
        self.n_rows = n_rows  # rows of the training data
        self.task = task
        self.n_classes = n_classes
        self.config = config
        self.feature_names: list[str] = feature_names

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

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
            "feature_names": self.feature_names,
            "config": self.config.to_dict(),
            "trees": [{name: getattr(t, name).tolist() for name in FACTS[self.task]}
                      for t in self.trees],
            # the bags are redrawn from config.seed on load; the digest
            # catches a seed stream that no longer reproduces them
            "n_rows": self.n_rows,
            "bag_sha256": bag_digest(self.in_bag),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Forest":
        if d.get("version") != FORMAT_VERSION:
            raise ValueError(f"unsupported forest format: {d.get('version')!r}")
        if d["task"] not in FACTS:
            raise ValueError(f"unknown task {d['task']!r}: a model is of "
                             f"{' or '.join(FACTS)}")
        c = d["config"]
        config = ForestConfig(
            n_trees=c["n_trees"],
            tree=TreeConfig(**{f.name: c[f.name] for f in fields(TreeConfig)}),
            bootstrap=c["bootstrap"], seed=c["seed"])
        # tree b is scored on the out-of-bag rows of bag b
        if len(d["trees"]) != config.n_trees:
            raise ValueError(f"model holds {len(d['trees'])} trees; its config "
                             f"grew {config.n_trees}")
        sizes, facts = _stored_facts(d["trees"], d["task"], d["n_classes"])
        p = len(d["feature_names"])
        _, in_bag, oob = draw_bags(d["n_rows"], config)
        if bag_digest(in_bag) != d["bag_sha256"]:
            raise ValueError("rebuilt bootstrap samples do not match the "
                             "model's bag digest")
        return cls(build_trees(facts, sizes, d["task"], d["n_classes"], p), in_bag, oob,
                   d["n_rows"], d["task"], d["n_classes"], config, d["feature_names"])


def _stored_facts(trees: list[dict], task: str, n_classes) -> tuple[list, dict]:
    """The stored trees' node counts and FACTS[task], each the trees' columns
    one after another. Raises ValueError naming a tree with other columns."""
    facts = {name: [] for name in FACTS[task]}
    for t, tree in enumerate(trees):
        try:
            if sorted(tree) != sorted(facts):
                raise ValueError(f"columns {sorted(tree)}, not {sorted(facts)}")
            for name, parts in facts.items():
                parts.append(np.asarray(tree[name], dtype=FACTS[task][name]))
                shape = (len(tree["feature"]),) + (
                    (n_classes,) if name == "class_counts" else ())
                if parts[-1].shape != shape:
                    raise ValueError(f"{name} has shape {parts[-1].shape}, not {shape}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"tree {t}: {exc}") from None
    return ([len(tree["feature"]) for tree in trees],
            {name: np.concatenate(parts) for name, parts in facts.items()})


def bag_digest(in_bag: list[np.ndarray]) -> str:
    """sha256 over the trees' in-bag row indices as little-endian int64."""
    h = hashlib.sha256()
    for rows in in_bag:
        h.update(np.asarray(rows, dtype="<i8").tobytes())
    return h.hexdigest()


def bootstrap_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n rows with replacement; OOB is the complement of the drawn set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    in_bag = rng.integers(0, n, size=n)
    # the rows never drawn, ascending: np.setdiff1d(np.arange(n), in_bag),
    # without its sort, which took most of a draw's time
    oob = np.flatnonzero(np.bincount(in_bag, minlength=n) == 0)
    return in_bag, oob


def worker_count(jobs: int, n_trees: int) -> int:
    """How many processes fit grows n_trees trees in: jobs, at most one per
    tree and one per CPU this process may run on (its affinity mask where
    the platform has one, else the host's count), and 1 where the platform
    cannot fork."""
    if jobs < 1:
        raise ValueError("jobs (--threads) must be >= 1")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    count = min(jobs, cpus, n_trees)
    if count > 1:
        import multiprocessing  # imported here: start-up never needs it
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return count


def draw_bags(n: int, config: ForestConfig) -> tuple[list, list, list]:
    """Every tree's generator, spawned from the master seed by tree index
    and left just after drawing its tree's bag, with the trees' in-bag and
    out-of-bag rows: a bootstrap draw (bootstrap_indices), or all n rows."""
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(config.seed).spawn(config.n_trees)]
    if not config.bootstrap:
        return rngs, [np.arange(n) for _ in rngs], [np.empty(0, np.intp) for _ in rngs]
    bags = [bootstrap_indices(n, rng) for rng in rngs]
    return rngs, [b[0] for b in bags], [b[1] for b in bags]


def _grow_share(job, share, conn) -> None:
    """In a forked worker: grow the trees ``share`` (indices into the job's
    bags) in one grow_trees call, then send each as (index, tree), one
    message a tree, so that the parent never holds more than one tree's
    message. An exception, with its traceback as text, is sent in place of
    the trees not yet sent."""
    d, tree_cfg, rngs, in_bag = job
    try:
        grown = grow_trees(d.X, d.y, [in_bag[i] for i in share],
                           [rngs[i] for i in share], tree_cfg, d.task,
                           d.n_classes)
        for i, tree in zip(share, grown):
            conn.send((int(i), tree))
    except Exception as exc:
        import traceback
        conn.send((None, (exc, traceback.format_exc())))
    finally:
        conn.close()


def _grow_in_workers(job, n_trees: int, workers: int) -> list[Tree]:
    """Grow n_trees trees in ``workers`` forked processes, each one a
    contiguous share; the trees come back in index order. A worker's
    exception is raised here; a worker that exits before sending its whole
    share raises BrokenProcessPool. No worker outlives this call."""
    import multiprocessing
    from multiprocessing.connection import wait

    # fork: the workers inherit the job and the imported modules instead of
    # importing and unpickling them
    ctx = multiprocessing.get_context("fork")
    trees: list = [None] * n_trees
    procs, pending = [], {}  # pending: a worker's pipe -> trees still due
    try:
        for share in np.array_split(np.arange(n_trees), workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_grow_share, args=(job, share, send))
            procs.append(proc)
            pending[recv] = len(share)
            proc.start()
            # closed here, so the pipe reads EOF once the worker is gone
            send.close()
        while pending:
            for conn in wait(list(pending)):
                try:
                    i, tree = conn.recv()
                except EOFError:
                    from concurrent.futures.process import BrokenProcessPool
                    raise BrokenProcessPool(
                        "a fit worker exited before sending all its trees"
                    ) from None
                if i is None:
                    exc, text = tree
                    raise exc from RuntimeError(f"in a fit worker:\n{text}")
                trees[i] = tree
                pending[conn] -= 1
                if not pending[conn]:
                    del pending[conn]
                    conn.close()
    finally:
        # workers first: a worker still writing to a closed pipe would
        # print a BrokenPipeError
        for proc in procs:
            proc.terminate()
            proc.join()
        for conn in pending:
            conn.close()
    return trees


def fit(d: Dataset, config: ForestConfig, jobs: int = 1) -> Forest:
    """Fit B trees on bootstrap (or full) samples; deterministic per master seed.

    Each tree's generator draws its bag and then its feature subsets, so a
    tree depends only on its index. The bags are all drawn here. One
    process grows all B trees together (grow_trees). With jobs > 1,
    worker_count(jobs, B) forked processes each grow one contiguous share
    of the trees together and send them back a tree at a time; every count
    gives the same forest. The returned forest's config holds the resolved
    max_features.
    """
    if config.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    workers = worker_count(jobs, config.n_trees)
    tree_cfg = config.tree.resolved(d.task)
    config = replace(config, tree=tree_cfg)
    rngs, in_bag, oob = draw_bags(d.n, config)
    if workers == 1:
        trees = grow_trees(d.X, d.y, in_bag, rngs, tree_cfg, d.task, d.n_classes)
    else:
        trees = _grow_in_workers((d, tree_cfg, rngs, in_bag),
                                 config.n_trees, workers)
    return Forest(trees, in_bag, oob, d.n, d.task, d.n_classes, config,
                  list(d.feature_names))
