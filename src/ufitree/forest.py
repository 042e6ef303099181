"""Bagged tree ensembles with per-tree bootstrap and out-of-bag bookkeeping."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .tree import Tree, TreeConfig, grow, sort_keys

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


def fit(d: Dataset, config: ForestConfig) -> Forest:
    """Fit B trees on bootstrap (or full) samples; deterministic per master seed.

    Each tree's generator draws its bag and then its feature subsets. The
    returned forest's config holds the resolved max_features.
    """
    if config.n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    tree_cfg = config.tree.resolved(d.task)
    tree_cfg.validate(d.p)
    config = replace(config, tree=tree_cfg)
    keys = sort_keys(d.X)
    trees, in_bag, oob = [], [], []
    for rng in tree_rngs(config):
        rows, out = draw_bag(d.n, rng, config.bootstrap)
        trees.append(grow(d.X, d.y, rows, tree_cfg, d.task, d.n_classes,
                          rng=rng, keys=keys))
        in_bag.append(rows)
        oob.append(out)
    return Forest(trees, in_bag, oob, d.n, d.task, d.n_classes, d.p, config,
                  feature_names=list(d.feature_names))
