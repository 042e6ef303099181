"""Span tracing from outside the program, for the traced (per-layer) run.

Timing wrappers replace the library's public functions where their callers
look them up (module globals and class attributes). Spans stay in memory
and are turned into per-layer metrics after each pass.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# (owner, attribute, span name); "module:Class" patches a class attribute
TARGETS = [
    ("ufitree.cli", "load_csv", "data.load_csv"),
    ("ufitree.cli", "dummy_encode", "data.dummy_encode"),
    ("ufitree.cli", "fold_importances", "data.fold_importances"),
    ("ufitree.cli", "fit", "forest.fit"),
    ("ufitree.cli", "si_forest", "importance.si"),
    ("ufitree.cli", "ufi_forest", "importance.ufi"),
    ("ufitree.cli", "permutation_importance", "importance.permutation"),
    ("ufitree.cli", "run_experiment", "simgen.run_experiment"),
    ("ufitree.simgen", "generate", "simgen.generate"),
    ("ufitree.simgen", "dummy_encode", "data.dummy_encode"),
    ("ufitree.simgen", "fold_importances", "data.fold_importances"),
    ("ufitree.simgen", "si_forest", "importance.si"),
    ("ufitree.simgen", "ufi_forest", "importance.ufi"),
    ("ufitree.simgen", "permutation_importance", "importance.permutation"),
    ("ufitree.forest", "fit", "forest.fit"),
    ("ufitree.forest", "grow", "tree.grow"),
    ("ufitree.forest", "bootstrap_indices", "forest.bootstrap"),
    ("ufitree.tree", "best_split", "tree.best_split"),
    ("ufitree.tree:Tree", "route", "tree.route"),
    ("ufitree.tree:Tree", "apply", "tree.apply"),
    ("ufitree.forest:Forest", "to_dict", "forest.to_dict"),
]

# what to keep from a call for counting after the pass, outside any span
KEEP = {
    "tree.grow": lambda args, result: result,
    "tree.apply": lambda args, result: len(args[1]),
    "data.load_csv": lambda args, result: result.n,
    "importance.ufi": lambda args, result: (result.skipped_nodes, args[0]),
    "forest.fit": lambda args, result: (result, args[0]),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Per-thread span stacks; a span opened on a pool thread with an empty
    stack takes the main thread's innermost open span as its parent."""

    def __init__(self):
        self.reset()
        self._ids = itertools.count()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans: list[Span] = []
        # keys exist up front so pool threads only append to existing lists
        self.kept: dict[str, list] = {name: [] for name in KEEP}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, name: str, fn):
        keep = KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1))
            if keep is not None:
                self.kept[name].append(keep(args, result))
            return result

        return traced

    def install(self):
        for owner_path, attr, name in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _covered(children: list[Span], parent: Span) -> float:
    """Length of the union of the children's intervals inside the parent's."""
    total, end = 0.0, parent.t0
    for c in sorted(children, key=lambda s: s.t0):
        lo, hi = max(c.t0, end), min(c.t1, parent.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {s.sid: s.dur - _covered(children[s.sid], s) for s in spans}


def layer_metrics(spans: list[Span], kept: dict[str, list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer did not run)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(name):
        return sum(s.dur for s in by_name[name])

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name])

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    grow_ms = [s.dur * 1e3 for s in by_name["tree.grow"]]
    nodes = sum(t.n_nodes() for t in kept["tree.grow"])
    internal = sum((t.n_nodes() - 1) // 2 for _, f in kept["importance.ufi"] for t in f.trees)
    skipped = sum(sk for sk, _ in kept["importance.ufi"])
    return {
        "tree.best_split_s": dur("tree.best_split"),
        "tree.best_split_calls": len(by_name["tree.best_split"]),
        "tree.grow_s": dur("tree.grow"),
        "tree.grow_self_s": self_s("tree.grow"),
        "tree.grow_p50_ms": float(np.percentile(grow_ms, 50)) if grow_ms else 0.0,
        "tree.grow_p90_ms": float(np.percentile(grow_ms, 90)) if grow_ms else 0.0,
        "tree.nodes": nodes,
        "tree.nodes_per_s": rate(nodes, dur("tree.grow")),
        "tree.apply_s": dur("tree.apply"),
        "tree.apply_calls": len(by_name["tree.apply"]),
        "tree.apply_rows_per_s": rate(sum(kept["tree.apply"]), dur("tree.apply")),
        "tree.route_s": dur("tree.route"),
        "forest.fit_s": dur("forest.fit"),
        "forest.fit_self_s": self_s("forest.fit"),
        "forest.bootstrap_s": dur("forest.bootstrap"),
        "forest.to_dict_s": dur("forest.to_dict"),
        "importance.si_s": dur("importance.si"),
        "importance.ufi_s": dur("importance.ufi"),
        "importance.ufi_self_s": self_s("importance.ufi"),
        "importance.ufi_skipped_frac": skipped / internal if internal else 0.0,
        "importance.permutation_s": dur("importance.permutation"),
        "importance.permutation_self_s": self_s("importance.permutation"),
        "data.load_csv_s": dur("data.load_csv"),
        "data.load_csv_rows_per_s": rate(sum(kept["data.load_csv"]), dur("data.load_csv")),
        "data.dummy_encode_s": dur("data.dummy_encode"),
        "data.fold_importances_s": dur("data.fold_importances"),
        "simgen.generate_s": dur("simgen.generate"),
        "simgen.run_experiment_self_s": self_s("simgen.run_experiment"),
        "cli.self_s": self_s("cli"),
    }


def accounting(spans: list[Span], wall: float) -> dict[str, float]:
    """How a traced pass's wall time splits: top-level CLI spans plus the
    untraced gaps between them. Self times sum to the top-level time when
    spans do not overlap; pool threads add their overlap on top."""
    top = sum(s.dur for s in spans if s.parent is None)
    own = sum(self_times(spans).values())
    return {"wall_s": wall, "top_level_s": top, "gap_s": wall - top,
            "sum_self_s": own, "parallel_overlap_s": own - top}
