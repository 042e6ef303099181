"""Output checks that decide whether a CLI call counts as failed."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# records the run's duration, so it differs between otherwise equal runs
VOLATILE = {"manifest.json"}


class CheckError(Exception):
    pass


def require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _finite(values, where: str):
    require(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
            f"{where}: non-finite or non-numeric score")


def _scores_json(path: Path, names: list[str] | None, count: int | None = None):
    payload = json.loads(path.read_text())
    got, scores = payload["feature_names"], payload["scores"]
    if names is not None:
        require(got == names, f"{path.name}: features {got} != {names}")
    if count is not None:
        require(len(got) == count, f"{path.name}: {len(got)} features, want {count}")
    require(len(scores) == len(got), f"{path.name}: {len(scores)} scores for {len(got)} features")
    _finite(scores, path.name)


def _scores_csv(path: Path, names: list[str]):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require([r["feature"] for r in rows] == names, f"{path.name}: wrong feature rows")
    _finite([float(r["score"]) for r in rows], path.name)


def importance_outputs(out: Path, names: list[str], n_encoded: int):
    """Folded score files have one finite score per original feature; the
    encoded ones one per dummy column."""
    _scores_json(out / "scores.json", names)
    _scores_csv(out / "scores.csv", names)
    _scores_json(out / "scores_encoded.json", None, n_encoded)


def simulate_outputs(out: Path, names: list[str], methods: list[str], reps: int):
    """Tidy scores hold one finite score per feature for every (rep, method);
    the summary agrees on features and repetitions."""
    with open(out / "scores.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == reps * len(methods) * len(names), "scores.csv: wrong row count")
    for (rep, method), feats in _group(rows).items():
        require(feats == names, f"scores.csv: rep {rep} {method}: features {feats}")
    _finite([float(r["score"]) for r in rows], "scores.csv")
    summary = json.loads((out / "summary.json").read_text())
    require(sorted(summary) == sorted(methods), "summary.json: wrong methods")
    for m, s in summary.items():
        require(s["features"] == names and s["reps"] == reps, f"summary.json: {m} shape")
        _finite(s["mean"], f"summary.json {m}")


def _group(rows) -> dict[tuple[str, str], list[str]]:
    out: dict[tuple[str, str], list[str]] = {}
    for r in rows:
        out.setdefault((r["rep"], r["method"]), []).append(r["feature"])
    return out


def output_digest(out: Path) -> tuple[dict[str, str], int]:
    """(sha256 per output file except the volatile ones, total bytes written)."""
    digest, size = {}, 0
    for f in sorted(p for p in out.rglob("*") if p.is_file()):
        data = f.read_bytes()
        size += len(data)
        if f.name not in VOLATILE:
            digest[str(f.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digest, size


def encode_like_model(columns: dict[str, list[str]], target: list[str],
                      feature_names: list[str], class_labels: list[str] | None):
    """Rebuild the model's design matrix from the raw cells the benchmark wrote.

    Dummy columns are named ``column=level`` and pass-through columns keep
    the CSV name; this reads the encoding off the model rather than reusing
    the program's loader.
    """
    cols = []
    for name in feature_names:
        col, sep, level = name.partition("=")
        require(col in columns, f"model feature {name!r} is not a generated column")
        cells = columns[col]
        cols.append([float(c == level) for c in cells] if sep else [float(c) for c in cells])
    X = np.array(cols, dtype=np.float64).T
    if class_labels is None:
        y = np.array([float(c) for c in target])
    else:
        code = {lab: k for k, lab in enumerate(class_labels)}
        y = np.array([code[c] for c in target], dtype=np.int64)
    return X, y


def ufi_si_identity(forest, X, y, factor: float):
    """Bitwise ``ufi_tree(tree, X[in_bag], y[in_bag]) == factor * si_tree(tree)``
    for every tree (factor 1 for classification, 2 for regression)."""
    from ufitree.importance import si_tree, ufi_tree

    for b, tree in enumerate(forest.trees):
        rows = forest.in_bag[b]
        scores = ufi_tree(tree, X[rows], y[rows])[0]
        require(np.array_equal(scores, factor * si_tree(tree)),
                f"tree {b}: ufi on in-bag rows != {factor:g} x si")
