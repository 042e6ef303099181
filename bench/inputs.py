"""Seeded input files for the benchmark workloads.

Everything the CLI reads (CSVs and schemas) is generated here from the
benchmark's ``--seed``; the program under test receives only files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# the paper's mixed-type design: one continuous column plus uniform
# categoricals of increasing cardinality, stored as string levels
CARDS = {"c2": 2, "c4": 4, "c10": 10, "c20": 20}
FEATURES = ["x", *CARDS]


@dataclass
class CsvInput:
    """One generated CSV: its path, schema path, and the raw cells written."""

    csv: Path
    schema: Path
    columns: dict[str, list[str]]  # feature name -> cell text, row order
    target: list[str]


def _features(n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    cols = {"x": rng.standard_normal(n)}
    for name, k in CARDS.items():
        cols[name] = rng.integers(0, k, size=n)
    return cols


def _signal(cols: dict[str, np.ndarray]) -> np.ndarray:
    # continuous column and the 4-level categorical carry the signal
    level_effect = np.array([-1.0, -0.3, 0.3, 1.0])
    return 1.2 * cols["x"] + level_effect[cols["c4"]]


def _write(path: Path, task: str, cols: dict[str, np.ndarray], target) -> CsvInput:
    text = {"x": [f"{v:.6f}" for v in cols["x"]]}
    for name in CARDS:
        text[name] = [f"{name}_L{int(v)}" for v in cols[name]]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([*FEATURES, "label"])
        w.writerows(zip(*(text[f] for f in FEATURES), target))
    schema = path.with_suffix(".schema.json")
    schema.write_text(json.dumps({
        "target": "label",
        "task": task,
        "kinds": {"x": "continuous", **{c: "categorical" for c in CARDS}},
    }))
    return CsvInput(path, schema, text, list(target))


def classification_csv(path: Path, n: int, rng: np.random.Generator) -> CsvInput:
    """Mixed-type features with a noisy yes/no label."""
    cols = _features(n, rng)
    p_yes = 1.0 / (1.0 + np.exp(-_signal(cols)))
    label = np.where(rng.random(n) < p_yes, "yes", "no")
    return _write(path, "classification", cols, label)


def regression_csv(path: Path, n: int, rng: np.random.Generator) -> CsvInput:
    """Mixed-type features with a noisy continuous target."""
    cols = _features(n, rng)
    y = _signal(cols) + rng.standard_normal(n)
    return _write(path, "regression", cols, [f"{v:.6f}" for v in y])


def streams(seed: int, k: int) -> list[np.random.Generator]:
    """k independent generators spawned from the benchmark seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(k)]
