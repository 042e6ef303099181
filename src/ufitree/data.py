"""Dataset representation, CSV loading, dummy encoding and related bookkeeping."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

CONTINUOUS = "continuous"
BINARY = "binary"
CATEGORICAL = "categorical"
ORDINAL = "ordinal"

_KINDS = (CONTINUOUS, BINARY, CATEGORICAL, ORDINAL)


class DataError(ValueError):
    """Raised for malformed input data (bad cells, missing values, bad schema)."""


@dataclass(frozen=True)
class FeatureKind:
    """Declared type of one feature column.

    ``binary`` is shorthand for a two-level categorical that is stored as 0/1
    and never dummy-encoded.  ``ordinal`` is stored as plain numeric codes and
    split on directly.
    """

    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            if self.cardinality is None or self.cardinality < 2:
                raise DataError("categorical cardinality must be >= 2")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass
class Dataset:
    """Immutable numeric feature matrix plus target and per-column metadata.

    Classification targets are dense integer labels in ``[0, n_classes)``;
    categorical feature columns hold level codes (first-appearance order).
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    kinds: list[FeatureKind]
    task: str  # "classification" | "regression"
    n_classes: int | None = None
    class_labels: list[str] | None = None  # original label per dense code
    level_maps: dict[str, list[str]] = field(default_factory=dict)

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise DataError("feature matrix must be n x p with n, p >= 1")
        if not np.all(np.isfinite(self.X)):
            raise DataError("feature matrix contains non-finite values")
        if self.task not in ("classification", "regression"):
            raise DataError(f"unknown task {self.task!r}")
        if self.task == "classification":
            self.y = np.asarray(self.y, dtype=np.int64)
            if self.n_classes is None:
                self.n_classes = int(self.y.max()) + 1 if len(self.y) else 0
            if self.y.min() < 0 or self.y.max() >= self.n_classes:
                raise DataError("class labels must lie in [0, n_classes)")
        else:
            self.y = np.asarray(self.y, dtype=np.float64)
            if not np.all(np.isfinite(self.y)):
                raise DataError("regression target contains non-finite values")
        if len(self.y) != self.X.shape[0]:
            raise DataError("target length does not match row count")
        if len(self.feature_names) != self.X.shape[1] or len(self.kinds) != self.X.shape[1]:
            raise DataError("feature metadata length does not match column count")
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class DummyGroupMap:
    """Provenance of dummy-encoded columns.

    ``groups`` maps each original categorical feature name to the encoded
    column indices of its indicator block.  Non-categorical columns pass
    through and are keyed by their own (unchanged) name in ``passthrough``.
    ``original_names`` preserves the pre-encoding feature order.
    """

    groups: dict[str, list[int]] = field(default_factory=dict)
    passthrough: dict[str, int] = field(default_factory=dict)
    original_names: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "groups": self.groups,
            "passthrough": self.passthrough,
            "original_names": self.original_names,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DummyGroupMap":
        return cls(
            groups={k: list(v) for k, v in d["groups"].items()},
            passthrough={k: int(v) for k, v in d["passthrough"].items()},
            original_names=list(d["original_names"]),
        )


def parse_schema(schema: dict) -> tuple[str, str | None, dict[str, FeatureKind]]:
    """Parse a sidecar-schema dict into (target column, task, per-column kinds).

    Kinds may be plain strings or ``{"categorical": cardinality}`` objects;
    categorical cardinality is otherwise inferred from the data.
    """
    if "target" not in schema:
        raise DataError("schema must name a 'target' column")
    target = schema["target"]
    task = schema.get("task")
    kinds: dict[str, FeatureKind] = {}
    for name, spec in schema.get("kinds", {}).items():
        if isinstance(spec, dict):
            if list(spec) != [CATEGORICAL]:
                raise DataError(f"bad kind spec for column {name!r}: {spec!r}")
            kinds[name] = FeatureKind(CATEGORICAL, int(spec[CATEGORICAL]))
        elif spec == CATEGORICAL:
            kinds[name] = FeatureKind(CATEGORICAL, 2)  # cardinality fixed after load
        else:
            kinds[name] = FeatureKind(spec)
    return target, task, kinds


def load_csv(path, target: str, task: str, kinds: dict[str, FeatureKind] | None = None) -> Dataset:
    """Load a header-bearing CSV into a Dataset.

    Columns keep file order (target excluded).  Unlisted columns default to
    continuous.  Missing/unparseable cells are rejected with their position;
    categorical levels and class labels are coded in first-appearance order.
    """
    kinds = kinds or {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    if target not in header:
        raise DataError(f"target column {target!r} not in header")
    if not rows:
        raise DataError(f"{path}: no data rows")

    feat_cols = [c for c in header if c != target]
    for name in kinds:
        if name not in feat_cols:
            raise DataError(f"schema column {name!r} not in file")
    tgt_idx = header.index(target)

    n, p = len(rows), len(feat_cols)
    X = np.empty((n, p), dtype=np.float64)
    level_maps: dict[str, list[str]] = {}
    level_codes: dict[str, dict[str, int]] = {}

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {r + 1}: expected {len(header)} cells, got {len(row)}")
        j = 0
        for c, name in enumerate(header):
            if c == tgt_idx:
                continue
            cell = row[c].strip()
            if cell == "":
                raise DataError(f"missing value at row {r + 1}, column {name!r}")
            kind = kinds.get(name, FeatureKind(CONTINUOUS))
            if kind.is_categorical:
                codes = level_codes.setdefault(name, {})
                if cell not in codes:
                    codes[cell] = len(codes)
                    level_maps.setdefault(name, []).append(cell)
                X[r, j] = codes[cell]
            else:
                try:
                    val = float(cell)
                except ValueError:
                    raise DataError(
                        f"cannot parse {cell!r} at row {r + 1}, column {name!r}"
                    ) from None
                if not math.isfinite(val):
                    raise DataError(f"non-finite value at row {r + 1}, column {name!r}")
                if kind.kind == BINARY and val not in (0.0, 1.0):
                    raise DataError(
                        f"binary value {cell!r} is not 0 or 1 at row {r + 1}, column {name!r}"
                    )
                X[r, j] = val
            j += 1

    # fix categorical cardinalities to the observed level counts
    final_kinds = []
    for name in feat_cols:
        kind = kinds.get(name, FeatureKind(CONTINUOUS))
        if kind.is_categorical:
            kind = FeatureKind(CATEGORICAL, max(2, len(level_maps[name])))
        final_kinds.append(kind)

    raw_target = [row[tgt_idx].strip() for row in rows]
    for r, cell in enumerate(raw_target):
        if cell == "":
            raise DataError(f"missing value at row {r + 1}, column {target!r}")

    class_labels = None
    if task == "classification":
        label_codes: dict[str, int] = {}
        class_labels = []
        y = np.empty(n, dtype=np.int64)
        for r, cell in enumerate(raw_target):
            if cell not in label_codes:
                label_codes[cell] = len(label_codes)
                class_labels.append(cell)
            y[r] = label_codes[cell]
    else:
        try:
            y = np.array([float(c) for c in raw_target], dtype=np.float64)
        except ValueError:
            bad = next(r for r, c in enumerate(raw_target) if not _is_float(c))
            raise DataError(
                f"cannot parse {raw_target[bad]!r} at row {bad + 1}, column {target!r}"
            ) from None

    return Dataset(
        X=X,
        y=y,
        feature_names=feat_cols,
        kinds=final_kinds,
        task=task,
        n_classes=len(class_labels) if class_labels is not None else None,
        class_labels=class_labels,
        level_maps=level_maps,
    )


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def dummy_encode(d: Dataset) -> tuple[Dataset, DummyGroupMap | None]:
    """Expand each categorical(k) column into k indicator columns.

    Continuous/ordinal/binary columns pass through unchanged.  Indicator
    column order follows level-code order (first appearance in the source).
    A dataset with no categorical column is returned as is, with no map.
    """
    if not any(k.is_categorical for k in d.kinds):
        return d, None
    cols = []
    names = []
    enc_kinds = []
    gmap = DummyGroupMap(original_names=list(d.feature_names))
    for j, (name, kind) in enumerate(zip(d.feature_names, d.kinds)):
        if kind.is_categorical:
            k = kind.cardinality
            levels = d.level_maps.get(name) or [str(v) for v in range(k)]
            idxs = []
            codes = d.X[:, j]
            for lv in range(k):
                idxs.append(len(cols))
                cols.append((codes == lv).astype(np.float64))
                names.append(f"{name}={levels[lv] if lv < len(levels) else lv}")
                enc_kinds.append(FeatureKind(BINARY))
            gmap.groups[name] = idxs
        else:
            gmap.passthrough[name] = len(cols)
            cols.append(d.X[:, j])
            names.append(name)
            enc_kinds.append(kind)
    enc = Dataset(
        X=np.column_stack(cols),
        y=d.y,
        feature_names=names,
        kinds=enc_kinds,
        task=d.task,
        n_classes=d.n_classes,
        class_labels=d.class_labels,
    )
    return enc, gmap


def fold_importances(scores: np.ndarray, gmap: DummyGroupMap) -> tuple[list[str], np.ndarray]:
    """Sum encoded-column scores back onto original features.

    Each categorical group's score is the sum over its indicator columns;
    passthrough columns keep their score.  Output follows the original
    feature order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_cols = len(gmap.passthrough) + sum(len(v) for v in gmap.groups.values())
    if len(scores) != n_cols:
        raise DataError(f"expected {n_cols} scores, got {len(scores)}")
    out = np.empty(len(gmap.original_names))
    for i, name in enumerate(gmap.original_names):
        if name in gmap.groups:
            out[i] = scores[gmap.groups[name]].sum()
        else:
            out[i] = scores[gmap.passthrough[name]]
    return list(gmap.original_names), out


def inject_random_feature(d: Dataset, seed: int, name: str = "random") -> Dataset:
    """Append one standard-normal column independent of everything else."""
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(d.n)
    return Dataset(
        X=np.column_stack([d.X, col]),
        y=d.y,
        feature_names=d.feature_names + [name],
        kinds=d.kinds + [FeatureKind(CONTINUOUS)],
        task=d.task,
        n_classes=d.n_classes,
        class_labels=d.class_labels,
        level_maps=dict(d.level_maps),
    )
