"""Dataset representation, CSV loading, and the encoder that codes a
training set and every set scored with its model."""

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
    split on directly.  A categorical column read from a file carries its
    observed ``levels``, one per code.
    """

    kind: str
    cardinality: int | None = None
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL:
            # a file's column may show one level; a declared one allows two
            least = 1 if self.levels else 2
            if self.cardinality is None or self.cardinality < least:
                raise DataError(f"categorical cardinality must be >= {least}")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass
class Dataset:
    """Immutable numeric feature matrix plus target and per-column metadata.

    Classification targets are dense integer labels in ``[0, n_classes)``,
    named by ``class_labels``; categorical feature columns hold level codes,
    named by their kind's ``levels``.
    """

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    kinds: list[FeatureKind]
    task: str  # "classification" | "regression"
    n_classes: int | None = None
    class_labels: list[str] | None = None  # original label per dense code

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
class Encoder:
    """The coding of a training set, which every set scored with its model
    shares: column names, kinds (whose ``levels`` order each categorical
    column's codes) and class labels.  A categorical column expands into one
    indicator column per level; ``groups`` maps it to those encoded columns
    and ``passthrough`` maps every other column to its one encoded column.
    """

    feature_names: list[str]
    kinds: list[FeatureKind]
    class_labels: list[str] | None
    groups: dict[str, list[int]] = field(init=False, repr=False, compare=False)
    passthrough: dict[str, int] = field(init=False, repr=False, compare=False)
    encoded_names: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.groups, self.passthrough, self.encoded_names = {}, {}, []
        for name, kind in zip(self.feature_names, self.kinds):
            if name in self.groups or name in self.passthrough:
                raise DataError(f"column {name!r} is named twice")
            if kind.is_categorical:
                start = len(self.encoded_names)
                self.groups[name] = list(range(start, start + kind.cardinality))
                self.encoded_names += [
                    f"{name}={lv}" for lv in kind.levels or range(kind.cardinality)]
            else:
                self.passthrough[name] = len(self.encoded_names)
                self.encoded_names.append(name)

    def to_dict(self) -> dict:
        """The model file's record of the coding: ``dummy_groups`` (None when
        no column is categorical) and ``class_labels``."""
        groups = None
        if self.groups:
            groups = {"groups": self.groups, "passthrough": self.passthrough,
                      "original_names": self.feature_names}
        return {"dummy_groups": groups, "class_labels": self.class_labels}


def parse_schema(schema: dict) -> tuple[str, str | None, dict[str, FeatureKind]]:
    """Parse a sidecar-schema dict into (target column, task, per-column kinds).

    Kinds may be plain strings or ``{"categorical": k}`` objects. Either way
    a categorical column's levels are those the file shows; a declared k is
    the most it may show, which the CLI checks after loading.
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


def load_csv(path, target: str, task: str, kinds: dict[str, FeatureKind] | None = None,
             encoder: Encoder | None = None) -> Dataset:
    """Load a header-bearing CSV into a Dataset.

    Columns keep file order (target excluded), and a header that names a
    column twice is rejected.  Unlisted columns default to continuous.
    Missing/unparseable cells are rejected with their position.  Categorical
    levels and class labels are coded in first-appearance order or, given
    the training set's ``encoder``, in its order; a level or label that the
    encoder does not hold is then rejected with its position.
    """
    kinds = dict(kinds or {})
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    for c, name in enumerate(header):
        if name in header[:c]:
            raise DataError(f"{path}: column {name!r} is named twice in the header")
    if target not in header:
        raise DataError(f"target column {target!r} not in header")
    if not rows:
        raise DataError(f"{path}: no data rows")

    feat_cols = [c for c in header if c != target]
    for name in kinds:
        if name not in feat_cols:
            raise DataError(f"schema column {name!r} not in file")
    fixed = encoder is not None
    if fixed:
        kinds.update(zip(encoder.feature_names, encoder.kinds))
    tgt_idx = header.index(target)
    cols = [(c, name, kinds.get(name, FeatureKind(CONTINUOUS)))
            for c, name in enumerate(header) if c != tgt_idx]
    level_codes = {name: _codes(kind.levels) for _, name, kind in cols
                   if kind.is_categorical}
    label_codes = None
    if task == "classification":
        label_codes = _codes(encoder.class_labels if fixed else None)

    X = np.empty((len(rows), len(cols)), dtype=np.float64)
    y = np.empty(len(rows), dtype=np.float64 if label_codes is None else np.int64)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {r + 1}: expected {len(header)} cells, got {len(row)}")
        for j, (c, name, kind) in enumerate(cols):
            X[r, j] = _value(row[c], r, name, level_codes.get(name), fixed,
                             kind.kind == BINARY)
        y[r] = _value(row[tgt_idx], r, target, label_codes, fixed)

    final_kinds = [
        FeatureKind(CATEGORICAL, len(level_codes[name]), tuple(level_codes[name]))
        if kind.is_categorical else kind
        for _, name, kind in cols
    ]
    class_labels = None if label_codes is None else list(label_codes)
    return Dataset(
        X=X,
        y=y,
        feature_names=feat_cols,
        kinds=final_kinds,
        task=task,
        n_classes=len(class_labels) if class_labels is not None else None,
        class_labels=class_labels,
    )


def _codes(values) -> dict[str, int]:
    return {v: code for code, v in enumerate(values or ())}


def _value(text: str, r: int, name: str, codes: dict[str, int] | None,
           fixed: bool, binary: bool = False) -> float:
    """The number that codes one cell: a level's or label's code when
    ``codes`` is given, else the parsed number.  A new level or label gets
    the next code, or is rejected when the codes are ``fixed`` by the
    training set."""
    cell = text.strip()
    if cell == "":
        raise DataError(f"missing value at row {r + 1}, column {name!r}")
    if codes is not None:
        code = codes.get(cell)
        if code is None:
            if fixed:
                raise DataError(f"value {cell!r} at row {r + 1}, column {name!r} "
                                "does not occur in the training data")
            code = codes[cell] = len(codes)
        return code
    try:
        val = float(cell)
    except ValueError:
        raise DataError(f"cannot parse {cell!r} at row {r + 1}, column {name!r}") from None
    if not math.isfinite(val):
        raise DataError(f"non-finite value at row {r + 1}, column {name!r}")
    if binary and val not in (0.0, 1.0):
        raise DataError(
            f"binary value {cell!r} is not 0 or 1 at row {r + 1}, column {name!r}")
    return val


def dummy_encode(d: Dataset, encoder: Encoder | None = None) -> tuple[Dataset, Encoder]:
    """Expand each categorical column into one indicator column per level,
    in level order; other columns pass through unchanged.

    With no encoder, one is fitted on ``d``: that is how a training set is
    coded.  Given the training set's encoder, ``d`` must have its columns,
    coded under its levels and labels as ``load_csv`` codes a file given the
    encoder.  A dataset with no categorical column is returned as is.
    """
    fitted = Encoder(list(d.feature_names), list(d.kinds),
                     None if d.class_labels is None else list(d.class_labels))
    if encoder is None:
        encoder = fitted
    elif fitted != encoder:
        raise DataError(f"columns {fitted.feature_names} are not the training columns "
                        f"{encoder.feature_names} under their levels and labels")
    if not encoder.groups:
        return d, encoder
    cols = []
    enc_kinds = []
    for j, kind in enumerate(d.kinds):
        if kind.is_categorical:
            codes = d.X[:, j]
            cols += [(codes == lv).astype(np.float64) for lv in range(kind.cardinality)]
            enc_kinds += [FeatureKind(BINARY)] * kind.cardinality
        else:
            cols.append(d.X[:, j])
            enc_kinds.append(kind)
    enc = Dataset(
        X=np.column_stack(cols),
        y=d.y,
        feature_names=list(encoder.encoded_names),
        kinds=enc_kinds,
        task=d.task,
        n_classes=d.n_classes,
        class_labels=d.class_labels,
    )
    return enc, encoder


def fold_importances(scores: np.ndarray, encoder: Encoder) -> tuple[list[str], np.ndarray]:
    """Sum encoded-column scores back onto original features.

    Each categorical column's score is the sum over its indicator columns;
    other columns keep their score, so with no categorical column folding
    is the identity.  Output follows the original feature order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n_cols = len(encoder.encoded_names)
    if len(scores) != n_cols:
        raise DataError(f"expected {n_cols} scores, got {len(scores)}")
    out = np.empty(len(encoder.feature_names))
    for i, name in enumerate(encoder.feature_names):
        if name in encoder.groups:
            out[i] = scores[encoder.groups[name]].sum()
        else:
            out[i] = scores[encoder.passthrough[name]]
    return list(encoder.feature_names), out


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
    )
