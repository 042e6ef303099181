"""Dataset representation, CSV loading, and the encoder that codes a
training set and every set scored with its model."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .tree import target_limit

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
    split on directly.  A categorical column's ``levels`` name its codes, and
    are its one count (``cardinality``); declared before its file is read, it
    has none yet, and ``max_levels`` bounds how many the file may show.
    """

    kind: str
    levels: tuple[str, ...] | None = None
    max_levels: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if not self.is_categorical and (self.levels, self.max_levels) != (None, None):
            raise DataError(f"a column of kind {self.kind!r} has no levels")
        if self.levels is not None and not (
                type(self.levels) is tuple and all(isinstance(lv, str) for lv in self.levels)
                and len(set(self.levels)) == len(self.levels) > 0):
            raise DataError(f"categorical levels {self.levels!r} are not a nonempty "
                            "tuple of distinct strings")
        if self.max_levels is not None and not (
                type(self.max_levels) is int and max(2, self.cardinality) <= self.max_levels):
            raise DataError(f"categorical max_levels must be an integer >= "
                            f"{max(2, self.cardinality)}, not {self.max_levels!r}")

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL

    @property
    def cardinality(self) -> int:
        """The number of levels: a categorical column's indicator columns."""
        return len(self.levels or ())


@dataclass
class Dataset:
    """Immutable numeric feature matrix plus target and per-column metadata.

    Classification targets are dense integer labels in ``[0, n_classes)``,
    named by ``class_labels`` (which then fix ``n_classes``); categorical
    feature columns hold level codes, named by their kind's ``levels``.
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
            if self.class_labels is not None:
                if self.n_classes not in (None, len(self.class_labels)):
                    raise DataError(f"n_classes {self.n_classes} does not match the "
                                    f"{len(self.class_labels)} class labels")
                self.n_classes = len(self.class_labels)
            elif self.n_classes is None:
                self.n_classes = int(self.y.max()) + 1 if len(self.y) else 0
            if self.y.min() < 0 or self.y.max() >= self.n_classes:
                raise DataError("class labels must lie in [0, n_classes)")
        else:
            self.y = np.asarray(self.y, dtype=np.float64)
            if not np.all(np.isfinite(self.y)):
                raise DataError("regression target contains non-finite values")
            row = _oversized_target(self.y)
            if row is not None:
                raise DataError(f"regression target {float(self.y[row])!r} at row "
                                f"{row + 1} {_beyond(self.y)}")
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
    indicator column per level, named ``column=level``; every other column
    keeps its one column and its name.
    """

    feature_names: list[str]
    kinds: list[FeatureKind]
    class_labels: list[str] | None
    encoded_names: list[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.encoded_names = []
        for name, kind in zip(self.feature_names, self.kinds):
            if self.feature_names.count(name) > 1:
                raise DataError(f"column {name!r} is named twice")
            if kind.is_categorical and not kind.levels:
                raise DataError(f"categorical column {name!r} has no levels")
            self.encoded_names += ([f"{name}={lv}" for lv in kind.levels]
                                   if kind.levels else [name])

    def to_dict(self) -> dict:
        """The model file's record of the coding: each column's name, kind
        and levels (``kinds``), and the class labels."""
        return {"kinds": [{"name": name, "kind": k.kind, "levels": k.levels and [*k.levels]}
                          for name, k in zip(self.feature_names, self.kinds)],
                "class_labels": self.class_labels}

    @classmethod
    def from_dict(cls, d: dict) -> "Encoder":
        """The coding that to_dict recorded. Raises DataError naming the
        column of a malformed ``kinds`` record."""
        records = [_column_record(c, i) for i, c in enumerate(d["kinds"], 1)]
        return cls([name for name, _ in records], [kind for _, kind in records],
                   d["class_labels"])


def _column_record(c, i: int) -> tuple[str, FeatureKind]:
    """The name and kind that column ``i``'s ``kinds`` record holds."""
    name = c.get("name") if isinstance(c, dict) else None
    try:
        if not isinstance(c, dict) or sorted(c) != ["kind", "levels", "name"]:
            raise DataError(f"record {c!r} does not hold just name, kind and levels")
        if not isinstance(name, str):
            raise DataError(f"name {name!r} is not a string")
        levels = c["levels"]
        if levels is not None and not (
                isinstance(levels, list) and all(isinstance(lv, str) for lv in levels)):
            raise DataError(f"levels {levels!r} are not a list of strings")
        kind = FeatureKind(c["kind"], None if levels is None else tuple(levels))
    except DataError as exc:
        where = f"column {name!r}" if isinstance(name, str) else f"column {i}"
        raise DataError(f"{where} of the coding: {exc}") from None
    return name, kind


def parse_schema(schema: dict) -> tuple[str, str | None, dict[str, FeatureKind]]:
    """Parse a sidecar-schema dict into (target column, task, per-column kinds).

    Kinds may be plain strings or ``{"categorical": k}`` objects. Either way
    a categorical column's levels are those the file shows; a declared k is
    the most it may show (``max_levels``), which load_csv checks. A k that is
    not a JSON integer (a fraction, a string or a boolean) is rejected, as
    are a target that is not a string and a kind given for the target.
    """
    if not isinstance(schema, dict):
        raise DataError("schema must be a JSON object")
    if "target" not in schema:
        raise DataError("schema must name a 'target' column")
    target = schema["target"]
    if not isinstance(target, str):
        raise DataError(f"schema 'target' must be a column name, not {target!r}")
    task = schema.get("task")
    specs = schema.get("kinds", {})
    if not isinstance(specs, dict):
        raise DataError("schema 'kinds' must be an object mapping columns to kinds")
    if target in specs:
        raise DataError(f"schema 'kinds' names the target column {target!r}")
    kinds: dict[str, FeatureKind] = {}
    for name, spec in specs.items():
        if isinstance(spec, dict):
            count = spec[CATEGORICAL] if list(spec) == [CATEGORICAL] else None
            if type(count) is not int:
                raise DataError(f"bad kind spec for column {name!r}: {spec!r}")
            kinds[name] = FeatureKind(CATEGORICAL, max_levels=count)
        else:
            kinds[name] = FeatureKind(spec)
    return target, task, kinds


def load_csv(path, target: str, task: str, kinds: dict[str, FeatureKind] | None = None,
             encoder: Encoder | None = None) -> Dataset:
    """Load a header-bearing CSV into a Dataset.

    Columns keep file order (target excluded), and a header that names a
    column twice is rejected.  Unlisted columns default to continuous.
    Missing/unparseable cells are rejected with their position, and a column
    with more levels than its ``max_levels`` by name.  Categorical levels and
    class labels are coded in first-appearance order or, given
    the training set's ``encoder``, in its order; a level or label that the
    encoder does not hold is then rejected with its position.  Every
    DataError names the file.
    """
    try:
        return _read_csv(path, target, task, dict(kinds or {}), encoder)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _read_csv(path, target: str, task: str, kinds: dict[str, FeatureKind],
              encoder: Encoder | None) -> Dataset:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        rows = list(reader)
    for c, name in enumerate(header):
        if name in header[:c]:
            raise DataError(f"column {name!r} is named twice in the header")
    if target not in header:
        raise DataError(f"target column {target!r} not in header")
    if not rows:
        raise DataError("no data rows")

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

    if label_codes is None:
        row = _oversized_target(y)
        if row is not None:
            raise DataError(f"target {rows[row][tgt_idx].strip()!r} at row {row + 1}, "
                            f"column {target!r} {_beyond(y)}")
    for _, name, kind in cols:
        if kind.max_levels and len(level_codes[name]) > kind.max_levels:
            raise DataError(f"column {name!r} shows {len(level_codes[name])} levels, "
                            f"more than the {kind.max_levels} its schema declares")
    final_kinds = [FeatureKind(CATEGORICAL, tuple(level_codes[name]))
                   if kind.is_categorical else kind for _, name, kind in cols]
    return Dataset(X, y, feat_cols, final_kinds, task,
                   class_labels=None if label_codes is None else list(label_codes))


def _oversized_target(y: np.ndarray) -> int | None:
    """The first row whose regression target is too large for a sum of
    squares over len(y) rows to stay finite (tree.target_limit), or None."""
    big = np.flatnonzero(~(np.abs(y) <= target_limit(len(y))))
    return int(big[0]) if len(big) else None


def _beyond(y: np.ndarray) -> str:
    return (f"lies beyond ±{target_limit(len(y)):.6g}, where a sum of squares "
            f"over {len(y)} rows can overflow")


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
    if not any(kind.is_categorical for kind in encoder.kinds):
        return d, encoder
    cols, enc_kinds = [], []
    for j, kind in enumerate(d.kinds):
        if kind.is_categorical:
            cols += [(d.X[:, j] == lv).astype(np.float64) for lv in range(kind.cardinality)]
            enc_kinds += [FeatureKind(BINARY)] * kind.cardinality
        else:
            cols.append(d.X[:, j])
            enc_kinds.append(kind)
    return replace(d, X=np.column_stack(cols), feature_names=list(encoder.encoded_names),
                   kinds=enc_kinds), encoder


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
    ends = np.cumsum([k.cardinality if k.is_categorical else 1 for k in encoder.kinds])
    out = np.array([scores[b - k.cardinality:b].sum() if k.is_categorical else scores[b - 1]
                    for k, b in zip(encoder.kinds, ends)])
    return list(encoder.feature_names), out


def inject_random_feature(d: Dataset, seed: int) -> Dataset:
    """Append a standard-normal column ``random``, independent of all else."""
    col = np.random.default_rng(seed).standard_normal(d.n)
    return replace(d, X=np.column_stack([d.X, col]),
                   feature_names=d.feature_names + ["random"],
                   kinds=d.kinds + [FeatureKind(CONTINUOUS)])
