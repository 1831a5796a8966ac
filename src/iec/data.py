"""Dataset loading, encoding, scaling, imbalance measurement and splitting.

Conventions used throughout the package:
  * labels are 0/1 with 1 = the positive (minority, interesting) class;
  * categorical cells are stored as float-encoded category indices into
    the owning ``FeatureSpec.categories`` tuple;
  * every randomized operation is a pure function of its inputs and seed.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass

import numpy as np

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero (unlike built-in round)."""
    if x >= 0:
        return int(x + 0.5)
    return -int(-x + 0.5)


@dataclass(frozen=True)
class FeatureSpec:
    """Schema for a single feature column."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 1:
            raise ValueError(f"categorical feature {self.name!r} needs at least one category")
        if self.kind == CONTINUOUS and self.categories:
            raise ValueError(f"continuous feature {self.name!r} cannot carry categories")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError(f"duplicate categories in feature {self.name!r}")


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with per-column specs and binary labels."""

    specs: tuple[FeatureSpec, ...]
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        rows = np.array(self.rows, dtype=np.float64)
        labels = np.array(self.labels, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-d matrix")
        if rows.shape[0] < 1:
            raise ValueError("dataset needs at least one row")
        if rows.shape[1] != len(self.specs):
            raise ValueError(
                f"row width {rows.shape[1]} does not match {len(self.specs)} feature specs"
            )
        if labels.shape != (rows.shape[0],):
            raise ValueError("labels must be one per row")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must contain only 0 and 1")
        finite = np.isfinite(rows)
        if not finite.all():
            r, j = np.argwhere(~finite)[0]
            raise ValueError(f"non-finite value at row {r}, feature {self.specs[j].name!r}")
        for j, spec in enumerate(self.specs):
            if spec.kind == CATEGORICAL:
                col = rows[:, j]
                if not ((col == np.floor(col)) & (col >= 0) & (col < len(spec.categories))).all():
                    raise ValueError(f"invalid category index in feature {spec.name!r}")
        rows.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return self.rows.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(negative count, positive count)."""
        pos = int(self.labels.sum())
        return self.n - pos, pos

    def subset(self, indices) -> "Dataset":
        return Dataset(self.specs, self.rows[indices], self.labels[indices])


@dataclass(frozen=True)
class ScalingParams:
    """Fitted min/max of every column of a matrix, for mapping values into [0, 1]."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must be parallel")
        for lo, hi in zip(self.mins, self.maxs):
            if hi < lo:
                raise ValueError("max must be >= min")

    def to_dict(self) -> dict:
        # "columns" is kept in the model file for format_version 1 readers.
        return {
            "columns": list(range(len(self.mins))),
            "mins": list(self.mins),
            "maxs": list(self.maxs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingParams":
        if list(d["columns"]) != list(range(len(d["mins"]))):
            raise ValueError("scaling columns must be 0 .. width-1 in order")
        return cls(tuple(float(x) for x in d["mins"]), tuple(float(x) for x in d["maxs"]))


def specs_to_dicts(specs) -> list[dict]:
    return [{"name": s.name, "kind": s.kind, "categories": list(s.categories)} for s in specs]


def specs_from_dicts(items) -> tuple[FeatureSpec, ...]:
    return tuple(FeatureSpec(d["name"], d["kind"], tuple(d["categories"])) for d in items)


def load_csv(path, label_column: str, positive_label: str,
             categorical_columns=(), specs=None) -> Dataset:
    """Read an RFC-4180-style CSV (header row, UTF-8, '.' decimals) into a Dataset.

    Without ``specs`` the schema comes from the file: columns named in
    ``categorical_columns`` are categorical, with categories ordered by first
    appearance, and every other non-label column is continuous.  With
    ``specs`` (a fitted model's schema) the features are those specs, each
    column found by header name wherever it stands, and categories get the
    specs' codes.  Rows whose label equals ``positive_label`` become class 1.
    One pass reports the first faulty row, naming row and column: a missing,
    non-finite (nan, inf) or unparseable value, an unseen category, an absent
    column or a third label value.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: row 1 (header) repeats a column name")
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header")
        missing = [c for c in categorical_columns if c not in header]
        if missing:
            raise ValueError(f"{path}: categorical columns {missing} not in header")
        if specs is None:
            names = [c for c in header if c != label_column]
            codes = {c: {} for c in names if c in categorical_columns}
        else:
            names = [s.name for s in specs]
            codes = {s.name: {c: i for i, c in enumerate(s.categories)}
                     for s in specs if s.kind == CATEGORICAL}
        for name in names:
            if name not in header:
                raise ValueError(f"{path}: row 1 (header) has no column {name!r}")
        # One converter per feature: float, the specs' codes, or codes by first appearance.
        features = [(header.index(name),
                     float if name not in codes
                     else codes[name].__getitem__ if specs is not None
                     else lambda cell, seen=codes[name]: seen.setdefault(cell, len(seen)))
                    for name in names]
        label_at = header.index(label_column)

        cells = array("d")
        labels = bytearray()
        label_values: set[str] = set()
        for r, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise ValueError(f"{path}: row {r} has {len(raw)} fields, expected {len(header)}")
            if "" in raw:
                raise ValueError(
                    f"{path}: missing value at row {r}, column {header[raw.index('')]!r}")
            try:
                for j, convert in features:
                    cells.append(convert(raw[j]))
            except (KeyError, ValueError):
                what, hint = (("unseen category", "") if header[j] in codes
                              else ("non-numeric value", " (declare it categorical?)"))
                raise ValueError(f"{path}: {what} {raw[j]!r} at row {r}, "
                                 f"column {header[j]!r}{hint}") from None
            label = raw[label_at]
            label_values.add(label)
            if len(label_values) > 2:
                raise ValueError(f"{path}: third distinct value {label!r} at row {r} "
                                 f"of label column {label_column!r}, expected two")
            labels.append(label == positive_label)

    if not labels:
        raise ValueError(f"{path}: no data rows")
    if specs is None:
        specs = tuple(FeatureSpec(name, CATEGORICAL, tuple(codes[name])) if name in codes
                      else FeatureSpec(name, CONTINUOUS) for name in names)
    rows = np.frombuffer(cells, dtype=np.float64).reshape(len(labels), len(names))
    finite = np.isfinite(rows)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value at row {r + 2}, column {specs[j].name!r}")
    return Dataset(specs, rows, np.frombuffer(labels, dtype=np.uint8))


def min_max_fit_matrix(x: np.ndarray) -> ScalingParams:
    """Fit min/max over every column of a plain numeric matrix."""
    x = np.asarray(x, dtype=np.float64)
    return ScalingParams(tuple(float(v) for v in x.min(axis=0)),
                         tuple(float(v) for v in x.max(axis=0)))


def min_max_apply_matrix(x: np.ndarray, s: ScalingParams) -> np.ndarray:
    """Scale every column of a plain matrix using fitted params.

    A constant column maps to the class-neutral midpoint 0.5; every other
    column takes the affine map, clamped so unseen out-of-range values stay
    in [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if len(s.mins) != x.shape[1]:
        raise ValueError(f"scaling params cover {len(s.mins)} columns, matrix has {x.shape[1]}")
    lo, span = np.array(s.mins), np.array(s.maxs) - np.array(s.mins)
    constant = span == 0.0
    return np.where(constant, 0.5, np.clip((x - lo) / np.where(constant, 1.0, span), 0.0, 1.0))


def imbalance_cv(d: Dataset) -> float:
    """Coefficient of variation of the two class counts.

    Population standard deviation of (negative count, positive count) divided
    by their mean; 0 for a perfectly balanced dataset, >= 0.30 flags imbalance.
    """
    neg, pos = d.class_counts()
    if neg == 0 or pos == 0:
        raise ValueError("imbalance_cv requires both classes to be present")
    counts = np.array([neg, pos], dtype=np.float64)
    return float(counts.std() / counts.mean())


def stratified_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Class-stratified random partition into (train, test).

    Each class contributes round(train_fraction * class count) rows to the
    train side (halves round away from zero).  Row order within each side
    follows the original dataset.  Deterministic given the seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in (0, 1):
        members = np.flatnonzero(d.labels == label)
        take = round_half_away(train_fraction * len(members))
        if take == 0 or take == len(members):
            raise ValueError(
                f"class {label} has {len(members)} rows; cannot place it on both "
                f"sides of a {train_fraction:.2f} split"
            )
        shuffled = rng.permutation(members)
        train_idx.append(shuffled[:take])
        test_idx.append(shuffled[take:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return d.subset(train), d.subset(test)


def repeated_eval_protocol(d: Dataset, repetitions: int = 5, train_fraction: float = 0.7,
                           seed: int = 0) -> list[tuple[Dataset, Dataset]]:
    """Independent stratified splits for repeated evaluation, one per repetition.

    Repetition ``i`` uses seed ``seed + i``.  Callers train on each train side
    and average the resulting metric reports.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    return [stratified_split(d, train_fraction, seed + i) for i in range(repetitions)]


def synth_generate(n: int, informative: int, noise: int, minority_fraction: float,
                   seed: int, separation: float = 1.0) -> Dataset:
    """Generate an imbalanced binary dataset with continuous features.

    The ``informative`` features are unit-variance Gaussians whose mean is
    shifted by ``separation`` for the positive class; the ``noise`` features
    are class-independent standard Gaussians.  Positive rows number
    round(n * minority_fraction).
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    if not 0.0 < minority_fraction < 0.5:
        raise ValueError(f"minority_fraction must be in (0, 0.5), got {minority_fraction}")
    if informative < 1:
        raise ValueError("need at least one informative feature")
    if noise < 0:
        raise ValueError("noise feature count cannot be negative")

    n_pos = round_half_away(n * minority_fraction)
    if n_pos < 1:
        raise ValueError("minority_fraction too small: no positive rows at this n")

    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64),
                             np.zeros(n - n_pos, dtype=np.int64)])
    labels = labels[rng.permutation(n)]

    p = informative + noise
    rows = rng.standard_normal((n, p))
    rows[labels == 1, :informative] += separation

    specs = tuple(FeatureSpec(f"inf{j}", CONTINUOUS) for j in range(informative)) + \
        tuple(FeatureSpec(f"noise{j}", CONTINUOUS) for j in range(noise))
    return Dataset(specs, rows, labels)
