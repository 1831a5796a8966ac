"""Dataset loading, encoding, scaling, imbalance measurement and splitting.

Conventions used throughout the package:
  * labels are 0/1 with 1 = the positive (minority, interesting) class;
  * categorical cells are stored as float-encoded category indices into
    the owning ``FeatureSpec.categories`` tuple;
  * every randomized operation is a pure function of its inputs and seed.
"""

from __future__ import annotations

import csv
import math
import numbers
import reprlib
import sys
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


def require_int(name: str, value, minimum: int, maximum: int | None = None):
    """``value`` if it is an integer (not a bool) in ``minimum .. maximum``, else a
    ValueError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f"in {minimum} .. {maximum}"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def require_vector(name: str, values, length: int | None = None, dtype=None) -> np.ndarray:
    """``values`` as a 1-d array of ``length`` items (any if None) and ``dtype`` (kept if None),
    else a ValueError naming ``name``."""
    values = np.asarray(values, dtype=dtype)
    if values.ndim != 1 or (length is not None and len(values) != length):
        of_length = "" if length is None else f" of length {length}"
        raise ValueError(f"{name} must be a vector{of_length}, got shape {values.shape}")
    return values


def require_labels(name: str, values, length: int | None = None) -> np.ndarray:
    """``require_vector``, and every item 0 or 1, else a ValueError naming ``name``."""
    values = require_vector(name, values, length)
    ok = np.isin(values, (0, 1))
    if not ok.all():
        raise ValueError(f"{name} must be 0 or 1, got {values[~ok][0].item()!r}")
    return values


def require_matrix(name: str, x, width: int | None = None) -> np.ndarray:
    """``x`` as a float64 2-d array of ``width`` columns (any if None), else a ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or (width is not None and x.shape[1] != width):
        of_width = "" if width is None else f" of width {width}"
        raise ValueError(f"{name} must be a 2-d matrix{of_width}, got shape {x.shape}")
    return x


def require_nonempty_matrix(name: str, x, width: int | None = None) -> np.ndarray:
    """``require_matrix``, and at least one row (a dataset, a fitted range, a row mean)."""
    x = require_matrix(name, x, width)
    if not len(x):
        raise ValueError(f"{name} must have at least one row, got shape {x.shape}")
    return x


def require_list(name: str, value):
    """``value`` if it is a list or tuple, else a ValueError naming ``name``."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {reprlib.repr(value)}")
    return value


def require_indices(name: str, values, size: int) -> tuple:
    """``values`` (a list, tuple or range) as a tuple of at least one distinct integer (not a
    bool) in ``0 .. size - 1``, else a ValueError naming ``name``."""
    items = tuple(values) if isinstance(values, (list, tuple, range)) else ()
    if not (items and all(not isinstance(j, bool) and isinstance(j, numbers.Integral)
                          and 0 <= j < size for j in items) and len(set(items)) == len(items)):
        raise ValueError(f"{name} must be a non-empty list of distinct integers in "
                         f"0 .. {size - 1}, got {reprlib.repr(values)}")
    return items


def require_both_classes(name: str, neg, pos) -> tuple:
    """The class counts ``(neg, pos)`` if each is at least 1, else a ValueError naming ``name``."""
    if neg < 1 or pos < 1:
        raise ValueError(f"{name} must hold both classes, got {neg} negative and {pos} positive")
    return neg, pos


def require_unique_names(specs) -> None:
    """A ValueError unless the feature specs ``specs`` have distinct names."""
    if len({s.name for s in specs}) != len(specs):
        raise ValueError("feature names must be unique")


def fields(doc, what: str, *keys) -> tuple:
    """The values of ``keys`` in the JSON object ``doc`` (``what`` in messages), in order."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be an object, got {reprlib.repr(doc)}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{key} is missing from {what}")
    return tuple(doc[key] for key in keys)


def _is_number(value, minimum: float = -math.inf, maximum: float = math.inf) -> bool:
    """Whether ``value`` is a real in ``minimum .. maximum``, not a bool, NaN or beyond a float."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and minimum <= value <= maximum and abs(value) <= sys.float_info.max)


def require_number(name: str, value, minimum: float = -math.inf,
                   maximum: float = math.inf) -> float:
    """``value`` as a float if it is a finite real number (not a bool) in ``minimum ..
    maximum``, else a ValueError naming ``name``."""
    if not _is_number(value, minimum, maximum):
        bound = (f" in {minimum} .. {maximum}" if maximum < math.inf
                 else f" >= {minimum}" if minimum > -math.inf else "")
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")
    return float(value)


def require_positive(name: str, value) -> float:
    """``require_number``, and above 0, else a ValueError naming ``name``."""
    if require_number(name, value) <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return float(value)


def require_numbers(name: str, values, shape=None, minimum: float = -math.inf) -> np.ndarray:
    """``values`` as a float64 array of ``shape`` (default: one axis), from a list, tuple or
    array of that shape or of its items row by row; each item must be a finite real (not a
    bool) >= ``minimum``, else a ValueError naming ``name``."""
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else values
    if isinstance(items, (list, tuple)) and all(_is_number(v, minimum) for v in items):
        want = shape or (len(items),)
        if np.shape(values) in (want, (math.prod(want),)):
            return np.array(items, dtype=np.float64).reshape(want)
    size = " x ".join(map(str, shape)) + " " if shape else ""
    bound = f" >= {minimum:g}" if minimum > -math.inf else ""
    raise ValueError(f"{name} must be {size}finite values{bound}, got {reprlib.repr(values)}")


def category_codes(column, level_count: int, name) -> np.ndarray:
    """The int64 codes of a float64 column, or a ValueError naming feature ``name`` unless
    each value is a whole number in 0 .. level_count - 1 (NaN, inf, 1e300 fail before the cast)."""
    if not ((column == np.floor(column)) & (column >= 0) & (column < level_count)).all():
        raise ValueError(f"invalid category index in feature {name!r}: "
                         f"out of range 0 .. {level_count - 1}")
    return column.astype(np.int64)


def require_rows(rows, specs) -> np.ndarray:
    """``rows`` as a float64 matrix, one column per spec, if each value is finite and each
    categorical value a code of its feature, else a ValueError naming the feature."""
    rows = require_matrix("rows", rows, len(specs))
    if not np.isfinite(rows).all():
        r, j = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(f"non-finite value at row {r}, feature {specs[j].name!r}")
    for j, spec in enumerate(specs):
        if spec.kind == CATEGORICAL:
            category_codes(rows[:, j], len(spec.categories), spec.name)
    return rows


@dataclass(frozen=True)
class FeatureSpec:
    """Schema for a single feature column."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        cats = self.categories
        if not (isinstance(cats, (list, tuple)) and all(isinstance(c, str) for c in cats)
                and len(set(cats)) == len(cats)):
            raise ValueError(f"categories of {self.name!r} must be distinct strings, got {cats!r}")
        object.__setattr__(self, "categories", tuple(cats))
        if (self.kind, bool(cats)) not in ((CONTINUOUS, False), (CATEGORICAL, True)):
            raise ValueError(f"kind of {self.name!r} must be 'continuous' with no categories or "
                             f"'categorical' with some, got {self.kind!r} with {len(cats)}")


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with per-column specs and binary labels."""

    specs: tuple[FeatureSpec, ...]
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self._adopt(np.array(self.rows, dtype=np.float64), self.labels)

    def _adopt(self, rows: np.ndarray, labels) -> None:
        """Check ``rows`` (float64 no caller may write) and ``labels``; keep both read-only."""
        require_unique_names(self.specs)
        rows = require_nonempty_matrix("rows", rows, len(self.specs))
        # Checked before the cast, which would truncate 0.5 to 0 and fail on NaN.
        labels = require_labels("labels", labels, len(rows)).astype(np.int64)
        require_rows(rows, self.specs)
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
        # The indexed rows are the subset's one copy (or a view of these read-only rows).
        subset = object.__new__(Dataset)
        object.__setattr__(subset, "specs", self.specs)
        subset._adopt(self.rows[indices], self.labels[indices])
        return subset


@dataclass(frozen=True)
class ScalingParams:
    """Fitted min/max of every column of a matrix, for mapping values into [0, 1]."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]

    def __post_init__(self):
        mins = require_numbers("scaling mins", self.mins)
        maxs = require_numbers("scaling maxs", self.maxs, mins.shape)
        if (maxs < mins).any():
            raise ValueError("scaling max must be >= min")
        object.__setattr__(self, "mins", tuple(mins.tolist()))
        object.__setattr__(self, "maxs", tuple(maxs.tolist()))

    def to_dict(self) -> dict:
        # "columns" is kept in the model file for format_version 1 readers.
        return {
            "columns": list(range(len(self.mins))),
            "mins": list(self.mins),
            "maxs": list(self.maxs),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScalingParams":
        params = cls(*fields(d, "scaling", "mins", "maxs"))
        columns = require_list("columns", *fields(d, "scaling", "columns"))
        if [require_int("columns", c, 0) for c in columns] != list(range(len(params.mins))):
            raise ValueError("columns must be 0 .. width-1 in order")
        return params


def specs_to_dicts(specs) -> list[dict]:
    return [{"name": s.name, "kind": s.kind, "categories": list(s.categories)} for s in specs]


def specs_from_dicts(items) -> tuple[FeatureSpec, ...]:
    return tuple(FeatureSpec(*fields(d, "spec", "name", "kind", "categories")) for d in items)


def _records(fh, path):
    """The CSV records of ``fh``, a parse or decode error as a ValueError naming ``path``."""
    r = 0
    try:
        for r, record in enumerate(csv.reader(fh), start=1):
            yield record
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc} at row {r + 1}") from None
    except UnicodeDecodeError as exc:  # decoded in chunks ahead of the parser: no row
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path, label_column: str, positive_label: str,
             categorical_columns=(), specs=None) -> Dataset:
    """Read an RFC-4180-style CSV (header row, UTF-8 with optional BOM, '.' decimals).

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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _records(fh, path)
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
    """Fit min/max over every column of a plain numeric matrix of at least one row."""
    x = require_nonempty_matrix("x", x)
    return ScalingParams(x.min(axis=0), x.max(axis=0))


def min_max_apply_matrix(x: np.ndarray, s: ScalingParams, out: np.ndarray | None = None
                         ) -> np.ndarray:
    """Scale every column of a plain matrix using fitted params, into ``out``
    (a fresh matrix by default; ``out=x`` scales a float64 ``x`` in place).

    A constant column maps to the class-neutral midpoint 0.5; every other
    column takes the affine map, clamped so unseen out-of-range values stay
    in [0, 1].
    """
    x = require_matrix("x", x, len(s.mins))
    lo, hi = np.array(s.mins), np.array(s.maxs)
    # A column spanning more than the float64 maximum is scaled in halves, so
    # no difference overflows; halving is exact, and other columns take * 1.0.
    with np.errstate(over="ignore"):
        half = np.where(np.isfinite(hi - lo), 1.0, 0.5)
    lo, span = lo * half, hi * half - lo * half
    constant = span == 0.0
    out = np.multiply(x, half, out=out)
    # A value far outside the fitted range may overflow to +-inf here; the
    # clip maps it to 0 or 1 as it does any other out-of-range value.
    with np.errstate(over="ignore"):
        out -= lo
        out /= np.where(constant, 1.0, span)
    np.clip(out, 0.0, 1.0, out=out)
    out[:, constant] = 0.5
    return out


def imbalance_cv(d: Dataset) -> float:
    """Coefficient of variation of the two class counts.

    Population standard deviation of (negative count, positive count) divided
    by their mean; 0 for a perfectly balanced dataset, >= 0.30 flags imbalance.
    """
    counts = np.array(require_both_classes("d", *d.class_counts()), dtype=np.float64)
    return float(counts.std() / counts.mean())


def stratified_split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Class-stratified random partition into (train, test), rows in their
    original order: the rows of ``split_indices``."""
    train, test = split_indices(d.labels, train_fraction, seed)
    return d.subset(train), d.subset(test)


def split_indices(labels: np.ndarray, train_fraction: float,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, test) row indices of a class-stratified random partition.

    Each class contributes round(train_fraction * class count) rows to the
    train side (halves round away from zero).  Deterministic given the seed.
    """
    require_protocol(1, train_fraction)
    labels = require_labels("labels", labels)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in (0, 1):
        members = np.flatnonzero(labels == label)
        take = round_half_away(train_fraction * len(members))
        if take == 0 or take == len(members):
            raise ValueError(
                f"class {label} has {len(members)} rows; cannot place it on both "
                f"sides of a {train_fraction:.2f} split"
            )
        shuffled = rng.permutation(members)
        train_idx.append(shuffled[:take])
        test_idx.append(shuffled[take:])
    return np.sort(np.concatenate(train_idx)), np.sort(np.concatenate(test_idx))


def require_protocol(repetitions, train_fraction) -> None:
    """Reject a repetition count that is not an integer >= 1 or a train fraction outside (0, 1)."""
    require_int("repetitions", repetitions, 1)
    if not 0.0 < require_number("train_fraction", train_fraction) < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")


def repeated_eval_protocol(d: Dataset, repetitions: int = 5, train_fraction: float = 0.7,
                           seed: int = 0) -> list[tuple[Dataset, Dataset]]:
    """Independent stratified splits for repeated evaluation, one per repetition.

    Repetition ``i`` uses seed ``seed + i``.  Callers train on each train side
    and average the resulting metric reports.
    """
    require_protocol(repetitions, train_fraction)
    return [stratified_split(d, train_fraction, seed + i) for i in range(repetitions)]


def synth_generate(n: int, informative: int, noise: int, minority_fraction: float,
                   seed: int, separation: float = 1.0) -> Dataset:
    """Generate an imbalanced binary dataset with continuous features.

    The ``informative`` features are unit-variance Gaussians whose mean is
    shifted by ``separation`` for the positive class; the ``noise`` features
    are class-independent standard Gaussians.  Positive rows number
    round(n * minority_fraction).
    """
    require_int("n", n, 10)
    if not 0.0 < require_number("minority_fraction", minority_fraction) < 0.5:
        raise ValueError(f"minority_fraction must be in (0, 0.5), got {minority_fraction}")
    require_int("informative", informative, 1)
    require_int("noise", noise, 0)
    require_number("separation", separation)
    require_int("seed", seed, 0)

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
