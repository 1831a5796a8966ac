"""Seeded mutation test of ``load_csv``, and what a CSV number is.

A continuous cell is whatever Python's ``float()`` reads, so ``1_000``, Arabic-Indic
and full-width digits, cells padded with spaces or no-break spaces, and ``1e-400``
(read as 0) all load.  Every single-cell edit of a mixed CSV must load (a continuous
cell as ``float()`` reads it) or raise a ``ValueError`` that starts with the path and
names the row and the column; at ``evaluate`` the columns and rows may come in any
order and the labels stay the same row for row.  The edits come from
``random.Random(seed)``, as in ``tests/test_model_fuzz.py``.
"""

import csv
import random
import re

import numpy as np
import pytest

from iec import ensemble
from iec.ann import TrainConfig
from iec.data import load_csv

HEADER = ["x", "color", "class", "y"]
CELLS = ("", "nan", "-inf", "1e400", "1e-400", "-0.0", "1_000", "١", "１", " 2.5 ",
         "\u00a03\u00a0", "0x10", "1,5", '"', "\n7", "abc", "red", "green", "0", "1", "2")


def mixed_rows(n=60, seed=4):
    """x tracks the label, y is noise, color is a categorical that also tracks it."""
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=n) < 0.3).astype(int)
    colors = np.where(rng.uniform(size=n) < 0.8, labels, 2)
    return [[repr(float(rng.normal() + lab)), ("blue", "red", "white")[c], str(lab),
             repr(float(rng.normal()))] for lab, c in zip(labels, colors)]


def write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


def loads(path, specs=None):
    """The file as `iec train` (no specs) or `iec evaluate` (a model's specs) reads it."""
    if specs is None:
        return load_csv(path, "class", "1", ("color",))
    return load_csv(path, "class", "1", specs=specs)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = write(tmp_path_factory.mktemp("fit") / "train.csv", HEADER, mixed_rows())
    return ensemble.fit(loads(path), train_config=TrainConfig(epochs=300, learning_rate=2.0))


def test_single_cell_edits_load_or_name_row_and_column(tmp_path, model):
    rng = random.Random(0)
    rows = mixed_rows()
    path = tmp_path / "edited.csv"
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(600):
        r, c, cell = rng.randrange(len(rows) + 1), rng.randrange(len(HEADER)), rng.choice(CELLS)
        table = [HEADER[:], *(row[:] for row in rows)]
        table[r][c] = cell
        write(path, table[0], table[1:])
        for specs in (None, model.tree.specs):
            try:
                dataset = loads(path, specs)
            except ValueError as exc:
                outcomes["rejected"] += 1
                message = str(exc)
                assert message.startswith(f"{path}: "), message
                if r == 0:
                    assert "header" in message, message
                else:  # the edit is at CSV row r + 1: the header is row 1
                    named = int(re.search(r"\brow (\d+)\b", message).group(1))
                    # A third label value is named where it first appears: the
                    # edited row, or the first later row that holds the third.
                    assert named == r + 1 or (HEADER[c] == "class" and named > r + 1), message
                    assert repr(HEADER[c]) in message, message
            else:
                outcomes["loaded"] += 1
                if r > 0 and HEADER[c] in ("x", "y"):
                    names = [s.name for s in dataset.specs]
                    assert dataset.rows[r - 1, names.index(HEADER[c])] == float(cell)
    assert outcomes["loaded"] > 200 and outcomes["rejected"] > 200


@pytest.mark.parametrize("cell, value", [
    ("1_000", 1000.0), ("١", 1.0), ("１", 1.0), (" 2.5 ", 2.5),
    ("\u00a03\u00a0", 3.0), ("1e-400", 0.0)])
def test_a_continuous_cell_is_what_float_reads(tmp_path, cell, value):
    rows = mixed_rows()
    rows[0][0] = cell
    assert loads(write(tmp_path / "d.csv", HEADER, rows)).rows[0, 0] == value


def test_column_and_row_order_do_not_change_the_labels(tmp_path, model):
    rng = random.Random(1)
    rows = mixed_rows(n=120, seed=9)
    expected = ensemble.predict(model, loads(write(tmp_path / "d.csv", HEADER, rows),
                                             model.tree.specs).rows)
    assert 0 < expected.sum() < len(expected)
    for trial in range(20):
        columns = rng.sample(range(len(HEADER)), len(HEADER))
        order = rng.sample(range(len(rows)), len(rows))
        path = write(tmp_path / f"p{trial}.csv", [HEADER[j] for j in columns],
                     [[rows[i][j] for j in columns] for i in order])
        labels = ensemble.predict(model, loads(path, model.tree.specs).rows)
        np.testing.assert_array_equal(labels, expected[order])
