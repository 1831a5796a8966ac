"""Seeded mutation test of the model-document readers, and the rule that keeps them safe.

Every single edit to a model document, deleting a key or an item or setting
a value to one of ``VALUES``, must either load and predict, or raise
``ValueError``: never a ``KeyError``, ``TypeError`` or ``AttributeError``
from inside a reader.  The edits come from ``random.Random(seed)``, as in
QuickCheck (Claessen & Hughes, ICFP 2000), so every run makes the same ones.
"""

import ast
import collections
import functools
import json
import operator
import random
from pathlib import Path

import numpy as np

from iec import ensemble
from iec.ann import TrainConfig
from iec.data import CATEGORICAL, CONTINUOUS, Dataset, FeatureSpec, load_csv

V1_MODEL = Path(__file__).parent / "data" / "v1_model.json"
V1_DATA = Path(__file__).parent / "data" / "v1_model.csv"
SRC = Path(ensemble.__file__).parent

DELETE = object()
VALUES = (DELETE, None, 5, -1, 0.5, True, "x", [], {}, [1], float("nan"))


def paths(node, depth, prefix=()):
    """Every key or index path into ``node``, down to ``depth`` steps."""
    if len(prefix) == depth:
        return
    keys = (node.keys() if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield prefix + (key,)
        yield from paths(node[key], depth, prefix + (key,))


def edit(text: str, path: tuple, value):
    """A fresh copy of the document ``text`` with ``path`` deleted or set to ``value``."""
    doc = json.loads(text)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = json.loads(json.dumps(value))
    return doc


def escapes(doc: dict, rows: np.ndarray, count: int, depth: int, seed: int):
    """Apply ``count`` single edits, every path at least once and the rest at random;
    return the (exception type, path) classes that escaped as anything but ValueError,
    and how many edits loaded and how many were rejected."""
    rng = random.Random(seed)
    text = json.dumps(doc)
    every = list(paths(doc, depth))
    assert len(every) < count
    chosen = every + [rng.choice(every) for _ in range(count - len(every))]
    outcomes, escaped = collections.Counter(), set()
    for path in chosen:
        try:
            ensemble.predict(ensemble.model_from_dict(edit(text, path, rng.choice(VALUES))),
                             rows)
            outcomes["loaded"] += 1
        except ValueError:
            outcomes["rejected"] += 1
        except Exception as exc:  # what this test looks for
            escaped.add((type(exc).__name__, "/".join(map(str, path))))
    return sorted(escaped), outcomes


def mixed_dataset(n=80, seed=3):
    """One informative continuous column, one noise column and a three-level
    categorical one that also tracks the label."""
    rng = np.random.default_rng(seed)
    labels = (rng.uniform(size=n) < 0.3).astype(int)
    color = np.where(rng.uniform(size=n) < 0.7, labels, 2)
    rows = np.column_stack([rng.normal(size=n) + labels, rng.normal(size=n), color])
    specs = (FeatureSpec("x", CONTINUOUS), FeatureSpec("noise", CONTINUOUS),
             FeatureSpec("color", CATEGORICAL, ("red", "blue", "green")))
    return Dataset(specs, rows, labels)


def test_edits_to_a_fitted_model_load_or_raise_value_error():
    data = mixed_dataset()
    doc = ensemble.model_to_dict(ensemble.fit(data, train_config=TrainConfig(epochs=20)))
    assert {node.get("split_kind") for node in doc["tree"]["nodes"]} >= {"numeric",
                                                                          "categorical"}
    escaped, outcomes = escapes(doc, data.rows, count=2000, depth=4, seed=0)
    assert escaped == []
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0


def test_edits_to_the_v1_model_load_or_raise_value_error():
    # No depth limit: the v1 tree nests each node's children inside it.
    doc = json.loads(V1_MODEL.read_text())
    rows = load_csv(V1_DATA, "class", "1",
                    specs=ensemble.model_from_dict(doc).tree.specs).rows
    escaped, outcomes = escapes(doc, rows, count=600, depth=99, seed=1)
    assert escaped == []
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0


def test_readers_look_fields_up_only_through_data_fields():
    # A reader that indexes a document with d["key"] fails on a missing key or a
    # section of the wrong type with a KeyError or TypeError that names nothing.
    found = []
    for source in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(source.read_text())):
            if isinstance(fn, ast.FunctionDef) and "from_dict" in fn.name:
                found.append(fn.name)
                for node in ast.walk(fn):
                    assert not (isinstance(node, ast.Subscript)
                                and isinstance(node.slice, ast.Constant)
                                and isinstance(node.slice.value, str)), \
                        f"{source.name}:{node.lineno} {fn.name} indexes a document by key"
    assert set(found) >= {"model_from_dict", "_node_from_dict", "from_dict", "specs_from_dicts"}
