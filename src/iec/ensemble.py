"""The imbalanced ensemble classifier (IEC) pipeline.

Workflow: grow an unpruned HDDT on the full feature set, keep the features it
found important, build the network input matrix from those features plus the
tree's own prediction as one extra 0/1 column, min-max scale, size the hidden
layer from the training count, and train the one-hidden-layer network
(``_fit_network``).  At prediction time ``_classify`` builds the same input
matrix, applies the fitted scaling and thresholds the network output.

``run_benchmark`` compares the pipeline with its two halves alone: the tree
(HDDT), and IEC's own network half on every raw feature without the OP column (ANN).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from iec import ann, hddt, metrics
from iec.ann import MlpModel, TrainConfig
from iec.data import (CATEGORICAL, Dataset, ScalingParams, category_codes, fields,
                      min_max_apply_matrix, min_max_fit_matrix, require_both_classes,
                      require_indices, require_int, require_matrix, require_protocol,
                      require_rows, require_vector, split_indices)
from iec.hddt import HddtModel, TreeConfig


@dataclass(frozen=True, eq=False)
class IecModel:
    """Fitted tree + feature selection + scaler + network."""

    tree: HddtModel
    selected_features: tuple[int, ...]
    scaling: ScalingParams
    net: MlpModel
    d_m: int

    def __post_init__(self):
        specs = self.tree.specs
        selected = require_indices("selected_features", self.selected_features, len(specs))
        object.__setattr__(self, "selected_features", selected)
        # d_m, the scaling and the network each span the selected features' columns and OP.
        width = 1 + sum(_width(specs[j]) for j in selected)
        for name, n in (("d_m", self.d_m), ("scaling width", len(self.scaling.mins)),
                        ("input_dim", self.net.input_dim)):
            require_int(name, n, width, width)


def _width(spec) -> int:
    """Network input columns of one feature: one per category, else one."""
    return len(spec.categories) if spec.kind == CATEGORICAL else 1


def network_input(rows: np.ndarray, specs, selected, op=None) -> np.ndarray:
    """The network input matrix of ``rows``, allocated once and filled in slices.

    ``selected`` (a list, tuple or range) holds at least one distinct feature index in
    0 .. len(specs) - 1.  Those features come first, in that order: a continuous feature as
    one column, a categorical one with m categories as m indicator columns.  ``op`` (the
    tree's prediction, the OP column), when given, is the last column: one value per row.
    """
    rows = require_matrix("rows", rows, len(specs))
    selected = require_indices("selected", selected, len(specs))
    n = rows.shape[0]
    op = None if op is None else require_vector("op", op, n)
    out = np.zeros((n, sum(_width(specs[j]) for j in selected) + (op is not None)))
    at = 0
    for j in selected:
        spec, col = specs[j], rows[:, j]
        if spec.kind == CATEGORICAL:
            out[np.arange(n), at + category_codes(col, _width(spec), spec.name)] = 1.0
        else:
            out[:, at] = col
        at += _width(spec)
    if op is not None:
        out[:, at] = op
    return out


def fit(train: Dataset, tree_config: TreeConfig | None = None,
        train_config: TrainConfig | None = None) -> IecModel:
    """Fit the full IEC pipeline on a training dataset."""
    require_both_classes("train", *train.class_counts())
    tree = hddt.grow_tree(train, tree_config)
    # A one-leaf tree selects nothing: keep every raw feature; OP is then the leaf's label.
    selected = hddt.select_features(tree) or list(range(train.p))

    scaling, net = _fit_network(train.rows, train.labels, tree.specs, selected,
                                hddt.predict(tree, train.rows), train_config or TrainConfig())
    return IecModel(tree, selected, scaling, net, net.input_dim)


def predict(model: IecModel, rows: np.ndarray) -> np.ndarray:
    """Predicted 0/1 labels for rows that a ``Dataset`` of the tree's specs would hold."""
    rows = require_rows(rows, model.tree.specs)
    return _classify(model.scaling, model.net, rows, model.tree.specs, model.selected_features,
                     hddt.predict(model.tree, rows))


def _fit_network(rows: np.ndarray, labels: np.ndarray, specs, selected, op,
                 config: TrainConfig) -> tuple[ScalingParams, MlpModel]:
    """Fit the network half: min-max scale the network input in place, size k, train the net."""
    x = network_input(rows, specs, selected, op)
    scaling = min_max_fit_matrix(x)
    min_max_apply_matrix(x, scaling, out=x)
    return scaling, ann.train(x, labels, ann.hidden_neuron_count(*x.shape), config)


def _classify(scaling, net, rows: np.ndarray, specs, selected, op=None) -> np.ndarray:
    """Apply the network half: the network input of ``rows``, scaled in place, thresholded."""
    x = network_input(rows, specs, selected, op)
    return ann.classify_batch(net, min_max_apply_matrix(x, scaling, out=x))


def _ann_fold(dataset: Dataset, train_idx: np.ndarray, test_idx: np.ndarray,
              train_config: TrainConfig) -> dict:
    """The ANN baseline of one fold, the network on every raw feature: {"ANN": test report}."""
    specs, features = dataset.specs, range(dataset.p)
    scaling, net = _fit_network(dataset.rows[train_idx], dataset.labels[train_idx], specs,
                                features, None, train_config)
    preds = _classify(scaling, net, dataset.rows[test_idx], specs, features)
    return {"ANN": metrics.report(metrics.confusion(preds, dataset.labels[test_idx]))}


def _iec_fold(dataset: Dataset, train_idx: np.ndarray, test_idx: np.ndarray,
              tree_config: TreeConfig, train_config: TrainConfig) -> dict:
    """The HDDT and IEC test reports of one fold: {"HDDT": report, "IEC": report}.

    The HDDT baseline is the tree inside the fold's IEC model: growth is a
    pure function of the training rows and the tree config, so a second tree
    grown for the baseline would be the same tree.  Its test predictions are
    also the model's OP column, so the test rows pass through it once.
    """
    model = fit(dataset.subset(train_idx), tree_config, train_config)
    test_rows, test_labels = dataset.rows[test_idx], dataset.labels[test_idx]
    tree_preds = hddt.predict(model.tree, test_rows)
    iec_preds = _classify(model.scaling, model.net, test_rows, model.tree.specs,
                          model.selected_features, tree_preds)
    return {"HDDT": metrics.report(metrics.confusion(tree_preds, test_labels)),
            "IEC": metrics.report(metrics.confusion(iec_preds, test_labels))}


def _adopt(tasks: list) -> None:
    """Worker initializer: keep the task list, inherited through ``fork``."""
    global _tasks
    _tasks = tasks


def _call_index(i: int) -> dict:
    return _tasks[i]()


def run_benchmark(dataset: Dataset, repetitions: int, train_fraction: float,
                  seed: int, tree_config: TreeConfig, train_config: TrainConfig) -> dict:
    """Per-fold test-set reports for the ANN, HDDT and IEC classifiers.

    The folds are the splits of ``split_indices`` at seeds ``seed``,
    ``seed + 1``, ..., kept as row indices.  Each fold is two tasks,
    ``_iec_fold`` and ``_ann_fold``, which score the fold's own test rows and
    return their reports by classifier name.  Every fold's ``_iec_fold`` (a
    tree and a network) comes before every ``_ann_fold`` (a network), so the
    longest tasks start first.  They run in one forked worker process per CPU
    this process may use (``ann._cpu_count``), up to one per task, or in this
    process where that is one; the reports are merged in task order either
    way, so they do not depend on scheduling.
    """
    require_protocol(repetitions, train_fraction)
    require_int("seed", seed, 0)
    folds = [split_indices(dataset.labels, train_fraction, seed + i) for i in range(repetitions)]
    tasks = ([partial(_iec_fold, dataset, *fold, tree_config, train_config) for fold in folds] +
             [partial(_ann_fold, dataset, *fold, train_config) for fold in folds])
    workers = min(ann._cpu_count(), len(tasks))
    if workers == 1:
        return _fold_reports((task() for task in tasks), repetitions)
    # "fork" starts no helper process ("forkserver" and "spawn" start one that can
    # outlive the call).  OpenBLAS joins its threads around a fork, so the fork
    # copies one thread; an OpenMP BLAS need not.  The workers inherit the tasks
    # through the fork, so only task numbers and the tasks' reports cross the pipes.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt, initargs=(tasks,)) as pool:
        # A task that raises makes the map cancel the tasks not yet started.
        return _fold_reports(pool.map(_call_index, range(len(tasks))), repetitions)


def _fold_reports(outcomes, repetitions: int) -> dict:
    """The tasks' reports merged in task order, where task t scores fold t % repetitions."""
    results: dict = {"ANN": [], "HDDT": [], "IEC": []}
    for task in range(2 * repetitions):
        try:
            reports = next(outcomes)
        except Exception as exc:
            raise RuntimeError(f"benchmark fold {task % repetitions} failed: {exc}") from exc
        for name, report in reports.items():
            results[name].append(report)
    return results


def model_to_dict(model: IecModel) -> dict:
    return {
        "format_version": 1,
        "kind": "iec",
        "tree": hddt.model_to_dict(model.tree),
        "selected_features": list(model.selected_features),
        "scaling": model.scaling.to_dict(),
        "net": ann.model_to_dict(model.net),
        "d_m": model.d_m,
    }


def model_from_dict(d: dict) -> IecModel:
    require_int("format_version", *fields(d, "model", "format_version"), 1, 1)
    if fields(d, "model", "kind") != ("iec",):
        raise ValueError("not a supported classifier model document")
    tree, selected, scaling, net, d_m = fields(d, "model", "tree", "selected_features",
                                               "scaling", "net", "d_m")
    return IecModel(hddt.model_from_dict(tree), selected, ScalingParams.from_dict(scaling),
                    ann.model_from_dict(net), d_m)
