"""The imbalanced ensemble classifier (IEC) pipeline.

Workflow: grow an unpruned HDDT on the full feature set, keep the features it
found important, build the network input matrix from those features plus the
tree's own prediction as one extra 0/1 column, min-max scale, size the hidden
layer from the training count, and train the one-hidden-layer network.  At
prediction time the same augmentation and fitted scaling are replayed before
thresholding the network output.

``run_benchmark`` compares the pipeline with its two halves alone: the
network on every raw feature (ANN) and the tree (HDDT).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from iec import ann, hddt, metrics
from iec.ann import MlpModel, TrainConfig
from iec.data import (CATEGORICAL, Dataset, ScalingParams, min_max_apply_matrix,
                      min_max_fit_matrix, repeated_eval_protocol)
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
        if not self.selected_features:
            raise ValueError("selected_features cannot be empty")
        specs = self.tree.specs
        if (len(set(self.selected_features)) != len(self.selected_features)
                or not all(0 <= j < len(specs) for j in self.selected_features)):
            raise ValueError(f"selected_features must be distinct indices in "
                             f"0 .. {len(specs) - 1}")
        width = 1 + sum(_width(specs[j]) for j in self.selected_features)
        if self.d_m != width:
            raise ValueError(f"d_m is {self.d_m} but the selected features and the "
                             f"OP column give {width} network inputs")
        if len(self.scaling.mins) != self.d_m:
            raise ValueError(f"scaling has {len(self.scaling.mins)} columns but d_m "
                             f"is {self.d_m}")
        if self.net.input_dim != self.d_m:
            raise ValueError(
                f"network expects {self.net.input_dim} inputs but d_m is {self.d_m}"
            )


def _width(spec) -> int:
    """Network input columns of one feature: one per category, else one."""
    return len(spec.categories) if spec.kind == CATEGORICAL else 1


def expand_features(rows: np.ndarray, specs, selected) -> np.ndarray:
    """One-hot expand the selected features into a plain numeric matrix.

    Continuous features pass through; a categorical feature with m categories
    becomes m indicator columns.  Column order follows ``selected``.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(specs):
        raise ValueError(f"rows must be n x {len(specs)}")
    blocks = []
    for j in selected:
        spec = specs[j]
        col = rows[:, j]
        if spec.kind == CATEGORICAL:
            idx = col.astype(np.int64)
            if not ((idx == col) & (idx >= 0) & (idx < _width(spec))).all():
                raise ValueError(f"invalid category index in feature {spec.name!r}")
            onehot = np.zeros((rows.shape[0], _width(spec)))
            onehot[np.arange(rows.shape[0]), idx] = 1.0
            blocks.append(onehot)
        else:
            blocks.append(col[:, np.newaxis])
    return np.hstack(blocks)


def augment(rows: np.ndarray, tree: HddtModel, selected) -> np.ndarray:
    """Network input matrix: expanded selected features, then the tree's
    prediction (the OP column) as a final 0/1 column.
    """
    if not selected:
        raise ValueError("feature selection cannot be empty")
    expanded = expand_features(rows, tree.specs, selected)
    op = hddt.predict(tree, rows).astype(np.float64)
    return np.hstack([expanded, op[:, np.newaxis]])


def fit(train: Dataset, tree_config: TreeConfig | None = None,
        train_config: TrainConfig | None = None) -> IecModel:
    """Fit the full IEC pipeline on a training dataset."""
    neg, pos = train.class_counts()
    if neg == 0 or pos == 0:
        raise ValueError("training data must contain both classes")

    tree = hddt.grow_tree(train, tree_config)
    selected = hddt.select_features(tree)
    if not selected:
        # Degenerate tree (single leaf): keep every raw feature; the OP column
        # is then the leaf's constant label.
        selected = list(range(train.p))

    matrix = augment(train.rows, tree, selected)
    scaling, net = _train_network(matrix, train.labels, train_config or TrainConfig())
    return IecModel(tree, tuple(selected), scaling, net, matrix.shape[1])


def _train_network(x: np.ndarray, labels: np.ndarray,
                   config: TrainConfig) -> tuple[ScalingParams, MlpModel]:
    """Min-max scale a network input matrix, size the hidden layer from its
    shape and train the network on it."""
    scaling = min_max_fit_matrix(x)
    scaled = min_max_apply_matrix(x, scaling)
    k = ann.hidden_neuron_count(x.shape[0], x.shape[1])
    return scaling, ann.train(scaled, labels, k, config)


def predict(model: IecModel, rows: np.ndarray) -> np.ndarray:
    """Predicted 0/1 labels for rows conforming to the tree's feature schema."""
    matrix = augment(rows, model.tree, model.selected_features)
    scaled = min_max_apply_matrix(matrix, model.scaling)
    return ann.classify_batch(model.net, scaled)


def run_benchmark(dataset: Dataset, repetitions: int, train_fraction: float,
                  seed: int, tree_config: TreeConfig,
                  train_config: TrainConfig) -> dict:
    """Per-fold test-set reports for the ANN, HDDT and IEC classifiers.

    The HDDT baseline is the tree inside each fold's IEC model: growth is a
    pure function of the training rows and the tree config, so a second tree
    grown for the baseline would be the same tree.
    """
    folds = repeated_eval_protocol(dataset, repetitions, train_fraction, seed)
    results: dict = {"ANN": [], "HDDT": [], "IEC": []}
    for fold_index, (train, test) in enumerate(folds):
        try:
            all_features = range(train.p)
            train_matrix = expand_features(train.rows, train.specs, all_features)
            scaling, net = _train_network(train_matrix, train.labels, train_config)
            test_matrix = expand_features(test.rows, test.specs, all_features)
            ann_preds = ann.classify_batch(net, min_max_apply_matrix(test_matrix, scaling))

            iec_model = fit(train, tree_config, train_config)
            tree_preds = hddt.predict(iec_model.tree, test.rows)
            iec_preds = predict(iec_model, test.rows)
        except Exception as exc:
            raise RuntimeError(f"benchmark fold {fold_index} failed: {exc}") from exc
        for reports, preds in zip(results.values(), (ann_preds, tree_preds, iec_preds)):
            reports.append(metrics.report(metrics.confusion(preds, test.labels)))
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
    if d.get("format_version") != 1 or d.get("kind") != "iec":
        raise ValueError("not a supported classifier model document")
    return IecModel(
        tree=hddt.model_from_dict(d["tree"]),
        selected_features=tuple(int(j) for j in d["selected_features"]),
        scaling=ScalingParams.from_dict(d["scaling"]),
        net=ann.model_from_dict(d["net"]),
        d_m=int(d["d_m"]),
    )
