"""One table of the package's shared input rules: every site that takes a count or a seed,
a vector of one value per row, 0/1 labels, an input matrix, a matrix of at least one row
(for a ``Dataset``, also of one feature column), rows of a feature schema, a list of
feature indices or of a saved split's category codes (at least two of them, the tree
reader's own rule), data of both classes or a positive number, with an input it must
reject and the message of the rule's one owner in ``iec.data`` (``require_int``,
``require_vector``, ``require_labels``, ``require_matrix``, ``require_nonempty_matrix``,
``require_rows``, ``require_indices``, ``require_both_classes``, ``require_positive``, or
``Dataset`` for the feature column).  Labels go through the vector rule inside
``require_labels``.  Split partitions, lists of (pos, neg) counts, also go through
``require_list``.  ``tests/test_data.py::TestInputRuleOwners`` holds the inputs the owners
pass, among them no rows for ``forward_batch`` and ``ensemble.predict`` and a ``range`` of
feature indices."""

import re

import numpy as np
import pytest

from iec import ann, ensemble, hddt
from iec.ann import (MlpModel, TrainConfig, forward, forward_batch, hidden_neuron_count,
                     init_model, mse_gradients, mse_loss)
from iec.data import (CATEGORICAL, CONTINUOUS, Dataset, FeatureSpec, ScalingParams,
                      imbalance_cv, min_max_apply_matrix, min_max_fit_matrix, split_indices,
                      synth_generate)
from iec.ensemble import network_input, run_benchmark
from iec.hddt import TreeConfig, best_split_categorical, best_split_numeric, hellinger_split_score
from iec.metrics import ConfusionMatrix, confusion

SPECS = (FeatureSpec("a", CONTINUOUS), FeatureSpec("b", CONTINUOUS))
# Feature a is the label, so the tree and the IEC model select it alone.
DATA = Dataset(SPECS, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0]], [0, 1, 0, 1])
TREE = hddt.grow_tree(DATA)
MODEL = ensemble.fit(DATA, train_config=TrainConfig(epochs=1))
NET = init_model(2, 1, 0)
SCALING = ScalingParams((0.0, 0.0), (1.0, 1.0))
ROW = np.zeros(2)
WIDE = np.zeros((2, 3))
TWO = np.zeros((2, 2))
NO_ROWS = np.zeros((0, 2))
NOT_2D = "must be a 2-d matrix of width 2, got shape (2,)"
TOO_WIDE = "must be a 2-d matrix of width 2, got shape (2, 3)"
SHORT = "must be a vector of length 2, got shape (1,)"
COLUMN = "must be a vector of length 2, got shape (2, 1)"
SCALAR = "must be a vector of length 2, got shape ()"
INDICES = "must be a non-empty list of distinct integers in 0 .. 1, got "
ONE_CLASS = Dataset(SPECS, TWO, [1, 1])


def color_tree(categories):
    """A saved tree whose root splits the two-category feature color into ``categories``."""
    specs = (FeatureSpec("color", CATEGORICAL, ("red", "blue")),)
    doc = hddt.model_to_dict(hddt.grow_tree(Dataset(specs, [[0.0], [1.0]], [0, 1])))
    doc["nodes"][0]["categories"] = categories
    return doc

CASES = [
    # Counts: require_int.
    ("ConfusionMatrix-negative", lambda: ConfusionMatrix(-1, 0, 1, 0),
     "tp must be an integer >= 0, got -1"),
    ("ConfusionMatrix-float", lambda: ConfusionMatrix(0, 1.5, 1, 0),
     "fp must be an integer >= 0, got 1.5"),
    ("ConfusionMatrix-bool", lambda: ConfusionMatrix(0, 0, True, 1),
     "tn must be an integer >= 0, got True"),
    ("hellinger_split_score-negative", lambda: hellinger_split_score([(1, -1), (2, 1)]),
     "partition count must be an integer >= 0, got -1"),
    ("hellinger_split_score-float", lambda: hellinger_split_score([(1, 2), (1.5, 1)]),
     "partition count must be an integer >= 0, got 1.5"),
    ("hellinger_split_score-bool", lambda: hellinger_split_score([(1, 2), (2, True)]),
     "partition count must be an integer >= 0, got True"),
    # Partitions: require_list, then one (pos, neg) pair rule.
    ("hellinger_split_score-triples", lambda: hellinger_split_score([(1, 2, 3), (4, 5, 6)]),
     "partition must be a (pos, neg) pair, got (1, 2, 3)"),
    ("hellinger_split_score-one-triple", lambda: hellinger_split_score([(1, 2), (1, 2, 3)]),
     "partition must be a (pos, neg) pair, got (1, 2, 3)"),
    ("hellinger_split_score-singles", lambda: hellinger_split_score([(1,), (2,)]),
     "partition must be a (pos, neg) pair, got (1,)"),
    ("hellinger_split_score-scalars", lambda: hellinger_split_score([1, 2]),
     "partition must be a list, got 1"),
    ("hidden_neuron_count-n-negative", lambda: hidden_neuron_count(-1, 2),
     "n must be an integer >= 2, got -1"),
    ("hidden_neuron_count-n-float", lambda: hidden_neuron_count(100.5, 2),
     "n must be an integer >= 2, got 100.5"),
    ("hidden_neuron_count-d_m-float", lambda: hidden_neuron_count(100, 2.5),
     "d_m must be an integer >= 1, got 2.5"),
    ("hidden_neuron_count-d_m-bool", lambda: hidden_neuron_count(100, True),
     "d_m must be an integer >= 1, got True"),
    # Seeds: require_int, the rule TrainConfig.seed already follows.
    ("synth_generate-seed-float", lambda: synth_generate(20, 1, 0, 0.25, 2.5),
     "seed must be an integer >= 0, got 2.5"),
    ("split_indices-seed-bool", lambda: split_indices(np.array([0, 1, 0, 1]), 0.5, True),
     "seed must be an integer >= 0, got True"),
    ("init_model-seed-negative", lambda: init_model(2, 1, -1),
     "seed must be an integer >= 0, got -1"),
    ("run_benchmark-seed-bool", lambda: run_benchmark(
        synth_generate(20, 1, 0, 0.25, 0), 1, 0.5, True, TreeConfig(), TrainConfig(epochs=1)),
     "seed must be an integer >= 0, got True"),
    # A split's feature index and declared category count: require_int.
    ("best_split_numeric-feature_index-string",
     lambda: best_split_numeric([1.0, 2.0], [0, 1], "x"),
     "feature_index must be an integer >= 0, got 'x'"),
    ("best_split_numeric-feature_index-negative",
     lambda: best_split_numeric([1.0, 2.0], [0, 1], -3),
     "feature_index must be an integer >= 0, got -3"),
    ("best_split_categorical-feature_index-string",
     lambda: best_split_categorical([0.0, 1.0], [0, 1], 2, "x"),
     "feature_index must be an integer >= 0, got 'x'"),
    ("best_split_categorical-feature_index-negative",
     lambda: best_split_categorical([0.0, 1.0], [0, 1], 2, -3),
     "feature_index must be an integer >= 0, got -3"),
    ("best_split_categorical-category_count-float",
     lambda: best_split_categorical([0.0, 1.0], [0, 1], 2.5),
     "category_count must be an integer >= 2, got 2.5"),
    # Feature indices: require_indices.
    ("network_input-negative", lambda: network_input(TWO, SPECS, [-1]),
     "selected " + INDICES + "[-1]"),
    ("network_input-past-specs", lambda: network_input(TWO, SPECS, [5]),
     "selected " + INDICES + "[5]"),
    ("network_input-float", lambda: network_input(TWO, SPECS, [0.5]),
     "selected " + INDICES + "[0.5]"),
    ("network_input-bool", lambda: network_input(TWO, SPECS, [True]),
     "selected " + INDICES + "[True]"),
    ("network_input-repeated", lambda: network_input(TWO, SPECS, [0, 0]),
     "selected " + INDICES + "[0, 0]"),
    ("network_input-empty", lambda: network_input(TWO, SPECS, []), "selected " + INDICES + "[]"),
    ("IecModel-repeated", lambda: ensemble.IecModel(
        MODEL.tree, [0, 0], MODEL.scaling, MODEL.net, MODEL.d_m),
     "selected_features " + INDICES + "[0, 0]"),
    ("IecModel-negative", lambda: ensemble.IecModel(
        MODEL.tree, [-1], MODEL.scaling, MODEL.net, MODEL.d_m),
     "selected_features " + INDICES + "[-1]"),
    # A saved categorical split's codes, against its feature's category count; at least two
    # codes is the tree reader's own rule.
    ("model_from_dict-categories-repeated", lambda: hddt.model_from_dict(color_tree([0, 0])),
     "categories of 'color' " + INDICES + "[0, 0]"),
    ("model_from_dict-categories-past", lambda: hddt.model_from_dict(color_tree([0, 2])),
     "categories of 'color' " + INDICES + "[0, 2]"),
    ("model_from_dict-categories-bool", lambda: hddt.model_from_dict(color_tree([0, True])),
     "categories of 'color' " + INDICES + "[0, True]"),
    ("model_from_dict-categories-float", lambda: hddt.model_from_dict(color_tree([0, 1.0])),
     "categories of 'color' " + INDICES + "[0, 1.0]"),
    ("model_from_dict-categories-scalar", lambda: hddt.model_from_dict(color_tree(5)),
     "categories of 'color' " + INDICES + "5"),
    ("model_from_dict-categories-empty", lambda: hddt.model_from_dict(color_tree([])),
     "categories of 'color' " + INDICES + "[]"),
    ("model_from_dict-categories-one", lambda: hddt.model_from_dict(color_tree([1])),
     "categories of 'color' must be at least two codes, got [1]"),
    # Both classes present: require_both_classes.
    ("fit-one-class", lambda: ensemble.fit(ONE_CLASS),
     "train must hold both classes, got 0 negative and 2 positive"),
    ("imbalance_cv-one-class", lambda: imbalance_cv(ONE_CLASS),
     "d must hold both classes, got 0 negative and 2 positive"),
    ("hellinger_split_score-one-class", lambda: hellinger_split_score([(3, 0), (2, 0)]),
     "split must hold both classes, got 0 negative and 5 positive"),
    ("best_split_numeric-one-class", lambda: best_split_numeric([1.0, 2.0], [1, 1]),
     "split must hold both classes, got 0.0 negative and 2.0 positive"),
    ("best_split_categorical-one-class", lambda: best_split_categorical([0.0, 1.0], [0, 0], 2),
     "split must hold both classes, got 2 negative and 0 positive"),
    # A positive number: require_positive, the rule TrainConfig's rate and scale follow.
    ("init_model-init_scale-nan", lambda: init_model(2, 1, 0, float("nan")),
     "init_scale must be a finite number, got nan"),
    ("init_model-init_scale-negative", lambda: init_model(2, 1, 0, -1.0),
     "init_scale must be positive, got -1.0"),
    ("init_model-init_scale-zero", lambda: init_model(2, 1, 0, 0.0),
     "init_scale must be positive, got 0.0"),
    # One value per row: require_vector, given short, 2-d and scalar vectors across the sites.
    ("Dataset-labels-short", lambda: Dataset(SPECS, TWO, [0]), "labels " + SHORT),
    ("Dataset-labels-2d", lambda: Dataset(SPECS, TWO, [[0], [1]]), "labels " + COLUMN),
    ("Dataset-labels-scalar", lambda: Dataset(SPECS, TWO, 0), "labels " + SCALAR),
    ("best_split_numeric-values-2d", lambda: best_split_numeric([[1.0], [2.0]], [0, 1]),
     "values must be a vector, got shape (2, 1)"),
    ("best_split_numeric-labels-short", lambda: best_split_numeric([1.0, 2.0], [0]),
     "labels " + SHORT),
    ("best_split_categorical-labels-2d",
     lambda: best_split_categorical([0.0, 1.0], [[0], [1]], 2), "labels " + COLUMN),
    ("best_split_categorical-values-scalar", lambda: best_split_categorical(0.0, [0], 2),
     "values must be a vector, got shape ()"),
    ("confusion-predicted-2d", lambda: confusion([[0, 1]], [0, 1]),
     "predicted must be a vector, got shape (1, 2)"),
    ("confusion-actual-short", lambda: confusion([0, 1], [1]), "actual " + SHORT),
    ("confusion-actual-scalar", lambda: confusion([0, 1], 1), "actual " + SCALAR),
    ("forward-short", lambda: forward(NET, [0.0]), "z " + SHORT),
    ("forward-2d", lambda: forward(NET, [[0.0], [0.0]]), "z " + COLUMN),
    ("forward-scalar", lambda: forward(NET, 0.0), "z " + SCALAR),
    ("mse_loss-targets-short", lambda: mse_loss(NET, TWO, [0.0]), "targets " + SHORT),
    ("mse_loss-targets-2d", lambda: mse_loss(NET, TWO, [[0.0], [1.0]]), "targets " + COLUMN),
    ("mse_gradients-targets-short", lambda: mse_gradients(NET, TWO, [0.0]), "targets " + SHORT),
    ("mse_gradients-targets-scalar", lambda: mse_gradients(NET, TWO, 0.0), "targets " + SCALAR),
    ("train-targets-short", lambda: ann.train(TWO, [0.0], 1, TrainConfig(epochs=1)),
     "targets " + SHORT),
    ("train-targets-2d", lambda: ann.train(TWO, [[0.0], [1.0]], 1, TrainConfig(epochs=1)),
     "targets " + COLUMN),
    ("split_indices-2d", lambda: split_indices(np.array([[0, 1], [0, 1], [1, 0]]), 0.5, 0),
     "labels must be a vector, got shape (3, 2)"),
    ("network_input-op-short", lambda: network_input(TWO, SPECS, [0], [0.5]), "op " + SHORT),
    ("network_input-op-scalar", lambda: network_input(TWO, SPECS, [0], 0.5), "op " + SCALAR),
    # One value per neuron: require_numbers with the shape (k,).
    ("MlpModel-hidden_biases", lambda: MlpModel(2, 1, np.zeros((1, 2)), [0.0, 0.0], [0.0], 0.0),
     "hidden_biases must be 1 finite values, got [0.0, 0.0]"),
    ("MlpModel-output_weights", lambda: MlpModel(2, 1, np.zeros((1, 2)), [0.0], [], 0.0),
     "output_weights must be 1 finite values, got []"),
    # 0/1 labels: require_labels.
    ("Dataset-label", lambda: Dataset(SPECS, [[0.0, 1.0], [1.0, 0.0]], [0, 2]),
     "labels must be 0 or 1, got 2"),
    ("best_split_numeric-label", lambda: best_split_numeric([1.0, 2.0], [0, 2]),
     "labels must be 0 or 1, got 2"),
    ("best_split_categorical-label", lambda: best_split_categorical([0.0, 1.0], [2, 1], 2),
     "labels must be 0 or 1, got 2"),
    ("confusion-predicted", lambda: confusion([0, 2], [0, 1]),
     "predicted must be 0 or 1, got 2"),
    ("confusion-actual", lambda: confusion([0, 1], [2, 1]),
     "actual must be 0 or 1, got 2"),
    ("split_indices-label", lambda: split_indices([0, 2], 0.5, 0),
     "labels must be 0 or 1, got 2"),
    # Input matrices: require_matrix.
    ("Dataset-1d", lambda: Dataset(SPECS, ROW, [0]), "rows " + NOT_2D),
    ("Dataset-width", lambda: Dataset(SPECS, WIDE, [0, 1]), "rows " + TOO_WIDE),
    ("network_input-1d", lambda: network_input(ROW, SPECS, [0]), "rows " + NOT_2D),
    ("network_input-width", lambda: network_input(WIDE, SPECS, [0]), "rows " + TOO_WIDE),
    ("hddt.predict-1d", lambda: hddt.predict(TREE, ROW), "rows " + NOT_2D),
    ("hddt.predict-width", lambda: hddt.predict(TREE, WIDE), "rows " + TOO_WIDE),
    ("forward_batch-1d", lambda: forward_batch(NET, ROW), "x " + NOT_2D),
    ("forward_batch-width", lambda: forward_batch(NET, WIDE), "x " + TOO_WIDE),
    ("mse_gradients-1d", lambda: mse_gradients(NET, ROW, [0.0]), "x " + NOT_2D),
    ("mse_gradients-width", lambda: mse_gradients(NET, WIDE, [0.0, 1.0]), "x " + TOO_WIDE),
    ("train-1d", lambda: ann.train(ROW, [0.0, 1.0], 1, TrainConfig(epochs=1)),
     "train_rows must be a 2-d matrix, got shape (2,)"),
    # At least one row: require_nonempty_matrix.  The loss and its gradients are means over
    # rows, a dataset has rows and a fitted range spans some.
    ("train-no-rows", lambda: ann.train(NO_ROWS, [], 1, TrainConfig(epochs=1)),
     "train_rows must have at least one row, got shape (0, 2)"),
    ("mse_gradients-no-rows", lambda: mse_gradients(NET, NO_ROWS, []),
     "x must have at least one row, got shape (0, 2)"),
    ("mse_loss-no-rows", lambda: mse_loss(NET, NO_ROWS, []),
     "x must have at least one row, got shape (0, 2)"),
    ("Dataset-no-rows", lambda: Dataset(SPECS, NO_ROWS, []),
     "rows must have at least one row, got shape (0, 2)"),
    # At least one feature column: Dataset, which load_csv and synth_generate build through.
    ("Dataset-no-features", lambda: Dataset((), np.zeros((4, 0)), [0, 1, 0, 1]),
     "rows must have at least one feature column, got shape (4, 0)"),
    ("min_max_fit_matrix-no-rows", lambda: min_max_fit_matrix(NO_ROWS),
     "x must have at least one row, got shape (0, 2)"),
    ("min_max_apply_matrix-1d", lambda: min_max_apply_matrix(ROW, SCALING), "x " + NOT_2D),
    ("min_max_apply_matrix-width", lambda: min_max_apply_matrix(WIDE, SCALING), "x " + TOO_WIDE),
    ("min_max_fit_matrix-1d", lambda: min_max_fit_matrix(ROW),
     "x must be a 2-d matrix, got shape (2,)"),
    # Rows of a feature schema: require_rows.  hddt.predict routes NaN and inf, but the
    # network has no answer for them.
    ("ensemble.predict-nan", lambda: ensemble.predict(MODEL, [[np.nan, 0.0], [1.0, 0.0]]),
     "non-finite value at row 0, feature 'a'"),
    ("ensemble.predict-inf", lambda: ensemble.predict(MODEL, [[0.0, 0.0], [np.inf, 0.0]]),
     "non-finite value at row 1, feature 'a'"),
]


@pytest.mark.parametrize("call, message", [pytest.param(call, message, id=site)
                                           for site, call, message in CASES])
def test_each_site_rejects_with_the_owners_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

