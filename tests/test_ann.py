import json
import math
import tracemalloc

import numpy as np
import pytest

from iec import ann
from iec.ann import (MlpModel, TrainConfig, classify, classify_batch, forward,
                     forward_batch, hidden_neuron_count, init_model,
                     model_from_dict, model_to_dict, mse_gradients, mse_loss,
                     sigmoid, train)
from oracles import finite_difference_gradients, max_relative_error


def zero_model(d=2, k=2):
    return MlpModel(d, k, np.zeros((k, d)), np.zeros(k), np.zeros(k), 0.0)


# Reference implementation: the masked sigmoid and the allocating
# forward/backward pass and epoch loop, written as plain expressions.  The
# library's buffered step must give exactly these bits.

def reference_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_forward(w, b, c, c0, x):
    hidden = reference_sigmoid(x @ w.T + b)
    return reference_sigmoid(hidden @ c + c0), hidden


def reference_gradients(w, b, c, c0, x, targets):
    n = x.shape[0]
    out, hidden = reference_forward(w, b, c, c0, x)
    delta_out = (2.0 / n) * (out - targets) * out * (1.0 - out)
    grad_c = hidden.T @ delta_out
    grad_c0 = float(delta_out.sum())
    delta_hidden = np.outer(delta_out, c) * hidden * (1.0 - hidden)
    grad_w = delta_hidden.T @ x
    grad_b = delta_hidden.sum(axis=0)
    loss = float(np.mean((out - targets) ** 2))
    return loss, grad_w, grad_b, grad_c, grad_c0


def reference_train(x, y, k, config):
    start = init_model(x.shape[1], k, config.seed, config.init_scale)
    w = start.hidden_weights.copy()
    b = start.hidden_biases.copy()
    c = start.output_weights.copy()
    c0 = start.output_bias
    for _ in range(config.epochs):
        _, gw, gb, gc, gc0 = reference_gradients(w, b, c, c0, x, y)
        w -= config.learning_rate * gw
        b -= config.learning_rate * gb
        c -= config.learning_rate * gc
        c0 -= config.learning_rate * gc0
    return w, b, c, c0


def each_block_budget(monkeypatch, budgets=(7, 700)):
    """Run the loop body with the step's row blocks at the default budget and
    at each of ``budgets`` cells: 7 cells is a row or a few per block, and
    every shape below with n > 7 then spans several blocks, most of them
    with a shorter last block."""
    for budget in (ann.BLOCK_ELEMENTS, *budgets):
        with monkeypatch.context() as patch:
            patch.setattr(ann, "BLOCK_ELEMENTS", budget)
            yield budget


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


class TestHiddenNeuronCount:
    def test_documented_example(self):
        # sqrt(1000 / (6 * ln 1000)) = sqrt(24.13...) -> 5
        assert hidden_neuron_count(1000, 6) == 5

    def test_clamped_to_one(self):
        assert hidden_neuron_count(3, 100) == 1

    def test_monotone_in_n(self):
        assert hidden_neuron_count(10000, 6) > hidden_neuron_count(1000, 6)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="n must be an integer >= 2, got 1"):
            hidden_neuron_count(1, 4)
        with pytest.raises(ValueError, match="d_m must be an integer >= 1, got 0"):
            hidden_neuron_count(100, 0)


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert sigmoid(0.0) == 0.5
        xs = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(xs) + sigmoid(-xs), 1.0, atol=1e-12)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()
        assert out[0] >= 0.0 and out[1] <= 1.0

    def test_bit_identical_to_masked_form(self):
        edges = np.array([0.0, 1e-300, 36.0, 709.0, 745.0, 1000.0, np.inf])
        rng = np.random.default_rng(4)
        grid = np.concatenate([edges, -edges, rng.normal(0, 5, 500),
                               rng.uniform(-800, 800, 500)])
        assert_same_bits(sigmoid(grid), reference_sigmoid(grid))
        assert_same_bits(sigmoid(grid.reshape(39, -1)),
                         reference_sigmoid(grid.reshape(39, -1)))

    def test_nan_stays_nan(self):
        out = sigmoid(np.array([np.nan, 0.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2]) and out[1] == 0.5


class TestForward:
    def test_zero_network_outputs_half(self):
        assert forward(zero_model(), np.array([0.3, -2.0])) == 0.5

    def test_zero_output_weights_kill_input_dependence(self):
        model = MlpModel(2, 1, np.array([[5.0, -3.0]]), np.array([1.0]),
                         np.zeros(1), 0.0)
        for z in ([0.0, 0.0], [9.0, -9.0], [0.5, 0.5]):
            assert forward(model, np.array(z)) == 0.5

    def test_pinned_two_two_one_network(self):
        w = np.array([[0.3, -0.2], [0.1, 0.4]])
        b = np.array([0.05, -0.1])
        c = np.array([0.7, -0.5])
        c0 = 0.2
        model = MlpModel(2, 2, w, b, c, c0)
        # hand-rolled scalar evaluation
        h1 = 1.0 / (1.0 + math.exp(-(0.3 * 1.0 + -0.2 * 0.0 + 0.05)))
        h2 = 1.0 / (1.0 + math.exp(-(0.1 * 1.0 + 0.4 * 0.0 + -0.1)))
        expected = 1.0 / (1.0 + math.exp(-(0.7 * h1 - 0.5 * h2 + 0.2)))
        assert forward(model, np.array([1.0, 0.0])) == pytest.approx(expected, abs=1e-15)

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            model = init_model(d, k, seed=int(rng.integers(1 << 30)), init_scale=2.0)
            out = forward_batch(model, rng.uniform(0, 1, size=(6, d)))
            assert ((out > 0.0) & (out < 1.0)).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            forward(zero_model(d=2), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="x must be a 2-d matrix of width 2, got shape"):
            forward_batch(zero_model(d=2), np.zeros((3, 5)))

    def test_bit_identical_to_reference(self, monkeypatch):
        rng = np.random.default_rng(8)
        for n, d, k in ((1, 1, 1), (3, 2, 1), (300, 6, 3), (2000, 33, 5), (1003, 4, 1),
                        (5001, 7, 8)):
            model = init_model(d, k, seed=n, init_scale=2.0)
            x = rng.uniform(-1, 2, size=(n, d))
            expected, _ = reference_forward(model.hidden_weights, model.hidden_biases,
                                            model.output_weights, model.output_bias, x)
            for _ in each_block_budget(monkeypatch):
                assert_same_bits(forward_batch(model, x), expected)

    def test_batch_matches_single(self):
        model = init_model(3, 2, seed=99)
        z = np.array([[0.1, 0.9, 0.4], [0.8, 0.2, 0.6]])
        batch = forward_batch(model, z)
        assert batch[0] == forward(model, z[0])
        assert batch[1] == forward(model, z[1])


class TestClassify:
    def test_exact_half_goes_negative(self):
        assert classify(zero_model(), np.array([0.7, 0.7])) == 0

    def test_above_half_goes_positive(self):
        # zero hidden layer, output bias ln(9): output sigmoid(ln 9) = 0.9
        model = MlpModel(2, 1, np.zeros((1, 2)), np.zeros(1), np.zeros(1),
                         math.log(9.0))
        assert forward(model, np.zeros(2)) == pytest.approx(0.9, abs=1e-15)
        assert classify(model, np.zeros(2)) == 1

    def test_nan_output_goes_negative_as_in_the_batch(self):
        z = [math.nan, 0.0, 0.0]
        model = init_model(3, 2, 0)
        assert classify(model, z) == 0
        assert classify_batch(model, np.array([z])).tolist() == [0]

    def test_batch_classification(self):
        model = zero_model()
        np.testing.assert_array_equal(
            classify_batch(model, np.zeros((3, 2))), [0, 0, 0])


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(20):
            d, k, n = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 9))
            model = init_model(d, k, seed=int(rng.integers(1 << 30)), init_scale=1.0)
            x = rng.uniform(0, 1, size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            worst = max(worst, max_relative_error(
                mse_gradients(model, x, y),
                finite_difference_gradients(model, x, y)))
        assert worst < 1e-5

    def test_bit_identical_to_reference(self, monkeypatch):
        rng = np.random.default_rng(2)
        for n, d, k in ((3, 2, 1), (300, 6, 3), (2000, 33, 5), (1003, 4, 1), (5001, 7, 8)):
            model = init_model(d, k, seed=n, init_scale=1.0)
            x = rng.uniform(0, 1, size=(n, d))
            y = rng.integers(0, 2, size=n).astype(float)
            loss, *expected = reference_gradients(
                model.hidden_weights, model.hidden_biases, model.output_weights,
                model.output_bias, x, y)
            for _ in each_block_budget(monkeypatch):
                for actual, want in zip(mse_gradients(model, x, y), expected):
                    assert_same_bits(actual, want)
                assert_same_bits(mse_loss(model, x, y), loss)

    def test_input_validation(self):
        model = zero_model(d=2, k=1)
        with pytest.raises(ValueError):
            mse_gradients(model, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="^one target per input row required$"):
            mse_loss(model, np.zeros((3, 2)), [0, 1])


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("epochs", math.inf), ("epochs", math.nan), ("epochs", 3.0),
        ("seed", 1.5), ("seed", -1), ("seed", False),
    ])
    def test_non_integer_or_negative_config_rejected(self, field, value):
        # These passed the config and then failed inside train.
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", True), ("learning_rate", "0.3"), ("learning_rate", math.nan),
        ("learning_rate", 0), ("init_scale", True), ("init_scale", math.inf),
        ("init_scale", -0.5),
    ])
    def test_non_number_or_non_positive_rate_and_scale_rejected(self, field, value):
        # True passed as 1.0 and trained.
        with pytest.raises(ValueError, match=f"{field} must be"):
            TrainConfig(**{field: value})

    def test_single_epoch_is_one_gradient_step(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(6, 3))
        y = rng.integers(0, 2, size=6).astype(float)
        config = TrainConfig(epochs=1, learning_rate=0.25, seed=11)
        start = init_model(3, 2, seed=11, init_scale=config.init_scale)
        gw, gb, gc, gc0 = finite_difference_gradients(start, x, y)
        stepped = train(x, y, 2, config)
        np.testing.assert_allclose(stepped.hidden_weights,
                                   start.hidden_weights - 0.25 * gw, atol=1e-9)
        np.testing.assert_allclose(stepped.hidden_biases,
                                   start.hidden_biases - 0.25 * gb, atol=1e-9)
        np.testing.assert_allclose(stepped.output_weights,
                                   start.output_weights - 0.25 * gc, atol=1e-9)
        assert stepped.output_bias == pytest.approx(start.output_bias - 0.25 * gc0,
                                                    abs=1e-9)

    def test_constant_targets_pull_outputs_up(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(20, 2))
        y = np.ones(20)
        model = train(x, y, 2, TrainConfig(epochs=2000, learning_rate=0.5, seed=1))
        assert forward_batch(model, x).mean() > 0.9

    def test_separable_data_reaches_perfect_accuracy(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(60, 2))
        y = (x[:, 0] > 0.5).astype(int)
        model = train(x, y, 4, TrainConfig(epochs=5000, learning_rate=0.5, seed=3))
        assert (classify_batch(model, x) == y).all()

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, size=(10, 2))
        y = rng.integers(0, 2, size=10)
        config = TrainConfig(epochs=50, learning_rate=0.3, seed=21)
        a = train(x, y, 3, config)
        b = train(x, y, 3, config)
        np.testing.assert_array_equal(a.hidden_weights, b.hidden_weights)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)
        assert a.output_bias == b.output_bias

    @pytest.mark.parametrize("n, d, k, learning_rate", [
        (3, 1, 1, 0.3), (300, 6, 3, 0.3), (2000, 33, 5, 2.0), (1003, 4, 1, 2.0),
        (5001, 7, 8, 2.0)])
    def test_weights_bit_identical_to_reference(self, n, d, k, learning_rate, monkeypatch):
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 1, size=(n, d))
        y = (rng.uniform(size=n) < 0.3).astype(float)
        config = TrainConfig(epochs=50, learning_rate=learning_rate, seed=k)
        w, b, c, c0 = reference_train(x, y, k, config)
        # Blocks of a row or two cost a loop turn per row and epoch: small n only.
        for _ in each_block_budget(monkeypatch, (7, 700) if n < 1000 else (700,)):
            model = train(x, y, k, config)
            assert_same_bits(model.hidden_weights, w)
            assert_same_bits(model.hidden_biases, b)
            assert_same_bits(model.output_weights, c)
            assert_same_bits(model.output_bias, c0)

    def test_the_step_holds_one_n_by_k_array(self):
        # The activations are overwritten by the hidden-layer deltas, and the
        # elementwise passes use block-sized scratch: about 1.7x n*k doubles
        # here for training, 1.5x for a forward pass.  Separate scratch and
        # delta arrays of n x k cost 3.5x and 2.3x.
        n, d, k = 20_000, 3, 8
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(n, d))
        y = (rng.uniform(size=n) < 0.3).astype(float)
        model = init_model(d, k, seed=1)
        for run in (lambda: train(x, y, k, TrainConfig(epochs=2)),
                    lambda: forward_batch(model, x)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * n * k * 8

    def test_non_finite_loss_reports_epoch(self):
        x = np.array([[np.nan, 1.0], [0.0, 1.0]])
        y = np.array([0.0, 1.0])
        with pytest.raises(FloatingPointError, match="epoch 1"):
            train(x, y, 2, TrainConfig(epochs=10, seed=0))

    def test_small_steps_never_increase_loss(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0, 1, size=(12, 3))
        y = rng.integers(0, 2, size=12).astype(float)
        config = TrainConfig(epochs=1, learning_rate=1e-3, seed=8)
        previous = mse_loss(init_model(3, 2, seed=8, init_scale=config.init_scale), x, y)
        for epochs in range(1, 8):
            model = train(x, y, 2, TrainConfig(epochs=epochs, learning_rate=1e-3, seed=8))
            current = mse_loss(model, x, y)
            assert current <= previous + 1e-12
            previous = current

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="target"):
            train(np.zeros((4, 2)), np.zeros(3), 1, TrainConfig())
        with pytest.raises(ValueError, match="hidden"):
            train(np.zeros((4, 2)), np.zeros(4), 0, TrainConfig())


class TestModelValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match="hidden_weights"):
            MlpModel(2, 2, np.zeros((1, 2)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="per neuron"):
            MlpModel(2, 2, np.zeros((2, 2)), np.zeros(3), np.zeros(2), 0.0)

    def test_finiteness_required(self):
        with pytest.raises(ValueError, match="finite"):
            MlpModel(1, 1, np.array([[np.nan]]), np.zeros(1), np.zeros(1), 0.0)

    @pytest.mark.parametrize("d_m, k, field", [
        (-1, 2, "input_dim"), (2, -1, "hidden_count"), (2, 1.5, "hidden_count")])
    def test_dimensions_checked_before_the_first_draw(self, d_m, k, field):
        # A negative size failed inside numpy's draw, naming neither field.
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            init_model(d_m, k, seed=0)

    def test_weights_immutable(self):
        model = init_model(2, 2, seed=0)
        with pytest.raises(ValueError):
            model.hidden_weights[0, 0] = 1.0


class TestSerialization:
    def test_roundtrip_is_exact(self):
        model = init_model(3, 2, seed=41)
        doc = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(doc)
        np.testing.assert_array_equal(restored.hidden_weights, model.hidden_weights)
        np.testing.assert_array_equal(restored.hidden_biases, model.hidden_biases)
        np.testing.assert_array_equal(restored.output_weights, model.output_weights)
        assert restored.output_bias == model.output_bias
        z = np.array([0.2, 0.4, 0.8])
        assert forward(restored, z) == forward(model, z)

    def test_version_check(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"format_version": 0})
