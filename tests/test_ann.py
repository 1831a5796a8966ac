import contextlib
import errno
import json
import math
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import time
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


# Where train may fork its helper: fork exists, on x86-64, with /proc to count threads.
HELPER_CAN_RUN = hasattr(os, "fork") and platform.machine() == "x86_64" and \
    os.path.isdir("/proc/self/task")
needs_helper = pytest.mark.skipif(not HELPER_CAN_RUN, reason="no training helper here")


def force_helper(patch):
    """Make the CPU rule give two CPUs, the process count as one thread on x86-64 and the
    machine show no spare CPU and no waiting task, so that train forks its helper wherever
    the hidden layer spans more than one block and keeps it to the end.  Returns the list
    of the process ids that train forks."""
    forks, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    patch.setattr(ann, "_cpu_count", lambda: 2)
    patch.setattr(ann, "_alone_on_x86", lambda: True)
    patch.setattr(ann, "_spare_cpus", lambda: 0)
    patch.setattr(os, "fork", counted_fork)
    return forks


def each_path(monkeypatch):
    """Run the loop body on the one-process path (the CPU rule says one CPU) and, where a
    helper can run, on the helper path."""
    with monkeypatch.context() as patch:
        patch.setattr(ann, "_cpu_count", lambda: 1)
        yield "one process"
    if HELPER_CAN_RUN:
        with monkeypatch.context() as patch:
            force_helper(patch)
            yield "helper"


def above_one_block(n=20_000, d=3, seed=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, size=(n, d)), (rng.uniform(size=n) < 0.3).astype(float)


def assert_same_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def assert_same_weights(actual: MlpModel, expected: MlpModel):
    for field in ("hidden_weights", "hidden_biases", "output_weights", "output_bias"):
        assert_same_bits(getattr(actual, field), getattr(expected, field))


def train_alone(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(ann, "_cpu_count", lambda: 1)
        return train(*args)


@contextlib.contextmanager
def at_most(seconds: int, what: str):
    """Raise TimeoutError where the block has not ended after ``seconds`` (a hand-over hangs)."""
    def expired(signum, frame):
        raise TimeoutError(f"{what} still waits after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def train_with_a_dying_helper(monkeypatch):
    """Train where the helper exits at its first part."""
    force_helper(monkeypatch)
    main, part = os.getpid(), ann._Step._part

    def die_in_the_helper(step, phase, first):
        if os.getpid() != main:
            os._exit(3)
        part(step, phase, first)

    monkeypatch.setattr(ann._Step, "_part", die_in_the_helper)
    with at_most(60, "train with a dead helper"):
        with pytest.raises(RuntimeError, match="the training helper process exited"):
            train(*above_one_block(), 2, TrainConfig(epochs=3))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_the_outputs_keep_no_hidden_layer_alive(self):
        # The step's outputs share one buffer with its n x k hidden layer.
        out = forward_batch(init_model(3, 4, seed=1), np.zeros((50, 3)))
        assert out.base is None and out.nbytes == 50 * 8


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
        with pytest.raises(ValueError,
                           match=r"^targets must be a vector of length 3, got shape \(2,\)$"):
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
            for _ in each_path(monkeypatch):
                model = train(x, y, k, config)
                assert_same_bits(model.hidden_weights, w)
                assert_same_bits(model.hidden_biases, b)
                assert_same_bits(model.output_weights, c)
                assert_same_bits(model.output_bias, c0)

    def test_the_step_holds_one_n_by_k_array(self, monkeypatch, mapped):
        # The activations are overwritten by the hidden-layer deltas, and the
        # elementwise passes use block-sized scratch: about 1.7x n*k doubles
        # here for training, 1.5x for a forward pass.  Separate scratch and
        # delta arrays of n x k cost 3.5x and 2.3x.  This is the one-process
        # path, which maps no memory, so tracemalloc sees all of it.
        monkeypatch.setattr(ann, "_cpu_count", lambda: 1)
        n, d, k = 20_000, 3, 8
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(n, d))
        y = (rng.uniform(size=n) < 0.3).astype(float)
        model = init_model(d, k, seed=1)
        for run in (lambda: train(x, y, k, TrainConfig(epochs=2)),
                    lambda: forward_batch(model, x)):
            mapped.clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert mapped == []
            assert n * k * 8 <= peak <= 2 * n * k * 8

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


def _train_where_fork_is_refused():
    def refuse():
        raise AssertionError("a process that multiprocessing started forked a helper")

    os.fork = refuse
    assert ann._cpu_count() == 1
    train(*above_one_block(), 2, TrainConfig(epochs=2))


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_importing_iec_before_numpy_sets_one_blas_thread():
    code = ("import iec, numpy, os; a = numpy.ones((400, 400)); a @ a; "
            "print(*(os.environ[v + '_NUM_THREADS'] for v in ('OPENBLAS', 'OMP', 'MKL')), "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(ann.__file__)),
                                         env.get("PYTHONPATH", "")])
    env["OMP_NUM_THREADS"] = "2"  # kept; OpenBLAS and MKL read their own variable first
    printed = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.split()
    assert printed == ["1", "2", "1", "1"]  # the last is the process's thread count


# Run with one BLAS thread: whether 64-aligned row shares of the forward products carry
# the whole products' bits, which a large step's weights need to equal the plain
# expressions' (a helper changes no bits either way: every large step splits).  k is
# drawn from 1-32; the SkylakeX kernels break this above k = 192.  Prints the first
# shape where the bits differ, with the BLAS core.
SPLIT_PREMISE = """
import ctypes
import numpy as np

def blas_core():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            getter = getattr(ctypes.CDLL(path), symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return "unknown"

rng = np.random.default_rng(28)
shapes = [(20_000, 17, 11), (24_001, 48, 1), (49_999, 64, 1), (20_001, 5, 4)]
shapes += [tuple(map(int, rng.integers((130, 1, 1), (40_000, 90, 33)))) for _ in range(56)]
for n, d, k in shapes:
    x, w = rng.uniform(size=(n, d)), rng.uniform(-0.5, 0.5, size=(k, d))
    h, c = rng.uniform(size=(n, k)), rng.uniform(-0.5, 0.5, size=k)
    mid = n // 2 // 64 * 64
    for name, a, b in (("x @ W.T", x, w.T), ("h @ c", h, c)):
        whole = np.matmul(a, b)
        shares = np.empty_like(whole)
        for lo, hi in ((0, mid), (mid, n)):
            np.matmul(a[lo:hi], b, out=shares[lo:hi])
        if not np.array_equal(whole.view(np.int64), shares.view(np.int64)):
            raise SystemExit(f"{name} split at row {mid} changed bits at n={n}, d={d}, k={k}"
                             f" under the BLAS core {blas_core()}")
"""


@needs_helper
def test_forward_products_split_at_64_rows_keep_the_bits():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", SPLIT_PREMISE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr.strip().splitlines()[-1:]


def check_stops_and_starts(monkeypatch, n, spare, forked, stopped):
    """Train with ``_spare_cpus`` giving ``spare`` epoch by epoch, over and over: the
    helper forks before the epochs in ``forked`` and stops after those in ``stopped``,
    and the weights keep the bits of training alone."""
    x, y = above_one_block(n, 5)
    config = TrainConfig(epochs=60, learning_rate=2.0, seed=3)
    alone = train_alone(monkeypatch, x, y, 4, config)
    force_helper(monkeypatch)
    checks, forks, stops, fork, stop = [], [], [], os.fork, ann._Step.__exit__

    def spare_cpus():
        checks.append(spare[len(checks) % len(spare)])
        return checks[-1]

    def recorded_fork():
        forks.append(len(checks))
        return fork()

    def recorded_stop(step, *exc):
        if step.pid is not None:
            stops.append(len(checks))
        stop(step, *exc)

    monkeypatch.setattr(ann, "_spare_cpus", spare_cpus)
    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(ann._Step, "__exit__", recorded_stop)
    with at_most(60, "train with a helper started again"):
        assert_same_weights(train(x, y, 4, config), alone)
    assert (forks, stops, len(checks)) == (forked, stopped, config.epochs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_helper
class TestHelper:
    @pytest.mark.parametrize("n, d, k", [
        (16385, 3, 1),  # k = 1 (the sum path), odd n, one row above one block of 16,384
        (4097, 5, 4),  # n x k 16,388, just above one block, with odd n
        # The shares meet at row 9,984 (n // 2 rounded down to a multiple of 64), inside a
        # block of 5,461 rows.
        (20000, 5, 3),
        (24001, 48, 1),  # k = 1 and wide rows, where x @ W.T is a matrix-vector product
        (49999, 64, 1),
        (100, 3, 200),  # n x k 20,000, just above one block, and the helper takes every row
        # k > 192, where the SkylakeX kernels give 64-aligned row shares of x @ W.T other
        # bits than the whole product.
        (1000, 60, 250),
    ])
    def test_the_helper_keeps_the_bits(self, n, d, k, monkeypatch):
        x, y = above_one_block(n, d, seed=n)
        config = TrainConfig(epochs=20, learning_rate=2.0, seed=k)
        alone = train_alone(monkeypatch, x, y, k, config)
        forks = force_helper(monkeypatch)
        shared = train(x, y, k, config)
        assert len(forks) == 1
        assert_same_weights(shared, alone)

    def test_the_split_follows_the_shape_alone(self, monkeypatch):
        # Training alone, training with a helper, a forward pass and one gradient all split
        # 4,097 x 4 at row 2,048, so no kernel can give the helper other bits.
        x, y = above_one_block(4097, 5)
        mids, part = set(), ann._Step._part

        def recorded_part(step, *args):
            mids.add(step.mid)
            part(step, *args)

        monkeypatch.setattr(ann._Step, "_part", recorded_part)
        train_alone(monkeypatch, x, y, 4, TrainConfig(epochs=2))
        forks = force_helper(monkeypatch)
        train(x, y, 4, TrainConfig(epochs=2))
        model = init_model(5, 4, seed=0)
        forward_batch(model, x)
        mse_gradients(model, x, y)
        assert len(forks) == 1 and mids == {2048}

    @pytest.mark.parametrize("spare, forked, stopped", [
        # Tasks wait for a CPU at the end of epochs 1-16: the helper stops after the 16th.
        # A CPU is spare at the end of epochs 17-32: it starts again after the 32nd, and
        # stops after the 48th.
        ([-1] * 16 + [1] * 16, [0, 32], [16, 48]),
        # Each 4th epoch ends with no task waiting, so no 16 in a row call for a stop.
        ([-1, -1, -1, 0], [0], [60]),
        # After the stop, epochs 17-19 end with a CPU spare and 20-32 with none (and no
        # task waiting), so the helper does not start again.
        ([-1] * 16 + [1] * 3 + [0] * 13, [0], [16]),
    ])
    def test_the_helper_stops_and_starts_with_the_spare_cpus(self, spare, forked, stopped,
                                                              monkeypatch):
        check_stops_and_starts(monkeypatch, 4097, spare, forked, stopped)

    def test_the_helper_stops_and_starts_where_its_share_starts_at_row_9984(self, monkeypatch):
        # n // 2 is 10,000; the helper's share starts at the multiple of 64 below it.
        check_stops_and_starts(monkeypatch, 20001, [-1] * 16 + [1] * 16, [0, 32], [16, 48])

    def test_a_failed_fork_trains_alone(self, monkeypatch):
        x, y = above_one_block(4097, 5)
        config = TrainConfig(epochs=20, learning_rate=2.0, seed=3)
        alone = train_alone(monkeypatch, x, y, 4, config)
        force_helper(monkeypatch)

        def no_process_to_spare():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_process_to_spare)
        assert_same_weights(train(x, y, 4, config), alone)

    def test_an_ignored_sigchld_changes_nothing(self, monkeypatch):
        # The system then reaps the helper itself, and waitpid finds no child.
        x, y = above_one_block(4097, 5)
        config = TrainConfig(epochs=20, learning_rate=2.0, seed=3)
        alone = train_alone(monkeypatch, x, y, 4, config)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with monkeypatch.context() as patch:
                forks = force_helper(patch)
                assert_same_weights(train(x, y, 4, config), alone)
                assert len(forks) == 1
            train_with_a_dying_helper(monkeypatch)
        finally:
            signal.signal(signal.SIGCHLD, previous)

    def test_only_training_forks(self, monkeypatch, mapped):
        # A forward pass or one gradient builds its step outside ``with``, so it runs alone
        # and maps no memory.
        forks = force_helper(monkeypatch)
        x, y = above_one_block(4097, 5)
        model = init_model(5, 4, seed=0)
        forward_batch(model, x)
        mse_gradients(model, x, y)
        mse_loss(model, x, y)
        forward(model, x[0])
        assert forks == [] and mapped == []
        train(x, y, 4, TrainConfig(epochs=2))
        assert len(forks) == 1 and len(mapped) == 1

    def test_one_block_trains_alone(self, monkeypatch):
        forks = force_helper(monkeypatch)
        train(*above_one_block(n=4096), 4, TrainConfig(epochs=2))  # 4,096 x 4: one block
        assert forks == []

    def test_rows_in_fortran_order_give_the_bits_of_c_order(self, monkeypatch):
        # k = 1, where x @ W.T is a matrix-vector product whose bits depend on the layout.
        x, y = above_one_block(16385, 3)
        rows = np.asfortranarray(x)
        config = TrainConfig(epochs=5, learning_rate=2.0, seed=3)
        alone = train_alone(monkeypatch, x, y, 1, config)
        forks = force_helper(monkeypatch)
        assert_same_weights(train(rows, y, 1, config), alone)
        assert len(forks) == 1
        model = init_model(3, 1, seed=5, init_scale=2.0)
        assert_same_bits(forward_batch(model, rows), forward_batch(model, x))
        for got, expected in zip(mse_gradients(model, rows, y), mse_gradients(model, x, y)):
            assert_same_bits(got, expected)

    def test_the_shared_mapping_holds_n_by_k_plus_n_doubles(self, monkeypatch, mapped):
        force_helper(monkeypatch)
        n, d, k = 20_000, 3, 8
        train(*above_one_block(n, d), k, TrainConfig(epochs=2))
        # W (k x d) is shared too, and the outputs use the slot of the output deltas.
        assert len(mapped) == 1 and mapped[0] <= 8 * (n * k + n + k * d + 5 * k)

    def test_no_child_is_left(self, monkeypatch):
        forks = force_helper(monkeypatch)
        x, y = above_one_block()
        train(x, y, 2, TrainConfig(epochs=3))
        x[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="epoch 1"):
            train(x, y, 2, TrainConfig(epochs=3))
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_process_that_multiprocessing_started_trains_alone(self, monkeypatch):
        # The child runs the real CPU rule, which gives one CPU there.
        monkeypatch.setattr(ann, "_alone_on_x86", lambda: True)
        child = multiprocessing.get_context("fork").Process(target=_train_where_fork_is_refused)
        child.start()
        child.join(60)
        assert child.exitcode == 0

    def test_a_dead_helper_raises(self, monkeypatch):
        train_with_a_dying_helper(monkeypatch)

    def test_trainings_on_more_processes_than_cpus_keep_the_bits(self, monkeypatch):
        # Three trainings at once, each with its helper: six processes share the CPUs,
        # so every hand-over may wait for a preempted partner.
        x, y = above_one_block(4097, 5)
        config = TrainConfig(epochs=30, learning_rate=2.0, seed=2)
        expected = train_alone(monkeypatch, x, y, 4, config)
        force_helper(monkeypatch)
        children = []
        for _ in range(3):
            pid = os.fork()
            if pid == 0:  # exits 0 where its weights carry the expected bits
                try:
                    got = train(x, y, 4, config)
                    same = all(np.array_equal(np.float64(getattr(got, f)).view(np.int64),
                                              np.float64(getattr(expected, f)).view(np.int64))
                               for f in ("hidden_weights", "hidden_biases", "output_weights",
                                         "output_bias"))
                    os._exit(0 if same else 1)
                finally:
                    os._exit(2)
            children.append(pid)
        deadline, codes = time.monotonic() + 120, {}
        while len(codes) < len(children) and time.monotonic() < deadline:
            for pid in set(children) - set(codes):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    codes[pid] = os.waitstatus_to_exitcode(status)
            time.sleep(0.01)
        for pid in set(children) - set(codes):  # still waiting: a hand-over hangs
            os.kill(pid, signal.SIGKILL)
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        assert sorted(codes.values()) == [0, 0, 0]

    def test_the_helper_exits_when_its_parent_is_gone(self, monkeypatch):
        force_helper(monkeypatch)
        x, _ = above_one_block(4097, 5)
        read, write = os.pipe()
        middle = os.fork()
        if middle == 0:  # forks a helper, then exits without stopping it
            try:
                step = ann._Step(x, init_model(5, 4, seed=0)).__enter__()
                os.write(write, str(step.pid).encode())
            finally:
                os._exit(0)
        os.close(write)
        os.waitpid(middle, 0)  # reaped first, so that no failure here leaves it unreaped
        helper = int(os.read(read, 32))
        os.close(read)
        deadline = time.monotonic() + 30
        while _running(helper) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _running(helper)


class TestModelValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match="hidden_weights"):
            MlpModel(2, 2, np.zeros((1, 2)), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="hidden_biases must be 2 finite values"):
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
