"""One-hidden-layer sigmoid network trained by full-batch gradient descent.

The network computes sigmoid(c . sigmoid(W z + b) + c0); the outer sigmoid
squashes the hidden-layer combination into (0, 1) so the 0.5 decision
threshold is meaningful.  Training minimizes mean squared error against 0/1
targets for a fixed number of epochs with a fixed learning rate, which keeps
runs deterministic for a given seed.

``sigmoid`` is branch-free: with e = exp(-|x|) it divides max(e, [x >= 0])
by 1 + e, which is 1/(1+e) where x >= 0 and e/(1+e) elsewhere.  These are
the two textbook forms, so the result carries the same bits as evaluating
each on its own half of the input; exp never overflows and NaN stays NaN.

The forward and backward passes exist once, in ``_Step``, which writes into
buffers it allocates once (the gradient buffers at its first backward
pass).  ``train`` builds one and reuses it every epoch; ``forward_batch``
and ``mse_gradients`` build a fresh one, and ``mse_loss`` squares the
residuals of ``forward_batch``.  Each product keeps the evaluation order of
the expressions

    hidden = sigmoid(x @ W.T + b),  out = sigmoid(hidden @ c + c0)
    r = out - y,  loss = mean(r ** 2)
    delta = ((2/n) * r) * out * (1 - out)
    grad_c = hidden.T @ delta,  grad_c0 = sum(delta)
    delta_h = (outer(delta, c) * hidden) * (1 - hidden)
    grad_W = delta_h.T @ x,  grad_b = delta_h.sum(axis=0)

on the same memory layouts, so the buffered step gives the bits those
expressions give.  Reordering any of them (a BLAS ``ones @ delta_h`` in
place of the row-by-row column sum, say) changes the last bits.

``hidden`` is the step's only n x k array: ``backward`` writes ``delta_h``
over it once ``grad_c`` is taken, as nothing reads the activations later.
The elementwise passes over it (``+ b``, the sigmoid and the four passes of
``delta_h``) run in row blocks of at most ``BLOCK_ELEMENTS`` cells, with
block-sized scratch and with ``b``, ``c`` and ``delta`` laid out at the
block's shape; each cell still gets the same one operation, so the same
bits.  For k >= 2, ``einsum("ij->j")`` adds ``delta_h``'s rows one after
another, the order of ``sum(axis=0)`` on a C-ordered array, in fewer
passes; for k = 1 the two pair the terms differently, so ``sum`` stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from iec.data import (fields, require_int, require_matrix, require_number, require_numbers,
                      round_half_away)


def sigmoid(x):
    """Logistic function, evaluated without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    return _sigmoid(x, np.empty_like(x), np.empty_like(x))


def _sigmoid(x, out, e):
    """Branch-free logistic of ``x`` into ``out`` (which may be ``x``), using
    ``e`` as scratch.  ``x`` is read before ``out`` is written."""
    np.copysign(x, -1.0, out=e)
    np.exp(e, out=e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Weights of a d_m -> k -> 1 sigmoid network.  ``hidden_weights`` is a k x d_m array,
    or, as a model file holds it, a list of its items row by row."""

    input_dim: int
    hidden_count: int
    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float

    def __post_init__(self):
        k = require_int("hidden_count", self.hidden_count, 1)
        w = require_numbers("hidden_weights", self.hidden_weights,
                            (k, require_int("input_dim", self.input_dim, 1)))
        b = require_numbers("hidden_biases", self.hidden_biases)
        c = require_numbers("output_weights", self.output_weights)
        if b.shape != (k,) or c.shape != (k,):
            raise ValueError("hidden_biases and output_weights must have one entry per neuron")
        for name, arr in (("hidden_weights", w), ("hidden_biases", b), ("output_weights", c)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "output_bias", require_number("output_bias", self.output_bias))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 0.3
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        require_int("epochs", self.epochs, 1)
        require_int("seed", self.seed, 0)
        for name in ("learning_rate", "init_scale"):
            if require_number(name, getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


def hidden_neuron_count(n: int, d_m: int) -> int:
    """Recommended hidden-layer width: round(sqrt(n / (d_m * ln n))), at least 1.

    Halves round away from zero; n >= 2 keeps ln n above 0.
    """
    n, d_m = require_int("n", n, 2), require_int("d_m", d_m, 1)
    return max(1, round_half_away(math.sqrt(n / (d_m * math.log(n)))))


# Cells per row block of the step's elementwise passes, so a block and its scratch stay in cache.
BLOCK_ELEMENTS = 1 << 14


class _Step:
    """One forward/backward pass over a fixed n x d input, into buffers
    allocated once.

    ``forward`` leaves the hidden activations in ``hidden`` and the outputs
    in ``out``; ``backward`` then fills ``grad_w``, ``grad_b`` and ``grad_c``
    for the weights of that forward pass and returns the loss and the
    output-bias gradient.  The gradient buffers are allocated by the first
    ``backward``, so forward-only callers never hold them.
    """

    def __init__(self, x: np.ndarray, k: int):
        n, _ = x.shape
        self.x = x
        self.hidden = np.empty((n, k))
        self.scratch = np.empty((max(1, min(n, BLOCK_ELEMENTS // k)), k))
        self.out = np.empty(n)
        self.out_scratch = np.empty(n)
        self.grad_w = None

    def _blocks(self, v):
        """Row blocks of ``hidden``, each with scratch of its shape and the k
        values ``v`` on each of its rows, where a broadcast operand is slower."""
        rows = len(self.scratch)
        v_rows = np.tile(v, (rows, 1))
        for lo in range(0, len(self.hidden), rows):
            block = self.hidden[lo:lo + rows]
            yield lo, block, self.scratch[:len(block)], v_rows[:len(block)]

    def forward(self, w, b, c, c0: float) -> np.ndarray:
        self.c = c
        hidden = np.matmul(self.x, w.T, out=self.hidden)
        for _, block, scratch, b_rows in self._blocks(b):
            block += b_rows
            _sigmoid(block, block, scratch)
        out = np.matmul(hidden, c, out=self.out)
        out += c0
        return _sigmoid(out, out, self.out_scratch)

    def backward(self, targets: np.ndarray) -> tuple[float, float]:
        out, hidden = self.out, self.hidden
        if self.grad_w is None:
            self.delta = np.empty_like(out)
            self.grad_w = np.empty((hidden.shape[1], self.x.shape[1]))
            self.grad_b = np.empty(hidden.shape[1])
            self.grad_c = np.empty(hidden.shape[1])
        residual = np.subtract(out, targets, out=self.delta)
        loss = float(np.multiply(residual, residual, out=self.out_scratch).mean())
        # The loss has used the residual; it is scaled into delta in place.
        delta = np.multiply(residual, 2.0 / len(out), out=self.delta)
        delta *= out
        delta *= np.subtract(1.0, out, out=self.out_scratch)
        np.matmul(hidden.T, delta, out=self.grad_c)
        grad_c0 = float(delta.sum())
        # delta_h over hidden; a product of two doubles has the same bits either way round.
        for lo, block, scratch, c_rows in self._blocks(self.c):
            np.multiply(np.repeat(delta[lo:lo + len(block)], block.shape[1]).reshape(block.shape),
                        c_rows, out=scratch)
            scratch *= block
            np.subtract(1.0, block, out=block)
            block *= scratch
        np.matmul(hidden.T, self.x, out=self.grad_w)
        if hidden.shape[1] == 1:
            np.sum(hidden, axis=0, out=self.grad_b)
        else:
            np.einsum("ij->j", hidden, out=self.grad_b)
        return loss, grad_c0


def _run_step(model: MlpModel, x: np.ndarray) -> _Step:
    """A fresh step with the forward pass of ``model`` over ``x`` done."""
    step = _Step(x, model.hidden_count)
    step.forward(model.hidden_weights, model.hidden_biases,
                 model.output_weights, model.output_bias)
    return step


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network outputs in (0, 1), one per row of ``x``."""
    return _run_step(model, require_matrix("x", x, model.input_dim)).out


def forward(model: MlpModel, z) -> float:
    """Network output in (0, 1) for a single input vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.input_dim,):
        raise ValueError(f"input must have length {model.input_dim}")
    return float(forward_batch(model, z[np.newaxis, :])[0])


def classify(model: MlpModel, z) -> int:
    """Decision rule: 1 when the network output is > 1/2, else 0 (NaN too, as in classify_batch)."""
    return int(forward(model, z) > 0.5)


def classify_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return (forward_batch(model, x) > 0.5).astype(np.int64)


def mse_loss(model: MlpModel, x: np.ndarray, targets) -> float:
    """Mean squared error of the network outputs against 0/1 targets."""
    targets = np.asarray(targets, dtype=np.float64)
    out = forward_batch(model, x)
    if targets.shape != out.shape:
        raise ValueError("one target per input row required")
    return float(np.mean((out - targets) ** 2))


def mse_gradients(model: MlpModel, x: np.ndarray, targets):
    """Analytic gradient of mse_loss with respect to every parameter.

    Returns (grad_hidden_weights, grad_hidden_biases, grad_output_weights,
    grad_output_bias).
    """
    x = require_matrix("x", x, model.input_dim)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (x.shape[0],):
        raise ValueError("one target per input row required")
    step = _run_step(model, x)
    _, grad_c0 = step.backward(targets)
    return step.grad_w, step.grad_b, step.grad_c, grad_c0


def init_model(d_m: int, k: int, seed: int, init_scale: float = 0.5) -> MlpModel:
    """Seed-determined starting weights, uniform in [-init_scale, +init_scale].

    Draw order: hidden weights (k x d_m), hidden biases, output weights,
    output bias.
    """
    d_m, k = require_int("input_dim", d_m, 1), require_int("hidden_count", k, 1)
    rng = np.random.default_rng(require_int("seed", seed, 0))
    return MlpModel(
        input_dim=d_m,
        hidden_count=k,
        hidden_weights=rng.uniform(-init_scale, init_scale, size=(k, d_m)),
        hidden_biases=rng.uniform(-init_scale, init_scale, size=k),
        output_weights=rng.uniform(-init_scale, init_scale, size=k),
        output_bias=float(rng.uniform(-init_scale, init_scale)),
    )


def train(train_rows: np.ndarray, targets, k: int, config: TrainConfig) -> MlpModel:
    """Full-batch gradient descent on MSE for exactly ``config.epochs`` epochs.

    Inputs are expected to be scaled to [0, 1].  Raises FloatingPointError
    if the loss goes non-finite, reporting the epoch.
    """
    x = require_matrix("train_rows", train_rows)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0],):
        raise ValueError("one target per training row required")

    start = init_model(x.shape[1], k, config.seed, config.init_scale)
    w = start.hidden_weights.copy()
    b = start.hidden_biases.copy()
    c = start.output_weights.copy()
    c0 = start.output_bias
    lr = config.learning_rate

    step = _Step(x, k)
    for epoch in range(1, config.epochs + 1):
        step.forward(w, b, c, c0)
        loss, gc0 = step.backward(y)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
        w -= lr * step.grad_w
        b -= lr * step.grad_b
        c -= lr * step.grad_c
        c0 -= lr * gc0

    return MlpModel(x.shape[1], k, w, b, c, c0)


def model_to_dict(model: MlpModel) -> dict:
    return {
        "format_version": 1,
        "input_dim": model.input_dim,
        "hidden_count": model.hidden_count,
        "hidden_weights": [float(v) for v in model.hidden_weights.ravel()],
        "hidden_biases": [float(v) for v in model.hidden_biases],
        "output_weights": [float(v) for v in model.output_weights],
        "output_bias": model.output_bias,
    }


def model_from_dict(d: dict) -> MlpModel:
    require_int("format_version", *fields(d, "net", "format_version"), 1, 1)
    return MlpModel(*fields(d, "net", "input_dim", "hidden_count", "hidden_weights",
                            "hidden_biases", "output_weights", "output_bias"))
