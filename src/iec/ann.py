"""One-hidden-layer sigmoid network trained by full-batch gradient descent.

The network computes sigmoid(c . sigmoid(W z + b) + c0); the outer sigmoid
squashes the hidden-layer combination into (0, 1) so the 0.5 decision
threshold is meaningful.  Training minimizes mean squared error against 0/1
targets for a fixed number of epochs with a fixed learning rate, which keeps
runs deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from iec.data import round_half_away


def sigmoid(x):
    """Logistic function, evaluated without overflow for large |x|."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True, eq=False)
class MlpModel:
    """Weights of a d_m -> k -> 1 sigmoid network."""

    input_dim: int
    hidden_count: int
    hidden_weights: np.ndarray
    hidden_biases: np.ndarray
    output_weights: np.ndarray
    output_bias: float

    def __post_init__(self):
        if self.input_dim < 1 or self.hidden_count < 1:
            raise ValueError("input_dim and hidden_count must be >= 1")
        w = np.array(self.hidden_weights, dtype=np.float64)
        b = np.array(self.hidden_biases, dtype=np.float64)
        c = np.array(self.output_weights, dtype=np.float64)
        if w.shape != (self.hidden_count, self.input_dim):
            raise ValueError(f"hidden_weights must be {self.hidden_count} x {self.input_dim}")
        if b.shape != (self.hidden_count,) or c.shape != (self.hidden_count,):
            raise ValueError("hidden_biases and output_weights must have one entry per neuron")
        if not (np.isfinite(w).all() and np.isfinite(b).all() and np.isfinite(c).all()
                and math.isfinite(self.output_bias)):
            raise ValueError("network weights must be finite")
        for arr in (w, b, c):
            arr.setflags(write=False)
        object.__setattr__(self, "hidden_weights", w)
        object.__setattr__(self, "hidden_biases", b)
        object.__setattr__(self, "output_weights", c)
        object.__setattr__(self, "output_bias", float(self.output_bias))


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 2000
    learning_rate: float = 0.3
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not (math.isfinite(self.init_scale) and self.init_scale > 0):
            raise ValueError("init_scale must be positive and finite")


def hidden_neuron_count(n: int, d_m: int) -> int:
    """Recommended hidden-layer width: round(sqrt(n / (d_m * ln n))), at least 1.

    Halves round away from zero.
    """
    if n < 3:
        raise ValueError("need n >= 3 training rows")
    if d_m < 1:
        raise ValueError("d_m must be >= 1")
    return max(1, round_half_away(math.sqrt(n / (d_m * math.log(n)))))


def _forward_raw(w, b, c, c0, x):
    hidden = sigmoid(x @ w.T + b)
    return sigmoid(hidden @ c + c0), hidden


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network outputs in (0, 1), one per row of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(f"inputs must be n x {model.input_dim}")
    out, _ = _forward_raw(model.hidden_weights, model.hidden_biases,
                          model.output_weights, model.output_bias, x)
    return out


def forward(model: MlpModel, z) -> float:
    """Network output in (0, 1) for a single input vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (model.input_dim,):
        raise ValueError(f"input must have length {model.input_dim}")
    return float(forward_batch(model, z[np.newaxis, :])[0])


def classify(model: MlpModel, z) -> int:
    """Decision rule: 0 when the network output is <= 1/2, else 1."""
    return 0 if forward(model, z) <= 0.5 else 1


def classify_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return (forward_batch(model, x) > 0.5).astype(np.int64)


def mse_loss(model: MlpModel, x: np.ndarray, targets) -> float:
    """Mean squared error of the network outputs against 0/1 targets."""
    targets = np.asarray(targets, dtype=np.float64)
    out = forward_batch(model, x)
    if targets.shape != out.shape:
        raise ValueError("one target per input row required")
    return float(np.mean((out - targets) ** 2))


def _gradients_raw(w, b, c, c0, x, targets):
    n = x.shape[0]
    out, hidden = _forward_raw(w, b, c, c0, x)
    delta_out = (2.0 / n) * (out - targets) * out * (1.0 - out)
    grad_c = hidden.T @ delta_out
    grad_c0 = float(delta_out.sum())
    delta_hidden = np.outer(delta_out, c) * hidden * (1.0 - hidden)
    grad_w = delta_hidden.T @ x
    grad_b = delta_hidden.sum(axis=0)
    loss = float(np.mean((out - targets) ** 2))
    return loss, grad_w, grad_b, grad_c, grad_c0


def mse_gradients(model: MlpModel, x: np.ndarray, targets):
    """Analytic gradient of mse_loss with respect to every parameter.

    Returns (grad_hidden_weights, grad_hidden_biases, grad_output_weights,
    grad_output_bias).
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim or targets.shape != (x.shape[0],):
        raise ValueError("inputs must be n x input_dim with one target per row")
    _, gw, gb, gc, gc0 = _gradients_raw(model.hidden_weights, model.hidden_biases,
                                        model.output_weights, model.output_bias,
                                        x, targets)
    return gw, gb, gc, gc0


def init_model(d_m: int, k: int, seed: int, init_scale: float = 0.5) -> MlpModel:
    """Seed-determined starting weights, uniform in [-init_scale, +init_scale].

    Draw order: hidden weights (k x d_m), hidden biases, output weights,
    output bias.
    """
    rng = np.random.default_rng(seed)
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
    x = np.asarray(train_rows, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("training rows must form a 2-d matrix")
    if y.shape != (x.shape[0],):
        raise ValueError("one target per training row required")
    if k < 1:
        raise ValueError("hidden neuron count must be >= 1")

    start = init_model(x.shape[1], k, config.seed, config.init_scale)
    w = start.hidden_weights.copy()
    b = start.hidden_biases.copy()
    c = start.output_weights.copy()
    c0 = start.output_bias
    lr = config.learning_rate

    for epoch in range(1, config.epochs + 1):
        loss, gw, gb, gc, gc0 = _gradients_raw(w, b, c, c0, x, y)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
        w -= lr * gw
        b -= lr * gb
        c -= lr * gc
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
    if d.get("format_version") != 1:
        raise ValueError(f"unsupported network format version {d.get('format_version')!r}")
    k = int(d["hidden_count"])
    dim = int(d["input_dim"])
    return MlpModel(
        dim, k,
        np.array(d["hidden_weights"], dtype=np.float64).reshape(k, dim),
        np.array(d["hidden_biases"], dtype=np.float64),
        np.array(d["output_weights"], dtype=np.float64),
        float(d["output_bias"]),
    )
