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
buffers it allocates once, at construction.  ``train`` builds one and
reuses it every epoch; ``forward_batch`` and ``mse_gradients`` build a
fresh one, and ``mse_loss`` squares the residuals of ``forward_batch``.
Each product keeps the evaluation order of the expressions

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
Where it may use another CPU, ``train`` forks a helper that takes half the
rows of both row passes, and ``grad_b`` beside ``grad_W``, while the machine
has a CPU for it; every BLAS call and other reduction stays whole here, so
each cell gets the same bits.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import platform
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


def _cpu_count() -> int:
    """CPUs this process may fill with forked processes: one without ``fork`` or in a
    process that ``multiprocessing`` started (its parent's workers fill the CPUs)."""
    if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.parent_process():
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _alone_on_x86() -> bool:
    """Whether this process runs one thread (BLAS worker threads would compete with a
    helper) on x86-64, where each process sees the other's stores in order."""
    tasks = "/proc/self/task"  # Linux's list of this process's threads
    return platform.machine() == "x86_64" and os.path.isdir(tasks) and len(os.listdir(tasks)) == 1


def _spare_cpus() -> int:
    """This machine's CPUs less the tasks runnable on it at this moment, the caller among
    them (Linux's /proc/loadavg counts them): below 0 while tasks wait for a CPU."""
    with open("/proc/loadavg", "rb") as fh:
        return (os.cpu_count() or 1) - int(fh.read().split()[3].split(b"/")[0])


# Epochs in a row that end with tasks waiting for a CPU stop a helper; as many that end
# with a CPU spare start it again.
SWITCH_EPOCHS = 16


class _Step:
    """One forward/backward pass over a fixed n x d input, into buffers
    allocated once.

    ``forward`` leaves the hidden activations in ``hidden`` and the outputs
    in ``out``; ``backward`` then fills ``grad_w``, ``grad_b`` and ``grad_c``
    for the weights of that forward pass and returns the loss and the
    output-bias gradient.  Each phase (two row passes, then ``grad_W`` beside
    ``grad_b``) runs through ``_together``.  A ``shared`` step forks a helper in
    ``with step:``, which takes its ``_share`` from ``flags[0]`` and answers in ``flags[1]``;
    ``_together`` stops and starts it as ``_spare_cpus`` says at the end of each epoch.
    """

    def __init__(self, x: np.ndarray, k: int, shared: bool = False):
        n, self.x, self.streak = len(x), x, 0
        size = n * k + n + 4 * k
        memory = mmap.mmap(-1, 8 * size + 16) if shared else None
        cells = np.frombuffer(memory, np.float64, size) if shared else np.empty(size)
        self.flags = np.frombuffer(memory, np.int64, 2, 8 * size) if shared else None
        self.hidden = cells[:n * k].reshape(n, k)
        self.delta = cells[n * k:n * k + n]
        self.b, self.c, self.grad_b, self.grad_c = cells[n * k + n:].reshape(4, k)
        self.grad_w = np.empty((k, x.shape[1]))
        self.scratch = np.empty((max(1, min(n, BLOCK_ELEMENTS // k)), k))
        self.out, self.out_scratch = np.empty(n), np.empty(n)
        self.half, self.pid, self.parent = n, None, os.getpid()

    def __enter__(self):
        if self.flags is not None:
            self.flags[:], self.half = 0, len(self.hidden) // 2
            try:
                self.pid = os.fork() or self._serve()  # the helper never returns
            except OSError:  # no process to spare: train alone
                self.half = len(self.hidden)
        return self

    def __exit__(self, *exc):
        if self.pid is not None:
            self.flags[0] = -1
            self._reaped(0)
            self.pid, self.half = None, len(self.hidden)

    def _reaped(self, options: int) -> bool:
        """Wait for the helper; one that the system reaped (SIGCHLD ignored) is gone too."""
        try:
            return os.waitpid(self.pid, options)[0] != 0
        except ChildProcessError:
            return True

    def _serve(self):
        """The helper: run each posted share until a negative post or until the parent is gone."""
        done = 0
        try:
            while os.getppid() == self.parent and (post := int(self.flags[0])) >= 0:
                if post != done:
                    self._share(post % 3)
                    self.flags[1] = done = post
                os.sched_yield()
        finally:
            os._exit(0)

    def _together(self, phase: int, mine) -> None:
        """Run ``mine`` here and the share of ``phase`` in the helper, or here after ``mine``."""
        if self.pid is None:  # then mine() spans every row, and grad_b is all that is left
            mine()
            if phase == 2:
                self._share(phase)
        else:
            post = self.flags[0] = (self.flags[0] // 3 + 1) * 3 + phase
            mine()
            while self.flags[1] != post:
                if self._reaped(os.WNOHANG):
                    self.pid = None
                    raise RuntimeError("the training helper process exited")
                os.sched_yield()
        if phase == 2 and self.flags is not None:  # an epoch's end, with the helper's share done
            spare = _spare_cpus()  # the helper, where it runs, is one of the runnable tasks
            self.streak = self.streak + 1 if (spare < 0 if self.pid else spare > 0) else 0
            if self.streak == SWITCH_EPOCHS:
                self.streak = 0
                if self.pid:
                    self.__exit__()
                else:
                    self.__enter__()

    def _share(self, phase: int) -> None:
        """The second half of the rows of row pass 0 or 1, or ``grad_b`` (phase 2)."""
        if phase < 2:
            self._rows(phase, self.half, len(self.hidden))
        elif self.hidden.shape[1] == 1:
            np.sum(self.hidden, axis=0, out=self.grad_b)
        else:
            np.einsum("ij->j", self.hidden, out=self.grad_b)

    def _rows(self, phase: int, lo: int, hi: int) -> None:
        """Row pass ``phase`` over hidden rows ``lo`` to ``hi`` in blocks, ``b`` or ``c`` tiled on
        each row (faster than broadcast): 0 adds ``b`` and the sigmoid, 1 writes ``delta_h``."""
        rows = len(self.scratch)
        v_rows = np.tile((self.b, self.c)[phase], (rows, 1))
        for start in range(lo, hi, rows):
            block = self.hidden[start:min(start + rows, hi)]
            scratch, v = self.scratch[:len(block)], v_rows[:len(block)]
            if phase == 0:
                block += v
                _sigmoid(block, block, scratch)
                continue
            # A product of two doubles has the same bits either way round.
            np.multiply(np.repeat(self.delta[start:start + len(block)], block.shape[1])
                        .reshape(block.shape), v, out=scratch)
            scratch *= block
            np.subtract(1.0, block, out=block)
            block *= scratch

    def forward(self, w, b, c, c0: float) -> np.ndarray:
        self.b[:], self.c[:] = b, c
        hidden = np.matmul(self.x, w.T, out=self.hidden)
        self._together(0, lambda: self._rows(0, 0, self.half))
        out = np.matmul(hidden, self.c, out=self.out)
        out += c0
        return _sigmoid(out, out, self.out_scratch)

    def backward(self, targets: np.ndarray) -> tuple[float, float]:
        out, hidden = self.out, self.hidden
        residual = np.subtract(out, targets, out=self.delta)
        loss = float(np.multiply(residual, residual, out=self.out_scratch).mean())
        # The loss has used the residual; it is scaled into delta in place.
        delta = np.multiply(residual, 2.0 / len(out), out=self.delta)
        delta *= out
        delta *= np.subtract(1.0, out, out=self.out_scratch)
        np.matmul(hidden.T, delta, out=self.grad_c)
        grad_c0 = float(delta.sum())
        self._together(1, lambda: self._rows(1, 0, self.half))
        self._together(2, lambda: np.matmul(hidden.T, self.x, out=self.grad_w))
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
    return step.grad_w, step.grad_b.copy(), step.grad_c.copy(), grad_c0


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

    Inputs are expected to be scaled to [0, 1].  Raises FloatingPointError if the loss
    goes non-finite, reporting the epoch, and RuntimeError if the helper process dies.
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

    with _Step(x, k, len(x) * k > BLOCK_ELEMENTS and _cpu_count() > 1 and _alone_on_x86()) as step:
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
