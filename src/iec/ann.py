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

The forward and backward passes exist once, in ``_Step``, which holds the
weights and writes into buffers it allocates once.  ``train`` builds one and
updates its weights in place every epoch; ``forward_batch`` and ``mse_gradients``
build a fresh one, and ``mse_loss`` squares the residuals of ``forward_batch``.
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
A step whose hidden layer spans more than one block runs the forward pass, its
two products included, and the ``delta_h`` pass in two parts, the rows before
and from ``mid`` (n // 2 rounded down to a multiple of 64), and sums ``grad_b``
beside ``grad_W``.  Where it may use another CPU, ``train`` forks a helper for
the second parts while the machine has a CPU for it.  The split follows the
shape alone, so a helper changes no bits.  Those bits are the expressions'
only where the kernel's 64-aligned row shares of a product carry the whole
product's bits: ``tests/test_ann.py`` checks that for k <= 32, and OpenBLAS's
SkylakeX kernels break it above k = 192.  Only a step whose helper may run maps
its state shared.  Every step works on C-ordered rows: the bits follow the values.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import multiprocessing
import os
import platform
from dataclasses import dataclass

import numpy as np

from iec.data import (fields, require_int, require_matrix, require_nonempty_matrix, require_number,
                      require_numbers, require_positive, require_vector, round_half_away)


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
        b = require_numbers("hidden_biases", self.hidden_biases, (k,))
        c = require_numbers("output_weights", self.output_weights, (k,))
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
        require_positive("learning_rate", self.learning_rate)
        require_positive("init_scale", self.init_scale)


def hidden_neuron_count(n: int, d_m: int) -> int:
    """Recommended hidden-layer width: round(sqrt(n / (d_m * ln n))), at least 1.

    Halves round away from zero; n >= 2 keeps ln n above 0.
    """
    n, d_m = require_int("n", n, 2), require_int("d_m", d_m, 1)
    return max(1, round_half_away(math.sqrt(n / (d_m * math.log(n)))))


# Cells per row block of the step's elementwise passes, so a block and its scratch stay in cache.
BLOCK_ELEMENTS = 1 << 14


def _cpu_count() -> int:
    """CPUs this process may fill with forked processes, the rule for every fork: one without
    ``fork``, in a process that ``multiprocessing`` started or in one of more threads (its
    parent's workers or BLAS threads fill the CPUs, and no fork copies a threaded process)."""
    tasks = "/proc/self/task"  # Linux's list of this process's threads
    if ("fork" not in multiprocessing.get_all_start_methods() or multiprocessing.parent_process()
            or os.path.isdir(tasks) and len(os.listdir(tasks)) > 1):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


# A helper needs x86-64 (each process sees the other's stores in order) and /proc/loadavg.
_HELPER_PLATFORM = platform.machine() == "x86_64" and os.path.isfile("/proc/loadavg")


def _spare_cpus() -> int:
    """This machine's CPUs less the tasks runnable on it at this moment, the caller among
    them (Linux's /proc/loadavg counts them): below 0 while tasks wait for a CPU."""
    with open("/proc/loadavg", "rb") as fh:
        return (os.cpu_count() or 1) - int(fh.read().split()[3].split(b"/")[0])


# Epochs in a row that end with tasks waiting for a CPU stop a helper; as many that end
# with a CPU spare start it again.
SWITCH_EPOCHS = 16


class _Step:
    """One forward/backward pass over a fixed n x d input, into buffers allocated once.

    ``w``, ``b``, ``c``, ``c0`` (the model's weights, copied in once), ``hidden`` and ``out``
    share one block of heap memory.  ``forward`` fills ``hidden`` and ``out``; ``backward``
    fills the gradients, returns the loss and the output-bias gradient and turns ``out`` into
    the output deltas (``delta``).  Each phase has two parts (``_part``), split at ``mid``,
    which the shape alone sets; only ``with step:`` checks whether a helper may run, and there
    maps the block shared and forks.
    """

    def __init__(self, x: np.ndarray, model: MlpModel):
        self.x, self.streak = np.ascontiguousarray(x), 0  # the bits then follow the values alone
        (n, d), k = self.x.shape, model.hidden_count
        self._lay_out(False, model.hidden_weights, model.hidden_biases, model.output_weights,
                      model.output_bias)
        self.grad_w = np.empty((k, d))
        self.scratch = np.empty((max(1, min(n, BLOCK_ELEMENTS // k)), k))
        self.residual, self.out_scratch = np.empty(n), np.empty(n)
        self.mid = n // 2 // 64 * 64 if n * k > BLOCK_ELEMENTS else n  # see the module docstring
        self.pid, self.parent = None, os.getpid()

    def _lay_out(self, shared: bool, *weights) -> None:
        """Copy ``weights`` (w, b, c, c0) into a new block, anonymous shared or heap memory."""
        n, (k, d) = len(self.x), weights[0].shape
        size = n * k + n + k * d + 4 * k + 1
        memory = mmap.mmap(-1, 8 * size + 16) if shared else np.empty(size + 2)
        self.shared = shared  # only where a helper may run
        cells = np.frombuffer(memory, np.float64, size)
        self.flags = np.frombuffer(memory, np.int64, 2, 8 * size)
        self.hidden = cells[:n * k].reshape(n, k)
        self.out = self.delta = cells[n * k:n * k + n]
        self.w = cells[n * k + n:n * k + n + k * d].reshape(k, d)
        self.b, self.c, self.grad_b, self.grad_c = cells[n * k + n + k * d:-1].reshape(4, k)
        self.c0 = cells[-1:]
        self.w[:], self.b[:], self.c[:], self.c0[:] = weights

    def __enter__(self):
        if self.mid < len(self.hidden) and _HELPER_PLATFORM and _cpu_count() > 1:
            self._lay_out(True, self.w, self.b, self.c, self.c0)  # from the block it replaces
            self._start()
        return self

    def __exit__(self, *exc):
        if self.pid is not None:  # stop the helper
            self.flags[0] = -1
            self._reaped(0)
            self.pid = None

    def _start(self) -> None:
        self.flags[:] = 0
        with contextlib.suppress(OSError):  # no process to spare: this process runs both parts
            self.pid = os.fork() or self._serve()  # the helper never returns

    def follow_load(self) -> None:
        """At an epoch's end, where a helper may run, stop or start it (see ``SWITCH_EPOCHS``)."""
        if self.shared:
            spare = _spare_cpus()  # the helper, where it runs, is one of the runnable tasks
            self.streak = self.streak + 1 if (spare < 0 if self.pid else spare > 0) else 0
            if self.streak == SWITCH_EPOCHS:
                self.streak = 0
                if self.pid:
                    self.__exit__()
                else:
                    self._start()

    def _reaped(self, options: int) -> bool:
        """Wait for the helper; one that the system reaped (SIGCHLD ignored) is gone too."""
        try:
            return os.waitpid(self.pid, options)[0] != 0
        except ChildProcessError:
            return True

    def _serve(self):
        """The helper: run each posted phase's second part until a post < 0 or its parent exits."""
        done = 0
        try:
            while os.getppid() == self.parent and (post := int(self.flags[0])) >= 0:
                if post != done:
                    self._part(done % 3, False)
                    self.flags[1] = done = post
                os.sched_yield()
        finally:
            os._exit(0)

    def _together(self, phase: int) -> None:
        """Run the first part of ``phase`` here and the second in the helper, or here after."""
        if self.pid is None:
            self._part(phase, True)
            self._part(phase, False)
            return
        post = self.flags[0] = self.flags[0] + 1
        self._part(phase, True)
        while self.flags[1] != post:
            if self._reaped(os.WNOHANG):
                self.pid = None
                raise RuntimeError("the training helper process exited")
            os.sched_yield()

    def _part(self, phase: int, first: bool) -> None:
        """Phase 0 or 1 over rows [0, mid) if ``first`` else [mid, n); phase 2: grad_W or grad_b."""
        lo, hi = (0, self.mid) if first else (self.mid, len(self.hidden))
        if lo == hi and phase < 2:  # no rows on this side of mid: skip the per-call set-up
            return
        if phase == 0:
            hidden = np.matmul(self.x[lo:hi], self.w.T, out=self.hidden[lo:hi])
            self._rows(0, lo, hi)
            out = np.matmul(hidden, self.c, out=self.out[lo:hi])
            out += self.c0
            _sigmoid(out, out, self.out_scratch[lo:hi])
        elif phase == 1:
            self._rows(1, lo, hi)
        elif first:
            np.matmul(self.hidden.T, self.x, out=self.grad_w)
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

    def forward(self) -> _Step:
        self._together(0)
        return self

    def backward(self, targets: np.ndarray) -> tuple[float, float]:
        # The products take the same operands as ((2/n) * r) * out * (1 - out).
        out, residual, scratch = self.out, self.residual, self.out_scratch
        np.subtract(out, targets, out=residual)
        loss = float(np.multiply(residual, residual, out=scratch).mean())
        residual *= 2.0 / len(out)
        np.subtract(1.0, out, out=scratch)
        delta = np.multiply(residual, out, out=self.delta)
        delta *= scratch
        np.matmul(self.hidden.T, delta, out=self.grad_c)
        grad_c0 = float(delta.sum())
        self._together(1)
        self._together(2)
        return loss, grad_c0


def forward_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network outputs in (0, 1), one per row of ``x``."""
    # A copy, as the step's outputs share one buffer with its hidden layer.
    return _Step(require_matrix("x", x, model.input_dim), model).forward().out.copy()


def forward(model: MlpModel, z) -> float:
    """Network output in (0, 1) for a single input vector.  The kernel's one-row path may give
    other last bits than this row's ``forward_batch`` output, which in turn can depend on the
    rest of its batch."""
    return float(forward_batch(model, require_vector("z", z, model.input_dim)[np.newaxis])[0])


def classify(model: MlpModel, z) -> int:
    """Decision rule: 1 when the network output is > 1/2, else 0 (NaN too, as in classify_batch)."""
    return int(forward(model, z) > 0.5)


def classify_batch(model: MlpModel, x: np.ndarray) -> np.ndarray:
    return (forward_batch(model, x) > 0.5).astype(np.int64)


def mse_loss(model: MlpModel, x: np.ndarray, targets) -> float:
    """Mean squared error of the network outputs against 0/1 targets."""
    x = require_nonempty_matrix("x", x, model.input_dim)
    targets = require_vector("targets", targets, len(x), np.float64)
    return float(np.mean((forward_batch(model, x) - targets) ** 2))


def mse_gradients(model: MlpModel, x: np.ndarray, targets):
    """Analytic gradient of mse_loss with respect to every parameter.

    Returns (grad_hidden_weights, grad_hidden_biases, grad_output_weights,
    grad_output_bias).
    """
    x = require_nonempty_matrix("x", x, model.input_dim)
    targets = require_vector("targets", targets, len(x), np.float64)
    step = _Step(x, model).forward()
    _, grad_c0 = step.backward(targets)
    return step.grad_w, step.grad_b.copy(), step.grad_c.copy(), grad_c0


def init_model(d_m: int, k: int, seed: int, init_scale: float = 0.5) -> MlpModel:
    """Seed-determined starting weights, uniform in [-init_scale, +init_scale].

    Draw order: hidden weights (k x d_m), hidden biases, output weights,
    output bias.
    """
    d_m, k = require_int("input_dim", d_m, 1), require_int("hidden_count", k, 1)
    init_scale = require_positive("init_scale", init_scale)
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
    x = require_nonempty_matrix("train_rows", train_rows)
    y = require_vector("targets", targets, len(x), np.float64)

    start = init_model(x.shape[1], k, config.seed, config.init_scale)
    lr = config.learning_rate

    with _Step(x, start) as step:
        for epoch in range(1, config.epochs + 1):
            step.forward()
            loss, gc0 = step.backward(y)
            if not math.isfinite(loss):
                raise FloatingPointError(f"non-finite training loss at epoch {epoch}")
            step.w -= lr * step.grad_w
            step.b -= lr * step.grad_b
            step.c -= lr * step.grad_c
            step.c0 -= lr * gc0
            step.follow_load()

    return MlpModel(x.shape[1], k, step.w, step.b, step.c, float(step.c0[0]))


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
