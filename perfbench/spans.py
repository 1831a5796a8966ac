"""Span tracing from outside the program, by wrapping public iec functions.

While a ``Tracer`` is installed, every module attribute under ``iec`` that
holds one of the functions in ``LAYERS`` (including names other modules
imported directly, such as ``iec.cli.load_csv``) is replaced by a wrapper
that records a span: name, start, end, parent, and the operation id shared
by every span of one CLI call.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from dataclasses import dataclass, field

# Layer name -> (module, function names) of the public calls it covers.
LAYERS = {
    "data.load_csv": ("iec.data", ("load_csv",)),
    "data.split": ("iec.data", ("repeated_eval_protocol", "stratified_split")),
    "data.scale": ("iec.data", ("min_max_fit_matrix", "min_max_apply_matrix")),
    "hddt.grow_tree": ("iec.hddt", ("grow_tree",)),
    "hddt.predict": ("iec.hddt", ("predict",)),
    "ann.train": ("iec.ann", ("train",)),
    "ann.classify_batch": ("iec.ann", ("classify_batch",)),
    "ensemble.fit": ("iec.ensemble", ("fit",)),
    "ensemble.predict": ("iec.ensemble", ("predict",)),
    "metrics": ("iec.metrics", ("confusion", "report", "mean_report",
                                "zero_denominator_metrics", "format_table")),
}
ROOT_SPAN = "cli"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    # Arguments or results kept for per-layer counts, read after timing ends.
    info: dict = field(default_factory=dict)


def _info(name: str, args: tuple, result) -> dict:
    """Counts for one call; ``args`` are its positional arguments."""
    if name == "hddt.grow_tree":
        return {"tree": result}
    if name == "hddt.predict":
        return {"rows": len(args[1])}
    if name == "ann.train":
        x, _, k, config = args[:4]
        return {"n": len(x), "d_m": len(x[0]), "k": k, "epochs": config.epochs}
    if name == "data.load_csv":
        return {"rows": result.n}
    return {}


class Tracer:
    """Collects the spans of the CLI calls run inside ``operation``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._op, len(self.spans), parent, name, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = _info(name, signature.bind(*args, **kwargs).args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _install(self) -> None:
        """Wrap every reference to a traced function in the iec modules."""
        targets = {}
        for layer, (module, names) in LAYERS.items():
            for fn_name in names:
                targets[id(getattr(sys.modules[module], fn_name))] = layer
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "iec" or mod_name.startswith("iec.")):
                continue
            for attr, value in list(vars(module).items()):
                layer = targets.get(id(value))
                if layer is not None and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(layer, value))

    def _uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextlib.contextmanager
    def operation(self, op: int):
        """Trace one CLI call: wrappers in place and a root span around it."""
        self._install()
        self._op = op
        root = Span(op, len(self.spans), None, ROOT_SPAN, time.perf_counter())
        self.spans.append(root)
        self._stack.append(root)
        try:
            yield
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
            self._uninstall()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per-name sum of span duration minus the time direct children cover.

    Children of one span run one after another inside it, so the time they
    cover is the sum of their durations.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    totals: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - child_time.get(s.id, 0.0)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def tree_shape(model) -> tuple[int, int]:
    """(node count, depth) of an HDDT, walked without recursion."""
    from iec.hddt import Internal

    nodes, depth = 0, 0
    stack = [(model.root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        if isinstance(node, Internal):
            stack.extend((child, d + 1) for child in node.children)
    return nodes, depth
