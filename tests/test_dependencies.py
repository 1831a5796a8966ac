"""The runtime dependency rule: ``src/iec`` imports only the standard library, numpy and
itself, and ``pyproject.toml`` declares numpy alone.  scipy and pytest-benchmark may be
installed where the tests run, so an import of either would pass every other test.

The benchmark depends on the package the other way round: ``perfbench/spans.py`` looks
package functions up by name, so each of them must keep its name."""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

from iec import ensemble

SRC = Path(ensemble.__file__).parent
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "iec"}


def imported_packages(source: Path):
    """The top-level package of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library_numpy_and_itself():
    found = {(source.name, name) for source in sorted(SRC.glob("*.py"))
             for name in imported_packages(source)}
    assert {name for _, name in found} >= {"numpy", "iec"}
    assert sorted((file, name) for file, name in found if name not in ALLOWED) == []


def test_pyproject_declares_only_numpy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group(0).lower()
             for dep in project["dependencies"]]
    assert names == ["numpy"]


def test_every_function_the_benchmark_traces_is_in_the_package(monkeypatch):
    # spans.py imports only the standard library at module level; it is read, not changed.
    # Its dataclasses look their module up in sys.modules while the file runs.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    traced = [(module, name) for module, names in spans.LAYERS.values() for name in names]
    found = {(module, name): getattr(importlib.import_module(module), name, None)
             for module, name in traced}
    assert len(found) >= 16
    assert [key for key, fn in found.items()
            if not inspect.isfunction(fn) or Path(inspect.getfile(fn)).parent != SRC] == []
