"""The runtime dependency rule: ``src/iec`` imports only the standard library, numpy and
itself, and ``pyproject.toml`` declares numpy alone.  scipy and pytest-benchmark may be
installed where the tests run, so an import of either would pass every other test."""

import ast
import re
import sys
from pathlib import Path

import pytest

from iec import ensemble

SRC = Path(ensemble.__file__).parent
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
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
