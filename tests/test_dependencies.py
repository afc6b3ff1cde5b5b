"""The library imports numpy, the standard library and itself, nothing else:
numpy is its only runtime dependency, and scipy stays a test-only oracle."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polyrealize").glob("*.py"))


def imported_roots(tree) -> set:
    """The top-level package of every absolute import in a module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "numkernel.py", "realize.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    roots = imported_roots(ast.parse(path.read_text(encoding="utf-8")))
    allowed = set(sys.stdlib_module_names) | {"numpy", "polyrealize"}
    assert roots - allowed == set()
