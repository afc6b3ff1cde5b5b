"""The library imports numpy, the standard library and itself, nothing else:
numpy is its only runtime dependency, and scipy stays a test-only oracle.
It reads no numpy name that the declared floor, numpy 1.24, lacks."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "polyrealize").glob("*.py"))

NUMPY_FLOOR = "numpy>=1.24"

# names under numpy that numpy 1.24 does not have: the 1.25 submodules,
# the aliases removed in 1.24 and put back in 2.0, and the array-API and
# later additions of 2.0 to 2.2
NEWER_THAN_FLOOR = {
    "exceptions", "dtypes", "bool", "long", "ulong",
    "bitwise_count", "unique_values", "unique_counts", "unique_inverse", "unique_all",
    "vecdot", "matrix_transpose", "concat", "permute_dims", "pow", "astype", "isdtype",
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert", "trapezoid",
    "cumulative_sum", "cumulative_prod", "unstack", "matvec", "vecmat",
    *(f"linalg.{name}" for name in ("matrix_norm", "vector_norm", "vecdot", "matrix_transpose",
                                    "svdvals", "diagonal", "trace", "outer", "cross",
                                    "tensordot", "matmul")),
}


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


def numpy_names(tree) -> set:
    """Every dotted name read from numpy: ``np.linalg.svd`` gives ``linalg``
    and ``linalg.svd``, ``from numpy.linalg import svd`` gives ``linalg.svd``."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "numpy"}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "numpy":
            prefix = node.module[len("numpy"):].lstrip(".")
            names.update(".".join(filter(None, (prefix, alias.name))) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            path = [node.attr]
            while isinstance(node.value, ast.Attribute):
                node = node.value
                path.append(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in aliases:
                names.add(".".join(reversed(path)))
    return names


def test_floor_is_the_declared_one():
    assert f'dependencies = ["{NUMPY_FLOOR}"]' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_numpy_names_exist_at_the_floor(path):
    assert numpy_names(ast.parse(path.read_text(encoding="utf-8"))) & NEWER_THAN_FLOOR == set()


def test_names_newer_than_the_floor_are_caught():
    source = """
import numpy as xp
from numpy import unique_values, sort
from numpy.linalg import svd, vecdot
xp.bitwise_count(a) + xp.linalg.matrix_transpose(b) + xp.sort(c)
"""
    found = numpy_names(ast.parse(source)) & NEWER_THAN_FLOOR
    assert found == {"unique_values", "linalg.vecdot", "bitwise_count", "linalg.matrix_transpose"}


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.2.0",
                    reason="the list names numpy 2.2 additions")
def test_listed_names_exist_in_numpy_2_2():
    for name in NEWER_THAN_FLOOR:
        module, _, attr = name.rpartition(".")
        assert hasattr(getattr(np, module) if module else np, attr), name
