"""The library's linear algebra runs in numpy's LAPACK and BLAS only.

scipy links a second OpenBLAS runtime. Its threads contend with numpy's for
the cores, and it starts up slowly on its first call in a process, so no
module under src/gska may import or name `scipy.linalg`. The modules are
scanned as syntax trees, not run, so a route that is rarely taken is
caught too.
"""

import ast
from pathlib import Path

import pytest

import gska

PACKAGE = Path(gska.__file__).parent
BANNED = "scipy.linalg"


def _banned(name) -> bool:
    return name == BANNED or str(name).startswith(BANNED + ".")


def _dotted(node) -> str | None:
    # "a.b.c" for a chain of attributes on a name, else None
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def references(source: str) -> list[int]:
    """Lines of source that import or name scipy.linalg."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(_banned(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = _banned(node.module) or (node.module == "scipy" and any(
                a.name == "linalg" for a in node.names))
        elif isinstance(node, ast.Attribute):
            hit = _banned(_dotted(node))
        elif isinstance(node, ast.Constant):
            # a module name handed to importlib or __import__
            hit = isinstance(node.value, str) and _banned(node.value)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize("source", [
    "import scipy.linalg",
    "import scipy.linalg.lapack as lp",
    "from scipy import linalg",
    "from scipy.linalg import eigh",
    "from scipy.linalg.lapack import dsyevd",
    "import scipy\nw = scipy.linalg.lapack.dsyevd(K)",
    "import importlib\nla = importlib.import_module('scipy.linalg')",
])
def test_scan_finds_each_form(source):
    assert references(source)


@pytest.mark.parametrize("source", [
    "from scipy.spatial.distance import cdist",
    "from scipy.special import expit",
    "import numpy as np\nw, U = np.linalg.eigh(K)",
    '"""Decomposed by LAPACK, as scipy.linalg would be."""',
])
def test_scan_passes_other_scipy_and_prose(source):
    assert references(source) == []


def test_package_has_no_scipy_linalg():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert any(m.name == "kernels.py" for m in modules)
    found = {str(m.relative_to(PACKAGE)): references(m.read_text())
             for m in modules}
    assert {m: lines for m, lines in found.items() if lines} == {}
