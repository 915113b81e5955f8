"""No linter ships with the project, so this scans the package's modules
for imported names they never use, and for functions that take a `cache`
argument: a forward returns what its backward reads, so no side channel
carries state between them."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no `Name` node reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scanner_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom a import b, c\nc(os)\n"
    assert unused_imports(source) == ["b", "np"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def cache_parameters(source: str) -> list[str]:
    """Functions (by name) that take an argument called `cache`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            if "cache" in names:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_scanner_finds_cache_parameters():
    source = ("def f(x, cache=None): pass\n"
              "def g(x, *, cache): pass\n"
              "def h(x, caches): pass\n"
              "k = lambda cache: cache\n")
    assert cache_parameters(source) == ["f", "g", "<lambda>"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cache_parameter(path):
    assert cache_parameters(path.read_text()) == []
