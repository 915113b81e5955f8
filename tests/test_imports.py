"""No linter ships with the project, so this scans the package's modules
for imported names they never use, for functions that take a `cache`
argument (a forward returns what its backward reads, so no side channel
carries state between them), for defaulted parameters that no program
caller ever sets (an option without a caller is a constant), for
dataclass field defaults that no program code relies on, for public
functions that no program code refers to (code only tests call is dead),
for annotations that name something the module never binds, and for
third-party imports other than the dependencies `pyproject.toml` declares
(scipy is only the tests' reference, so the package must not load it)."""

import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmop"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the program's own callers: the package and the benchmark, not the tests
CALLERS = sorted([*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")])


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


def definitions(source: str) -> list[tuple]:
    """(function, qualified name, leading `self` to skip) of each
    module-level function and method. Nested functions, such as closures
    that bind a loop variable through a default, are skipped."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            defs.append((node, node.name, 0))
        elif isinstance(node, ast.ClassDef):
            defs += [(f, f"{node.name}.{f.name}", 1) for f in node.body
                     if isinstance(f, functions)]
    return defs


def defaulted_parameters(source: str) -> list[tuple]:
    """(bare name, qualified name, parameter, position) of each defaulted
    parameter of a module-level function or method. The position is its
    index among the positional arguments a call passes (a method's `self`
    not counted), or None if it is keyword-only."""
    found = []
    for fn, qual, skip in definitions(source):
        a = fn.args
        positional = (a.posonlyargs + a.args)[skip:]
        first = len(positional) - len(a.defaults)
        found += [(fn.name, qual, x.arg, i)
                  for i, x in enumerate(positional) if i >= first]
        found += [(fn.name, qual, x.arg, None)
                  for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def call_arguments(source: str) -> list[tuple[str, float, set | None]]:
    """(called name, positional count, keywords) of every call; a `*args`
    counts as every position and a `**kwargs` as every keyword (None)."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        n_pos = (math.inf if any(isinstance(x, ast.Starred) for x in node.args)
                 else len(node.args))
        keywords = {k.arg for k in node.keywords}
        calls.append((name, n_pos, None if None in keywords else keywords))
    return calls


def uncalled_defaults(definitions: list[str], callers: list[str]) -> list[str]:
    """`function.parameter` for each defaulted parameter in `definitions`
    that no call in `callers` passes, by keyword or by position."""
    calls = [c for source in callers for c in call_arguments(source)]
    return sorted(
        f"{qual}.{param}" for source in definitions
        for name, qual, param, pos in defaulted_parameters(source)
        if not any(called == name and (keywords is None or param in keywords
                                       or (pos is not None and n_pos > pos))
                   for called, n_pos, keywords in calls))


def test_scanner_finds_uncalled_defaults():
    definitions = ["def f(a, b=1, *, c=2): pass\n"
                   "def g(x=0): pass\n"
                   "def h(y=0): pass\n"
                   "class K:\n"
                   "    def m(self, y=1, z=2): pass\n"
                   "def outer():\n"
                   "    def inner(q=1): pass\n"]
    callers = ["f(1, 2)\nmod.g(**kw)\nh(*args)\nK().m(5)\n"]
    assert uncalled_defaults(definitions, callers) == ["K.m.z", "f.c"]


def test_every_default_has_a_caller():
    sources = [p.read_text() for p in CALLERS]
    assert uncalled_defaults([p.read_text() for p in MODULES], sources) == []


def defaulted_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, position) of each field with a default, plain or
    through `field(default=...)` / `field(default_factory=...)`, of each
    module-level `@dataclass` class. The position is the field's index
    among the class's fields, as its constructor takes them."""
    def is_dataclass(decorator):
        target = getattr(decorator, "func", decorator)    # @dataclass(...)
        return getattr(target, "id", getattr(target, "attr", None)) == \
            "dataclass"

    def has_default(value):
        if value is None:
            return False
        if isinstance(value, ast.Call) and getattr(
                value.func, "id", getattr(value.func, "attr", None)) == "field":
            return any(k.arg in ("default", "default_factory")
                       for k in value.keywords)
        return True

    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                is_dataclass(d) for d in node.decorator_list):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and isinstance(f.target, ast.Name)]
            found += [(node.name, f.target.id, i) for i, f in enumerate(fields)
                      if has_default(f.value)]
    return found


def value_references(source: str) -> set[str]:
    """Bare names read as values: a `Name` or attribute that is neither
    the callee of a call nor part of an annotation."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.AST):
                skip |= {id(n) for n in ast.walk(note)}
    return {getattr(n, "id", getattr(n, "attr", None))
            for n in ast.walk(tree) if id(n) not in skip
            and isinstance(n, (ast.Name, ast.Attribute))}


def unused_field_defaults(definitions: list[str],
                          callers: list[str]) -> list[str]:
    """`class.field` for each defaulted dataclass field in `definitions`
    whose default no code in `callers` relies on. A call of the class that
    passes neither the field's keyword nor its position relies on it, and
    a class read as a value (`default_factory=K`, `_from_json(K, raw)`)
    relies on all of its defaults."""
    calls = [c for source in callers for c in call_arguments(source)]
    values = set().union(*(value_references(source) for source in callers))
    return sorted(
        f"{cls}.{name}" for source in definitions
        for cls, name, pos in defaulted_fields(source)
        if cls not in values
        and not any(called == cls and keywords is not None
                    and name not in keywords and n_pos <= pos
                    for called, n_pos, keywords in calls))


def test_scanner_finds_unused_field_defaults():
    definitions = ["from dataclasses import dataclass, field\n"
                   "import dataclasses\n"
                   "@dataclass\n"
                   "class A:\n"
                   "    x: int\n"
                   "    w: int = field(repr=False)\n"
                   "    y: int = 1\n"
                   "    z: list = field(default_factory=list)\n"
                   "@dataclasses.dataclass(frozen=True)\n"
                   "class B:\n"
                   "    p: int = 0\n"
                   "    q: int = 0\n"
                   "@dataclass\n"
                   "class C:\n"
                   "    r: int = 0\n"
                   "@dataclass\n"
                   "class D:\n"
                   "    s: int = 0\n"
                   "class Plain:\n"
                   "    t: int = 0\n"]
    callers = ["A(1, 2, y=3)\n"        # omits z only
               "m.B(p=1)\n"            # omits q
               "B(*args)\n"            # a star reaches every position
               "def f(c: C) -> C: pass\n"     # annotations are no use
               "g(D)\n"]               # passed as a value: all defaults
    assert unused_field_defaults(definitions, callers) == ["A.y", "B.p",
                                                           "C.r"]


def test_every_field_default_has_a_caller():
    assert unused_field_defaults([p.read_text() for p in MODULES],
                                 [p.read_text() for p in CALLERS]) == []


def unreferenced_functions(modules: list[str],
                           callers: list[str]) -> list[str]:
    """Qualified names of the public module-level functions and methods in
    `modules` whose bare name no `Name` or attribute in `callers` reads.
    Dunders and click commands (under a `.command(...)` or `.group(...)`
    decorator: click calls them) are exempt. Names match bare, so a
    same-named attribute anywhere counts as a reference."""
    read = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)

    def click_command(fn):
        return any(isinstance(d, ast.Call)
                   and getattr(d.func, "attr", None) in ("command", "group")
                   for d in fn.decorator_list)

    return sorted(qual for source in modules
                  for fn, qual, _ in definitions(source)
                  if not fn.name.startswith("_") and not click_command(fn)
                  and fn.name not in read)


def test_scanner_finds_unreferenced_functions():
    modules = ["def used(): pass\n"
               "def unused(): pass\n"
               "def _private(): pass\n"
               "class K:\n"
               "    def __init__(self): pass\n"
               "    def method(self): pass\n"
               "    def stale(self): pass\n"
               "@main.command('x')\n"
               "def cmd(): pass\n"
               "@click.group()\n"
               "def main(): pass\n"
               "def outer():\n"
               "    def inner(): pass\n"]
    callers = ["used()\nK().method\n"]
    assert unreferenced_functions(modules, callers) == [
        "K.stale", "outer", "unused"]


def test_every_public_function_has_a_caller():
    assert unreferenced_functions([p.read_text() for p in MODULES],
                                  [p.read_text() for p in CALLERS]) == []


def annotated_objects(module) -> list:
    """The classes and functions `module` defines, and the methods of those
    classes: everything whose annotations `typing.get_type_hints` reads."""
    own = [obj for obj in vars(module).values()
           if (inspect.isclass(obj) or inspect.isfunction(obj))
           and obj.__module__ == module.__name__]
    return own + [m for cls in own if inspect.isclass(cls)
                  for m in vars(cls).values() if inspect.isfunction(m)]


def test_scanner_finds_unresolved_annotations():
    module = types.ModuleType("fake")
    exec("from __future__ import annotations\n"
         "from os.path import join\n"
         "class K:\n"
         "    def m(self) -> Missing: pass\n"
         "def f(x: int) -> int: pass\n", vars(module))
    found = annotated_objects(module)
    assert sorted(obj.__qualname__ for obj in found) == ["K", "K.m", "f"]
    with pytest.raises(NameError):
        typing.get_type_hints(module.K.m)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_annotations_resolve(path):
    module = importlib.import_module(f"qmop.{path.stem}")
    for obj in annotated_objects(module):
        typing.get_type_hints(obj)   # raises NameError on an unbound name


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in `source` that are neither
    the standard library's nor the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "qmop"}


def declared_dependencies(pyproject: str) -> set[str]:
    """Distribution names in the `[project]` table's `dependencies` list,
    read line by line (no `tomllib` before Python 3.11): one quoted
    requirement per line, its name up to the first version or extra mark."""
    table, inside, names = None, False, set()
    for line in map(str.strip, pyproject.splitlines()):
        if inside:
            if line.startswith("]"):
                inside = False
            elif line.startswith('"'):
                names.add(re.match(r'"([A-Za-z0-9_.-]+)', line)[1].lower())
        elif line.startswith("["):
            table = line
        elif table == "[project]" and line.startswith("dependencies"):
            inside = True
    return names


def test_scanner_finds_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import numpy as np\nfrom click import echo\nimport qmop.cli\n"
              "from . import trainer\nfrom scipy.special import erf\n")
    assert third_party_imports(source) == {"numpy", "click", "scipy"}


def test_reader_finds_declared_dependencies():
    pyproject = ('[project]\nname = "x"\ndependencies = [\n'
                 '    "numpy>=1.24",\n    "Click[extra]>=8.0",\n]\n'
                 '[project.optional-dependencies]\ntest = [\n'
                 '    "pytest>=7",\n]\n[tool.x]\ndependencies = ["no"]\n')
    assert declared_dependencies(pyproject) == {"numpy", "click"}


def test_imports_match_declared_dependencies():
    imported = set().union(*(third_party_imports(p.read_text())
                             for p in SRC.glob("*.py")))
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text())
    assert imported == declared == {"numpy", "click"}


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter: this one may have imported scipy for a test
    probe = ("import sys, qmop, qmop.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
