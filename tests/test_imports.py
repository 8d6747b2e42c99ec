"""No name is imported and then left unused, in the library or the tests,
no module-level name, method or property of the library is left unused
everywhere, and every third-party module the tests import is a declared
requirement.

No linter is installed, so this walks each module's syntax tree with the
standard library's ``ast``.  ``orekex/__init__.py`` imports to re-export
and is exempt from the import check.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "orekex").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))
LIBRARY = sorted((ROOT / "src" / "orekex").glob("*.py"))
SEARCHED = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py")) \
    + sorted((ROOT / "perfbench").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names the source imports and never reads, in import order; names in
    quoted annotations count as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)]
    for note in filter(None, _annotations(tree)):
        for text in ast.walk(note):
            if isinstance(text, ast.Constant) and isinstance(text.value, str):
                read += [n for n in ast.walk(ast.parse(text.value, mode="eval"))
                         if isinstance(n, ast.Name)]
    names = {n.id for n in read}
    return [name for name in imported if name not in names]


def test_the_guard_finds_unused_names():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from math import comb, prod\nfrom x import Y\n"
              "def f(a: 'Y') -> int:\n    return comb(a, 2)\n")
    assert unused_imports(source) == ["os", "np", "prod"]


@pytest.mark.parametrize("path", FILES, ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str) -> list[str]:
    """The module-level functions, classes and constants of a source, each
    class followed by its methods and properties; dunders are called by
    the language, not by name, and are left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not (f.name.startswith("__") and f.name.endswith("__"))]
    return names


def used_names(source: str) -> set[str]:
    """Names a source reads, as a name, an attribute or an import, or as a
    string that is an identifier (perfbench names the functions it wraps)."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_the_guard_finds_dead_names():
    # planted names no file of the project spells, since a string that
    # spells a name here counts as a use of it
    source = ("_CHUNK_X = 1 << 16\nLIMIT_X: int = 3\n"
              "def _sums_x(f):\n    return f\n"
              "def _mul_x(f):\n    return LIMIT_X * f\nclass Value_x:\n    pass\n")
    names = defined_names(source)
    assert names == ["_CHUNK_X", "LIMIT_X", "_sums_x", "_mul_x", "Value_x"]
    assert [n for n in names if n not in used_names(source)] == ["_CHUNK_X", "_sums_x",
                                                                "_mul_x", "Value_x"]


def test_the_guard_finds_dead_methods():
    # a method and a property no one reads are found; one read as an
    # attribute, a dunder and a method of a nested function are not
    source = ("class Value_y:\n"
              "    def __init__(self):\n        self.used_y = 1\n"
              "    def degree_y(self, i):\n        def inner_y():\n            return i\n"
              "        return inner_y()\n"
              "    @property\n    def count_y(self):\n        return 0\n"
              "    def key_y(self):\n        return ()\n"
              "    def __hash__(self):\n        return hash(self.key_y())\n")
    names = defined_names(source)
    assert names == ["Value_y", "degree_y", "count_y", "key_y"]
    assert [n for n in names if n not in used_names(source)] == ["Value_y", "degree_y",
                                                                "count_y"]


def test_every_library_name_is_used():
    """Each module-level name of ``src/orekex``, and each method and
    property of its classes, is read somewhere in ``src/``, ``tests/`` or
    ``perfbench/``; ``cmd_*`` are dispatched through ``globals()`` and
    ``__version__`` is read by packaging."""
    used = set().union(*(used_names(path.read_text()) for path in SEARCHED))
    dead = [f"{path.name}:{name}" for path in LIBRARY for name in defined_names(path.read_text())
            if name not in used and name != "__version__" and not name.startswith("cmd_")]
    assert dead == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules a source imports by absolute import,
    at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def missing_requirements(project: dict, sources, local) -> list[str]:
    """Modules the sources import that are neither in the standard library,
    nor ``local``, nor named by the ``[project]`` table's dependencies or
    its ``test`` extra (every module here is named as it installs)."""
    wanted = project.get("dependencies", []) + project.get("optional-dependencies", {}).get("test", [])
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in wanted}
    imported = set().union(*(imported_modules(source) for source in sources))
    return sorted(m for m in imported - set(sys.stdlib_module_names) - set(local)
                  if m.lower() not in named)


TESTS = sorted((ROOT / "tests").glob("*.py"))
LOCAL = {"orekex"} | {path.stem for path in TESTS}


def test_the_guard_finds_missing_requirements():
    # the test extra as it was before hypothesis joined it
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads('[project]\nname = "orekex"\ndependencies = ["numpy>=1.24"]\n'
                            '[project.optional-dependencies]\ntest = ["pytest"]\n')["project"]
    planted = ("import os.path, numpy as np, pytest\nfrom .x import y\nfrom helpers import z\n"
               "import scipy.linalg\nfrom hypothesis import strategies as st\n")
    assert missing_requirements(project, [planted], {"helpers"}) == ["hypothesis", "scipy"]


def test_test_imports_are_requirements():
    """``pip install -e .[test]`` gives the tests every third-party module
    they import."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert missing_requirements(project, [path.read_text() for path in TESTS], LOCAL) == []
