"""No name is imported and then left unused, in the library or the tests.

No linter is installed, so this walks each module's syntax tree with the
standard library's ``ast``.  ``orekex/__init__.py`` imports to re-export
and is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "orekex").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py"))


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
