"""No module of the library, of ``tools/`` or of the tests imports a name it
never uses.

A stand-in for a linter's unused-import rule, read with ``ast`` alone.  A
name counts as used when the module reads it anywhere (an annotation, a
quoted annotation included) or lists it in ``__all__``.  Exempt are the
imports of a package's ``__init__`` (its re-exports), ``__future__``
imports and imports on a line marked ``# noqa``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "mfglab").glob("*.py"), *(ROOT / "tools").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def _read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, the names in quoted annotations and in
    ``__all__`` included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """``"line: name"`` for each name ``source`` imports and never uses;
    none when ``reexports`` (an ``__init__``)."""
    if reexports:
        return []
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _read_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source, reexports=path.name == "__init__.py") == []


def test_unused_import_is_caught():
    source = ("from __future__ import annotations\n"
              "import math, os  # the comment is no exemption\n"
              "from typing import Optional\n"
              "from .grid import diff  # noqa: F401\n"
              "__all__ = ['Optional']\n"
              "def f(x: 'Sequence[int]') -> float:\n"
              "    from typing import Sequence\n"
              "    return math.pi\n")
    assert unused_imports(source) == ["2: os"]
    assert unused_imports(source, reexports=True) == []
