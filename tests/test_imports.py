"""Every name a module of the package imports is used in that module.

No linter ships with the package, so this reads each module with ``ast``.
``__init__.py`` is exempt: its imports are the package's re-exports.  A name
counts as used when it is read anywhere in the module, including inside a
quoted annotation such as ``"Vec | RationalMatrix"``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foliacoh"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in annotations(tree):
        for n in ast.walk(ann):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                quoted = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(quoted) if isinstance(m, ast.Name)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = (
        "from fractions import Fraction\n"
        "import os.path\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]'):\n"
        "    return os.path.join('a', 'b')\n"
    )
    assert unused_imports(source) == ["line 1: Fraction"]
