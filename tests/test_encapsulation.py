"""Only ``ratmat.py`` reaches into a ``RationalMatrix``'s storage.

Every other module of the package, and every test, goes through the public
surface (constructors, ``entry``, ``row``, ``col``, ``columns``, ``tolist``,
``nonzero_columns``), so a change of storage touches one file.  The private
names are read from ``RationalMatrix.__slots__`` when the test runs, plus the
trusted constructor, and any attribute access to one of them is reported.
"""

import ast
from pathlib import Path

import pytest

from foliacoh.ratmat import RationalMatrix

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "foliacoh").glob("*.py") if p.name != "ratmat.py"]
    + list((ROOT / "tests").glob("*.py")),
)
PRIVATE = {name for name in RationalMatrix.__slots__ if name.startswith("_")} | {"_trusted"}


def private_uses(source: str) -> list[str]:
    return [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PRIVATE
    ]


def test_storage_has_private_names():
    assert len(PRIVATE) > 1


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_access_to_matrix_internals(path):
    assert private_uses(path.read_text()) == []


def test_private_use_is_reported():
    storage = sorted(PRIVATE - {"_trusted"})[0]
    source = (
        f"m.{storage}[0] = {{}}\n"
        "x = RationalMatrix._trusted(1, 1, [])\n"
        "y = m.rows + m.cols\n"
    )
    assert private_uses(source) == [f"line 1: .{storage}", "line 2: ._trusted"]
