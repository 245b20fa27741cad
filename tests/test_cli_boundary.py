"""The document boundary of ``cli.py`` is written once.

``cli._parse`` is the one place that turns a payload of the wrong shape into
an ``InputError``, and ``cli.COMMANDS`` is the one place that says which
document kinds a command takes.  This reads ``cli.py`` with ``ast`` and
reports any other ``except`` clause that names a shape error, and any
``_cmd_*`` function that reads a document's ``"kind"`` or raises an
"expects" error of its own.  A parsed document is told apart by its own
type, never by ``isinstance(obj, tuple)``: result records are tuples too.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "foliacoh" / "cli.py"
SHAPE_ERRORS = {"AttributeError", "IndexError", "KeyError", "TypeError"}


def _strings(node):
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def boundary_leaks(source: str) -> list[str]:
    out = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and _names(node.func) == {"isinstance"} and node.args
                    and "tuple" in _names(node.args[-1])):
                out.append((node.lineno, f"{name} dispatches on tuple"))
            if isinstance(node, ast.ExceptHandler) and name != "_parse" and node.type:
                if _names(node.type) & SHAPE_ERRORS:
                    out.append((node.lineno, f"{name} catches a shape error"))
            if not name.startswith("_cmd_"):
                continue
            if isinstance(node, ast.Subscript) and "kind" in _strings(node.slice):
                out.append((node.lineno, f"{name} reads the document kind"))
            if isinstance(node, ast.Raise) and any(" expects " in s for s in _strings(node)):
                out.append((node.lineno, f"{name} raises an expects error"))
    return [f"line {line}: {leak}" for line, leak in sorted(out)]


def test_cli_has_one_document_boundary():
    assert boundary_leaks(CLI.read_text()) == []


def test_boundary_leaks_are_reported():
    source = (
        "def parse_x(payload):\n"
        "    try:\n"
        "        return payload['x']\n"
        "    except (KeyError, ValueError):\n"
        "        raise\n"
        "def _parse(kind, payload):\n"
        "    try:\n"
        "        return parse_x(payload)\n"
        "    except (AttributeError, KeyError):\n"
        "        raise\n"
        "def _cmd_x(doc, n_max):\n"
        "    if doc['kind'] != 'x':\n"
        "        raise InputError(f'x expects a {doc} document')\n"
        "    if isinstance(doc, (list, tuple)):\n"
        "        return doc[0]\n"
    )
    assert boundary_leaks(source) == [
        "line 4: parse_x catches a shape error",
        "line 12: _cmd_x reads the document kind",
        "line 13: _cmd_x raises an expects error",
        "line 14: _cmd_x dispatches on tuple",
    ]
