"""Plain result records are ``typing.NamedTuple`` classes.

A frozen dataclass costs several times as much to build at import as a
``NamedTuple``, and the package declares dozens of records.  A class keeps
``@dataclass`` only when it defines its own ``__init__``; the AST test here
reports any other.  The remaining tests pin what the records show to a
caller: their repr (which ``foliacoh fixtures`` prints), equality, hashing
and immutability.
"""

import ast
from pathlib import Path

import pytest

from foliacoh.algebra_core import ComplexReport
from foliacoh.foliation import MorseComponent
from foliacoh.gstar import AxiomCheck
from foliacoh.module_theory import GradedModulePresentation, TorResult
from foliacoh.series import PoincarePolynomial
from foliacoh.spectral import FormalityVerdict

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "foliacoh"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name == "dataclass"


def dataclasses_without_init(source: str) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
            continue
        if not any(isinstance(b, ast.FunctionDef) and b.name == "__init__" for b in node.body):
            out.append(f"line {node.lineno}: {node.name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_defines_its_own_init(path):
    assert dataclasses_without_init(path.read_text()) == []


def test_dataclass_without_init_is_reported():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Report:\n"
        "    ok: bool\n"
        "@dataclass\n"
        "class Checked:\n"
        "    n: int\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "@dataclasses.dataclass\n"
        "class Verdict:\n"
        "    free: bool\n"
    )
    assert dataclasses_without_init(source) == ["line 4: Report", "line 12: Verdict"]


# each record with its repr as it read when the records were frozen dataclasses
HASHABLE = [
    (
        lambda: ComplexReport(False, 3, "e3_0", "d^2 != 0"),
        "ComplexReport(ok=False, failing_degree=3, witness_label='e3_0', message='d^2 != 0')",
    ),
    (
        lambda: ComplexReport(True),
        "ComplexReport(ok=True, failing_degree=None, witness_label=None, message='')",
    ),
    (
        lambda: AxiomCheck("i_X^2 = 0", False, 4, "degree 2"),
        "AxiomCheck(name='i_X^2 = 0', ok=False, checked_through=4, witness='degree 2')",
    ),
    (
        lambda: FormalityVerdict(True, "E1-collapse", "E1 = E_inf", 8),
        "FormalityVerdict(formal=True, method='E1-collapse', witness='E1 = E_inf', "
        "stable_through=8)",
    ),
    (
        lambda: MorseComponent(2, PoincarePolynomial((1, 1)), 1),
        "MorseComponent(index=2, quotient_poincare=PoincarePolynomial(coeffs=(1, 1)), "
        "isotropy_dim=1)",
    ),
]
UNHASHABLE = [
    (
        lambda: TorResult({(0, 0): 1, (1, 2): 2}, 6, 2),
        "TorResult(dims={(0, 0): 1, (1, 2): 2}, window=6, dim_a=2)",
    ),
    (
        lambda: GradedModulePresentation.residue_field(2, 4).tor,
        "TorResult(dims={(0, 0): 1, (1, 2): 2, (2, 4): 1}, window=4, dim_a=2)",
    ),
]


def _ids(x):
    return x.partition("(")[0] if isinstance(x, str) else ""


@pytest.mark.parametrize("make, text", HASHABLE + UNHASHABLE, ids=_ids)
def test_record_repr_is_unchanged(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", HASHABLE, ids=_ids)
def test_equal_records_hash_equal(make, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("make, text", UNHASHABLE, ids=_ids)
def test_records_with_a_dict_field_compare_by_value_and_do_not_hash(make, text):
    a, b = make(), make()
    assert a is not b and a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("make, text", HASHABLE + UNHASHABLE, ids=_ids)
def test_record_fields_cannot_be_set(make, text):
    rec = make()
    for name in type(rec).__annotations__:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
