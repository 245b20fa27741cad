"""Every window bound is read off one function, ``GradedAlgebraPresentation.window_tops``.

``reference_bounds`` writes each consumer's bound out from ``truncated_above``
with its own offset; the property checks that each consumer reports that
bound on truncated Weil algebras, in the monomial basis and a unit-LU one,
and on untruncated structures.  The guard at the end keeps the derivation
in ``gstar``: outside it, ``.truncated_above`` is only passed on as a
keyword argument's value, or read where a document is parsed or written.
"""

import ast
import functools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cli
from foliacoh.algebra_core import cohomology_dims
from foliacoh.cartan import equivariant_cohomology
from foliacoh.fixtures import hopf_basic_model
from foliacoh.gstar import LieAlgebraSpec, basic_subcomplex, check_gstar_axioms, weil_algebra
from foliacoh.spectral import formality_verdict, run_pages

from conftest import change_basis, circle_action

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(cli.__file__).parent / "data"
SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
LIES = {"R0": LieAlgebraSpec.abelian(0), "R1": LieAlgebraSpec.abelian(1),
        "R2": LieAlgebraSpec.abelian(2), "so3": SO3}


def reference_bounds(s, n_max: int) -> dict:
    """Each consumer's bound on the window n_max, written out from ``truncated_above``."""
    t, hi = s.truncated_above, s.space.window[1]
    products = hi if t is None else t
    cartan = n_max if t is None else min(n_max, t - 2)
    laws = {"d^2 = 0": hi if t is None else t - 2,
            "i_X^2 = 0": hi, "[L_X, L_Y] = L_[X,Y]": hi, "[L_X, i_Y] = i_[X,Y]": hi,
            "L_X = d i_X + i_X d": hi if t is None else t - 1}
    if s.algebra.has_products():
        laws |= {"d derivation": products if t is None else products - 1,
                 "i_X derivation": products, "L_X derivation": products}
    else:
        laws["derivations"] = hi
    basic = hi if t is None else t - 1
    return {
        "products": products,
        "laws": laws,
        "basic": basic,
        "cartan": cartan,
        "spectral": min(n_max, cartan),
        "formality": min(n_max, cartan),  # its third cap, len(base cohomology) - 1, is n_max
        "cohomology": n_max if t is None else min(n_max, basic),
        "equivariant": min(n_max, cartan),  # its third cap, the Weil route's window, is the same
    }


def consumer_bounds(s, n_max: int, e) -> dict:
    """The bound each consumer reports on the window n_max; a route that refuses s is left out.

    e is the equivariant cohomology of s on that window.
    """
    out = {
        "products": s.algebra.window_tops.products,
        "laws": {c.name: c.checked_through for c in check_gstar_axioms(s).checks},
        "basic": basic_subcomplex(s).stable_through,
        "cartan": e.stable_through,
        "cohomology": cli._cmd_cohomology(s, n_max)[1]["stable_through"],
        "equivariant": cli._cmd_equivariant(s, n_max)[1]["stable_through"],
    }
    if s.lie.is_abelian and s.all_l_zero():
        base = cohomology_dims(s.as_complex()).dims_tuple(n_max)
        out["spectral"] = run_pages(e, base).stable_through
        try:
            out["formality"] = formality_verdict(e, base).stable_through
        except RuntimeError as exc:
            # the free-module count reads past the window on a truncated algebra
            assert "disagree" in str(exc) and s.algebra.window_tops.truncated
    return out


def assert_one_window(s, n_max: int) -> None:
    e = equivariant_cohomology(s, n_max)
    want = reference_bounds(s, n_max)
    got = consumer_bounds(s, n_max, e)
    assert got == {k: want[k] for k in got}, n_max
    tops = s.algebra.window_tops
    assert (tops.products, tops.homotopy, tops.d_squared) == (
        want["products"], want["basic"], want["laws"]["d^2 = 0"])
    cx = e.complex
    for n in range(min(n_max, tops.d_squared + 1)):
        assert (cx.d[n + 1] @ cx.d[n]).is_zero(), n


@st.composite
def truncated_weil_algebras(draw):
    """(W(g) truncated at N <= 6, in its monomial basis or a unit-LU one, a window 0..N+4)."""
    lie = draw(st.sampled_from(sorted(LIES)))
    top = draw(st.integers(0, 6))
    s = weil_algebra(LIES[lie], top)
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s, draw(st.integers(0, top + 4))


@settings(max_examples=10, deadline=None)
@given(truncated_weil_algebras())
@example((weil_algebra(LIES["R1"], 1), 3)).via("a window whose Cartan bound is negative")
@example((change_basis(weil_algebra(LIES["R2"], 4), random.Random(1)), 8)).via("unit-LU R2")
@example((weil_algebra(SO3, 6), 10)).via("so(3) at the top truncation and window")
@example((change_basis(weil_algebra(SO3, 4), random.Random(2)), 8)).via("unit-LU so(3)")
def test_every_consumer_reads_the_one_window_on_truncated_weil_algebras(case):
    assert_one_window(*case)


def _bundled(path):
    return cli.parse_gstar(json.loads(path.read_text())["payload"])


UNTRUNCATED = {"hopf_basic_model": hopf_basic_model, "circle_action": circle_action} | {
    p.name: functools.partial(_bundled, p) for p in sorted(DATA.glob("*_gstar.json"))}


@pytest.mark.parametrize("name", sorted(UNTRUNCATED))
def test_every_consumer_reads_the_one_window_on_untruncated_structures(name):
    s = UNTRUNCATED[name]()
    assert not s.algebra.window_tops.truncated
    for n_max in (0, 2, s.space.window[1], s.space.window[1] + 3):
        assert_one_window(s, n_max)


# -- the derivation stays in gstar ---------------------------------------------------

SOURCES = sorted(p for p in (ROOT / "src" / "foliacoh").glob("*.py") if p.name != "gstar.py")
# the document boundary reads and writes the field itself
EXEMPT = {"cli.py": {"parse_gstar", "gstar_to_payload"}}


def truncation_reads(source: str, exempt=frozenset()) -> list[str]:
    """Reads of ``.truncated_above`` other than as a keyword argument's value.

    A read inside a function named in exempt is left out.
    """
    tree = ast.parse(source)
    skip = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            skip |= {id(n) for n in ast.walk(node)}
    return [f"line {node.lineno}: .truncated_above" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "truncated_above"
            and id(node) not in skip]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_window_bound_is_derived_outside_gstar(path):
    assert truncation_reads(path.read_text(), EXEMPT.get(path.name, frozenset())) == []


def test_truncation_read_is_reported():
    source = (
        "top = s.truncated_above - 2\n"
        "algebra = Presentation(space, None, truncated_above=s.truncated_above)\n"
        "def parse_gstar(p):\n"
        "    return p.truncated_above\n"
        "def other(p):\n"
        "    return p.algebra.truncated_above\n"
    )
    assert truncation_reads(source, {"parse_gstar"}) == [
        "line 1: .truncated_above", "line 6: .truncated_above"]
