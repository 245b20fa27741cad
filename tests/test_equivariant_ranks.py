"""``equivariant`` reads its dimensions and generator degrees off ranks.

``equivariant_cohomology`` counts h_n = dim C^n - rank d_n - rank d_(n-1)
+ rank(d_n d_(n-1)), and ``generator_degrees`` subtracts the classes that
the u-action reaches, counted from ranks of u-images of cocycles.  The tests
compare both with the representative path that module presentations use
(``cocycle_representatives``, ``class_u_actions``, ``_module_generators``),
and guard that ``equivariant`` builds no representative.
"""

import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import algebra_core, cartan, cli, module_theory, ratmat
from foliacoh.algebra_core import cocycle_representatives
from foliacoh.cartan import (
    _module_generators,
    class_u_actions,
    equivariant_cohomology,
    generator_degrees,
    module_presentation,
)
from foliacoh.fixtures import hopf_basic_model, trivial_action_on_h_1_0_1
from foliacoh.gstar import LieAlgebraSpec, extend_with_trivial_factor, weil_algebra
from foliacoh.ratmat import RationalMatrix

from conftest import change_basis, circle_action

SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
LIES = {"R0": LieAlgebraSpec.abelian(0), "R1": LieAlgebraSpec.abelian(1),
        "R2": LieAlgebraSpec.abelian(2), "R3": LieAlgebraSpec.abelian(3), "so3": SO3}
# the largest truncation drawn in a unit-LU basis, where dense entries make
# R^3 past N = 4 and so(3) past N = 5 cost seconds per example
UNIT_LU_TOP = {"R3": 4, "so3": 5}


def representative_path(e) -> tuple[dict[int, int], tuple[int, ...]]:
    """Dimensions and generator degrees counted from canonical representatives."""
    cx = e.complex
    dims = {}
    for n in range(e.n_max + 1):
        d_in = cx.d[n - 1] if n else RationalMatrix.zeros(cx.dim(0), 0)
        h = cocycle_representatives(cx.d[n], d_in).cols
        if h:
            dims[n] = h
    generators = _module_generators(dims, class_u_actions(e), e.n_max)
    return dims, tuple(n for n, _i in generators)


def assert_paths_agree(s, n_max: int) -> None:
    e = equivariant_cohomology(s, n_max)
    assert (e.dims, generator_degrees(e)) == representative_path(e), n_max


@st.composite
def truncated_weil_algebras(draw):
    """(W(g) truncated at N <= 6, in its monomial basis or a unit-LU one, a window n <= N + 4)."""
    lie = draw(st.sampled_from(sorted(LIES)))
    unit_lu = draw(st.booleans())
    top = draw(st.integers(0, UNIT_LU_TOP.get(lie, 6) if unit_lu else 6))
    s = weil_algebra(LIES[lie], top)
    if unit_lu:
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s, draw(st.integers(0, top + 4))


@settings(max_examples=30, deadline=None)
@given(truncated_weil_algebras())
@example((weil_algebra(LIES["R3"], 6), 10)).via("R3 generators past the stable window")
@example((weil_algebra(SO3, 4), 8)).via("so(3): every class is a generator")
@example((change_basis(weil_algebra(LIES["R2"], 6), random.Random(1)), 10)).via("unit-LU R2")
def test_ranks_match_the_representative_path_on_weil_algebras(case):
    assert_paths_agree(*case)


@pytest.mark.parametrize("make", [
    hopf_basic_model, circle_action,
    lambda: extend_with_trivial_factor(trivial_action_on_h_1_0_1()),
], ids=["hopf", "circle", "trivial factor"])
def test_ranks_match_the_representative_path_on_untruncated_fixtures(make):
    s = make()
    for n_max in range(9):
        assert_paths_agree(s, n_max)


@pytest.mark.parametrize("basis", ["monomial", "unit-LU"])
def test_equivariant_builds_no_representative(monkeypatch, tmp_path, capsys, basis):
    s = weil_algebra(LIES["R2"], 6)
    if basis == "unit-LU":
        s = change_basis(s, random.Random(7))

    def refuse(*args, **kwargs):
        raise AssertionError("equivariant built a representative")

    for mod in (ratmat, algebra_core, cartan, module_theory):
        for name in ("coordinates_modulo", "cocycle_representatives"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    p = tmp_path / "weil.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", cli.gstar_to_payload(s), 6)))
    assert cli.main(["equivariant", "--input", str(p)]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["cross_check_ok"] is True
    assert results["module_generator_degrees"][0] == 0
    # the guard bites where representatives are built
    with pytest.raises(AssertionError, match="built a representative"):
        module_presentation(equivariant_cohomology(s, 6))
