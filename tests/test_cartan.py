import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cli
from foliacoh.algebra_core import GradedVectorSpace, cohomology_dims
from foliacoh.cartan import (
    CartanComplex,
    DifferentialNotSquareZero,
    commuting_reduction_check,
    equivariant_cohomology,
    module_presentation,
)
from foliacoh.fixtures import (
    exterior_line_free,
    exterior_two_free,
    hopf_basic_model,
    hopf_connection_candidates,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
    trivial_line,
)
from foliacoh.gstar import (
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    basic_subcomplex,
    check_gstar_axioms,
    extend_with_trivial_factor,
    weil_algebra,
    weil_model_cohomology,
)
from foliacoh.module_theory import hilbert
from foliacoh.ratmat import RationalMatrix, restrict
from foliacoh.spectral import run_pages

from conftest import (
    cartan_basis,
    change_basis,
    circle_action,
    class_u_actions,
    reference_module_presentation,
)

SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})

ALL_FIXTURES = [
    trivial_line,
    exterior_line_free,
    hopf_basic_model,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
]


# -- slices -------------------------------------------------------------------------


def test_slice_dims_trivial_line():
    cx = CartanComplex(trivial_line(1), 8)
    assert tuple(cx.dim(n) for n in range(9)) == (1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_slice_dims_exterior_line():
    cx = CartanComplex(exterior_line_free(), 8)
    assert tuple(cx.dim(n) for n in range(9)) == (1,) * 9


def test_slice_dims_hopf():
    # monomial count over the 4-dimensional algebra
    cx = CartanComplex(hopf_basic_model(), 8)
    assert tuple(cx.dim(n) for n in range(9)) == (1, 1, 2, 2, 2, 2, 2, 2, 2)


def test_exterior_line_differential_sends_theta_to_u():
    cx = CartanComplex(exterior_line_free(), 6)
    for n in range(1, 6, 2):
        assert not cx.d[n].is_zero()  # u^k theta maps to u^{k+1}
    for n in range(0, 6, 2):
        assert cx.d[n].is_zero()


def test_d_squared_checked_on_all_fixtures():
    for make in ALL_FIXTURES:
        CartanComplex(make(), 8)  # constructor raises on any failure


# -- equivariant cohomology ------------------------------------------------------------


def test_trivial_action_tensor_series():
    e = equivariant_cohomology(trivial_action_on_h_1_0_1(), 8)
    assert e.dims_tuple() == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def test_trivial_action_hilbert_series_with_odd_class():
    # trivial action on classes in degrees 0, 2, 3: equivariant dims follow
    # (1 + t^2 + t^3) / (1 - t^2) coefficientwise
    from foliacoh.cli import parse_gstar
    from foliacoh.series import PoincarePolynomial, PoincareSeriesRational

    s = parse_gstar({"lie": {"dimension": 1}, "degrees": {"0": ["1"], "2": ["w"], "3": ["x"]},
                     "i": [{}], "L": [{}]})
    e = equivariant_cohomology(s, 8)
    want = PoincareSeriesRational(PoincarePolynomial((1, 0, 1, 1)), 1).expand(8)
    assert e.dims_tuple(8) == want == (1, 0, 2, 1, 2, 1, 2, 1, 2)


def test_hopf_pure_torsion():
    e = equivariant_cohomology(hopf_basic_model(), 8)
    assert e.dims_tuple() == (1, 0, 1, 0, 0, 0, 0, 0, 0)
    assert e.total_dim() == 2
    # u-action vanishes on cohomology
    for n, m in class_u_actions(e)[0].items():
        assert m.is_zero() or m.cols == 0


def test_exterior_line_contractible():
    e = equivariant_cohomology(exterior_line_free(), 8)
    assert e.dims_tuple() == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_free_fixture_matches_basic_cohomology():
    # type (C) structures compute the basic-subcomplex cohomology
    for make in (exterior_line_free, hopf_basic_model):
        s = make()
        e = equivariant_cohomology(s, 8)
        h = cohomology_dims(basic_subcomplex(s).complex)
        assert e.dims_tuple(3) == h.dims_tuple(3)
        assert all(e.dim(n) == h.dim(n) for n in range(4, 9))


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_cartan_weil_agreement(make):
    s = make()
    e = equivariant_cohomology(s, 8)
    w = weil_model_cohomology(s, 8)
    assert e.dims_tuple(8) == w.dims_tuple(8)


def test_nonabelian_invariants_casimir():
    # equivariant cohomology of the acyclic structure is the invariant
    # polynomial ring; for so(3) that is generated by the degree-4 Casimir
    from foliacoh.gstar import LieAlgebraSpec, weil_algebra

    so3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    e = equivariant_cohomology(weil_algebra(so3, 8), 6)
    assert e.dims_tuple(6) == (1, 0, 0, 0, 1, 0, 0)


def test_truncated_input_stable_window():
    # the universal structure fed back in: both routes give the polynomial
    # ring within the reduced stable window
    from foliacoh.gstar import LieAlgebraSpec, weil_algebra

    w = weil_algebra(LieAlgebraSpec.abelian(1), 10)
    e = equivariant_cohomology(w, 8)
    assert e.stable_through == 8
    assert e.dims_tuple(8) == (1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert weil_model_cohomology(w, 8).dims_tuple(8) == e.dims_tuple(8)


def test_u_actions_commute():
    s = extend_with_trivial_factor(trivial_action_on_h_1_0_1(), 1)
    u_actions = class_u_actions(equivariant_cohomology(s, 8))
    for n in range(0, 4):
        a01 = u_actions[1].get(n + 2), u_actions[0].get(n)
        a10 = u_actions[0].get(n + 2), u_actions[1].get(n)
        if None in a01 or None in a10:
            continue
        assert a01[0] @ a01[1] == a10[0] @ a10[1]


# -- module presentation -----------------------------------------------------------------


def test_presentation_free_rank_one():
    e = equivariant_cohomology(trivial_line(1), 8)
    pres = module_presentation(e)
    assert pres.generators == (0,)
    assert pres.relations == ()


def test_presentation_hopf():
    e = equivariant_cohomology(hopf_basic_model(), 8)
    pres = module_presentation(e)
    assert pres.generators == (0, 2)
    assert len(pres.relations) == 2
    degs = sorted(
        pres.generators[i] + 2 * sum(next(iter(poly)))
        for rel in pres.relations
        for i, poly in enumerate(rel)
        if poly
    )
    assert degs == [2, 4]  # u g0 and u g2


def test_presentation_trivial_action_no_relations():
    e = equivariant_cohomology(trivial_action_on_h_1_0_1(), 8)
    pres = module_presentation(e)
    assert pres.generators == (0, 2)
    assert pres.relations == ()


@pytest.mark.parametrize("make", ALL_FIXTURES)
def test_presentation_hilbert_reproduces_dims(make):
    e = equivariant_cohomology(make(), 8)
    pres = module_presentation(e)
    h = hilbert(pres)
    assert h.coefficients == e.dims_tuple(8)


@pytest.mark.parametrize("make", [*ALL_FIXTURES, circle_action, exterior_two_free,
                                  lambda: extend_with_trivial_factor(trivial_action_on_h_1_0_1()),
                                  lambda: extend_with_trivial_factor(hopf_basic_model(), 1)])
def test_presentation_matches_the_class_path_on_fixtures(make):
    s = make()
    for n_max in range(11):
        e = equivariant_cohomology(s, n_max)
        assert module_presentation(e) == reference_module_presentation(e), n_max


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(0, 8), st.integers(0, 10), st.booleans(),
       st.integers(0, 2**16))
def test_presentation_matches_the_class_path_on_weil_algebras(r, top, n_max, unit_lu, seed):
    """W(R^r) truncated at N = top, read below the truncation or past it."""
    s = weil_algebra(LieAlgebraSpec.abelian(r), top)
    if unit_lu:
        s = change_basis(s, random.Random(seed))
    e = equivariant_cohomology(s, n_max)
    assert module_presentation(e) == reference_module_presentation(e)


def test_presentation_over_so3_raises_as_the_class_path():
    s = weil_algebra(SO3, 6)
    e = equivariant_cohomology(s, 1)
    assert module_presentation(e) == reference_module_presentation(e)
    e = equivariant_cohomology(s, 6)
    for path in (module_presentation, reference_module_presentation):
        with pytest.raises(ValueError):
            path(e)


# -- commuting reduction --------------------------------------------------------------------


def test_commuting_reduction_hopf():
    s = extend_with_trivial_factor(hopf_basic_model(), 1)
    rep = commuting_reduction_check(s, hopf_connection_candidates(), 8)
    assert rep.applicable and rep.agrees
    assert rep.lhs_dims == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def test_commuting_reduction_exterior():
    s = extend_with_trivial_factor(exterior_line_free(), 1)
    rep = commuting_reduction_check(s, hopf_connection_candidates(), 6)
    assert rep.applicable and rep.agrees
    assert rep.lhs_dims == (1, 0, 1, 0, 1, 0, 1)


def test_commuting_reduction_tensor_product():
    # A = Lambda(theta) (x) B with the second generator acting trivially:
    # both routes reduce to the equivariant cohomology of B alone
    from foliacoh.gstar import tensor_gstar

    lam = extend_with_trivial_factor(exterior_line_free(), 1)
    b = extend_with_trivial_factor(trivial_action_on_h_1_0_1(), 1)
    a = tensor_gstar(lam, b)
    rep = commuting_reduction_check(a, hopf_connection_candidates(), 8)
    assert rep.applicable and rep.agrees
    assert rep.lhs_dims == equivariant_cohomology(
        trivial_action_on_h_1_0_1(), 8
    ).dims_tuple()


# -- randomized structures -------------------------------------------------------


def conjugated_structure(rng, s):
    """Transport the operator package along a random graded isomorphism.

    The five relations are conjugation-invariant, so the result is again a
    valid operator package (presented operator-only: products do not
    transport along arbitrary linear maps).
    """
    from conftest import inverse, random_invertible
    from foliacoh.gstar import GradedAlgebraPresentation

    sp = s.space
    t = {n: random_invertible(rng, sp.dim(n)) for n in sp.degrees()}
    t_inv = {n: inverse(t[n]) for n in t}

    def conj(get, delta):
        out = {}
        for n in sp.degrees():
            if sp.dim(n) == 0 or sp.dim(n + delta) == 0:
                continue
            m = t[n + delta] @ get(n) @ t_inv[n]
            if not m.is_zero():
                out[n] = m
        return out

    algebra = GradedAlgebraPresentation(sp, None, truncated_above=s.truncated_above)
    return GStarStructure(
        algebra,
        s.lie,
        conj(s.op_d, 1),
        [conj(lambda n, j=j: s.op_i(j, n), -1) for j in range(s.lie.dimension)],
        [conj(lambda n, j=j: s.op_l(j, n), 0) for j in range(s.lie.dimension)],
    )


def test_random_conjugates_keep_axioms_and_cohomology(rng):
    from foliacoh.gstar import check_gstar_axioms

    for make in ALL_FIXTURES:
        base = make()
        expected = equivariant_cohomology(base, 6).dims_tuple(6)
        for _ in range(5):
            s = conjugated_structure(rng, base)
            assert check_gstar_axioms(s).ok, make.__name__
            # the Cartan complex constructor verifies its differential squares to zero
            e = equivariant_cohomology(s, 6)
            assert e.dims_tuple(6) == expected, make.__name__
            w = weil_model_cohomology(s, 6)
            assert w.dims_tuple(6) == expected, make.__name__


def test_commuting_reduction_refuses_bad_input():
    base = exterior_line_free()
    s = GStarStructure(
        base.algebra,
        __import__("foliacoh.gstar", fromlist=["LieAlgebraSpec"]).LieAlgebraSpec.abelian(2),
        {},
        [base.i_operators(0), {}],
        [{}, {1: RationalMatrix.from_rows([[1]])}],
    )
    rep = commuting_reduction_check(s, hopf_connection_candidates(), 6)
    assert not rep.applicable
    assert "nontrivially" in rep.detail


def test_circle_action_is_a_free_action():
    s = circle_action()
    assert check_gstar_axioms(s).ok
    assert equivariant_cohomology(s, 6).dims_tuple(6) == (1, 0, 0, 0, 0, 0, 0)
    assert weil_model_cohomology(s, 6).dims_tuple(6) == (1, 0, 0, 0, 0, 0, 0)


def test_error_paths_raise():
    s = circle_action()
    # d 1 = c theta is not invariant, while 1 is
    d = RationalMatrix.from_rows([[0, 0, 0], [1, 0, 1], [0, -1, 0]])
    bad = GStarStructure(s.algebra, s.lie, {0: d}, [s.i_operators(0)], [s.l_operators(0)])
    with pytest.raises(ValueError, match="does not preserve invariants at degree 0"):
        CartanComplex(bad, 2)
    # d^2 != 0 on an untruncated algebra
    sp = GradedVectorSpace({0: 1, 1: 1, 2: 1})
    one = RationalMatrix.identity(1)
    bad = GStarStructure(GradedAlgebraPresentation(sp, None), LieAlgebraSpec.abelian(1),
                         {0: one, 1: one}, [{}], [{}])
    with pytest.raises(DifferentialNotSquareZero, match="at 0"):
        CartanComplex(bad, 2)


# -- block-built operators against the scatter build ----------------------------------------


def scatter_cartan_operators(s, n_max):
    """The ambient Cartan operators built entry by entry, as the package once did.

    Every ambient basis vector (alpha, a) of ``cartan_basis`` is looked up in a
    position dict, and the nonzero columns of each factor operator are
    scattered into ``from_entries``.  Returns the ambient d per degree n, and
    L_total and multiplication by u_j per (j, n), through slice n_max + 1.
    """
    lie, r = s.lie, s.lie.dimension
    bases = [cartan_basis(s, n) for n in range(n_max + 4)]
    index = [{key: i for i, key in enumerate(b)} for b in bases]

    def bump(alpha, j):
        return tuple(a + (b == j) for b, a in enumerate(alpha))

    def cols(op, m):
        return op(m).nonzero_columns()

    d, l_total, shift = {}, {}, {}
    for n in range(n_max + 2):
        src, tgt = bases[n], index[n + 1]
        entries = []
        for col, (alpha, a) in enumerate(src):
            m = n - 2 * sum(alpha)
            entries += [(tgt[(alpha, k)], col, c) for k, c in cols(s.op_d, m)[a]]
            for j in range(r):
                entries += [(tgt[(bump(alpha, j), k)], col, c)
                            for k, c in cols(lambda m: s.op_i(j, m), m)[a]]
        d[n] = RationalMatrix.from_entries(len(tgt), len(src), entries)
        for j in range(r):
            pos = index[n]
            entries = []
            for col, (alpha, a) in enumerate(src):
                entries += [(pos[(alpha, k)], col, c)
                            for k, c in cols(lambda m: s.op_l(j, m), n - 2 * sum(alpha))[a]]
                # coadjoint derivation on u^alpha: u_b -> -c^b_{jc} u_c
                for b in range(r):
                    for c in range(r):
                        coef = lie.structure_constant(j, c, b)
                        if alpha[b] and coef:
                            alpha2 = bump(alpha, c)
                            alpha2 = alpha2[:b] + (alpha2[b] - 1,) + alpha2[b + 1:]
                            entries.append((pos[(alpha2, a)], col, -coef * alpha[b]))
            l_total[j, n] = RationalMatrix.from_entries(len(src), len(src), entries)
            tgt2 = index[n + 2]
            shift[j, n] = RationalMatrix.from_entries(
                len(tgt2), len(src),
                [(tgt2[(bump(alpha, j), a)], col, 1) for col, (alpha, a) in enumerate(src)])
    return d, l_total, shift


@st.composite
def cartan_structures(draw):
    """W(R^r), r <= 2, and W(so(3)) truncated at N <= 6, the untruncated fixtures and the
    circle action (L != 0), each in its own basis or a unit-LU change of it."""
    kind = draw(st.sampled_from(["abelian", "so3", "fixture", "circle"]))
    if kind == "abelian":
        s = weil_algebra(LieAlgebraSpec.abelian(draw(st.integers(1, 2))), draw(st.integers(0, 6)))
    elif kind == "so3":
        s = weil_algebra(SO3, draw(st.integers(0, 6)))
    else:
        s = draw(st.sampled_from(ALL_FIXTURES))() if kind == "fixture" else circle_action()
    if draw(st.booleans()):  # the operators only: the Cartan complex reads no products
        s = conjugated_structure(random.Random(draw(st.integers(0, 2**16))), s)
    return s, draw(st.integers(0, 6))


@settings(max_examples=60, deadline=None)
@given(cartan_structures())
@example((weil_algebra(SO3, 6), 6))
@example((circle_action(), 5))
def test_block_operators_match_the_scatter_build(case):
    assert_block_operators_match_the_scatter_build(*case)


def assert_block_operators_match_the_scatter_build(s, n_max):
    cx = CartanComplex(s, n_max)
    d, l_total, shift = scatter_cartan_operators(s, n_max)
    for n, sl in enumerate(cx.slices):
        degrees = [sum(alpha) for alpha, _a in cartan_basis(s, n)]
        assert sl.below == tuple(sum(p < q for p in degrees) for q in range(n // 2 + 2))
        for j in range(s.lie.dimension):
            assert cx._l_total_matrix(j, sl) == l_total[j, n], (j, n)
    for n in range(n_max + 1):
        assert cx._ambient_differential(n) == d[n], n
    if s.lie.is_abelian:
        for j in range(s.lie.dimension):
            for n in range(n_max):
                src, tgt = cx.slices[n].embedding, cx.slices[n + 2].embedding
                assert cx.u_multiplication(j, n) == restrict(shift[j, n], src, tgt), (j, n)


# -- Cartan, Weil and E-infinity on a generated family ----------------------------------------


def test_structure_constants_are_ints_where_integral():
    """so(3)'s constants are ints and so(3) scaled by 1/2 keeps Fractions; both Cartan
    builds match the scatter build, which reads the constants one at a time."""
    half = LieAlgebraSpec(3, {(0, 1): {2: Fraction(1, 2)}, (1, 2): {0: "1/2"},
                              (0, 2): {1: Fraction(-1, 2)}})
    mixed = LieAlgebraSpec(2, {(0, 1): {1: Fraction(4, 2), 0: "3/2"}})
    assert half.validate() == []
    assert [type(c) for comps in SO3.brackets.values() for c in comps.values()] == [int] * 3
    assert [type(c) for comps in half.brackets.values() for c in comps.values()] == [Fraction] * 3
    assert mixed.brackets == {(0, 1): {0: Fraction(3, 2), 1: 2}}
    assert [type(c) for c in mixed.brackets[0, 1].values()] == [Fraction, int]
    assert list(mixed.bracket(1, 0).items()) == [(0, Fraction(-3, 2)), (1, -2)]
    for i, j, k in [(0, 0, 2), (0, 1, 0), (1, 0, 0), (2, 1, 2)]:
        assert type(SO3.structure_constant(i, j, k)) is int
        assert SO3.structure_constant(i, j, k) == half.structure_constant(i, j, k) == 0
    assert SO3.structure_constant(2, 1, 0) == -1
    assert half.structure_constant(2, 1, 0) == Fraction(-1, 2)
    for lie in (SO3, half):
        assert_block_operators_match_the_scatter_build(weil_algebra(lie, 5), 5)
    half_dims = equivariant_cohomology(weil_algebra(half, 6), 6).dims
    assert half_dims == equivariant_cohomology(weil_algebra(SO3, 6), 6).dims


@pytest.mark.slow
@pytest.mark.parametrize("lie,top", [(LieAlgebraSpec.abelian(1), 10),
                                     (LieAlgebraSpec.abelian(2), 8), (SO3, 6)],
                         ids=["R1", "R2", "so3"])
@pytest.mark.parametrize("basis", ["monomial", "unit-LU"])
def test_cartan_weil_and_e_infinity_agree_on_generated_documents(lie, top, basis):
    """W(g) truncated at every N <= top, read back from its document, on its window N.

    The unit-LU copy conjugates the operators only (seeded by N): neither route
    reads the product table, whose transport would cost most of the run.
    """
    for n in range(top + 1):
        doc = cli.document_for("gstar_algebra", cli.gstar_to_payload(weil_algebra(lie, n)), n)
        s = cli.parse_gstar(json.loads(json.dumps(doc))["payload"])
        if basis == "unit-LU":
            s = conjugated_structure(random.Random(n), s)
        e = equivariant_cohomology(s, n)
        upto = e.stable_through
        assert e.dims_tuple(upto) == weil_model_cohomology(s, n).dims_tuple(upto), n
        if lie.is_abelian:
            base = cohomology_dims(s.as_complex()).dims_tuple(n)
            assert run_pages(e, base).e_infinity.total_dims(upto) == e.dims_tuple(upto), n
