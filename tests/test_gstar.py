import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh.algebra_core import GradedVectorSpace, cohomology_dims
from foliacoh.gstar import (
    ConnectionElements,
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    basic_subcomplex,
    check_gstar_axioms,
    detect_type_c,
    extend_with_trivial_factor,
    tensor_gstar,
    weil_algebra,
    weil_model_cohomology,
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
from foliacoh.ratmat import RationalMatrix, unit_vec

from conftest import (
    basis_product,
    change_basis,
    product_table,
    reference_change_basis,
    reference_check_algebra,
    reference_derivation_checks,
    reference_weil_algebra,
)


# -- Lie algebra specs ------------------------------------------------------------


def test_lie_abelian():
    lie = LieAlgebraSpec.abelian(2)
    assert lie.is_abelian and lie.validate() == []


def test_lie_antisymmetry_and_jacobi():
    # sl2-like: [X0,X1]=X2, [X0,X2]=-2 X0... use so(3): [X0,X1]=X2 etc.
    so3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    assert so3.validate() == []
    assert so3.structure_constant(1, 0, 2) == -1
    # [[X0,X1],X2] + cyclic = -X0 for these constants
    bad = LieAlgebraSpec(3, {(0, 1): {0: 1}, (1, 2): {2: 1}, (0, 2): {0: 1}})
    assert bad.validate() != []


# -- axiom checking ----------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [trivial_line, exterior_line_free, exterior_two_free, hopf_basic_model,
     sphere3_minimal_model, trivial_action_on_h_1_0_1],
)
def test_fixture_axioms_pass(make):
    s = make()
    rep = check_gstar_axioms(s)
    assert rep.ok, [c.witness for c in rep.failures()]
    assert s.algebra.check_algebra() == []


def test_axiom_five_fails_with_injected_l():
    # L_X nonzero on theta while d = 0 breaks L = d i + i d
    base = exterior_line_free()
    mutant = GStarStructure(
        base.algebra,
        base.lie,
        {},
        [base.i_operators(0)],
        [{1: RationalMatrix.from_rows([[1]])}],
    )
    rep = check_gstar_axioms(mutant)
    failing = {c.name for c in rep.failures()}
    assert "L_X = d i_X + i_X d" in failing
    witness = [c for c in rep.failures() if c.name == "L_X = d i_X + i_X d"][0]
    assert "theta" in witness.witness


def test_d_squared_mutation_detected():
    # d(theta) = omega, d(omega) = theta*omega breaks d^2 = 0
    base = sphere3_minimal_model()
    d = base.d_operators()
    d[2] = RationalMatrix.from_rows([[1]])
    mutant = GStarStructure(base.algebra, base.lie, d, [{}], [{}])
    rep = check_gstar_axioms(mutant)
    assert any(c.name == "d^2 = 0" and not c.ok for c in rep.checks)


def test_derivation_mutation_detected():
    # i_X(theta*omega) = 0 violates the contraction derivation law
    base = hopf_basic_model()
    i_ops = base.i_operators(0)
    del i_ops[3]
    mutant = GStarStructure(base.algebra, base.lie, {}, [i_ops], [{}])
    rep = check_gstar_axioms(mutant)
    assert any(c.name == "i_X derivation" and not c.ok for c in rep.checks)


# -- basic subcomplex ---------------------------------------------------------------


def test_basic_subcomplex_free_line():
    b = basic_subcomplex(exterior_line_free())
    assert tuple(b.complex.spaces.dim(n) for n in range(2)) == (1, 0)


def test_basic_subcomplex_trivial_action():
    s = sphere3_minimal_model()
    b = basic_subcomplex(s)
    assert tuple(b.complex.spaces.dim(n) for n in range(4)) == (1, 1, 1, 1)
    h = cohomology_dims(b.complex)
    assert h.dims_tuple(3) == (1, 0, 0, 1)


def test_basic_subcomplex_weil_is_polynomial_ring():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 8)
    b = basic_subcomplex(w)
    assert tuple(b.complex.spaces.dim(n) for n in range(9)) == (1, 0, 1, 0, 1, 0, 1, 0, 1)
    assert b.stable_through == 7


def test_basic_subcomplex_differential_restricts(rng):
    s = hopf_basic_model()
    b = basic_subcomplex(s)
    for n in b.complex.spaces.degrees():
        emb = b.embeddings.get(n)
        if emb is None or n + 1 > b.complex.spaces.window[1]:
            continue
        lhs = s.op_d(n) @ emb
        emb1 = b.embeddings.get(n + 1)
        rhs = (emb1 @ b.complex.diff(n)) if emb1 is not None else lhs
        assert lhs == rhs


def operator_only(d, i0, l0) -> GStarStructure:
    """One generator acting on a space with dims {0: 1, 1: 2} and no product."""
    space = GradedVectorSpace({0: 1, 1: 2}, window=(0, 1))
    return GStarStructure(GradedAlgebraPresentation(space, None),
                          LieAlgebraSpec.abelian(1), d, [i0], [l0])


def test_basic_subcomplex_refuses_d_leaving_the_joint_kernel():
    # ker i_X0 in degree 1 is span(e1), but d sends the degree-0 vector to e0
    s = operator_only({0: RationalMatrix.from_rows([[1], [0]])},
                      {1: RationalMatrix.from_rows([[1, 0]])}, {})
    with pytest.raises(ValueError, match="does not restrict"):
        basic_subcomplex(s)


# -- Weil algebra --------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2])
def test_weil_axioms_and_acyclicity(r):
    w = weil_algebra(LieAlgebraSpec.abelian(r), 10)
    rep = check_gstar_axioms(w)
    assert rep.ok, [c.witness for c in rep.failures()]
    h = cohomology_dims(w.as_complex())
    assert h.dim(0) == 1
    assert all(h.dim(n) == 0 for n in range(1, 9))


def test_weil_nonabelian_axioms():
    so3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    w = weil_algebra(so3, 5)
    rep = check_gstar_axioms(w)
    assert rep.ok, [(c.name, c.witness) for c in rep.failures()]


def test_weil_monomial_count_r1():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 8)
    assert tuple(w.space.dim(n) for n in range(9)) == (1,) * 9


WEIL_LIES = [LieAlgebraSpec.abelian(r) for r in range(5)] + [
    LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}),  # so(3)
    LieAlgebraSpec(2, {(0, 1): {1: 1}}),  # [X0, X1] = X1
    # sl(2) in the basis H, E, E + F: a bracket with two components
    LieAlgebraSpec(3, {(0, 1): {1: 2}, (0, 2): {1: 4, 2: -2}, (1, 2): {0: 1}}),
    # so(3) with every constant 1/2, so the operators hold Fractions
    LieAlgebraSpec(3, {(0, 1): {2: Fraction(1, 2)}, (1, 2): {0: Fraction(1, 2)},
                       (0, 2): {1: Fraction(1, 2)}}),
    LieAlgebraSpec(3, {(0, 1): {2: 1}}),  # Heisenberg
]


def test_weil_lie_algebras_satisfy_jacobi():
    assert [lie.validate() for lie in WEIL_LIES] == [[]] * len(WEIL_LIES)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WEIL_LIES), st.integers(0, 8))
@example(WEIL_LIES[0], 0).via("r = 0, N = 0")
@example(WEIL_LIES[4], 8).via("largest abelian case")
@example(WEIL_LIES[5], 8).via("so(3) at the top degree")
@example(WEIL_LIES[7], 8).via("sl(2) with a two-component bracket at the top degree")
@example(WEIL_LIES[8], 8).via("so(3) with constants 1/2 at the top degree")
@example(WEIL_LIES[9], 8).via("Heisenberg at the top degree")
def test_weil_build_matches_the_monomial_reference(lie, top):
    w, ref = weil_algebra(lie, top), reference_weil_algebra(lie, top)
    assert (w.space.dims, w.space.labels, w.space.window) == \
        (ref.space.dims, ref.space.labels, ref.space.window)
    assert product_table(w.algebra) == product_table(ref.algebra)
    for n in range(-1, top + 2):
        assert w.op_d(n).tolist() == ref.op_d(n).tolist()
        for j in range(lie.dimension):
            assert w.op_i(j, n).tolist() == ref.op_i(j, n).tolist()
            assert w.op_l(j, n).tolist() == ref.op_l(j, n).tolist()


# -- type (C) -------------------------------------------------------------------------


@pytest.mark.parametrize("family,n,message", [
    ("d", 1, "d shape mismatch in degree 1"),
    ("i", 2, "i[1] shape mismatch in degree 2"),
    ("L", 2, "L[1] shape mismatch in degree 2"),
])
@pytest.mark.parametrize("zero", [False, True], ids=["nonzero", "zero"])
def test_an_operator_of_the_wrong_shape_is_refused(family, n, message, zero):
    # W(R^2) at N = 3 has dims 1, 2, 3, 4: d_1 is 3x2, i_j at 2 is 2x3, L_j at 2 is 3x3
    w = weil_algebra(LieAlgebraSpec.abelian(2), 3)
    d, i_ops, l_ops = w.d_operators(), [w.i_operators(j) for j in range(2)], \
        [w.l_operators(j) for j in range(2)]
    maps = {"d": d, "i": i_ops[1], "L": l_ops[1]}[family]
    maps[n] = RationalMatrix.zeros(2, 2) if zero else RationalMatrix.identity(2)
    with pytest.raises(ValueError, match=re.escape(message)):
        GStarStructure(w.algebra, w.lie, d, i_ops, l_ops)


def test_type_c_exterior_line():
    v = detect_type_c(exterior_line_free(), hopf_connection_candidates())
    assert v.free and v.type_c


def test_type_c_two_generators():
    cand = ConnectionElements(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    v = detect_type_c(exterior_two_free(), cand)
    assert v.free and v.type_c


def test_type_c_trivial_action_not_free():
    v = detect_type_c(trivial_line(), ConnectionElements(((),)))
    assert not v.free and not v.type_c


def test_free_but_not_type_c():
    # detect_type_c reads only i and L, so the operators need not satisfy the axioms
    base = exterior_line_free()
    mutant = GStarStructure(
        base.algebra, base.lie, {},
        [base.i_operators(0)],
        [{0: RationalMatrix.zeros(1, 1)}],
    )
    v = detect_type_c(mutant, hopf_connection_candidates())
    assert v.free and v.type_c  # zero L stays in the span
    # i_X0 theta = 1 with theta = e0, and L_X0 theta = e1 leaves span(theta)
    s = operator_only({}, {1: RationalMatrix.from_rows([[1, 0]])},
                      {1: RationalMatrix.from_rows([[0, 0], [1, 0]])})
    v = detect_type_c(s, ConnectionElements((unit_vec(2, 0),)))
    assert v.free and not v.type_c
    assert "does not preserve" in v.detail


# -- tensor products -----------------------------------------------------------------


def test_tensor_with_trivial_line_keeps_dims():
    a = hopf_basic_model()
    t = tensor_gstar(a, trivial_line(1))
    assert tuple(t.space.dim(n) for n in range(4)) == tuple(
        a.space.dim(n) for n in range(4)
    )
    assert check_gstar_axioms(t).ok


def test_tensor_exterior_lines_binomial():
    t = tensor_gstar(exterior_line_free(), exterior_line_free())
    assert tuple(t.space.dim(n) for n in range(3)) == (1, 2, 1)
    assert check_gstar_axioms(t).ok


def test_tensor_weil_with_exterior_passes_axioms():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 6)
    t = tensor_gstar(w, exterior_line_free())
    assert check_gstar_axioms(t).ok
    assert t.truncated_above == 6


def test_tensor_associative_dims():
    a, b, c = exterior_line_free(), exterior_line_free(), exterior_line_free()
    left = tensor_gstar(tensor_gstar(a, b), c)
    right = tensor_gstar(a, tensor_gstar(b, c))
    assert [left.space.dim(n) for n in range(4)] == [right.space.dim(n) for n in range(4)]
    hl = cohomology_dims(basic_subcomplex(left).complex)
    hr = cohomology_dims(basic_subcomplex(right).complex)
    assert hl.dims_tuple(3) == hr.dims_tuple(3)


def test_tensor_requires_same_lie():
    with pytest.raises(ValueError):
        tensor_gstar(exterior_line_free(), trivial_line(2))


def test_tensor_window_cap_marks_truncation():
    a = hopf_basic_model()
    t = tensor_gstar(a, a, max_degree=3)
    assert t.truncated_above == 3
    full = tensor_gstar(a, a)
    assert full.truncated_above is None
    assert full.space.window[1] == 6


# -- Weil model ------------------------------------------------------------------------


def test_weil_model_trivial_action_tensor_formula():
    s = trivial_action_on_h_1_0_1()
    w = weil_model_cohomology(s, 8)
    # S(a*) x H(A) with H(A) = (1,0,1)
    assert w.dims_tuple(8) == (1, 0, 2, 0, 2, 0, 2, 0, 2)


def test_weil_model_free_action():
    assert weil_model_cohomology(exterior_line_free(), 6).dims_tuple(6) == (
        1, 0, 0, 0, 0, 0, 0,
    )


def test_weil_model_of_weil_algebra_is_polynomial_ring():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 10)
    res = weil_model_cohomology(w, 6)
    assert res.dims_tuple(6) == (1, 0, 1, 0, 1, 0, 1)


def test_extend_with_trivial_factor():
    s = extend_with_trivial_factor(exterior_line_free(), 1)
    assert s.lie.dimension == 2
    assert check_gstar_axioms(s).ok


# -- tensor operators and lazy product tables against the per-entry build --------------
# The reference below is the eager, per-entry tensor construction that the
# scattered build and the lazy product table replaced.


def reference_tensor(a, b, cap):
    """(pairs per degree, products, d, i, L) built entry by entry."""
    pairs = {}
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            for db in b.space.degrees():
                if da + db > cap:
                    continue
                for ib in range(b.space.dim(db)):
                    pairs.setdefault(da + db, []).append((da, ia, db, ib))
    for n in pairs:
        pairs[n].sort()
    index = {key: (n, i) for n, lst in pairs.items() for i, key in enumerate(lst)}

    entries = {}
    for n1, lst1 in pairs.items():
        for i1, (da1, ia1, db1, ib1) in enumerate(lst1):
            for n2, lst2 in pairs.items():
                if n1 + n2 > cap:
                    continue
                for i2, (da2, ia2, db2, ib2) in enumerate(lst2):
                    sign = -1 if (db1 % 2 and da2 % 2) else 1
                    for ka, ca in basis_product(a.algebra, da1, ia1, da2, ia2):
                        for kb, cb in basis_product(b.algebra, db1, ib1, db2, ib2):
                            key = index.get((da1 + da2, ka, db1 + db2, kb))
                            if key is not None:
                                entries.setdefault((n1, n2), []).append(
                                    (key[1], i1 * len(lst2) + i2, sign * ca * cb))
    products = {(n1, n2): RationalMatrix.from_entries(len(pairs[n1 + n2]),
                                                      len(pairs[n1]) * len(pairs[n2]), e)
                for (n1, n2), e in entries.items()}
    products = {key: m for key, m in products.items() if not m.is_zero()}

    def build(op_deg, op_a, op_b):
        mats = {}
        for n, lst in pairs.items():
            rows = len(pairs.get(n + op_deg, []))
            tgt_index = {key: i for i, key in enumerate(pairs.get(n + op_deg, []))}
            cols = []
            for (da, ia, db, ib) in lst:
                col = [Fraction(0)] * rows
                ma = op_a(da).tolist()
                for k in range(len(ma)):
                    c = ma[k][ia]
                    if c != 0:
                        pos = tgt_index.get((da + op_deg, k, db, ib))
                        if pos is not None:
                            col[pos] += c
                sign = -1 if (op_deg % 2 and da % 2) else 1
                mb = op_b(db).tolist()
                for k in range(len(mb)):
                    c = mb[k][ib]
                    if c != 0:
                        pos = tgt_index.get((da, ia, db + op_deg, k))
                        if pos is not None:
                            col[pos] += sign * c
                cols.append(tuple(col))
            mats[n] = RationalMatrix.from_cols(cols, rows)
        return mats

    r = a.lie.dimension
    d = build(1, a.op_d, b.op_d)
    i_ops = [build(-1, lambda n, j=j: a.op_i(j, n), lambda n, j=j: b.op_i(j, n)) for j in range(r)]
    l_ops = [build(0, lambda n, j=j: a.op_l(j, n), lambda n, j=j: b.op_l(j, n)) for j in range(r)]
    return pairs, products, d, i_ops, l_ops


SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def so3_point():
    """so(3) acting trivially on a point."""
    return GStarStructure(trivial_line(3).algebra, SO3, {}, [{}] * 3, [{}] * 3)


# factors sharing one Lie algebra; weil algebras take their top degree N <= 4
FACTORS = {
    "R": (exterior_line_free, hopf_basic_model, sphere3_minimal_model,
          trivial_action_on_h_1_0_1, lambda: trivial_line(1),
          lambda n: weil_algebra(LieAlgebraSpec.abelian(1), n)),
    "R2": (exterior_two_free, lambda: trivial_line(2),
           lambda n: weil_algebra(LieAlgebraSpec.abelian(2), n)),
    "so3": (so3_point, lambda n: weil_algebra(SO3, n)),
}


@st.composite
def tensor_factors(draw):
    lie = draw(st.sampled_from(sorted(FACTORS)))
    makers = FACTORS[lie]
    out = []
    for _ in range(2):
        make = draw(st.sampled_from(makers))
        top = 3 if lie == "so3" else 4
        s = make(draw(st.integers(0, top))) if make is makers[-1] else make()
        if draw(st.booleans()):
            s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
        out.append(s)
    return out[0], out[1], draw(st.one_of(st.none(), st.integers(0, 4)))


@settings(max_examples=60, deadline=None)
@given(tensor_factors())
def test_tensor_operators_match_per_entry_build(factors):
    a, b, max_degree = factors
    t = tensor_gstar(a, b, max_degree=max_degree)
    pairs, products, d, i_ops, l_ops = reference_tensor(a, b, t.space.window[1])
    assert {n: t.space.dim(n) for n in t.space.degrees() if t.space.dim(n)} == \
        {n: len(lst) for n, lst in pairs.items()}
    for n in pairs:
        assert t.op_d(n) == d[n]
        for j in range(a.lie.dimension):
            assert t.op_i(j, n) == i_ops[j][n]
            assert t.op_l(j, n) == l_ops[j][n]
    assert "products" not in vars(t.algebra)  # built on first read only
    assert product_table(t.algebra) == products


def scatter_tensor_operators(a, b, cap):
    """(d, i, L) of A (x) B through degree cap, each factor entry scattered on its own.

    This is the build that placing Kronecker blocks replaced: every nonzero
    entry of a factor operator is looked up at its target pair and signed.
    """
    pairs = {}
    for da in a.space.degrees():
        for ia in range(a.space.dim(da)):
            for db in b.space.degrees():
                if da + db <= cap:
                    pairs.setdefault(da + db, []).extend(
                        (da, ia, db, ib) for ib in range(b.space.dim(db)))
    for n in pairs:
        pairs[n].sort()

    def build(op_deg, op_a, op_b):
        nz_a = {n: op_a(n).nonzero_columns() for n in a.space.degrees()}
        nz_b = {n: op_b(n).nonzero_columns() for n in b.space.degrees()}
        mats = {}
        for n, lst in pairs.items():
            tgt_index = {key: i for i, key in enumerate(pairs.get(n + op_deg, ()))}
            entries = []
            for col, (da, ia, db, ib) in enumerate(lst):
                for k, c in nz_a[da][ia]:
                    pos = tgt_index.get((da + op_deg, k, db, ib))
                    if pos is not None:
                        entries.append((pos, col, c))
                sign = -1 if (op_deg % 2 and da % 2) else 1
                for k, c in nz_b[db][ib]:
                    pos = tgt_index.get((da, ia, db + op_deg, k))
                    if pos is not None:
                        entries.append((pos, col, sign * c))
            mats[n] = RationalMatrix.from_entries(len(tgt_index), len(lst), entries)
        return mats

    r = a.lie.dimension
    d = build(1, a.op_d, b.op_d)
    i_ops = [build(-1, lambda n, j=j: a.op_i(j, n), lambda n, j=j: b.op_i(j, n)) for j in range(r)]
    l_ops = [build(0, lambda n, j=j: a.op_l(j, n), lambda n, j=j: b.op_l(j, n)) for j in range(r)]
    return d, i_ops, l_ops


@st.composite
def weil_tensor_factors(draw):
    """A truncated W(g) and a second factor, in either order, maybe in unit-LU bases, and a cut.

    g is R, R^2 or so(3); the second factor is another truncated W(g) or a
    fixture on the same g.
    """
    makers = FACTORS[draw(st.sampled_from(sorted(FACTORS)))]
    top = 3 if makers is FACTORS["so3"] else 5
    weil = makers[-1](draw(st.integers(0, top)))
    make = draw(st.sampled_from(makers))
    other = make(draw(st.integers(0, top))) if make is makers[-1] else make()
    out = [weil, other]
    for k in range(2):
        if draw(st.booleans()):
            out[k] = change_basis(out[k], random.Random(draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        out.reverse()
    return out[0], out[1], draw(st.one_of(st.none(), st.integers(0, 2 * top)))


@settings(max_examples=60, deadline=None)
@given(weil_tensor_factors())
@example((weil_algebra(SO3, 3), weil_algebra(SO3, 3), None)).via("so(3) on both sides")
@example((weil_algebra(LieAlgebraSpec.abelian(2), 5), exterior_two_free(), 4)).via("a cut")
def test_tensor_operators_match_the_scatter_build(factors):
    a, b, max_degree = factors
    t = tensor_gstar(a, b, max_degree=max_degree)
    d, i_ops, l_ops = scatter_tensor_operators(a, b, t.space.window[1])
    assert {n: t.space.dim(n) for n in t.space.degrees() if t.space.dim(n)} == \
        {n: m.cols for n, m in d.items()}
    for n in d:
        assert t.op_d(n) == d[n]
        for j in range(a.lie.dimension):
            assert t.op_i(j, n) == i_ops[j][n]
            assert t.op_l(j, n) == l_ops[j][n]


def assert_labels_equal_eager_ones(space, want):
    """space's labels, read one at a time and then all at once, equal the eager tuples want."""
    for n, names in want.items():
        assert [space.label(n, i) for i in range(len(names))] == list(names)
    assert "labels" not in vars(space)  # a single read formats no other label
    assert space.labels == want
    assert space == GradedVectorSpace(space.dims, want, window=space.window)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([LieAlgebraSpec.abelian(r) for r in (1, 2, 3)] + [SO3]),
       st.integers(0, 6))
@example(SO3, 6).via("so(3) at the top degree")
def test_weil_labels_on_demand_equal_eager_ones(lie, top):
    assert_labels_equal_eager_ones(weil_algebra(lie, top).space,
                                   reference_weil_algebra(lie, top).space.labels)


@settings(max_examples=40, deadline=None)
@given(tensor_factors())
def test_tensor_and_basic_labels_on_demand_equal_eager_ones(factors):
    a, b, max_degree = factors
    t = tensor_gstar(a, b, max_degree=max_degree)
    pairs = reference_tensor(a, b, t.space.window[1])[0]
    assert_labels_equal_eager_ones(t.space, {
        n: tuple(f"{a.space.label(da, ia)}(x){b.space.label(db, ib)}" for da, ia, db, ib in lst)
        for n, lst in pairs.items()})
    spaces = basic_subcomplex(t).complex.spaces
    assert_labels_equal_eager_ones(spaces, {
        n: tuple(f"b{n}_{i}" for i in range(d)) for n, d in spaces.dims.items()})


def test_default_and_given_labels():
    sp = GradedVectorSpace({0: 1, 1: 2, 3: 0}, {1: ("a", "b"), 3: ()})
    assert [sp.label(0, 0), sp.label(1, 1), sp.label(2, 0), sp.label(1, -1)] == ["e0_0", "b", "", "b"]
    assert sp.labels == {0: ("e0_0",), 1: ("a", "b"), 3: ()}
    with pytest.raises(IndexError):
        sp.label(0, 1)
    with pytest.raises(ValueError, match="label count mismatch in degree 1"):
        GradedVectorSpace({1: 2}, {1: ("a",)})


def test_lazy_tables_are_built_only_when_read():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 4)
    t = tensor_gstar(w, change_basis(hopf_basic_model(), random.Random(1)))
    cohomology_dims(basic_subcomplex(t).complex)
    assert t.algebra.has_products()
    assert "products" not in vars(t.algebra) and "products" not in vars(w.algebra)
    assert check_gstar_axioms(t).ok  # the derivation laws read both tables
    assert "products" in vars(t.algebra) and "products" in vars(w.algebra)


def test_tensor_product_table_passes_axioms():
    for a, b in ((weil_algebra(LieAlgebraSpec.abelian(1), 4), hopf_basic_model()),
                 (change_basis(trivial_action_on_h_1_0_1(), random.Random(2)),
                  change_basis(hopf_basic_model(), random.Random(3))),
                 (exterior_two_free(), weil_algebra(LieAlgebraSpec.abelian(2), 3)),
                 (weil_algebra(SO3, 3), so3_point())):
        t = tensor_gstar(a, b)
        pairs, products, *_ = reference_tensor(a, b, t.space.window[1])
        assert product_table(t.algebra) == products
        rep = check_gstar_axioms(t)
        assert rep.ok, [(c.name, c.witness) for c in rep.failures()]
        assert t.algebra.check_algebra() == []


def test_product_matrix_of_the_wrong_shape_fails_early():
    space = GradedVectorSpace({0: 1, 1: 2}, {0: ("1",), 1: ("a", "b")})
    GradedAlgebraPresentation(space, {(0, 1): RationalMatrix.identity(2)})
    with pytest.raises(ValueError, match="M_1,1 is 2x4"):
        GradedAlgebraPresentation(space, {(1, 1): RationalMatrix.zeros(2, 4)})
    with pytest.raises(ValueError, match="M_0,1 is 2x1"):
        GradedAlgebraPresentation(space, {(0, 1): RationalMatrix.zeros(2, 1)})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([
    lambda: weil_algebra(LieAlgebraSpec.abelian(1), 3),
    lambda: weil_algebra(LieAlgebraSpec.abelian(2), 3),
    lambda: weil_algebra(SO3, 3), exterior_two_free, hopf_basic_model, sphere3_minimal_model,
]), st.integers(0, 2**16))
def test_basis_change_by_conjugation_matches_the_element_wise_transport(make, seed):
    s = make()
    fast = change_basis(s, random.Random(seed)).algebra
    slow = reference_change_basis(s, random.Random(seed))
    assert all(fast.product_matrix(*key) == m for key, m in slow.items())


# -- matrix-identity axiom checks against the element-wise reference ---------------------


MUTANT_BASES = (
    exterior_line_free, exterior_two_free, hopf_basic_model, sphere3_minimal_model,
    trivial_action_on_h_1_0_1, lambda: weil_algebra(LieAlgebraSpec.abelian(1), 4),
    lambda: weil_algebra(LieAlgebraSpec.abelian(2), 3),
    lambda: weil_algebra(LieAlgebraSpec.abelian(2), 4), lambda: weil_algebra(SO3, 3),
)


@st.composite
def mutated_structures(draw):
    """A fixture or Weil structure, maybe in a unit-LU basis, with a few entries changed."""
    s = draw(st.sampled_from(MUTANT_BASES))()
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    sp, r = s.space, s.lie.dimension
    degs = [n for n in sp.degrees() if sp.dim(n)]
    products = dict(s.algebra.products)
    d = s.d_operators()
    ops = {"i": [s.i_operators(j) for j in range(r)], "L": [s.l_operators(j) for j in range(r)]}
    coeff = st.sampled_from((-2, -1, 0, 1, 2, "1/2"))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("product", "d", "i", "L")))
        if kind == "product":
            # one entry of one product e_ia e_ib, in a degree pair with a nonzero target
            da, db = draw(st.sampled_from([(da, db) for da in degs for db in degs
                                           if sp.dim(da + db)]))
            grid = (products.get((da, db)) or RationalMatrix.zeros(
                sp.dim(da + db), sp.dim(da) * sp.dim(db))).tolist()
            grid[draw(st.integers(0, sp.dim(da + db) - 1))][
                draw(st.integers(0, sp.dim(da) * sp.dim(db) - 1))] = Fraction(draw(coeff))
            products[(da, db)] = RationalMatrix.from_rows(grid)
            continue
        if kind in ("i", "L") and not r:
            continue
        delta = {"d": 1, "i": -1, "L": 0}[kind]
        table = d if kind == "d" else ops[kind][draw(st.integers(0, r - 1))]
        shapes = [n for n in degs if sp.dim(n + delta)]
        if not shapes:
            continue
        n = draw(st.sampled_from(shapes))
        rows, cols = sp.dim(n + delta), sp.dim(n)
        grid = (table.get(n) or RationalMatrix.zeros(rows, cols)).tolist()
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = Fraction(draw(coeff))
        table[n] = RationalMatrix.from_rows(grid)
    algebra = GradedAlgebraPresentation(sp, products, s.algebra.unit_index, s.truncated_above)
    return GStarStructure(algebra, s.lie, d, ops["i"], ops["L"])


@settings(max_examples=60, deadline=None)
@given(mutated_structures())
def test_axiom_checks_match_element_wise_reference(s):
    assert s.algebra.check_algebra() == reference_check_algebra(s.algebra)
    derivations = [c for c in check_gstar_axioms(s).checks if c.name.endswith("derivation")]
    assert derivations == reference_derivation_checks(s)


def test_ll_witness_is_the_first_pair():
    # swapping L_X1 and L_X2 on W(so(3)) breaks [L_X0, L_X1] first
    w = weil_algebra(SO3, 2)
    l_ops = [w.l_operators(j) for j in (0, 2, 1)]
    s = GStarStructure(w.algebra, SO3, w.d_operators(),
                       [w.i_operators(j) for j in range(3)], l_ops)
    check = next(c for c in check_gstar_axioms(s).checks if c.name == "[L_X, L_Y] = L_[X,Y]")
    assert check.witness == "[L_X0, L_X1] != L_[X0,X1] at degree 1"
