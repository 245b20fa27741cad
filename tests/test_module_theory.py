import contextlib
import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import module_theory
from foliacoh.cartan import equivariant_cohomology, module_presentation
from foliacoh.fixtures import (
    exterior_line_free,
    hopf_basic_model,
    hopf_module,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
)
from foliacoh.gstar import extend_with_trivial_factor
from foliacoh.module_theory import (
    GradedModulePresentation,
    ModuleRealization,
    PresentationError,
    _koszul_boundary,
    certify_closed_form,
    depth_dim_cm,
    dim_sym,
    free_basis,
    freeness_test,
    hilbert,
    koszul_tor,
    localized_rank,
    monomials_of_degree,
    poly_shift,
    relation_columns,
    relation_degree,
    ses_cm_check,
)
from foliacoh.ratmat import (
    RationalMatrix,
    coordinates_modulo,
    independent_complement,
    unit_vec,
)

from conftest import circle_action, columns

# the five bundled module fixtures of the verification suite
FREE_R2 = GradedModulePresentation.free(2, (0,), window=10)
RESIDUE_R2 = GradedModulePresentation.residue_field(2, window=10)
S_MOD_U = GradedModulePresentation.quotient_by_monomials(1, [(1,)], window=10)
MIXED_R2 = GradedModulePresentation.quotient_by_monomials(2, [(1, 0)], window=10).direct_sum(
    GradedModulePresentation.free(2, (0,), window=10)
)
EXTENSION_SU2 = GradedModulePresentation.quotient_by_monomials(1, [(2,)], window=10)


def test_monomials_deterministic():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert dim_sym(2, 3) == 4
    assert dim_sym(0, 0) == 1 and dim_sym(0, 2) == 0


def test_presentation_validates_homogeneity():
    with pytest.raises(PresentationError):
        GradedModulePresentation(
            1, (0,), (({(0,): Fraction(1), (1,): Fraction(1)},),), window=6
        )


def test_hilbert_free_rank_one():
    assert hilbert(GradedModulePresentation.free(1, (0,), window=8)).coefficients == (
        1, 0, 1, 0, 1, 0, 1, 0, 1,
    )


def test_hilbert_s_mod_u():
    h = hilbert(S_MOD_U)
    assert h.coefficients == (1,) + (0,) * 10
    assert h.certified and h.closed_form.den_exp == 0


def test_hilbert_hopf_module():
    h = hilbert(hopf_module())
    assert h.coefficients == (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert h.closed_form.numerator.coeffs == (1, 0, 1)


def test_certification_margin():
    # 1/(1-t^2) certified on a long window, not on a short one
    assert certify_closed_form((1, 0, 1, 0, 1, 0, 1, 0, 1), 1) is not None
    assert certify_closed_form((1, 0, 1), 1) is None


def test_koszul_residue_field_r2():
    tor = koszul_tor(RESIDUE_R2)
    assert tor.tor_dims(0) == {0: 1}
    assert tor.tor_dims(1) == {2: 2}
    assert tor.tor_dims(2) == {4: 1}


def test_koszul_s_mod_u():
    tor = koszul_tor(S_MOD_U)
    assert tor.tor_dims(0) == {0: 1}
    assert tor.tor_dims(1) == {2: 1}


def test_koszul_free_no_higher_tor():
    tor = koszul_tor(FREE_R2)
    assert tor.tor_dims(0) == {0: 1}
    assert tor.total(1) == 0 and tor.total(2) == 0


def test_koszul_euler_characteristic_identity():
    # alternating sum of Koszul homology dims per internal degree equals the
    # alternating sum of the complex's own dims (Euler characteristic)
    for pres in (FREE_R2, RESIDUE_R2, S_MOD_U, MIXED_R2, EXTENSION_SU2, hopf_module()):
        from math import comb

        real = ModuleRealization(pres)
        tor = koszul_tor(pres)
        r = pres.dim_a
        for n in range(pres.window + 1):
            complex_sum = sum(
                (-1) ** i * comb(r, i) * real.dim(n - 2 * i)
                for i in range(r + 1)
                if n - 2 * i >= 0
            )
            homology_sum = sum(
                (-1) ** i * tor.dims.get((i, n), 0) for i in range(r + 1)
            )
            assert complex_sum == homology_sum


def test_freeness_fixtures():
    assert freeness_test(FREE_R2).free
    assert freeness_test(FREE_R2).ranks == (0,)
    assert not freeness_test(hopf_module()).free
    assert freeness_test(hopf_module()).ranks == (0, 2)
    assert not freeness_test(EXTENSION_SU2).free
    tor = koszul_tor(EXTENSION_SU2)
    assert tor.tor_dims(1) == {4: 1}


def test_localized_rank_fixtures():
    assert localized_rank(GradedModulePresentation.free(1, (0, 2), window=10)).rank == 2
    assert localized_rank(hopf_module()).rank == 0
    # free rank 1 (+) S/(u): additivity
    m = GradedModulePresentation.free(1, (0,), window=10).direct_sum(S_MOD_U)
    assert localized_rank(m).rank == 1


def test_localized_rank_inconclusive_window():
    m = GradedModulePresentation.free(1, (0,), window=2)
    assert localized_rank(m).conclusive is False


def test_depth_dim_cm_five_fixtures():
    # free: depth = dim = 2
    d = depth_dim_cm(FREE_R2)
    assert (d.depth, d.krull_dim, d.cohen_macaulay) == (2, 2, True)
    # residue field over r=2: depth 0, dim 0, CM
    d = depth_dim_cm(RESIDUE_R2)
    assert (d.depth, d.krull_dim, d.cohen_macaulay) == (0, 0, True)
    # S/(u) over r=1: depth 0, dim 0, CM
    d = depth_dim_cm(S_MOD_U)
    assert (d.depth, d.krull_dim, d.cohen_macaulay) == (0, 0, True)
    # S/(u1) (+) S over r=2: depth 1, dim 2, not CM
    d = depth_dim_cm(MIXED_R2)
    assert (d.depth, d.krull_dim, d.cohen_macaulay) == (1, 2, False)
    # S/(u^2) over r=1: depth 0, dim 0, CM
    d = depth_dim_cm(EXTENSION_SU2)
    assert (d.depth, d.krull_dim, d.cohen_macaulay) == (0, 0, True)


def test_zero_module_conventions():
    zero = GradedModulePresentation(1, (), (), window=6)
    d = depth_dim_cm(zero)
    assert d.depth == "+inf" and d.cohen_macaulay


def test_cm_maximal_dimension_iff_free():
    # CM of Krull dimension dim_a <=> free, both directions on fixtures
    for pres, expect_free in (
        (FREE_R2, True),
        (MIXED_R2, False),
        (GradedModulePresentation.free(2, (0, 2, 2), window=12), True),
    ):
        d = depth_dim_cm(pres)
        fr = freeness_test(pres)
        cm_max = d.cohen_macaulay and d.krull_dim == pres.dim_a
        assert cm_max == expect_free == fr.free
    # CM below maximal dimension does not imply free
    d = depth_dim_cm(S_MOD_U)
    assert d.cohen_macaulay and d.krull_dim < S_MOD_U.dim_a
    assert not freeness_test(S_MOD_U).free


def test_freeness_implies_rank_and_depth():
    for pres in (FREE_R2, GradedModulePresentation.free(2, (0, 2), window=12)):
        fr = freeness_test(pres)
        assert fr.free
        assert localized_rank(pres).rank == len(pres.generators)
        d = depth_dim_cm(pres)
        assert d.depth == d.krull_dim == pres.dim_a


# -- graded SES --------------------------------------------------------------------


def test_ses_cm_split_free():
    # 0 -> S -> S (+) S -> S -> 0 over r = 1
    s = GradedModulePresentation.free(1, (0,), window=10)
    s2 = GradedModulePresentation.free(1, (0, 0), window=10)
    f = (({(0,): Fraction(1)}, {}),)
    g = (({},), ({(0,): Fraction(1)},))
    rep = ses_cm_check(s, s2, s, f, g)
    assert rep.is_ses and rep.hypotheses_met and rep.conclusion_holds


def test_ses_cm_residue_fields():
    # 0 -> k -> k (+) k -> k -> 0 over r = 1: CM of dimension 0 throughout
    k = GradedModulePresentation.quotient_by_monomials(1, [(1,)], window=8)
    k2 = GradedModulePresentation(
        1, (0, 0),
        (({(1,): Fraction(1)}, {}), ({}, {(1,): Fraction(1)})),
        window=8,
    )
    f = (({(0,): Fraction(1)}, {}),)
    g = (({},), ({(0,): Fraction(1)},))
    rep = ses_cm_check(k, k2, k, f, g)
    assert rep.is_ses and rep.hypotheses_met and rep.conclusion_holds


def test_ses_cm_hypotheses_not_met():
    # 0 -> S(-2) --u--> S -> S/(u) -> 0: flanks have different dimensions
    a = GradedModulePresentation.free(1, (2,), window=10)
    b = GradedModulePresentation.free(1, (0,), window=10)
    c = S_MOD_U
    f = (({(1,): Fraction(1)},),)  # generator of A maps to u * generator of B
    g = (({(0,): Fraction(1)},),)
    rep = ses_cm_check(a, b, c, f, g)
    assert rep.is_ses
    assert not rep.hypotheses_met
    assert "hypotheses not met" in rep.detail


def test_ses_cm_rejects_non_ses():
    a = GradedModulePresentation.free(1, (0,), window=8)
    f = (({(0,): Fraction(1)},),)
    g = (({(0,): Fraction(1)},),)
    rep = ses_cm_check(a, a, a, f, g)  # identity o identity is not exact
    assert not rep.is_ses


# -- per-degree reduction against the per-vector path ---------------------------------
# The reference functions reduce one free vector at a time with an augmented
# solve, as the realization did before it kept one reduction matrix per degree.


def rel_cols(pres, n):
    """Every monomial multiple of each relation in degree n as a column, unscaled."""
    fb = free_basis(pres.generators, pres.dim_a, n)
    return relation_columns(pres.relations, pres.generators, pres.dim_a, n, fb)


def per_vector_reduce(pres, real, n, v):
    fb = real.free_basis[n]
    cols = [unit_vec(len(fb), i) for i in real.basis_indices[n]] + columns(rel_cols(pres, n))
    sol = RationalMatrix.from_cols(cols, len(fb)).solve(RationalMatrix.from_cols([v], len(fb)))
    return None if sol is None else columns(sol)[0][: len(real.basis_indices[n])]


def per_vector_u_matrix(pres, real, j, n):
    fb_src, fb_tgt = real.free_basis[n], real.free_basis[n + 2]
    pos = {key: i for i, key in enumerate(fb_tgt)}
    cols = []
    for i in real.basis_indices[n]:
        g_idx, beta = fb_src[i]
        beta2 = tuple(b + (k == j) for k, b in enumerate(beta))
        cols.append(per_vector_reduce(pres, real, n + 2,
                                      unit_vec(len(fb_tgt), pos[(g_idx, beta2)])))
    return RationalMatrix.from_cols(cols, real.dim(n + 2))


def per_vector_tor_dims(pres, real):
    """Koszul homology with each boundary built from the reference u-action."""
    r, n_max = pres.dim_a, pres.window
    subsets = {i: list(itertools.combinations(range(r), i)) for i in range(r + 1)}

    def k_basis(i, n):
        return [(m, S) for S in subsets[i] for m in range(real.dim(n - 2 * i))] if n >= 2 * i else []

    def rank(i, n):
        if not 1 <= i <= r or not k_basis(i, n):
            return 0
        src, tgt = k_basis(i, n), k_basis(i - 1, n)
        pos = {key: idx for idx, key in enumerate(tgt)}
        u = {j: columns(per_vector_u_matrix(pres, real, j, n - 2 * i)) for j in range(r)}
        cols = []
        for m, S in src:
            col = [Fraction(0)] * len(tgt)
            for t, j in enumerate(S):
                for k2, c in enumerate(u[j][m]):
                    col[pos[(k2, tuple(s for s in S if s != j))]] += (-1) ** t * c
            cols.append(col)
        return RationalMatrix.from_cols(cols, len(tgt)).rank()

    dims = {}
    for n in range(n_max + 1):
        for i in range(r + 1):
            h = len(k_basis(i, n)) - rank(i, n) - rank(i + 1, n)
            if h:
                dims[(i, n)] = h
    return dims


COEFFS = st.sampled_from([Fraction(c) for c in (1, -1, 2, 3)] + [Fraction(1, 2), Fraction(-2, 3)])


def nonzero_poly(draw, r, p):
    monos = monomials_of_degree(r, p)
    picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
    return {beta: draw(COEFFS) for beta in picked}


@st.composite
def presentations(draw):
    """r <= 2, window <= 6, rational relations plus redundant multiples and sums."""
    r = draw(st.integers(1, 2))
    gens = tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    window = draw(st.sampled_from(range(1, 7)))
    rels = []
    for _ in range(draw(st.integers(1, 3))):
        lead = draw(st.integers(0, len(gens) - 1))
        m = gens[lead] + 2 * draw(st.integers(0, 2))
        rel = []
        for k, g in enumerate(gens):
            if k == lead:
                rel.append(nonzero_poly(draw, r, (m - g) // 2))
            elif m >= g and (m - g) % 2 == 0 and draw(st.booleans()):
                rel.append(nonzero_poly(draw, r, (m - g) // 2))
            else:
                rel.append({})
        rels.append(tuple(rel))
    redundant = []
    for rel in rels:
        if draw(st.booleans()):  # u_j times a relation
            j = draw(st.integers(0, r - 1))
            redundant.append(tuple(
                poly_shift(poly, tuple(int(k == j) for k in range(r))) for poly in rel
            ))
    for a, b in itertools.combinations(rels, 2):
        if relation_degree(a, gens) == relation_degree(b, gens) and draw(st.booleans()):  # a + c b
            c = draw(COEFFS)
            redundant.append(tuple(
                {beta: pa.get(beta, 0) + c * pb.get(beta, 0) for beta in {*pa, *pb}}
                for pa, pb in zip(a, b)
            ))
    return GradedModulePresentation(r, gens, tuple(rels + redundant), window)


@settings(max_examples=100, deadline=None)
@given(presentations())
def test_reduction_matches_per_vector_path(pres):
    real = pres.realization
    for n in range(pres.window + 1):
        fb = real.free_basis[n]
        # hilbert against dim(free) - rank(relations), an independent count
        rel_rank = rel_cols(pres, n).rank()
        assert hilbert(pres).coefficients[n] == len(fb) - rel_rank
        red = real.reduction(n)
        for k in range(len(fb)):
            v = unit_vec(len(fb), k)
            assert red.apply(v) == per_vector_reduce(pres, real, n, v)
        if rel_cols(pres, n).cols:
            mixed = tuple(sum(col) for col in zip(*columns(rel_cols(pres, n))))
            assert red.apply(mixed) == per_vector_reduce(pres, real, n, mixed)
        if n + 2 <= pres.window:
            for j in range(pres.dim_a):
                assert real.u_matrix(j, n) == per_vector_u_matrix(pres, real, j, n)
    assert koszul_tor(pres).dims == per_vector_tor_dims(pres, real)


# -- Koszul boundaries against the scatter build ---------------------------------------


def scatter_koszul_boundary(real, r, i, n):
    """The Koszul boundary K_i^n -> K_{i-1}^n built entry by entry, as the package once did.

    K_i^n is listed as (m, S) pairs, S an i-subset in ``combinations`` order and
    m a basis index of M^(n-2i); the nonzero columns of each u_j are scattered
    through a position dict into ``from_entries``.
    """
    def k_basis(k):
        return [(m, S) for S in itertools.combinations(range(r), k)
                for m in range(real.dim(n - 2 * k))]

    src, tgt = k_basis(i), k_basis(i - 1)
    pos = {key: idx for idx, key in enumerate(tgt)}
    u_cols = {j: real.u_matrix(j, n - 2 * i).nonzero_columns() for j in range(r)}
    entries = [(pos[(k2, tuple(x for x in S if x != j))], col, (-1) ** t * c)
               for col, (m, S) in enumerate(src) for t, j in enumerate(S) for k2, c in u_cols[j][m]]
    return RationalMatrix.from_entries(len(tgt), len(src), entries)


@st.composite
def koszul_modules(draw):
    """Random presentations, monomial quotients over up to three variables, and the
    equivariant cohomology modules of abelian structures (the circle action among them)."""
    kind = draw(st.sampled_from(["random", "monomial", "cartan"]))
    if kind == "random":
        return draw(presentations())
    if kind == "monomial":
        r = draw(st.integers(1, 3))
        monos = [m for p in (1, 2) for m in monomials_of_degree(r, p)]
        picked = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        pres = GradedModulePresentation.quotient_by_monomials(r, picked, draw(st.integers(2, 8)))
        if draw(st.booleans()):
            pres = pres.direct_sum(GradedModulePresentation.free(r, (2,), pres.window))
        return pres
    make = draw(st.sampled_from([exterior_line_free, hopf_basic_model, sphere3_minimal_model,
                                 trivial_action_on_h_1_0_1, circle_action]))
    s = make()
    if draw(st.booleans()):
        s = extend_with_trivial_factor(s, draw(st.integers(1, 2)))
    return module_presentation(equivariant_cohomology(s, draw(st.integers(2, 8))))


@settings(max_examples=60, deadline=None)
@given(koszul_modules())
@example(GradedModulePresentation.residue_field(3, window=8))
@example(module_presentation(equivariant_cohomology(
    extend_with_trivial_factor(hopf_basic_model(), 2), 8)))
def test_koszul_boundaries_match_the_scatter_build(pres):
    real, r = pres.realization, pres.dim_a
    for n in range(pres.window + 1):
        for i in range(1, min(r, n // 2) + 1):
            assert _koszul_boundary(real, r, i, n) == scatter_koszul_boundary(real, r, i, n), (i, n)
    assert koszul_tor(pres).dims == per_vector_tor_dims(pres, real)


# -- realization from relation rows against the complement path -----------------------
# The reference realization takes the greedy complement of the identity modulo the
# relation columns and then coordinates modulo them, as the package once did.


class ComplementRealization(ModuleRealization):
    def __init__(self, pres):
        self.window = pres.window
        self.free_basis = {n: free_basis(pres.generators, pres.dim_a, n)
                           for n in range(pres.window + 1)}
        self.rel_cols = {n: rel_cols(pres, n) for n in self.free_basis}
        self.basis_indices = {
            n: independent_complement(RationalMatrix.identity(len(fb)), self.rel_cols[n])
            for n, fb in self.free_basis.items()
        }
        self._reductions = {}

    def reduction(self, n):
        if n not in self._reductions:
            std = RationalMatrix.identity(len(self.free_basis[n]))
            red = coordinates_modulo(std.select(self.basis_indices[n]), self.rel_cols[n], std)
            assert red is not None
            self._reductions[n] = red
        return self._reductions[n]


@contextlib.contextmanager
def complement_path():
    """Presentations made inside are realized by ``ComplementRealization``."""
    with mock.patch.object(module_theory, "ModuleRealization", ComplementRealization):
        yield


def again(pres):
    """A fresh presentation of the same data, with nothing computed yet."""
    return GradedModulePresentation(pres.dim_a, pres.generators, pres.relations, pres.window)


def any_poly(draw, r, p):
    """0 to 3 terms of degree p; a zero coefficient is dropped by the presentation."""
    monos = monomials_of_degree(r, p) if p >= 0 else []
    if not monos:
        return {}
    picked = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
    return {beta: draw(COEFFS | st.just(Fraction(0))) for beta in picked}


@st.composite
def relation_sets(draw, r=None, window=None):
    """r = 0..3 and windows 0..8, with rational, zero, duplicate and dependent relations."""
    r = draw(st.integers(0, 3)) if r is None else r
    window = draw(st.sampled_from(range(9))) if window is None else window
    gens = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    rels = []
    for _ in range(draw(st.sampled_from(range(5)))):
        lead = draw(st.integers(0, len(gens) - 1))
        m = gens[lead] + 2 * draw(st.integers(0, 2 if r else 0))
        rel = [any_poly(draw, r, (m - g) // 2) if (m - g) % 2 == 0 else {} for g in gens]
        if draw(st.integers(0, 4)):  # else the relation may well be zero
            rel[lead] = nonzero_poly(draw, r, (m - gens[lead]) // 2)
        rels.append(tuple(rel))
    live = [rel for rel in rels if relation_degree(rel, gens) >= 0]
    for rel in live:
        kind = draw(st.sampled_from(["none", "duplicate", "u multiple"]))
        if kind == "duplicate":
            rels.append(rel)
        elif kind == "u multiple" and r:
            j = draw(st.integers(0, r - 1))
            rels.append(tuple(poly_shift(p, tuple(int(k == j) for k in range(r))) for p in rel))
    for a, b in itertools.combinations(live, 2):
        if relation_degree(a, gens) == relation_degree(b, gens) and draw(st.booleans()):
            c = draw(COEFFS)
            rels.append(tuple({beta: pa.get(beta, 0) + c * pb.get(beta, 0) for beta in {*pa, *pb}}
                              for pa, pb in zip(a, b)))
    return GradedModulePresentation(r, gens, tuple(rels), window)


def assert_same_realization(pres, old):
    real, ref = pres.realization, old.realization
    for n in range(pres.window + 1):
        assert real.basis_indices[n] == ref.basis_indices[n], n
        assert real.reduction(n) == ref.reduction(n), n  # the same stored rows
        if n + 2 <= pres.window:
            for j in range(pres.dim_a):
                assert real.u_matrix(j, n) == ref.u_matrix(j, n), (j, n)


@settings(max_examples=150, deadline=None)
@given(relation_sets())
@example(GradedModulePresentation(2, (0, 0, 2, 2), (
    ({(2, 0): Fraction(1, 2), (1, 1): Fraction(-2, 3)}, {(0, 2): Fraction(3)},
     {(1, 0): Fraction(1)}, {(0, 1): Fraction(-2)}),
    ({(1, 1): Fraction(2)}, {(2, 0): Fraction(-1)}, {}, {(1, 0): Fraction(1, 2)}),
), 8))
@example(GradedModulePresentation(3, (0,), (({(0, 0, 0): Fraction(0)},),), 8))
def test_realization_matches_the_complement_path(pres):
    with complement_path():
        old = again(pres)
        old_tor = koszul_tor(old)
    assert_same_realization(pres, old)
    assert koszul_tor(pres).dims == old_tor.dims


@st.composite
def split_sequences(draw):
    """0 -> A -> A (+) C -> C -> 0, the middle with extra relations that mix A's and C's."""
    r, window = draw(st.integers(0, 3)), draw(st.sampled_from(range(9)))
    a, c = draw(relation_sets(r, window)), draw(relation_sets(r, window))
    b = a.direct_sum(c)
    mixed = []
    for ra, rc in itertools.product(a.relations, c.relations):
        if relation_degree(ra, a.generators) == relation_degree(rc, c.generators) \
                and draw(st.booleans()):  # (ra, 0) + t (0, rc)
            t = draw(COEFFS)
            mixed.append(ra + tuple({beta: t * x for beta, x in p.items()} for p in rc))
    b = GradedModulePresentation(r, b.generators, b.relations + tuple(mixed), b.window)
    one = {(0,) * r: Fraction(1)}
    k = len(a.generators)
    f = tuple(tuple(one if h == i else {} for h in range(len(b.generators))) for i in range(k))
    g = tuple(tuple(one if h == i - k else {} for h in range(len(c.generators)))
              for i in range(len(b.generators)))
    return a, b, c, f, g


@settings(max_examples=60, deadline=None)
@given(split_sequences())
def test_ses_check_matches_the_complement_path(ses):
    a, b, c, f, g = ses
    with complement_path():
        old = [again(m) for m in (a, b, c)]
        old_report = ses_cm_check(*old, f, g)
    assert ses_cm_check(a, b, c, f, g) == old_report
    assert old_report.is_ses
    for m, ref in zip((a, b, c), old):
        assert_same_realization(m, ref)
