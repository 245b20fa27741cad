"""Jobs written once, checked against the copies they replaced.

The expansion of a free-module series used to be written three times
(``PoincareSeriesRational.expand`` and two sums in ``spectral``), the strata
identity compared two series on a finite window, ``LieAlgebraSpec.validate``
ran its own r^5 loop over ``structure_constant`` with a sign rule of its
own, and ``tensor_gstar`` looked its unit up in an index of every tensor
basis element.  Those copies are kept here as references, and on random
input the code that replaced them must give what they give, except where
the window identity let a wrong series through.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cli, spectral
from foliacoh.algebra_core import GradedVectorSpace, cohomology_dims
from foliacoh.cartan import equivariant_cohomology, generator_degrees
from foliacoh.fixtures import (
    exterior_line_free,
    hopf_basic_model,
    hopf_strata_model,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
    trivial_line,
)
from foliacoh.foliation import (
    FoliationStrataModel,
    Stratum,
    basic_series_formal,
    equivariant_series_from_strata,
)
from foliacoh.gstar import (
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    tensor_gstar,
    weil_algebra,
)
from foliacoh.module_theory import (
    DEFAULT_WINDOW,
    GradedModulePresentation,
    free_window,
    freeness_test,
)
from foliacoh.series import (
    PoincarePolynomial,
    PoincareSeriesRational,
    dim_sym,
    times_one_minus_t2_power,
)
from foliacoh.spectral import FormalityVerdict, formality_verdict

# -- the replaced copies ----------------------------------------------------------------


def reference_expand(series: PoincareSeriesRational, n_max: int) -> tuple[int, ...]:
    """The coefficient of t^n is the sum over p of dim S^p a_(n-2p), S on den_exp variables."""
    base = [0] * (n_max + 1)
    for i, c in enumerate(series.numerator.coeffs):
        if i > n_max:
            break
        base[i] = c
    if series.den_exp == 0:
        return tuple(base)
    k = series.den_exp
    return tuple(sum(base[n - 2 * j] * math.comb(j + k - 1, k - 1) for j in range(n // 2 + 1))
                 for n in range(n_max + 1))


def reference_free_by_count(e, upto):
    gens, r = generator_degrees(e), e.dim_a
    if not e.complex.structure.lie.is_abelian and gens and gens[0] <= e.n_max - 2:
        raise ValueError(
            f"non-abelian Lie algebra: no u-action on classes, so the free-module "
            f"test cannot multiply the generator of degree {gens[0]} within degree {e.n_max}"
        )
    free = all(
        e.dim(n) == sum(dim_sym(r, (n - g) // 2) for g in gens if g <= n and (n - g) % 2 == 0)
        for n in range(upto + 1)
    )
    return free, 2 * r + (gens[-1] if gens else 0)


def reference_formality_verdict(e, base_cohomology):
    """The verdict with the Hilbert factorization summed by hand, degree by degree."""
    upto = min(e.n_max, e.stable_through, len(base_cohomology) - 1)
    odd_vanishing = all(base_cohomology[n] == 0 for n in range(1, upto + 1, 2))
    mismatch = None
    for n in range(upto + 1):
        want = sum(dim_sym(e.dim_a, p) * base_cohomology[n - 2 * p] for p in range(n // 2 + 1))
        if e.dim(n) != want:
            mismatch = (n, want, e.dim(n))
            break
    hilbert_ok = mismatch is None
    free, needed_window = reference_free_by_count(e, upto)
    if odd_vanishing and not hilbert_ok:
        raise RuntimeError(
            "internal error: odd cohomology vanishes but the Hilbert "
            f"factorization fails at degree {mismatch[0]}"
        )
    if upto >= needed_window and free != hilbert_ok:
        raise RuntimeError("internal error: free-module test and Hilbert factorization disagree")
    method = "odd-vanishing" if odd_vanishing else "hilbert-factorization"
    if odd_vanishing:
        witness = f"odd base cohomology vanishes through degree {upto}"
    elif hilbert_ok:
        witness = f"equivariant dims factor as S(a*) x base through degree {upto}"
    else:
        n, want, got = mismatch
        witness = f"witness at t^{n}: expected {want}, computed {got}"
    return FormalityVerdict(hilbert_ok, method, f"{witness}; free-module test: free={free}", upto)


def reference_structure_constant(lie, i, j, k):
    if i > j:
        return -reference_structure_constant(lie, j, i, k)
    return lie.brackets.get((i, j), {}).get(k, 0)


def reference_jacobi(lie) -> list[str]:
    issues = []
    r = lie.dimension
    c = lambda i, j, k: reference_structure_constant(lie, i, j, k)  # noqa: E731
    for i in range(r):
        for j in range(i + 1, r):
            for k in range(j + 1, r):
                for m in range(r):
                    total = Fraction(0)
                    for a, b, x in ((i, j, k), (j, k, i), (k, i, j)):
                        for l in range(r):
                            total += c(a, b, l) * c(l, x, m)
                    if total != 0:
                        issues.append(f"Jacobi fails on (X{i},X{j},X{k}) component {m}")
    return issues


def reference_unit_index(a, b, cap: int) -> int:
    """The unit found in an index of every tensor basis element of degree <= cap."""
    pairs = {}
    for da in a.space.degrees():
        for db in b.space.degrees():
            n, na, nb = da + db, a.space.dim(da), b.space.dim(db)
            if n > cap or not (na and nb):
                continue
            pairs.setdefault(n, []).extend(
                (da, ia, db, ib) for ia in range(na) for ib in range(nb))
    index = {key: (n, i) for n, lst in pairs.items() for i, key in enumerate(lst)}
    return index.get((0, a.algebra.unit_index if a.algebra.has_products() else 0,
                      0, b.algebra.unit_index if b.algebra.has_products() else 0), (0, 0))[1]


def reference_basic_series_formal(m, formality_provenance="caller-asserted", equivariant=None):
    """The strata identity compared on the window deg + 2 dim_a + 4 only."""
    eq = equivariant_series_from_strata(m) if equivariant is None else equivariant
    poly = PoincarePolynomial.zero()
    for s in m.strata:
        poly = poly + times_one_minus_t2_power(s.quotient_poincare.shift(s.codim), m.trdim(s))
    if any(c < 0 for c in poly.coeffs):
        bad = next(i for i, c in enumerate(poly.coeffs) if c < 0)
        raise ValueError(
            f"model inconsistent with formality: coefficient of t^{bad} "
            f"in the basic series is negative"
        )
    n = max(poly.degree(), 0) + 2 * m.dim_a + 4
    if PoincareSeriesRational(poly, m.dim_a).expand(n) != eq.expand(n):
        raise ValueError(
            "model inconsistent with formality: the strata series does not "
            "factor through (1-t^2)^dim_a"
        )
    return poly, formality_provenance


def reference_operators_out(s):
    """The writer's d, i and L read through the zero-filling op_* on every degree."""
    sp = s.space

    def mats_out(get):
        return {str(n): [[cli._rat_out(x) for x in r] for r in get(n).tolist()]
                for n in sp.degrees() if not get(n).is_zero()}

    r = s.lie.dimension
    return {"d": mats_out(s.op_d),
            "i": [mats_out(lambda n, j=j: s.op_i(j, n)) for j in range(r)],
            "L": [mats_out(lambda n, j=j: s.op_l(j, n)) for j in range(r)]}


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


# -- one expansion of a free-module series ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=9), st.integers(0, 3), st.integers(-2, 14))
@example([], 0, -2)
@example([1], 3, 0)
@example([0, 0, 0, 4], 2, 2)
def test_expand_is_the_sum_over_symmetric_powers(coeffs, r, n_max):
    series = PoincareSeriesRational(PoincarePolynomial(coeffs), r)
    # the canonical form, which may have cancelled factors of 1 - t^2, and the series as given
    a = PoincarePolynomial(coeffs).coeff
    as_given = tuple(sum(dim_sym(r, p) * a(n - 2 * p) for p in range(n // 2 + 1))
                     for n in range(n_max + 1))
    assert series.expand(n_max) == reference_expand(series, n_max) == as_given


def _structures():
    out = [(f"W(R^{r}) N={n}", weil_algebra(LieAlgebraSpec.abelian(r), n))
           for r in range(3) for n in (2, 4, 5)]
    out += [(make.__name__, make()) for make in (trivial_line, exterior_line_free,
                                                hopf_basic_model, sphere3_minimal_model,
                                                trivial_action_on_h_1_0_1)]
    return out


STRUCTURES = _structures()


@pytest.mark.parametrize("name,s", STRUCTURES, ids=[n for n, _ in STRUCTURES])
def test_formality_verdict_matches_the_sums_by_hand(name, s):
    window = s.space.window[1]
    for n_max in range(window + 4):
        e = equivariant_cohomology(s, n_max)
        base = cohomology_dims(s.as_complex()).dims_tuple(n_max)
        assert outcome(formality_verdict, e, base) == outcome(
            reference_formality_verdict, e, base), (name, n_max)
        for upto in range(-1, n_max + 1):
            assert outcome(spectral._free_by_count, e, upto) == outcome(
                reference_free_by_count, e, upto), (name, n_max, upto)


def test_free_window_is_two_r_above_the_top_generator():
    assert [free_window(2, (4, 0, 2)), free_window(3, ()), free_window(0, (1,))] == [8, 6, 1]
    for window in (5, 6):
        v = freeness_test(GradedModulePresentation.free(1, (4, 0), window=window))
        assert (v.needed_window, v.scoped) == (6, window < 6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(STRUCTURES))), st.integers(0, 7),
       st.lists(st.integers(0, 3), max_size=9))
def test_formality_verdict_matches_the_sums_by_hand_on_any_base(which, n_max, base):
    # a base that is not the algebra's cohomology still gets the same verdict or refusal
    e = equivariant_cohomology(STRUCTURES[which][1], n_max)
    assert outcome(formality_verdict, e, tuple(base)) == outcome(
        reference_formality_verdict, e, tuple(base))


# -- one sign rule for brackets -----------------------------------------------------------

COEFFS = st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def bracket_tables(draw):
    r = draw(st.integers(0, 5))
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    table = {}
    for ij in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True) if pairs
                   else st.just([])):
        table[ij] = draw(st.dictionaries(st.integers(0, r - 1), COEFFS, min_size=1, max_size=2))
    return LieAlgebraSpec(r, table)


SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})


@settings(max_examples=300, deadline=None)
@given(bracket_tables())
@example(SO3)
@example(LieAlgebraSpec(4, {(0, 1): {2: 1}, (1, 2): {3: 1}}))
def test_jacobi_issues_match_the_r5_loop(lie):
    assert lie.validate() == reference_jacobi(lie)
    r = lie.dimension
    assert all(lie.structure_constant(i, j, k) == reference_structure_constant(lie, i, j, k)
               for i in range(r) for j in range(r) for k in range(r))


def test_random_bracket_tables_mostly_fail_jacobi():
    # the property above is no test of a sum that is always zero
    rng = random.Random(37)
    failing = 0
    for _ in range(60):
        r = rng.randint(3, 5)
        pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
        table = {ij: {rng.randrange(r): rng.choice([1, -1, 2])}
                 for ij in rng.sample(pairs, rng.randint(2, len(pairs)))}
        lie = LieAlgebraSpec(r, table)
        assert lie.validate() == reference_jacobi(lie)
        failing += bool(lie.validate())
    assert failing > 40


# -- stored operators read as stored ---------------------------------------------------------


def _reversed_storage(s):
    """s with every operator family stored in descending degree order."""
    def back(ops):
        return dict(reversed(list(ops.items())))

    r = s.lie.dimension
    return GStarStructure(s.algebra, s.lie, back(s.d_operators()),
                          [back(s.i_operators(j)) for j in range(r)],
                          [back(s.l_operators(j)) for j in range(r)])


@pytest.mark.parametrize("name,s", STRUCTURES + [("W(so(3)) N=4", weil_algebra(SO3, 4))],
                         ids=[n for n, _ in STRUCTURES] + ["W(so(3)) N=4"])
def test_the_writer_lists_the_stored_operators_by_ascending_degree(name, s):
    want = reference_operators_out(s)
    for t in (s, _reversed_storage(s)):
        payload = cli.gstar_to_payload(t)
        got = {key: payload[key] for key in ("d", "i", "L")}
        # the same maps, and in the same key order, which a plain json.dumps keeps
        assert got == want
        assert [list(m) for m in [got["d"], *got["i"], *got["L"]]] == [
            list(m) for m in [want["d"], *want["i"], *want["L"]]]


# -- the tensor unit ------------------------------------------------------------------------


def _factor(dims, unit, unital):
    space = GradedVectorSpace(dims, window=(0, max(dims, default=0)))
    algebra = GradedAlgebraPresentation(space, (lambda: {}) if unital else None, unit_index=unit)
    return GStarStructure(algebra, LieAlgebraSpec.abelian(0), {}, [], [])


@st.composite
def factors(draw):
    unital = draw(st.booleans())
    dims = draw(st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=4))
    if unital:
        dims[0] = draw(st.integers(1, 3))
    return _factor(dims, draw(st.integers(-1, 4)), unital)


@settings(max_examples=300, deadline=None)
@given(factors(), factors(), st.sampled_from([None, -1, 0, 1, 3]))
@example(_factor({0: 3, 1: 1}, 2, True), _factor({0: 2}, 1, True), None)
@example(_factor({0: 3, 1: 1}, 3, True), _factor({0: 2}, 1, True), None)
@example(_factor({0: 2}, 1, True), _factor({0: 2}, -1, True), 1)
def test_tensor_unit_matches_the_index_lookup(a, b, max_degree):
    unital = a.algebra.has_products() and b.algebra.has_products()
    if unital and max_degree == -1:
        max_degree = None  # a unital tensor product needs its degree 0
    t = tensor_gstar(a, b, max_degree)
    assert t.algebra.unit_index == reference_unit_index(a, b, t.space.window[1])


def test_tensor_unit_past_the_first_unit_of_a():
    # dim A^0 = 3 and dim B^0 = 2: e_2 (x) e_1 is the last of the six
    t = tensor_gstar(_factor({0: 3}, 2, True), _factor({0: 2}, 1, True))
    assert t.algebra.unit_index == 5


# -- the exact strata identity --------------------------------------------------------------


@st.composite
def strata_models(draw):
    dim_a = draw(st.integers(0, 2))
    strata = tuple(
        Stratum(f"s{k}", draw(st.integers(0, 4)), draw(st.integers(0, dim_a)),
                PoincarePolynomial(draw(st.lists(st.integers(0, 2), max_size=3))))
        for k in range(draw(st.integers(0, 3))))
    return FoliationStrataModel(q=draw(st.integers(0, 6)), dim_a=dim_a, strata=strata)


def accepted(*args, **kwargs):
    r = basic_series_formal(*args, **kwargs)
    return r.polynomial, r.formality_provenance


@settings(max_examples=300, deadline=None)
@given(strata_models(), st.integers(0, 12), st.integers(-2, 2), st.integers(0, 2))
def test_exact_identity_matches_the_window_identity_on_its_window(m, degree, c, den):
    assert outcome(accepted, m) == outcome(reference_basic_series_formal, m)
    eq = outcome(equivariant_series_from_strata, m)
    if not isinstance(eq, PoincareSeriesRational):
        return  # an invalid model, refused alike above
    wrong = eq + PoincareSeriesRational(PoincarePolynomial.monomial(degree, c), den)
    got = outcome(accepted, m, equivariant=wrong)
    want = outcome(reference_basic_series_formal, m, equivariant=wrong)
    if wrong == eq:
        assert got == want == outcome(accepted, m)
        return
    assert got[0] == "ValueError"  # every wrong series is refused
    if got != want:
        # only the window took it: the difference vanishes through deg + 2 dim_a + 4
        window = max(want[0].degree(), 0) + 2 * m.dim_a + 4
        assert (wrong - eq).expand(window) == (0,) * (window + 1)
        assert "does not factor through" in got[1]


def test_a_wrong_series_above_the_window_is_refused():
    m = hopf_strata_model()
    eq = equivariant_series_from_strata(m)
    wrong = eq + PoincareSeriesRational(PoincarePolynomial.monomial(9))
    # the window of the old identity was 8, so it took this series as right
    assert reference_basic_series_formal(m, equivariant=wrong)[0] == PoincarePolynomial((1, 0, 1))
    with pytest.raises(ValueError, match="does not factor through"):
        basic_series_formal(m, equivariant=wrong)
    assert basic_series_formal(m, equivariant=eq).polynomial == PoincarePolynomial((1, 0, 1))


# -- constructors read integers only ------------------------------------------------------

NON_INTEGERS = [0.5, 2.7, 2.0, Fraction(3, 2), Fraction(2)]


@pytest.mark.parametrize("x", NON_INTEGERS, ids=repr)
def test_poincare_polynomial_refuses_a_non_integer(x):
    with pytest.raises(TypeError):
        PoincarePolynomial([1, x])
    assert PoincarePolynomial([True, 2, False]).coeffs == (1, 2)


@pytest.mark.parametrize("x", NON_INTEGERS, ids=repr)
def test_graded_vector_space_refuses_a_non_integer(x):
    with pytest.raises(TypeError):
        GradedVectorSpace({1: x})
    with pytest.raises(TypeError):
        GradedVectorSpace({1: 2}, window=(0, x + 1))
    sp = GradedVectorSpace({1: True}, window=(False, 3))
    assert (sp.dim(1), sp.window) == (1, (0, 3))


@pytest.mark.parametrize("x", NON_INTEGERS, ids=repr)
def test_module_presentation_refuses_a_non_integer(x):
    with pytest.raises(TypeError):
        GradedModulePresentation(1, (x,))
    with pytest.raises(TypeError):
        GradedModulePresentation(1, (0,), window=x)
    with pytest.raises(TypeError):
        GradedModulePresentation(1, (0,), (({(x,): 1},),))
    pres = GradedModulePresentation(1, (True,), window=True)
    assert (pres.generators, pres.window) == ((1,), 1)


def test_one_default_window():
    assert DEFAULT_WINDOW == 12
    made = [GradedModulePresentation(1, (0,)), GradedModulePresentation.free(1, (0,)),
            GradedModulePresentation.quotient_by_monomials(1, [(1,)]),
            GradedModulePresentation.residue_field(1),
            cli.parse_module({"dim_a": 1, "generators": [0]})]
    assert [p.window for p in made] == [DEFAULT_WINDOW] * 5
