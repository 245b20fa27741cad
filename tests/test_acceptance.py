"""Acceptance suite: one test per verification criterion, exact comparisons.

Each test prints a PASS line on success (pytest -s shows them); any failure
is an assertion error naming the criterion.  Everything runs in exact
rational arithmetic, so "tolerance" is equality throughout.
"""

import random
import time

import pytest

from foliacoh import (
    ConnectionElements,
    GradedModulePresentation,
    LieAlgebraSpec,
    PoincarePolynomial,
    PoincareSeriesRational,
    basic_series_formal,
    basic_subcomplex,
    borel_check,
    check_gstar_axioms,
    cohomology_dims,
    depth_dim_cm,
    equivariant_cohomology,
    equivariant_series_from_strata,
    euler_at_minus_one,
    formality_verdict,
    freeness_test,
    koszul_tor,
    les_exactness_check,
    localization_rank_check,
    localized_rank,
    module_presentation,
    morse_series,
    perfectness_check,
    polytope_series,
    run_pages,
    validate_strata,
    verify_complex,
    weil_algebra,
    weil_model_cohomology,
)
from foliacoh.foliation import MorseComponent, MorseData, PolytopeData
from foliacoh.fixtures import (
    exterior_line_free,
    hopf_basic_model,
    hopf_connection_candidates,
    hopf_module,
    hopf_morse_data,
    hopf_strata_model,
    segment_polytope,
    sphere3_minimal_model,
    square_polytope,
    triangle_polytope,
    trivial_action_on_h_1_0_1,
    trivial_line,
)
from foliacoh.gstar import GStarStructure, detect_type_c
from foliacoh.ratmat import RationalMatrix

from conftest import random_complex, random_split_ses


def report(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def test_criterion_01_hopf_betti_numbers():
    t0 = time.time()
    strata = basic_series_formal(hopf_strata_model()).polynomial
    assert strata.coeffs == (1, 0, 1)
    poly = polytope_series(segment_polytope()).polynomial
    assert poly.coeffs == (1, 0, 1)
    assert euler_at_minus_one(strata) == 2
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"Hopf basic Betti numbers 1 + t^2 via strata and polytope ({elapsed:.3f}s)")


def test_criterion_02_equivariant_series_identity():
    m = hopf_strata_model()
    eq = equivariant_series_from_strata(m)
    assert eq.numerator.coeffs == (1, 0, 1) and eq.den_exp == 1
    basic = basic_series_formal(m).polynomial
    assert eq.expand(20) == PoincareSeriesRational(basic, 1).expand(20)
    report(2, "Hopf equivariant series (1+t^2)/(1-t^2) matches basic/(1-t^2) to degree 20")


def test_criterion_03_polytope_formula_and_validation():
    assert polytope_series(segment_polytope()).polynomial.coeffs == (1, 0, 1)
    assert polytope_series(square_polytope()).polynomial.coeffs == (1, 0, 2, 0, 1)
    assert polytope_series(triangle_polytope()).polynomial.coeffs == (1, 0, 1, 0, 1)
    assert not PolytopeData(f_vector=(4, 3, 1), q=4).validate().valid
    assert not PolytopeData(f_vector=(2, 1), q=3).validate().valid
    with pytest.raises(ValueError):
        polytope_series(PolytopeData(f_vector=(4, 3, 1), q=4))
    report(3, "polytope formula on segment/square/triangle; tampered inputs rejected")


def test_criterion_04_weil_acyclicity():
    for r in (1, 2):
        w = weil_algebra(LieAlgebraSpec.abelian(r), 10)
        h = cohomology_dims(w.as_complex())
        assert h.dim(0) == 1
        assert all(h.dim(n) == 0 for n in range(1, 9)), r
    report(4, "Weil structures r=1,2 truncated at 10 acyclic through the stable window")


FIXTURES = [trivial_line, exterior_line_free, hopf_basic_model, sphere3_minimal_model]


def test_criterion_05_mathai_quillen_agreement():
    for make in FIXTURES:
        s = make()
        e = equivariant_cohomology(s, 8)
        w = weil_model_cohomology(s, 8)
        assert e.dims_tuple(8) == w.dims_tuple(8), make.__name__
    report(5, "Cartan and Weil models agree in every degree <= 8 on all fixtures")


def test_criterion_06_free_basic_oracle():
    type_c = [(exterior_line_free, hopf_connection_candidates())]
    type_c.append((hopf_basic_model, hopf_connection_candidates()))
    for make, cand in type_c:
        s = make()
        assert detect_type_c(s, cand).type_c
        e = equivariant_cohomology(s, 8)
        h = cohomology_dims(basic_subcomplex(s).complex)
        assert e.dims_tuple(8) == tuple(h.dim(n) for n in range(9)), make.__name__
    report(6, "type (C) fixtures: equivariant dims equal basic-subcomplex dims to degree 8")


def test_criterion_07_spectral_formality():
    # trivial actions collapse at E_1 and are formal
    for make in (trivial_line, trivial_action_on_h_1_0_1, sphere3_minimal_model):
        s = make()
        e = equivariant_cohomology(s, 8)
        h = cohomology_dims(s.as_complex())
        run = run_pages(e, h.dims_tuple(8))
        assert run.stabilized_at == 1, make.__name__
        v = formality_verdict(e, h.dims_tuple(8))
        assert v.formal, make.__name__
    # the free-flow model is not formal, witnessed at t^1
    s = hopf_basic_model()
    e = equivariant_cohomology(s, 8)
    h = cohomology_dims(s.as_complex())
    v = formality_verdict(e, h.dims_tuple(8))
    assert not v.formal and v.method == "hilbert-factorization" and "t^1" in v.witness
    # odd-vanishing fixtures are declared formal by that method
    v2_s = trivial_action_on_h_1_0_1()
    e2 = equivariant_cohomology(v2_s, 8)
    h2 = cohomology_dims(v2_s.as_complex())
    v2 = formality_verdict(e2, h2.dims_tuple(8))
    assert v2.formal and v2.method == "odd-vanishing"
    report(7, "E_1 collapse and formality verdicts incl. the t^1 witness for the free flow")


def test_criterion_08_koszul_tor():
    tor = koszul_tor(GradedModulePresentation.residue_field(2, window=8))
    assert tor.tor_dims(0) == {0: 1}
    assert tor.tor_dims(1) == {2: 2}
    assert tor.tor_dims(2) == {4: 1}
    tor2 = koszul_tor(GradedModulePresentation.quotient_by_monomials(1, [(1,)], window=8))
    assert tor2.tor_dims(1) == {2: 1}
    free = GradedModulePresentation.free(2, (0, 2), window=10)
    assert koszul_tor(free).total(1) == 0 and koszul_tor(free).total(2) == 0
    # freeness agrees with the formality verdicts on the fixture modules
    for make, formal in ((hopf_basic_model, False), (trivial_action_on_h_1_0_1, True)):
        s = make()
        e = equivariant_cohomology(s, 8)
        pres = module_presentation(e)
        assert freeness_test(pres).free == formal, make.__name__
    report(8, "Tor of the residue field (1,2,1), S/(u) in degree 2, free modules clean")


def test_criterion_09_borel_localization():
    assert localized_rank(hopf_module()).rank == 0
    assert localization_rank_check(hopf_module(), 0).consistent
    # formal trivial-action fixture: rank equals total base cohomology
    s = trivial_action_on_h_1_0_1()
    e = equivariant_cohomology(s, 8)
    pres = module_presentation(e)
    total = cohomology_dims(s.as_complex()).total_dim()
    assert localized_rank(pres).rank == total == 2
    # equality iff formal on fixture triples
    assert borel_check(2, 2, True).consistent_with_formality
    assert borel_check(3, 2, False).consistent_with_formality
    assert not borel_check(3, 2, True).consistent_with_formality
    assert not borel_check(2, 3, True).inequality_holds
    report(9, "localized ranks (torsion 0, formal = total dim) and Borel equality iff formal")


def test_criterion_10_morse():
    v = perfectness_check(hopf_morse_data(), PoincarePolynomial((1, 0, 1)), 1)
    assert v.perfect and v.gap.quotient.is_zero()
    one = PoincarePolynomial.one()
    d = MorseData((MorseComponent(0, one, 1), MorseComponent(1, PoincarePolynomial((1, 1)), 1)))
    v2 = perfectness_check(d, one, 1)
    assert not v2.perfect and v2.gap.ok and v2.gap.quotient.coeffs == (0, 1)
    d3 = MorseData((MorseComponent(0, one, 1), MorseComponent(2, one, 1), MorseComponent(2, one, 1)))
    v3 = perfectness_check(d3, PoincarePolynomial((1, 0, 1)), 1)
    assert not v3.gap.ok
    report(10, "Hopf Morse data perfect with Q=0; constructed Q=t; indivisible gap flagged")


def test_criterion_11_property_suites():
    for make in FIXTURES + [trivial_action_on_h_1_0_1]:
        s = make()
        assert check_gstar_axioms(s).ok, make.__name__
        assert verify_complex(s.as_complex()).ok, make.__name__
    # mutation-injected variants fail
    base = exterior_line_free()
    mutant = GStarStructure(
        base.algebra, base.lie, {}, [base.i_operators(0)],
        [{1: RationalMatrix.from_rows([[1]])}],
    )
    assert not check_gstar_axioms(mutant).ok
    s3 = sphere3_minimal_model()
    d = s3.d_operators()
    d[2] = RationalMatrix.from_rows([[1]])
    mutant2 = GStarStructure(s3.algebra, s3.lie, d, [{}], [{}])
    assert not check_gstar_axioms(mutant2).ok
    assert not verify_complex(mutant2.as_complex()).ok
    rng = random.Random(11)
    for _ in range(100):
        ses = random_split_ses(rng, top=3, max_dim=6)
        assert les_exactness_check(ses).ok
    rng2 = random.Random(12)
    for _ in range(100):
        c = random_complex(rng2)
        h = cohomology_dims(c)
        chi_c = sum((-1) ** n * d for n, d in c.spaces.dims.items())
        chi_h = sum((-1) ** n * d for n, d in h.dims.items())
        assert chi_c == chi_h
    report(11, "axioms/d^2 on fixtures and mutants; 100 random SES exact; 100 Euler checks")


def test_criterion_12_appendix_module_verdicts():
    free2 = GradedModulePresentation.free(2, (0,), window=10)
    residue = GradedModulePresentation.residue_field(2, window=10)
    s_mod_u = GradedModulePresentation.quotient_by_monomials(1, [(1,)], window=10)
    mixed = GradedModulePresentation.quotient_by_monomials(2, [(1, 0)], window=10).direct_sum(
        GradedModulePresentation.free(2, (0,), window=10)
    )
    extension = GradedModulePresentation.quotient_by_monomials(1, [(2,)], window=10)
    expected = {
        "free": (free2, 2, 2, True),
        "residue field": (residue, 0, 0, True),
        "S/(u)": (s_mod_u, 0, 0, True),
        "mixed sum": (mixed, 1, 2, False),
        "extension S/(u^2)": (extension, 0, 0, True),
    }
    for name, (pres, depth, dim, cm) in expected.items():
        d = depth_dim_cm(pres)
        assert (d.depth, d.krull_dim, d.cohen_macaulay) == (depth, dim, cm), name
    # CM of maximal dimension <=> free, both directions
    assert freeness_test(free2).free and depth_dim_cm(free2).krull_dim == 2
    assert not freeness_test(mixed).free and not depth_dim_cm(mixed).cohen_macaulay
    assert depth_dim_cm(s_mod_u).cohen_macaulay and not freeness_test(s_mod_u).free
    assert depth_dim_cm(s_mod_u).krull_dim < s_mod_u.dim_a
    report(12, "depth/dim/CM on the five module fixtures; CM at maximal dimension iff free")
