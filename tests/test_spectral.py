import json
import random
import sys
from bisect import bisect_left
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cartan, cli, module_theory, spectral
from foliacoh.algebra_core import cohomology_dims
from foliacoh.cartan import CartanComplex, equivariant_cohomology, module_presentation
from foliacoh.fixtures import (
    exterior_line_free,
    exterior_two_free,
    hopf_basic_model,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
    trivial_line,
)
from foliacoh.gstar import (
    GStarStructure,
    LieAlgebraSpec,
    extend_with_trivial_factor,
    tensor_gstar,
    weil_algebra,
)
from foliacoh.module_theory import freeness_test
from foliacoh.ratmat import RationalMatrix, rank_of_columns, unit_vec
from foliacoh.spectral import (
    NonInvariantAction,
    SpectralSequence,
    formality_verdict,
    run_pages,
)

from conftest import cartan_basis, change_basis, circle_action, columns
from test_equivariant_ranks import SO3, truncated_weil_algebras
from test_ratmat import dense_rank

DATA = Path(cli.__file__).parent / "data"
FIXTURES = [
    trivial_line,
    exterior_line_free,
    hopf_basic_model,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
]


def base_of(s, n_max):
    """The cohomology dimensions of s's algebra through degree n_max."""
    return cohomology_dims(s.as_complex()).dims_tuple(n_max)


def pages_of(s, n_max):
    """run_pages on s's equivariant cohomology and algebra cohomology at window n_max."""
    return run_pages(equivariant_cohomology(s, n_max), base_of(s, n_max))


def e1_of(s, n_max):
    """The first page of s, which must pass the product-formula check."""
    run = pages_of(s, n_max)
    assert "product formula" not in run.detail, run.detail
    return run.pages[0]


def test_e1_trivial_action_two_diagonals():
    page = e1_of(trivial_action_on_h_1_0_1(), 6)
    for (p, q), d in page.dims.items():
        assert q - p in (0, 2) and d == 1
    assert page.differentials_vanish()


def test_e1_hopf_product_pattern():
    # d = 0 on the algebra, so E_1 cells are just S^p x A^{q-p}
    page = e1_of(hopf_basic_model(), 6)
    for (p, q), d in page.dims.items():
        assert 0 <= q - p <= 3 and d == 1
    assert not page.differentials_vanish()


def test_e1_weil_concentrated_on_diagonal():
    w = weil_algebra(LieAlgebraSpec.abelian(1), 10)
    page = e1_of(w, 6)
    assert all(q == p for (p, q) in page.dims)


def test_e1_refuses_nonzero_l():
    base = exterior_line_free()
    mutant = GStarStructure(
        base.algebra, base.lie, {},
        [base.i_operators(0)],
        [{1: RationalMatrix.from_rows([[1]])}],
    )
    with pytest.raises(NonInvariantAction):
        e1_of(mutant, 4)


def test_run_pages_names_the_first_cell_off_the_product_formula():
    # d = 0 on the hopf algebra, so h = (1, 1, 1, 1); one more class in degree 2
    s = hopf_basic_model()
    base = list(base_of(s, 6))
    base[2] += 1
    run = run_pages(equivariant_cohomology(s, 6), tuple(base))
    assert not run.totals_match_equivariant
    assert run.detail.startswith(
        "internal error: E_1(0,2) = 1 but the product formula gives 2; "), run.detail


def test_spectral_exits_on_a_first_page_off_the_product_formula(monkeypatch, capsys):
    real = cli.cohomology_dims

    def off_by_one(c):
        h = real(c)
        return h._replace(dims={**h.dims, 2: h.dim(2) + 1})

    monkeypatch.setattr(cli, "cohomology_dims", off_by_one)
    code = cli.main(["spectral", "--input", str(DATA / "hopf_gstar.json")])
    out = capsys.readouterr()
    assert code == cli.EXIT_VERDICT_FAILURE and "Traceback" not in out.err
    results = json.loads(out.out)["results"]
    assert results["totals_match_equivariant"] is False
    assert results["detail"].startswith("internal error: E_1(0,2) = 1 but"), results["detail"]


def test_run_pages_trivial_action_collapses_at_e1():
    s = trivial_action_on_h_1_0_1()
    run = pages_of(s, 6)
    assert run.stabilized_at == 1
    assert run.totals_match_equivariant
    assert run.pages[0].total_dims() == run.e_infinity.total_dims()


def test_run_pages_hopf_stabilizes_at_e2():
    s = hopf_basic_model()
    run = pages_of(s, 6)
    assert run.stabilized_at == 2
    assert run.e_infinity.total_dims() == (1, 0, 1, 0, 0, 0, 0)
    assert run.totals_match_equivariant


def test_page_totals_non_increasing():
    for make in FIXTURES:
        s = make()
        run = pages_of(s, 6)
        seq = [p.total_dims() for p in run.pages] + [run.e_infinity.total_dims()]
        for a, b in zip(seq, seq[1:]):
            assert all(x >= y for x, y in zip(a, b))


def test_page_dims_recurrence():
    # dim E_{r+1} = dim ker d_r - rank of incoming d_r
    s = hopf_basic_model()
    run = pages_of(s, 6)
    pages = list(run.pages) + [run.e_infinity]
    for pg, nxt in zip(pages, pages[1:]):
        r = pg.r
        for (p, q), d in pg.dims.items():
            out_rank = pg.d_ranks.get((p, q), 0)
            in_rank = pg.d_ranks.get((p - r, q + r - 1), 0)
            want = d - out_rank - in_rank
            assert nxt.dim(p, q) == want


def test_e_infinity_matches_equivariant_everywhere():
    for make in FIXTURES:
        s = make()
        run = pages_of(s, 6)
        assert run.totals_match_equivariant, make.__name__


# -- formality ---------------------------------------------------------------------


def verdict_for(make, n_max=8):
    s = make()
    e = equivariant_cohomology(s, n_max)
    return formality_verdict(e, base_of(s, n_max))


def test_odd_vanishing_fixture_formal():
    v = verdict_for(trivial_action_on_h_1_0_1)
    assert v.formal and v.method == "odd-vanishing"


def test_trivial_line_formal():
    v = verdict_for(trivial_line)
    assert v.formal


def test_sphere3_trivial_action_formal_via_hilbert():
    # odd cohomology present, so the factorization criterion decides
    v = verdict_for(sphere3_minimal_model)
    assert v.formal and v.method == "hilbert-factorization"


def test_hopf_not_formal_with_witness_at_t1():
    v = verdict_for(hopf_basic_model)
    assert not v.formal
    assert v.method == "hilbert-factorization"
    assert "t^1" in v.witness
    assert "free=False" in v.witness


def test_formality_iff_e1_collapse():
    # both directions on the bundled fixtures
    for make in FIXTURES:
        s = make()
        e = equivariant_cohomology(s, 8)
        v = formality_verdict(e, base_of(s, 8))
        run = run_pages(e, base_of(s, 8))
        collapses = run.pages[0].total_dims() == run.e_infinity.total_dims()
        assert v.formal == collapses, make.__name__


# -- pages against the filtration subquotients ---------------------------------------


class SubquotientPages:
    """Reference pages from Z_r(p,q) = F^p Tot^n intersect D^{-1} F^{p+r} Tot^{n+1}.

    E_r(p,q) = Z_r(p,q) / (Z_{r-1}(p+1,q-1) + D Z_{r-1}(p-r+1,q+r-2)), every
    rank exact, on a complex one degree longer than the window.
    """

    def __init__(self, s, n_max):
        self.n_max = n_max
        self.cx = CartanComplex(s, n_max + 1)
        self.space = s.space
        self._z = {}

    def _basis(self, n):
        return cartan_basis(self.cx.structure, n) if 0 <= n < len(self.cx.slices) else ()

    def _diff(self, n):
        if n in self.cx.d:
            return self.cx.d[n]
        return RationalMatrix.zeros(len(self._basis(n + 1)), len(self._basis(n)))

    def z_cols(self, r, p, q):
        n = p + q
        if n < 0:
            return []
        if (r, p, q) not in self._z:
            basis = self._basis(n)
            incl = [unit_vec(len(basis), i) for i, (alpha, _a) in enumerate(basis)
                    if sum(alpha) >= max(p, 0)]
            out = []
            if incl:
                incl = RationalMatrix.from_cols(incl, len(basis))
                d = self._diff(n)
                low = [i for i, (alpha, _a) in enumerate(self._basis(n + 1))
                       if sum(alpha) < p + r]
                if low:
                    grid = d.tolist()
                    kernel = columns((RationalMatrix.from_rows([grid[i] for i in low]) @ incl)
                                     .nullspace())
                else:
                    kernel = [unit_vec(incl.cols, i) for i in range(incl.cols)]
                out = [incl.apply(k) for k in kernel]
            self._z[(r, p, q)] = out
        return self._z[(r, p, q)]

    @staticmethod
    def column_rank(cols, dim):
        m = RationalMatrix.from_cols(cols, dim)
        return rank_of_columns(m, range(m.cols))

    def boundary_cols(self, r, p, q):
        d_src = self._diff(p + q - 1)
        return list(self.z_cols(r - 1, p + 1, q - 1)) + [
            d_src.apply(z) for z in self.z_cols(r - 1, p - r + 1, q + r - 2)
        ]

    def cell_dim(self, r, p, q):
        dim = len(self._basis(p + q))
        znum = self.z_cols(r, p, q)
        if not dim or not znum:
            return 0
        return self.column_rank(znum, dim) - self.column_rank(self.boundary_cols(r, p, q), dim)

    def d_rank(self, r, p, q):
        tgt_dim = len(self._basis(p + q + 1))
        if not tgt_dim:
            return 0
        image = [self._diff(p + q).apply(z) for z in self.z_cols(r, p, q)]
        denom = self.boundary_cols(r, p + r, q + 1 - r)
        return self.column_rank(denom + image, tgt_dim) - self.column_rank(denom, tgt_dim)

    def page(self, r):
        dims, ranks = {}, {}
        for n in range(self.n_max + 1):
            for p in range(n // 2 + 1):
                q = n - p
                if self.space.dim(q - p) > 0:
                    dims[(p, q)] = self.cell_dim(r, p, q)
                    ranks[(p, q)] = self.d_rank(r, p, q)
        return ({k: v for k, v in dims.items() if v}, {k: v for k, v in ranks.items() if v})


@st.composite
def abelian_structures(draw):
    """L = 0 structures: fixtures, truncated Weil algebras and tensors with W(R)."""
    kind = draw(st.sampled_from(["fixture", "weil", "tensor"]))
    if kind == "fixture":
        s = draw(st.sampled_from(FIXTURES + [exterior_two_free]))()
    elif kind == "weil":
        s = weil_algebra(LieAlgebraSpec.abelian(draw(st.integers(1, 2))), draw(st.integers(0, 4)))
    else:
        # sphere3 with W(R) at N = 3 has a nonzero d_2
        a = draw(st.sampled_from(FIXTURES))()
        s = tensor_gstar(a, weil_algebra(LieAlgebraSpec.abelian(1), draw(st.integers(1, 4))),
                         max_degree=6)
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s, draw(st.integers(2, 6))


def squares_to_zero_through(cx, n_max):
    """The largest window n <= n_max on which the Cartan differential squares to zero.

    Above the stable range of a truncated algebra it need not; there the
    filtration has no spectral sequence for the two constructions to agree on.
    """
    return next(n for n in range(n_max, -1, -1)
                if all((cx.d[k + 1] @ cx.d[k]).is_zero() for k in range(n)))


@settings(max_examples=100, deadline=None)
@given(abelian_structures())
def test_pages_match_subquotient_reference(case):
    s, n_max = case
    n_max = squares_to_zero_through(CartanComplex(s, n_max), n_max)
    ss = SpectralSequence(CartanComplex(s, n_max))
    ref = SubquotientPages(s, n_max)
    for r in range(1, ss.r_stop + 2):
        page = ss.page(r)
        assert (page.dims, page.d_ranks) == ref.page(r), r


def test_sphere3_with_weil_line_has_a_second_differential():
    s = tensor_gstar(sphere3_minimal_model(), weil_algebra(LieAlgebraSpec.abelian(1), 3))
    ss = SpectralSequence(CartanComplex(s, 6))
    assert ss.page(1).differentials_vanish()
    assert ss.page(2).d_ranks == {(0, 3): 1, (1, 4): 1}
    ref = SubquotientPages(s, 6)
    for r in (1, 2, 3):
        page = ss.page(r)
        assert (page.dims, page.d_ranks) == ref.page(r)


# -- persistence pairs against the per-corner formula ----------------------------------


def corner_rank_pairs(cx, n):
    """N_n(a, b) where nonzero, from a dense rank of every corner block of d_n.

    r(a, b) is the rank of the block from the sources of polynomial degree >= a
    to the targets of degree < b; one elimination per (a, b).
    """
    def below(m):
        degrees = [sum(alpha) for alpha, _a in cartan_basis(cx.structure, m)]
        return [bisect_left(degrees, p) for p in range(m // 2 + 2)]

    src, tgt = below(n), below(n + 1)
    d = cx.d[n]
    grid = d.tolist()
    rk = [[dense_rank([row[c0:] for row in grid[:rows]], d.cols - c0) for rows in tgt]
          for c0 in src]
    pairs = {}
    for a in range(len(src) - 1):
        for b in range(len(tgt) - 1):
            count = rk[a][b + 1] - rk[a + 1][b + 1] - rk[a][b] + rk[a + 1][b]
            if count:
                pairs[(a, b)] = count
    return pairs


@st.composite
def abelian_weil_structures(draw):
    """W(R^r) truncated at N <= 6, in the monomial basis or a unit-LU one."""
    s = weil_algebra(LieAlgebraSpec.abelian(draw(st.integers(1, 2))), draw(st.integers(0, 6)))
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s, draw(st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(abelian_weil_structures())
@example((weil_algebra(LieAlgebraSpec.abelian(2), 6), 6))
@example((change_basis(weil_algebra(LieAlgebraSpec.abelian(2), 6), random.Random(1)), 6))
def test_persistence_pairs_match_corner_ranks(case):
    s, n_max = case
    ss = SpectralSequence(CartanComplex(s, n_max))
    for n in range(n_max + 1):
        assert ss._persistence_pairs(n) == corner_rank_pairs(ss.cx, n), n


# -- formality from generator degrees against the module presentation ------------------


def presentation_free_test(e, upto):
    """(free, needed window) as a module presentation decides it through degree upto.

    The presentation is cut to the window upto, where free means that Koszul
    Tor_1 vanishes; its generator degrees, and so the needed window, are all
    of e's.
    """
    pres = module_presentation(e)
    fr = freeness_test(module_theory.GradedModulePresentation(
        pres.dim_a, pres.generators, pres.relations, window=max(upto, 0)))
    return fr.free, fr.needed_window


def outcome(fn, *args):
    """fn(*args), or the type of the ValueError or RuntimeError it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def assert_formality_matches_the_presentation(s, n_max):
    """Both free-module tests decide on the window formality_verdict reads; returns its outcome."""
    e = equivariant_cohomology(s, n_max)
    base = cohomology_dims(s.as_complex()).dims_tuple(n_max)
    upto = min(n_max, e.stable_through, len(base) - 1)
    assert outcome(spectral._free_by_count, e, upto) == \
        outcome(presentation_free_test, e, upto), n_max
    args = (e, base)
    verdict = outcome(formality_verdict, *args)
    with mock.patch.object(spectral, "_free_by_count", presentation_free_test):
        assert outcome(formality_verdict, *args) == verdict, n_max
    return verdict


@settings(max_examples=40, deadline=None)
@given(truncated_weil_algebras())
@example((weil_algebra(LieAlgebraSpec.abelian(3), 6), 10)).via("R3 generators past the window")
@example((weil_algebra(LieAlgebraSpec.abelian(1), 5), 7)).via("W(R) N=5 above its window")
@example((weil_algebra(SO3, 4), 8)).via("so(3): no u-action within the window")
@example((weil_algebra(SO3, 4), 2)).via("so(3): the unit two degrees below the top")
@example((weil_algebra(SO3, 4), 1)).via("so(3): every generator at the window top")
def test_formality_from_generator_degrees_matches_the_presentation(case):
    assert_formality_matches_the_presentation(*case)


@pytest.mark.parametrize("n_max", [6, 7, 8, 9])
def test_formality_above_a_truncated_window_raises_on_neither_side(n_max):
    verdict = assert_formality_matches_the_presentation(
        weil_algebra(LieAlgebraSpec.abelian(1), 5), n_max)
    assert isinstance(verdict, spectral.FormalityVerdict) and verdict.formal


@pytest.mark.parametrize("make", [
    hopf_basic_model, exterior_line_free, exterior_two_free, circle_action,
    lambda: extend_with_trivial_factor(hopf_basic_model()),
], ids=["hopf", "exterior line", "exterior two", "circle", "trivial factor"])
@pytest.mark.parametrize("basis", ["monomial", "unit-LU"])
def test_formality_from_generator_degrees_matches_the_presentation_on_fixtures(make, basis):
    s = make()
    if basis == "unit-LU":
        s = change_basis(s, random.Random(3))
    for n_max in range(9):
        assert_formality_matches_the_presentation(s, n_max)


@pytest.mark.parametrize("basis", ["monomial", "unit-LU"])
def test_spectral_builds_no_module_presentation(monkeypatch, tmp_path, capsys, basis):
    s = weil_algebra(LieAlgebraSpec.abelian(2), 5)
    if basis == "unit-LU":
        s = change_basis(s, random.Random(7))
    p = tmp_path / "weil.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", cli.gstar_to_payload(s), 5)))
    assert cli.main(["spectral", "--input", str(p)]) == 0
    expected = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("spectral built a module presentation")

    originals = {cartan.module_presentation, module_theory.koszul_tor}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "foliacoh":
            for key, val in list(vars(mod).items()):
                if any(val is f for f in originals):
                    monkeypatch.setattr(mod, key, refuse)
    assert cli.main(["spectral", "--input", str(p)]) == 0
    assert capsys.readouterr().out == expected
    # the guard bites where a module is computed
    with pytest.raises(AssertionError, match="built a module presentation"):
        cli.main(["module", "--input", str(DATA / "hopf_module.json")])
