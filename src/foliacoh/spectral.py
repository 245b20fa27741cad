"""Pages of the column-filtration spectral sequence of the Cartan complex.

Cells are indexed (p, q) with total degree n = p + q: the (p, q) cell holds
polynomial degree p against algebra degree q - p.  The vertical operator is
the algebra differential, the horizontal one contracts and multiplies by the
dual variables, raising p by one.  Page r differentials go (p, q) to
(p + r, q + 1 - r).

Pages are computed from the filtration subquotients

    E_r(p,q) = Z_r(p,q) / ( Z_{r-1}(p+1,q-1) + D Z_{r-1}(p-r+1,q+r-2) ),
    Z_r(p,q) = F^p Tot^n  intersect  D^{-1} F^{p+r} Tot^{n+1},

with exact ranks throughout.  Beyond page (top algebra degree + 1)/2 + 1 all
differentials vanish for structural reasons (their target algebra degree is
negative), which bounds the run.

For a transverse action whose L-operators are nonzero the shape of the first
page is unknown; the builder refuses such input rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra_core import cohomology_dims
from .cartan import CartanComplex, EquivariantCohomologyResult, cartan_complex, module_presentation
from .gstar import GStarStructure
from .module_theory import dim_sym, freeness_test
from .ratmat import RationalMatrix, Vec, rank_of_columns, unit_vec


class NonInvariantAction(ValueError):
    """Raised when pages are requested with nonzero L-operators or non-abelian g."""


@dataclass(frozen=True)
class DoubleComplexPage:
    r: int
    dims: dict[tuple[int, int], int]
    d_ranks: dict[tuple[int, int], int]
    n_max: int

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def total_dims(self, n_max: int | None = None) -> tuple[int, ...]:
        n_max = self.n_max if n_max is None else n_max
        out = [0] * (n_max + 1)
        for (p, q), d in self.dims.items():
            if 0 <= p + q <= n_max:
                out[p + q] += d
        return tuple(out)

    def differentials_vanish(self) -> bool:
        return all(v == 0 for v in self.d_ranks.values())


class SpectralSequence:
    """Filtration bookkeeping for one structure and one window."""

    def __init__(self, s: GStarStructure, n_max: int):
        if not s.all_l_zero():
            raise NonInvariantAction(
                "nonzero L-operators: the first page has no product shape here; refusing"
            )
        if not s.lie.is_abelian:
            raise NonInvariantAction(
                "non-abelian Lie algebra: the ambient Cartan basis is not invariant, "
                "so its filtration does not compute the pages; refusing"
            )
        self.structure = s
        self.n_max = n_max
        # one extra total degree so every cell with p + q <= n_max has full data
        self.cx: CartanComplex = cartan_complex(s, n_max + 1)
        self.top_a = s.space.window[1]
        self.r_stop = (self.top_a + 1) // 2 + 1
        self._z_cache: dict[tuple[int, int, int], list[Vec]] = {}

    # -- filtration subspaces ------------------------------------------------

    def _slice_basis(self, n: int):
        if 0 <= n < len(self.cx.slices):
            return self.cx.slices[n].ambient_basis
        return ()

    def _f_cols(self, n: int, p_min: int) -> list[Vec]:
        basis = self._slice_basis(n)
        dim = len(basis)
        return [
            unit_vec(dim, i)
            for i, (alpha, _a) in enumerate(basis)
            if sum(alpha) >= p_min
        ]

    def _diff(self, n: int) -> RationalMatrix:
        if n in self.cx.d:
            return self.cx.d[n]
        return RationalMatrix.zeros(len(self._slice_basis(n + 1)), len(self._slice_basis(n)))

    def z_cols(self, r: int, p: int, q: int) -> list[Vec]:
        """Spanning columns of Z_r(p,q) in ambient slice coordinates.

        The filtration saturates: F^p is the whole total space for p <= 0,
        so negative indices (which occur in the incoming-boundary terms of
        low-p cells) clamp rather than vanish.
        """
        n = p + q
        if n < 0:
            return []
        key = (r, p, q)
        if key in self._z_cache:
            return self._z_cache[key]
        basis = self._slice_basis(n)
        if not basis:
            self._z_cache[key] = []
            return []
        incl_cols = self._f_cols(n, max(p, 0))
        if not incl_cols:
            self._z_cache[key] = []
            return []
        incl = RationalMatrix.from_cols(incl_cols, len(basis))
        d = self._diff(n)
        tgt_basis = self._slice_basis(n + 1)
        low_rows = [i for i, (alpha, _a) in enumerate(tgt_basis) if sum(alpha) < p + r]
        if low_rows:
            proj = RationalMatrix.from_rows(
                [[d.entry(i, j) for j in range(d.cols)] for i in low_rows]
            )
            restricted = proj @ incl
            kernel = restricted.nullspace()
        else:
            kernel = [unit_vec(incl.cols, i) for i in range(incl.cols)]
        out = [incl.apply(k) for k in kernel]
        self._z_cache[key] = out
        return out

    def boundary_cols(self, r: int, p: int, q: int) -> list[Vec]:
        """Denominator of E_r(p,q): lower filtration cycles plus boundaries."""
        cols = list(self.z_cols(r - 1, p + 1, q - 1))
        d_src = self._diff(p + q - 1)
        for z in self.z_cols(r - 1, p - r + 1, q + r - 2):
            cols.append(d_src.apply(z))
        return cols

    def cell_dim(self, r: int, p: int, q: int) -> int:
        n = p + q
        dim = len(self._slice_basis(n))
        if dim == 0:
            return 0
        znum = self.z_cols(r, p, q)
        if not znum:
            return 0
        return rank_of_columns(znum, dim) - rank_of_columns(
            self.boundary_cols(r, p, q), dim
        )

    def d_rank(self, r: int, p: int, q: int) -> int:
        """Rank of d_r out of (p, q) into (p + r, q + 1 - r)."""
        n = p + q
        tgt_dim = len(self._slice_basis(n + 1))
        if tgt_dim == 0:
            return 0
        d = self._diff(n)
        image = [d.apply(z) for z in self.z_cols(r, p, q)]
        denom = self.boundary_cols(r, p + r, q + 1 - r)
        base = rank_of_columns(denom, tgt_dim)
        return rank_of_columns(denom + image, tgt_dim) - base

    # -- pages -----------------------------------------------------------------

    def cells(self):
        for n in range(self.n_max + 1):
            for p in range(n // 2 + 1):
                q = n - p
                if self.structure.space.dim(q - p) > 0:
                    yield (p, q)

    def page(self, r: int) -> DoubleComplexPage:
        dims = {}
        ranks = {}
        for (p, q) in self.cells():
            d = self.cell_dim(r, p, q)
            if d:
                dims[(p, q)] = d
            rk = self.d_rank(r, p, q)
            if rk:
                ranks[(p, q)] = rk
        return DoubleComplexPage(r=r, dims=dims, d_ranks=ranks, n_max=self.n_max)


@dataclass(frozen=True)
class SpectralRunResult:
    pages: tuple[DoubleComplexPage, ...]
    e_infinity: DoubleComplexPage
    stabilized_at: int | None
    totals_match_equivariant: bool | None
    equivariant_dims: tuple[int, ...] | None
    stable_through: int
    detail: str = ""


def e1_page(s: GStarStructure, n_max: int) -> DoubleComplexPage:
    """First page, with the product-formula cross-check built in.

    The vertical cohomology at (p, q) must equal (dim of symmetric degree p)
    times dim H^{q-p} of the algebra; a mismatch is a bug trap.
    """
    ss = SpectralSequence(s, n_max)
    page = ss.page(1)
    h = cohomology_dims(s.as_complex())
    r = s.lie.dimension
    for (p, q) in ss.cells():
        want = dim_sym(r, p) * h.dim(q - p)
        got = page.dim(p, q)
        if want != got:
            raise RuntimeError(
                f"internal error: E_1({p},{q}) = {got} but the product formula "
                f"gives {want}"
            )
    return page


def run_pages(
    s: GStarStructure,
    n_max: int,
    equivariant: EquivariantCohomologyResult | None = None,
) -> SpectralRunResult:
    """Pages until structural stabilization; totals checked against the target.

    The run is inconclusive when the stable window of a truncated algebra
    is smaller than the requested one.
    """
    ss = SpectralSequence(s, n_max)
    stable = min(n_max, ss.cx.stable_through)
    pages = [ss.page(r) for r in range(1, ss.r_stop + 1)]
    e_inf = ss.page(ss.r_stop + 1)
    stabilized = None
    for idx in range(len(pages) - 1, -1, -1):
        if pages[idx].differentials_vanish():
            stabilized = pages[idx].r
        else:
            break
    if stabilized is None:
        stabilized = ss.r_stop + 1
    totals_match = None
    eq_dims = None
    detail = ""
    if equivariant is not None:
        upto = min(n_max, stable, equivariant.stable_through)
        eq_dims = equivariant.dims_tuple(upto)
        totals_match = e_inf.total_dims(upto) == eq_dims
        detail = f"E_infinity totals compared through degree {upto}"
    if stable < n_max:
        detail = (detail + "; " if detail else "") + (
            f"inconclusive above degree {stable} (truncated input)"
        )
    return SpectralRunResult(
        pages=tuple(pages),
        e_infinity=e_inf,
        stabilized_at=stabilized,
        totals_match_equivariant=totals_match,
        equivariant_dims=eq_dims,
        stable_through=stable,
        detail=detail,
    )


# -- formality -------------------------------------------------------------------


@dataclass(frozen=True)
class FormalityVerdict:
    formal: bool
    method: str  # E1-collapse | odd-vanishing | hilbert-factorization | surjectivity | free-module
    witness: str
    stable_through: int


def formality_verdict(
    e: EquivariantCohomologyResult,
    base_cohomology: tuple[int, ...],
    dim_a: int,
    n_max: int,
) -> FormalityVerdict:
    """Decide equivariant formality on the window by the layered criteria.

    Order: odd-vanishing (sufficient), then the Hilbert factorization
    P^a * (1-t^2)^dim_a = P coefficientwise (necessary and sufficient within
    the window by the definition), then the free-module test as confirmation.
    Conclusive methods must agree; a conflict raises, as it would mean a bug.
    """
    upto = min(n_max, e.stable_through, len(base_cohomology) - 1)
    odd_vanishing = all(
        base_cohomology[n] == 0 for n in range(1, upto + 1, 2)
    )
    mismatch = None
    for n in range(upto + 1):
        want = sum(
            dim_sym(dim_a, p) * base_cohomology[n - 2 * p]
            for p in range(n // 2 + 1)
            if n - 2 * p <= upto
        )
        if e.dim(n) != want:
            mismatch = (n, want, e.dim(n))
            break
    hilbert_ok = mismatch is None

    pres = module_presentation(e)
    fr = freeness_test(pres)

    if odd_vanishing and not hilbert_ok:
        raise RuntimeError(
            "internal error: odd cohomology vanishes but the Hilbert "
            f"factorization fails at degree {mismatch[0]}"
        )
    if not fr.scoped and fr.free != hilbert_ok:
        raise RuntimeError(
            "internal error: free-module test and Hilbert factorization disagree"
        )

    if odd_vanishing:
        return FormalityVerdict(
            True,
            "odd-vanishing",
            f"odd base cohomology vanishes through degree {upto}; "
            f"free-module test: free={fr.free}",
            upto,
        )
    if hilbert_ok:
        return FormalityVerdict(
            True,
            "hilbert-factorization",
            f"equivariant dims factor as S(a*) x base through degree {upto}; "
            f"free-module test: free={fr.free}",
            upto,
        )
    n, want, got = mismatch
    return FormalityVerdict(
        False,
        "hilbert-factorization",
        f"witness at t^{n}: expected {want}, computed {got}; "
        f"free-module test: free={fr.free}",
        upto,
    )
