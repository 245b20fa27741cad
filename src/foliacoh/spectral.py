"""Pages of the column-filtration spectral sequence of the Cartan complex.

Cells are indexed (p, q) with total degree n = p + q: the (p, q) cell holds
polynomial degree p against algebra degree q - p.  The vertical operator is
the algebra differential, the horizontal one contracts and multiplies by the
dual variables, raising p by one.  Page r differentials go (p, q) to
(p + r, q + 1 - r).

Pages are read off the rank invariant of each differential d_n.  For abelian
g with vanishing L-operators the Cartan slice is its ambient basis, sorted by
polynomial degree, so every filtration step F^p is a coordinate subspace.
With r_n(a, b) the exact rank of the block of d_n from sources of degree
p >= a to targets of degree p < b,

    N_n(a, b) = r_n(a, b+1) - r_n(a+1, b+1) - r_n(a, b) + r_n(a+1, b)

counts the persistence pairs of d_n from filtration a to filtration b.  One
forward elimination of the rows of degree < b, columns in descending order,
gives r_n(a, b) for every a: the sources of degree >= a are then a prefix of
the columns, and r_n(a, b) is the number of pivots in it.  A pair of gap
b - a is a nonzero d_{b-a} from (a, n - a), so

    rank d_r(p, q) = N_n(p, p + r),
    dim E_r(p, q) = #{basis vectors of slice n at degree p}
                    - sum_{b < p+r} N_n(p, b) - sum_{a > p-r} N_{n-1}(a, p).

This reading needs d_n d_{n-1} = 0.  Above the stable window of a truncated
algebra that can fail; the numbers there are no spectral sequence, and
``run_pages`` reports that range as inconclusive.

Beyond page (top algebra degree + 1)/2 + 1 all differentials vanish for
structural reasons (their target algebra degree is negative), which bounds
the run.

For a transverse action whose L-operators are nonzero, or a non-abelian Lie
algebra, the ambient basis is not the invariant one; the builder refuses
such input rather than guessing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .algebra_core import cohomology_dims
from .cartan import CartanComplex, EquivariantCohomologyResult, module_presentation
from .gstar import GStarStructure
from .module_theory import dim_sym, freeness_test


class NonInvariantAction(ValueError):
    """Raised when pages are requested with nonzero L-operators or non-abelian g."""


class DoubleComplexPage(NamedTuple):
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
    """Persistence pairs of each differential, read off into pages.

    cx is a Cartan complex of s through at least degree n_max; one is built
    when none is given.
    """

    def __init__(self, s: GStarStructure, n_max: int, cx: CartanComplex | None = None):
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
        self.cx: CartanComplex = CartanComplex(s, n_max) if cx is None else cx
        self.top_a = s.space.window[1]
        self.r_stop = (self.top_a + 1) // 2 + 1
        # below[n][p]: basis vectors of slice n of polynomial degree < p
        self._below = []
        for sl in self.cx.slices[: n_max + 2]:
            degrees = [sum(alpha) for alpha, _a in sl.ambient_basis]
            self._below.append([bisect_left(degrees, p) for p in range(sl.n // 2 + 2)])
        self._pairs = [self._persistence_pairs(n) for n in range(n_max + 1)]

    def _persistence_pairs(self, n: int) -> dict[tuple[int, int], int]:
        """N_n(a, b) where nonzero, from the pivots of d_n per target bound b."""
        d = self.cx.d[n]
        src, tgt = self._below[n], self._below[n + 1]
        pivots = [d.select(range(d.cols - 1, -1, -1), rows).pivots() for rows in tgt]
        rk = [[bisect_left(piv, d.cols - c0) for piv in pivots] for c0 in src]
        counts = {(a, b): rk[a][b + 1] - rk[a + 1][b + 1] - rk[a][b] + rk[a + 1][b]
                  for a in range(len(src) - 1) for b in range(len(tgt) - 1)}
        return {ab: c for ab, c in counts.items() if c}

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
            n = p + q
            below = self._below[n]
            out = self._pairs[n]
            incoming = self._pairs[n - 1] if n else {}
            d = (
                below[p + 1] - below[p]
                - sum(c for (a, b), c in out.items() if a == p and b < p + r)
                - sum(c for (a, b), c in incoming.items() if b == p and a > p - r)
            )
            if d:
                dims[(p, q)] = d
            rk = out.get((p, p + r), 0)
            if rk:
                ranks[(p, q)] = rk
        return DoubleComplexPage(r=r, dims=dims, d_ranks=ranks, n_max=self.n_max)


class SpectralRunResult(NamedTuple):
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
    is smaller than the requested one.  The pages reuse the Cartan complex
    of the equivariant result when it reaches degree n_max.
    """
    cx = None
    if equivariant is not None and equivariant.n_max >= n_max:
        cx = equivariant.complex
    ss = SpectralSequence(s, n_max, cx)
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


class FormalityVerdict(NamedTuple):
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
    The free-module test is conclusive only on the window it needs, so it is
    compared with the factorization only when that is checked through it.
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
    if upto >= fr.needed_window and fr.free != hilbert_ok:
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
