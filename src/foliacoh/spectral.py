"""Pages of the column-filtration spectral sequence of the Cartan complex.

Cells are indexed (p, q) with total degree n = p + q: the (p, q) cell holds
polynomial degree p against algebra degree q - p.  The vertical operator is
the algebra differential, the horizontal one contracts and multiplies by the
dual variables, raising p by one.  Page r differentials go (p, q) to
(p + r, q + 1 - r).

Pages are read off the rank invariant of each differential d_n.  For abelian
g with vanishing L-operators the Cartan slice is ambient, in blocks of rising
polynomial degree (``CartanComplexSlice.below``), so every filtration step F^p
is a coordinate subspace.  With r_n(a, b) the exact rank of the block of d_n
from sources of degree p >= a to targets of degree p < b,

    N_n(a, b) = r_n(a, b+1) - r_n(a+1, b+1) - r_n(a, b) + r_n(a+1, b)

counts the persistence pairs of d_n from filtration a to filtration b
(Edelsbrunner, Letscher and Zomorodian, *Topological persistence and
simplification*, 2002).  With the columns in descending order, the sources
of degree >= a are a prefix of the columns, so the pivots of the rows of
degree < b give r_n(a, b) for every a as the number of pivots in that
prefix.  One forward pass per differential serves every b: the rows go in
one polynomial degree at a time (``RationalMatrix.prefix_pivots``), each
block with the echelon rows kept from the blocks before it.  A pair of gap b - a is a
nonzero d_{b-a} from (a, n - a), so

    rank d_r(p, q) = N_n(p, p + r),
    dim E_r(p, q) = #{basis vectors of slice n at degree p}
                    - sum_{b < p+r} N_n(p, b) - sum_{a > p-r} N_{n-1}(a, p).

This reading needs d_n d_{n-1} = 0.  Above the stable window of a truncated
algebra that can fail; the numbers there are no spectral sequence, and
``run_pages`` reports that range as inconclusive.

``run_pages`` reads the pages off the Cartan complex of one equivariant
result, and checks E_1 = S(g*) (x) H(A) cell by cell (Guillemin and
Sternberg, *Supersymmetry and Equivariant de Rham Theory*, 1999, ch. 6).

Beyond page (top algebra degree + 1)/2 + 1 all differentials vanish for
structural reasons (their target algebra degree is negative), which bounds
the run.

For a transverse action whose L-operators are nonzero, or a non-abelian Lie
algebra, the ambient basis is not the invariant one; ``SpectralSequence``
refuses such input rather than guessing.

Formality (``formality_verdict``) needs no module presentation.  The free
module F on the minimal generators of H_G maps onto H_G in every degree, and
H_G is free on the window exactly when that map has no kernel there, that
is, when h_n = sum of dim S^((n-g)/2) over the generator degrees g <= n
with n - g even, for every n on the window.  The generator degrees come from
ranks (``cartan.generator_degrees``), so the test is a count.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .cartan import CartanComplex, EquivariantCohomologyResult, generator_degrees
from .module_theory import free_window
from .series import PoincarePolynomial, PoincareSeriesRational, dim_sym


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
    """Persistence pairs of each differential of a Cartan complex, read off into pages."""

    def __init__(self, cx: CartanComplex):
        s = cx.structure
        if not s.all_l_zero():
            raise NonInvariantAction(
                "nonzero L-operators: the first page has no product shape here; refusing"
            )
        if not s.lie.is_abelian:
            raise NonInvariantAction(
                "non-abelian Lie algebra: the ambient Cartan basis is not invariant, "
                "so its filtration does not compute the pages; refusing"
            )
        self.cx, self.n_max = cx, cx.n_max
        self.r_stop = (s.space.window[1] + 1) // 2 + 1
        self._pairs = [self._persistence_pairs(n) for n in range(self.n_max + 1)]

    def _persistence_pairs(self, n: int) -> dict[tuple[int, int], int]:
        """N_n(a, b) where nonzero, from the pivots of d_n per target bound b."""
        d = self.cx.d[n]
        src, tgt = self.cx.slices[n].below, self.cx.slices[n + 1].below
        pivots = d.select(range(d.cols - 1, -1, -1)).prefix_pivots(tgt)
        rk = [[bisect_left(piv, d.cols - c0) for piv in pivots] for c0 in src]
        counts = {(a, b): rk[a][b + 1] - rk[a + 1][b + 1] - rk[a][b] + rk[a + 1][b]
                  for a in range(len(src) - 1) for b in range(len(tgt) - 1)}
        return {ab: c for ab, c in counts.items() if c}

    # -- pages -----------------------------------------------------------------

    def cells(self):
        for n in range(self.n_max + 1):
            for p in range(n // 2 + 1):
                q = n - p
                if self.cx.structure.space.dim(q - p) > 0:
                    yield (p, q)

    def page(self, r: int) -> DoubleComplexPage:
        dims = {}
        ranks = {}
        for (p, q) in self.cells():
            n = p + q
            below = self.cx.slices[n].below
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
    stabilized_at: int
    totals_match_equivariant: bool
    stable_through: int
    detail: str = ""


def run_pages(
    e: EquivariantCohomologyResult, base_cohomology: tuple[int, ...]
) -> SpectralRunResult:
    """Pages of e's Cartan complex until structural stabilization, checked twice.

    The first page must be the product E_1(p, q) = dim S^p * h^(q-p)(A), with
    base_cohomology the dimensions h of the algebra's cohomology, on every
    cell whose algebra degree it reaches; the E_infinity totals must be e's
    dimensions through e.stable_through.  A mismatch in either makes
    totals_match_equivariant false; the first page can only miss by a bug,
    and detail then names its first failing cell.  The run is inconclusive
    above e.stable_through, where a truncated algebra leaves no spectral
    sequence.
    """
    ss = SpectralSequence(e.complex)
    pages = [ss.page(r) for r in range(1, ss.r_stop + 1)]
    e_inf = ss.page(ss.r_stop + 1)
    # the first page from which every differential vanishes; page r is pages[r - 1]
    stabilized = ss.r_stop + 1
    while stabilized > 1 and pages[stabilized - 2].differentials_vanish():
        stabilized -= 1
    e1 = {(p, n - p): dim_sym(e.dim_a, p) * base_cohomology[n - 2 * p]
          for n in range(e.n_max + 1) for p in range(n // 2 + 1)
          if n - 2 * p < len(base_cohomology)}
    off = [(p, q, want) for (p, q), want in e1.items() if pages[0].dim(p, q) != want][:1]
    details = [f"internal error: E_1({p},{q}) = {pages[0].dim(p, q)} but the product formula "
               f"gives {want}" for p, q, want in off]
    stable = e.stable_through
    details.append(f"E_infinity totals compared through degree {stable}")
    if stable < e.n_max:
        details.append(f"inconclusive above degree {stable} (truncated input)")
    return SpectralRunResult(
        pages=tuple(pages),
        e_infinity=e_inf,
        stabilized_at=stabilized,
        totals_match_equivariant=(
            not off and e_inf.total_dims(stable) == e.dims_tuple(stable)),
        stable_through=stable,
        detail="; ".join(details),
    )


# -- formality -------------------------------------------------------------------


class FormalityVerdict(NamedTuple):
    formal: bool
    method: str  # odd-vanishing | hilbert-factorization
    witness: str
    stable_through: int


def _free_by_count(e: EquivariantCohomologyResult, upto: int) -> tuple[bool, int]:
    """Whether the cohomology is free through degree upto, and the window that test needs.

    The free module F on the minimal generators maps onto H in every degree,
    so H is free through upto exactly when dim F^n = h_n for n <= upto: F has
    the Hilbert series sum of t^g / (1-t^2)^r over the generator degrees g.
    """
    gens, r = generator_degrees(e), e.dim_a
    if not e.complex.structure.lie.is_abelian and gens and gens[0] <= e.n_max - 2:
        raise ValueError(
            f"non-abelian Lie algebra: no u-action on classes, so the free-module "
            f"test cannot multiply the generator of degree {gens[0]} within degree {e.n_max}"
        )
    counts = sum(map(PoincarePolynomial.monomial, gens), PoincarePolynomial.zero())
    free = PoincareSeriesRational(counts, r).expand(upto) == e.dims_tuple(upto)
    return free, free_window(r, gens)


def formality_verdict(
    e: EquivariantCohomologyResult, base_cohomology: tuple[int, ...]
) -> FormalityVerdict:
    """Decide equivariant formality on e's window by the layered criteria.

    Order: odd-vanishing (sufficient), then the Hilbert factorization
    P^a * (1-t^2)^r = P coefficientwise, r = e.dim_a (necessary and
    sufficient within the window by the definition), then the free-module
    test as confirmation.  Conclusive methods must agree; a conflict raises,
    as it would mean a bug.  Both read degrees through upto, the least of
    e.n_max, e.stable_through and the top of base_cohomology.  The
    free-module test is conclusive only on the window it needs, so it is
    compared with the factorization only when upto reaches it.

    The free-module test is a count from the generator degrees
    (``_free_by_count``); it decides what ``freeness_test`` decides on
    ``module_presentation(e)`` at window upto, whose relations span the
    kernel of the free module's map onto the cohomology, the kernel the
    count detects.  Over a non-abelian Lie algebra there is no u-action, so
    a generator at or below degree e.n_max - 2 raises ValueError.
    """
    upto = min(e.n_max, e.stable_through, len(base_cohomology) - 1)
    odd_vanishing = all(
        base_cohomology[n] == 0 for n in range(1, upto + 1, 2)
    )
    factored = PoincareSeriesRational(PoincarePolynomial(base_cohomology[:upto + 1]), e.dim_a)
    mismatch = next(((n, want, e.dim(n)) for n, want in enumerate(factored.expand(upto))
                     if e.dim(n) != want), None)
    hilbert_ok = mismatch is None

    free, needed_window = _free_by_count(e, upto)

    if odd_vanishing and not hilbert_ok:
        raise RuntimeError(
            "internal error: odd cohomology vanishes but the Hilbert "
            f"factorization fails at degree {mismatch[0]}"
        )
    if upto >= needed_window and free != hilbert_ok:
        raise RuntimeError(
            "internal error: free-module test and Hilbert factorization disagree"
        )

    method = "odd-vanishing" if odd_vanishing else "hilbert-factorization"
    if odd_vanishing:
        witness = f"odd base cohomology vanishes through degree {upto}"
    elif hilbert_ok:
        witness = f"equivariant dims factor as S(a*) x base through degree {upto}"
    else:
        n, want, got = mismatch
        witness = f"witness at t^{n}: expected {want}, computed {got}"
    return FormalityVerdict(hilbert_ok, method, f"{witness}; free-module test: free={free}", upto)
