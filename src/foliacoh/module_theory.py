"""Finitely generated graded modules over a polynomial ring on degree-2 variables.

Presentations are generators (with degrees) and homogeneous relation vectors
with polynomial coefficients.  Everything is computed degreewise and exactly
on a declared window: Hilbert functions, the Koszul complex and its homology
(Tor against the residue field), freeness, localized rank, depth and Krull
dimension, and the Cohen-Macaulay property.

Window honesty: a closed form for a Hilbert function is only reported when
the window certifies it through an exact linear-recurrence margin; all
dimension-theoretic verdicts carry their scope.

Each quantity is computed once per presentation object: the realization
(degreewise bases, the complement of the pivot monomials of the relation
rows scaled to integers, and one reduction matrix per degree, from one
solve) and the Koszul homology are cached properties of
``GradedModulePresentation``, shared by
``hilbert``, ``koszul_tor``, ``freeness_test``, ``localized_rank``,
``depth_dim_cm`` and ``ses_cm_check``.  Nothing is cached beyond the object,
so a fresh parse of the same document computes everything again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from math import comb, lcm
from operator import add, index
from typing import NamedTuple

from .algebra_core import exactness_failure
from .ratmat import RationalMatrix, frac, independent_complement
from .series import PoincarePolynomial, PoincareSeriesRational, divide_by_one_minus_tk

# A polynomial in u_1..u_r: exponent tuple -> coefficient.
Poly = dict[tuple[int, ...], Fraction]

# the window of a presentation that names none
DEFAULT_WINDOW = 12


def monomials_of_degree(r: int, p: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree p, ascending lexicographic."""
    if r == 0:
        return [()] if p == 0 else []
    out = []
    for first in range(p + 1):
        for rest in monomials_of_degree(r - 1, p - first):
            out.append((first,) + rest)
    return out


def poly_degree_2(poly: Poly) -> int | None:
    """Internal degree (2 * exponent sum) of a homogeneous poly, None if mixed."""
    degs = {2 * sum(b) for b in poly}
    if not degs:
        return None
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop()


def poly_shift(poly: Poly, gamma: tuple[int, ...]) -> Poly:
    return {tuple(b + g for b, g in zip(beta, gamma)): c for beta, c in poly.items()}


def relation_degree(rel: tuple[Poly, ...], generators: tuple[int, ...]) -> int:
    """Internal degree of a homogeneous relation, -1 for the zero relation."""
    for g, poly in zip(generators, rel):
        d = poly_degree_2(poly)
        if d is not None:
            return d + g
    return -1


def free_basis(generators: tuple[int, ...], r: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """Degree-n monomials (generator index, exponent) of the free module, in order."""
    return [
        (g_idx, beta)
        for g_idx, g in enumerate(generators)
        if n >= g and (n - g) % 2 == 0
        for beta in monomials_of_degree(r, (n - g) // 2)
    ]


def relation_entries(relations, generators, r: int, n: int, pos: dict):
    """(k, pos[(generator index, exponent)], c) per coefficient c of the k-th monomial
    multiple of a relation in degree n; k counts from 0 and each multiple has an entry."""
    k = 0
    for rel in relations:
        m = relation_degree(rel, generators)
        if m < 0 or m > n or (n - m) % 2 != 0:
            continue
        for gamma in monomials_of_degree(r, (n - m) // 2):
            for g_idx, poly in enumerate(rel):
                for beta, c in poly.items():
                    yield k, pos[(g_idx, tuple(map(add, beta, gamma)))], c
            k += 1


def relation_columns(relations, generators: tuple[int, ...], r: int, n: int, fb) -> RationalMatrix:
    """Every monomial multiple of each relation in degree n, as the columns over fb.

    fb is ``free_basis(generators, r, n)``.
    """
    entries = list(relation_entries(relations, generators, r, n,
                                    {key: i for i, key in enumerate(fb)}))
    k = entries[-1][0] + 1 if entries else 0
    return RationalMatrix.from_entries(len(fb), k, [(i, j, c) for j, i, c in entries])


class PresentationError(ValueError):
    pass


@dataclass(frozen=True)
class GradedModulePresentation:
    """coker( relations ) inside the free module on the given generators.

    ``realization`` and ``tor`` are built on first use and kept on this
    object, so every query on one presentation shares them.
    """

    dim_a: int
    generators: tuple[int, ...]
    relations: tuple[tuple[Poly, ...], ...]
    window: int

    def __init__(self, dim_a, generators, relations=(), window=DEFAULT_WINDOW):
        if dim_a < 0:
            raise PresentationError("dim_a must be >= 0")
        generators = tuple(map(index, generators))
        if any(g < 0 for g in generators):
            raise PresentationError("generator degrees must be >= 0")
        window = index(window)
        if window < 0:
            raise PresentationError("window must be >= 0")
        clean = []
        for rel in relations:
            rel = tuple(
                {tuple(map(index, beta)): x for beta, c in poly.items() if (x := frac(c))}
                for poly in rel
            )
            if len(rel) != len(generators):
                raise PresentationError("relation length != number of generators")
            degs = set()
            for g, poly in zip(generators, rel):
                try:
                    d = poly_degree_2(poly)
                except ValueError as exc:
                    raise PresentationError(str(exc)) from None
                if d is not None:
                    degs.add(d + g)
                if any(len(b) != dim_a for b in poly):
                    raise PresentationError("exponent tuple length != dim_a")
                if any(e < 0 for b in poly for e in b):
                    raise PresentationError("exponents must be >= 0")
            if len(degs) > 1:
                raise PresentationError(f"relation is not homogeneous: degrees {degs}")
            if degs:
                clean.append(rel)
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relations", tuple(clean))
        object.__setattr__(self, "window", window)

    @cached_property
    def realization(self) -> "ModuleRealization":
        return ModuleRealization(self)

    @cached_property
    def tor(self) -> "TorResult":
        return koszul_tor(self)

    @classmethod
    def free(cls, dim_a: int, generator_degrees, window: int = DEFAULT_WINDOW):
        return cls(dim_a, tuple(generator_degrees), (), window)

    @classmethod
    def quotient_by_monomials(cls, dim_a: int, monomials, window: int = DEFAULT_WINDOW):
        """S / (given monomials), a single degree-0 generator."""
        rels = tuple(({tuple(m): Fraction(1)},) for m in monomials)
        return cls(dim_a, (0,), rels, window)

    @classmethod
    def residue_field(cls, dim_a: int, window: int = DEFAULT_WINDOW):
        gens = []
        for j in range(dim_a):
            e = [0] * dim_a
            e[j] = 1
            gens.append(tuple(e))
        return cls.quotient_by_monomials(dim_a, gens, window)

    def direct_sum(self, other: "GradedModulePresentation") -> "GradedModulePresentation":
        if self.dim_a != other.dim_a:
            raise PresentationError("direct sum over different rings")
        gens = self.generators + other.generators
        zero_self = tuple({} for _ in self.generators)
        zero_other = tuple({} for _ in other.generators)
        rels = tuple(rel + zero_other for rel in self.relations) + tuple(
            zero_self + rel for rel in other.relations
        )
        return GradedModulePresentation(
            self.dim_a, gens, rels, min(self.window, other.window)
        )


class ModuleRealization:
    """Degreewise bases and the u-action of a presented module on its window.

    Degree n is read off the k x len(free_basis[n]) matrix whose rows are the
    degree-n monomial multiples of the relations, each scaled to integers.
    A relation solves for its last monomial, so the rows' pivot monomials P
    are taken last monomial first by ``independent_complement`` (certified
    mod p), and the basis B is the rest, ascending: the greedy free
    monomials independent modulo the relation span, which makes every
    derived quantity deterministic.  Column b of ``reduction(n)`` is e_b,
    and the columns P come from one solve of rows[:, P] Y = -rows[:, B], run
    on first use and kept here.  Reducing an element is then a product, and
    the u-action selects columns.
    """

    def __init__(self, pres: GradedModulePresentation):
        # no reference back to pres, which keeps this realization: without a
        # cycle both are freed as soon as the presentation is dropped
        self.window = n_max = pres.window
        gens, r = pres.generators, pres.dim_a
        # each relation times the lcm of its denominators: int coefficients, the same span
        integral = [tuple({b: c.numerator * (s // c.denominator) for b, c in p.items()}
                          for p in rel) for rel in pres.relations
                    for s in [lcm(*(c.denominator for p in rel for c in p.values()))]]
        self.free_basis = {n: free_basis(gens, r, n) for n in range(n_max + 1)}
        self._rows, self._pivots, self.basis_indices = {}, {}, {}
        for n, fb in self.free_basis.items():
            last = len(fb) - 1  # the rows hold free monomial i in column last - i
            entries = list(relation_entries(integral, gens, r, n,
                                            {key: last - i for i, key in enumerate(fb)}))
            rows = self._rows[n] = RationalMatrix.from_entries(
                entries[-1][0] + 1 if entries else 0, len(fb), entries)
            empty = RationalMatrix.zeros(rows.rows, 0)
            picked = self._pivots[n] = independent_complement(rows, empty)
            self.basis_indices[n] = sorted(set(range(len(fb))) - {last - p for p in picked})
        self._reductions: dict[int, RationalMatrix] = {}

    def dim(self, n: int) -> int:
        if not 0 <= n <= self.window:
            return 0
        return len(self.basis_indices[n])

    def dims_tuple(self) -> tuple[int, ...]:
        return tuple(self.dim(n) for n in range(self.window + 1))

    def reduction(self, n: int) -> RationalMatrix:
        """dim(n) x len(free_basis[n]): column k is free monomial k in the module basis."""
        red = self._reductions.get(n)
        if red is None:
            rows, picked, basis = self._rows[n], self._pivots[n], self.basis_indices[n]
            last = rows.cols - 1
            # rows[:, P] Y = rows[:, B]; then row i of -Y is pivot monomial last - picked[i]
            y = rows.select(picked).solve(rows.select([last - b for b in basis]))
            if y is None:
                raise AssertionError("free monomials failed to reduce (not spanning?)")
            entries = [(k, b, 1) for k, b in enumerate(basis)]
            entries += [(k, last - picked[i], -x)
                        for k, col in enumerate(y.nonzero_columns()) for i, x in col]
            red = RationalMatrix.from_entries(len(basis), rows.cols, entries)
            self._reductions[n] = red
        return red

    def u_matrix(self, j: int, n: int) -> RationalMatrix:
        """Multiplication by u_j as a matrix from degree n to degree n + 2."""
        if n + 2 > self.window:
            raise ValueError("u-action leaves the window")
        pos = {key: i for i, key in enumerate(self.free_basis[n + 2])}
        cols = []
        for i in self.basis_indices[n]:
            g_idx, beta = self.free_basis[n][i]
            beta2 = tuple(b + (1 if k == j else 0) for k, b in enumerate(beta))
            cols.append(pos[(g_idx, beta2)])
        return self.reduction(n + 2).select(cols)


class HilbertSeriesWindow(NamedTuple):
    coefficients: tuple[int, ...]
    closed_form: PoincareSeriesRational | None
    certified: bool


def hilbert(pres: GradedModulePresentation) -> HilbertSeriesWindow:
    """Exact graded dimensions of the presented module on its window."""
    coeffs = pres.realization.dims_tuple()
    closed = certify_closed_form(coeffs, pres.dim_a)
    return HilbertSeriesWindow(coeffs, closed, closed is not None)


def certify_closed_form(
    coeffs: tuple[int, ...], max_den_exp: int
) -> PoincareSeriesRational | None:
    """Match window coefficients against p(t)/(1-t^2)^k, k minimal.

    Certification needs a trailing margin of at least k + deg(p) + 2 window
    positions consistent with the recurrence; otherwise None (inconclusive).
    """
    n_max = len(coeffs) - 1
    for k in range(max_den_exp + 1):
        q = list(coeffs)
        for _ in range(k):
            q = [q[i] - (q[i - 2] if i >= 2 else 0) for i in range(len(q))]
        last = max((i for i, c in enumerate(q) if c != 0), default=-1)
        if last < 0:
            return PoincareSeriesRational(PoincarePolynomial(()), 0)
        if n_max - last >= k + last + 2:
            num = PoincarePolynomial(q[: last + 1])
            return PoincareSeriesRational(num, k)
    return None


# -- Koszul complex / Tor ---------------------------------------------------------


class TorResult(NamedTuple):
    """Graded dims of Tor_i against the residue field, i = 0..dim_a."""

    dims: dict[tuple[int, int], int]  # (homological i, internal degree n)
    window: int
    dim_a: int

    def tor_dims(self, i: int) -> dict[int, int]:
        return {n: d for (j, n), d in self.dims.items() if j == i and d}

    def top_nonzero(self) -> int | None:
        live = [i for (i, _n), d in self.dims.items() if d]
        return max(live) if live else None

    def total(self, i: int) -> int:
        return sum(self.tor_dims(i).values())


def _koszul_boundary(real: ModuleRealization, r: int, i: int, n: int) -> RationalMatrix:
    """The Koszul boundary K_i^n -> K_{i-1}^n, placed as blocks.

    K_i^n has a block M^(n-2i) per i-subset S, in ``combinations`` order;
    the block of S goes to that of S - {j} by (-1)^t u_j, j the t-th of S.
    """
    src, tgt = real.dim(n - 2 * i), real.dim(n - 2 * i + 2)
    pos = {S: k for k, S in enumerate(itertools.combinations(range(r), i - 1))}
    u = [real.u_matrix(j, n - 2 * i) for j in range(r)]
    parts = [(pos[S[:t] + S[t + 1:]] * tgt, k * src, -u[j] if t % 2 else u[j])
             for k, S in enumerate(itertools.combinations(range(r), i)) for t, j in enumerate(S)]
    return RationalMatrix.from_blocks(len(pos) * tgt, comb(r, i) * src, parts)


def koszul_tor(pres: GradedModulePresentation) -> TorResult:
    """Homology of the exterior-algebra complex on the ring variables.

    K_i = M tensor Lambda^i in internal degree n uses M in degree n - 2i, so
    dim K_i^n = C(r, i) dim M^(n-2i); the boundary contracts one exterior
    factor against its variable.  Each boundary is built and ranked once,
    serving as the kernel side of H_i and the image side of H_{i-1}.
    ``pres.tor`` is this result, computed once per presentation object.
    """
    real = pres.realization
    r = pres.dim_a

    @cache
    def rank(i: int, n: int) -> int:
        return _koszul_boundary(real, r, i, n).rank() if 1 <= i <= r and real.dim(n - 2 * i) else 0

    dims = {(i, n): h for n in range(pres.window + 1) for i in range(min(r, n // 2) + 1)
            if (h := comb(r, i) * real.dim(n - 2 * i) - rank(i, n) - rank(i + 1, n))}
    return TorResult(dims=dims, window=pres.window, dim_a=r)


def free_window(r: int, generators) -> int:
    """The window a freeness verdict over r variables needs: 2r above the top
    generator degree; on a smaller window the verdict is scoped."""
    return 2 * r + max(generators, default=0)


class FreenessResult(NamedTuple):
    free: bool
    ranks: tuple[int, ...]  # degree multiset of a minimal generating set
    scoped: bool
    needed_window: int  # the smallest window on which the verdict is not scoped
    detail: str = ""


def freeness_test(pres: GradedModulePresentation) -> FreenessResult:
    """free <=> Tor_1 vanishes on the window; ranks read off Tor_0."""
    tor = pres.tor
    t0 = tor.tor_dims(0)
    ranks = tuple(
        sorted(itertools.chain.from_iterable([n] * d for n, d in t0.items()))
    )
    free = tor.total(1) == 0
    needed = free_window(pres.dim_a, pres.generators)
    scoped = pres.window < needed
    detail = (
        f"window {pres.window} below recommended {needed}; verdict is scoped"
        if scoped
        else ""
    )
    return FreenessResult(
        free=free, ranks=ranks, scoped=scoped, needed_window=needed, detail=detail
    )


class LocalizedRankResult(NamedTuple):
    rank: int | None
    conclusive: bool
    detail: str = ""


def localized_rank(pres: GradedModulePresentation) -> LocalizedRankResult:
    """Rank over the fraction field via the certified Hilbert closed form.

    rank = value at t = 1 of hilbert * (1-t^2)^{dim_a}; zero exactly for
    torsion modules.
    """
    h = hilbert(pres)
    if not h.certified:
        return LocalizedRankResult(None, False, "window does not certify a closed form")
    cf = h.closed_form
    if cf.den_exp < pres.dim_a:
        return LocalizedRankResult(0, True, "pole order below dim_a: torsion")
    rank = cf.numerator.evaluate(1)
    return LocalizedRankResult(rank, True, f"numerator value at t=1 is {rank}")


class DepthDimCM(NamedTuple):
    depth: int | str
    krull_dim: int | str
    cohen_macaulay: bool
    conclusive: bool
    detail: str = ""


def depth_dim_cm(pres: GradedModulePresentation) -> DepthDimCM:
    """depth from the Koszul homology top, Krull dim from the pole at t = 1."""
    h = hilbert(pres)
    tor = pres.tor
    if sum(h.coefficients) == 0:
        return DepthDimCM("+inf", "-inf", True, True, "zero module (by convention)")
    top = tor.top_nonzero()
    depth = pres.dim_a - (top if top is not None else 0)
    if not h.certified:
        return DepthDimCM(
            depth, "?", False, False,
            "no certified closed form on this window; Krull dimension unknown",
        )
    cf = h.closed_form
    num = cf.numerator
    ord_at_one = 0
    while not num.is_zero() and (q := divide_by_one_minus_tk(num, 1)) is not None:
        num, ord_at_one = q, ord_at_one + 1
    krull = cf.den_exp - ord_at_one
    return DepthDimCM(depth, krull, depth == krull, True)


# -- graded SES of modules ---------------------------------------------------------

ModuleMap = tuple[tuple[Poly, ...], ...]  # per source generator: coefficents over target generators


class SESCMReport(NamedTuple):
    is_ses: bool
    hypotheses_met: bool
    conclusion_holds: bool | None
    detail: str


def _induced_matrix(
    src: ModuleRealization, dst: ModuleRealization, gen_images: ModuleMap, n: int
) -> RationalMatrix:
    """Degree-n matrix of the map sending each source generator to its image."""
    fb_d = dst.free_basis[n]
    pos = {key: i for i, key in enumerate(fb_d)}
    entries = []
    for col, i in enumerate(src.basis_indices[n]):
        g_idx, beta = src.free_basis[n][i]
        for h_idx, poly in enumerate(gen_images[g_idx]):
            for alpha, c in poly_shift(poly, beta).items():
                key = (h_idx, alpha)
                if key not in pos:
                    raise PresentationError("map image is not homogeneous of the right degree")
                entries.append((pos[key], col, frac(c)))
    free_imgs = RationalMatrix.from_entries(len(fb_d), len(src.basis_indices[n]), entries)
    return dst.reduction(n) @ free_imgs


def ses_cm_check(
    a: GradedModulePresentation,
    b: GradedModulePresentation,
    c: GradedModulePresentation,
    f: ModuleMap,
    g: ModuleMap,
) -> SESCMReport:
    """Check the two-out-of-three Cohen-Macaulay statement on a graded SES.

    When the flanking modules are Cohen-Macaulay of the same Krull dimension,
    the middle one must be too; the verdict verifies that on this instance.
    """
    if not (a.dim_a == b.dim_a == c.dim_a):
        return SESCMReport(False, False, None, "modules over different rings")
    window = min(a.window, b.window, c.window)
    ra, rb, rc = a.realization, b.realization, c.realization
    for n in range(window + 1):
        fm = _induced_matrix(ra, rb, f, n)
        gm = _induced_matrix(rb, rc, g, n)
        if err := exactness_failure(fm, gm, n, "first map", "second map"):
            return SESCMReport(False, False, None, err)
    da, db, dc = depth_dim_cm(a), depth_dim_cm(b), depth_dim_cm(c)
    if not (da.conclusive and dc.conclusive):
        return SESCMReport(True, False, None, "flanking verdicts inconclusive on this window")
    if not (da.cohen_macaulay and dc.cohen_macaulay and da.krull_dim == dc.krull_dim):
        return SESCMReport(
            True, False, None,
            f"hypotheses not met: sub is CM={da.cohen_macaulay} dim={da.krull_dim}, "
            f"quotient is CM={dc.cohen_macaulay} dim={dc.krull_dim}",
        )
    holds = db.cohen_macaulay and db.krull_dim == da.krull_dim
    detail = (
        f"middle module: CM={db.cohen_macaulay}, dim={db.krull_dim}, "
        f"expected CM of dim {da.krull_dim}"
    )
    return SESCMReport(True, True, holds, detail)
