"""Graded vector spaces, cochain complexes, cohomology, and exactness checks.

All spaces live in an explicit degree window [lo, hi]; degrees outside are
zero.  Differentials raise degree by one, so d at the top of the window is
the zero map out of the complex.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple
from .ratmat import RationalMatrix, independent_complement


class DimensionMismatch(ValueError):
    """Matrix shapes incompatible with declared graded dimensions."""


class InconsistentOperatorData(ValueError):
    """Operators that contradict each other: d^2 != 0, or d leaving a subspace they cut out."""


class GradedVectorSpace:
    """Finite-dimensional graded vector space on a window of degrees.

    Labels are given per degree (a document's, whose count is checked) or
    made by a function name(n, i), ``e{n}_{i}`` by default; a made label is
    formatted only when ``label`` or ``labels`` reads it.
    """

    def __init__(self, dims, labels=None, window=None):
        dims = {int(n): operator.index(d) for n, d in dims.items() if d}
        if any(d < 0 for d in dims.values()):
            raise ValueError("negative dimension")
        if window is None:
            top = max(dims, default=0)
            lo = min(0, min(dims, default=0))
            window = (lo, top)
        if any(n < window[0] or n > window[1] for n in dims):
            raise ValueError("dimension declared outside the window")
        given = {} if callable(labels) else {n: tuple(x) for n, x in (labels or {}).items()}
        for n, d in dims.items():
            if n in given and len(given[n]) != d:
                raise ValueError(f"label count mismatch in degree {n}")
        self.dims = dims
        self.window = (operator.index(window[0]), operator.index(window[1]))
        self._given = given
        self._name = labels if callable(labels) else lambda n, i: f"e{n}_{i}"

    @functools.cached_property
    def labels(self) -> dict[int, tuple[str, ...]]:
        """Every label, per degree."""
        made = {n: tuple(map(functools.partial(self._name, n), range(d)))
                for n, d in self.dims.items() if n not in self._given}
        return {**self._given, **made}

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedVectorSpace) and (self.dims, self.labels, self.window) == (
            other.dims, other.labels, other.window)

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def label(self, n: int, i: int) -> str:
        if not self.dim(n):
            return ""
        given = self._given.get(n)
        return given[i] if given is not None else self._name(n, range(self.dims[n])[i])

    def degrees(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def first_moved_label(self, n: int, m: RationalMatrix) -> str | None:
        """Label of the first degree-n basis vector that m maps to nonzero, if any."""
        j = next((j for j, col in enumerate(m.nonzero_columns()) if col), None)
        return None if j is None else self.label(n, j)


class CochainComplex:
    """Graded space plus degree +1 differentials d[n]: degree n -> n+1."""

    def __init__(self, spaces: GradedVectorSpace, differentials: dict[int, RationalMatrix]):
        self.spaces = spaces
        self.d = {}
        lo, hi = spaces.window
        for n, m in differentials.items():
            if m is None or m.is_zero():
                continue
            if n < lo or n >= hi:
                raise DimensionMismatch(
                    f"differential declared at degree {n} maps outside the window"
                )
            self.d[int(n)] = m

    def diff(self, n: int) -> RationalMatrix:
        """d_n as a matrix of shape (dim(n+1), dim(n)); zero when absent."""
        if n in self.d:
            return self.d[n]
        return RationalMatrix.zeros(self.spaces.dim(n + 1), self.spaces.dim(n))

    def check_shapes(self):
        for n, m in self.d.items():
            want = (self.spaces.dim(n + 1), self.spaces.dim(n))
            if (m.rows, m.cols) != want:
                raise DimensionMismatch(
                    f"d_{n} has shape {m.rows}x{m.cols}, expected {want[0]}x{want[1]}"
                )


class ComplexReport(NamedTuple):
    ok: bool
    failing_degree: int | None = None
    witness_label: str | None = None
    message: str = ""


def verify_complex(c: CochainComplex) -> ComplexReport:
    """Check d_{n+1} d_n = 0 everywhere; report the first failure witness."""
    c.check_shapes()
    lo, hi = c.spaces.window
    for n in range(lo, hi):
        label = c.spaces.first_moved_label(n, c.diff(n + 1) @ c.diff(n))
        if label is not None:
            return ComplexReport(
                ok=False,
                failing_degree=n,
                witness_label=label,
                message=f"d_{n + 1} d_{n} != 0 on basis vector {label} of degree {n}",
            )
    return ComplexReport(ok=True, message="d^2 = 0 on the whole window")


class CohomologyResult(NamedTuple):
    """Per-degree cohomology dimensions; degrees where H^n = 0 are absent."""

    dims: dict[int, int]

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def dims_tuple(self, n_max: int) -> tuple[int, ...]:
        return tuple(self.dim(n) for n in range(n_max + 1))

    def total_dim(self) -> int:
        return sum(self.dims.values())


def cohomology_dims(c: CochainComplex) -> CohomologyResult:
    """Cohomology dimensions of a verified complex.

    dim H^n = dim C^n - rank d_n - rank d_{n-1}, each rank counted by the
    forward elimination pass alone; ``cocycle_representatives`` gives
    representatives where they are wanted.
    """
    rep = verify_complex(c)
    if not rep.ok:
        raise InconsistentOperatorData(f"not a complex: {rep.message}")
    ranks = {n: m.rank() for n, m in c.d.items()}
    dims: dict[int, int] = {}
    lo, hi = c.spaces.window
    for n in range(lo, hi + 1):
        h = c.spaces.dim(n) - ranks.get(n, 0) - ranks.get(n - 1, 0)
        if h:
            dims[n] = h
    return CohomologyResult(dims=dims)


def cocycle_representatives(d_out: RationalMatrix, d_in: RationalMatrix) -> RationalMatrix:
    """Cohomology representatives, as columns, at the degree between d_in and d_out.

    They are the first columns of the canonical (RREF) kernel basis of the
    outgoing differential that stay independent modulo the image of the
    incoming one.
    """
    kernel = d_out.nullspace()
    return kernel.select(independent_complement(kernel, d_in))


# -- short exact sequences and the long exact sequence ------------------------


class ShortExactSequence(NamedTuple):
    """0 -> sub -> total -> quotient -> 0 with per-degree maps."""

    sub: CochainComplex
    total: CochainComplex
    quotient: CochainComplex
    inclusion: dict[int, RationalMatrix]
    projection: dict[int, RationalMatrix]

    def incl(self, n: int) -> RationalMatrix:
        if n in self.inclusion:
            return self.inclusion[n]
        return RationalMatrix.zeros(self.total.spaces.dim(n), self.sub.spaces.dim(n))

    def proj(self, n: int) -> RationalMatrix:
        if n in self.projection:
            return self.projection[n]
        return RationalMatrix.zeros(
            self.quotient.spaces.dim(n), self.total.spaces.dim(n)
        )


class LESReport(NamedTuple):
    ok: bool
    input_error: str | None = None
    failing_degree: int | None = None
    failing_node: str | None = None
    connecting_ranks: dict[int, int] | None = None
    message: str = ""


def exactness_failure(f: RationalMatrix, g: RationalMatrix, n: int,
                      first: str, second: str) -> str | None:
    """Why 0 -> . -f-> . -g-> . -> 0 is not exact in degree n, from ranks; None when it is.

    The checks run in this order: f injective, g surjective, g f = 0; after
    them ker g = im f is a rank equality.  first and second name f and g.
    """
    rank_f = f.rank()
    if rank_f != f.cols:
        return f"{first} not injective in degree {n}"
    rank_g = g.rank()
    if rank_g != g.rows:
        return f"{second} not surjective in degree {n}"
    if not (g @ f).is_zero():
        return f"{second} o {first} != 0 in degree {n}"
    if g.cols - rank_g != rank_f:
        return f"im({first}) != ker({second}) in degree {n}"
    return None


def check_ses(ses: ShortExactSequence) -> str | None:
    """Return an error message when the input is not an SES of complexes."""
    a, b, c = ses.sub, ses.total, ses.quotient
    los = {a.spaces.window, b.spaces.window, c.spaces.window}
    if len(los) != 1:
        return "the three complexes declare different windows"
    lo, hi = a.spaces.window
    for n in range(lo, hi + 1):
        f, g = ses.incl(n), ses.proj(n)
        if (f.rows, f.cols) != (b.spaces.dim(n), a.spaces.dim(n)):
            return f"inclusion shape mismatch in degree {n}"
        if (g.rows, g.cols) != (c.spaces.dim(n), b.spaces.dim(n)):
            return f"projection shape mismatch in degree {n}"
        if err := exactness_failure(f, g, n, "inclusion", "projection"):
            return err
    for n in range(lo, hi):
        if not (b.diff(n) @ ses.incl(n) - ses.incl(n + 1) @ a.diff(n)).is_zero():
            return f"inclusion is not a chain map at degree {n}"
        if not (c.diff(n) @ ses.proj(n) - ses.proj(n + 1) @ b.diff(n)).is_zero():
            return f"projection is not a chain map at degree {n}"
    for name, part in (("sub", a), ("total", b), ("quotient", c)):
        rep = verify_complex(part)
        if not rep.ok:
            return f"{name}: {rep.message}"
    return None


def les_exactness_check(ses: ShortExactSequence) -> LESReport:
    """Verify exactness of the induced long exact sequence in cohomology, from ranks.

    With Z a kernel basis, the rank of the classes of a batch of cocycles v
    in degree n is rank[d_(n-1) | v] - rank d_(n-1).  So rank f*_n is that of
    f Z_A^n, rank g*_n that of g Z_B^n, and rank delta_n that of the zig-zag
    (lift Z_C^n along the projection, differentiate, pull back along the
    inclusion).  Exactness at every node is h - rank(out) = rank(in).
    """
    err = check_ses(ses)
    if err is not None:
        return LESReport(ok=False, input_error=err, message=f"not an SES: {err}")
    a, b, c = ses.sub, ses.total, ses.quotient
    lo, hi = a.spaces.window

    def class_rank(x: CochainComplex, n: int, v: RationalMatrix) -> int:
        return x.diff(n - 1).hstack(v).rank() - x.diff(n - 1).rank()

    h, f_star, g_star, delta = {}, {}, {}, {}
    for n in range(lo, hi + 1):
        za, zb, zc = (x.diff(n).nullspace() for x in (a, b, c))
        h[n] = [z.cols - x.diff(n - 1).rank() for z, x in ((za, a), (zb, b), (zc, c))]
        f_star[n] = class_rank(b, n, ses.incl(n) @ za)
        g_star[n] = class_rank(c, n, ses.proj(n) @ zb)
        if n == hi:
            continue
        lifts = ses.proj(n).solve(zc)
        if lifts is None:
            raise AssertionError("surjectivity was already checked")
        pre = ses.incl(n + 1).solve(b.diff(n) @ lifts)
        if pre is None:
            return LESReport(
                ok=False,
                failing_degree=n,
                failing_node="connecting",
                message=f"zig-zag failed at degree {n}: d(lift) not in the subcomplex",
            )
        delta[n] = class_rank(a, n + 1, pre)

    for n in range(lo, hi + 1):
        h_a, h_b, h_c = h[n]
        for node, kernel, image in (
            ("sub", h_a - f_star[n], delta.get(n - 1, 0)),  # ker f* = im delta_(n-1)
            ("total", h_b - g_star[n], f_star[n]),  # ker g* = im f*
            ("quotient", h_c - delta.get(n, 0), g_star[n]),  # ker delta = im g*
        ):
            if kernel != image:
                return LESReport(False, failing_degree=n, failing_node=f"H({node})",
                                 message=f"exactness fails at H^{n}({node})")
    return LESReport(
        ok=True,
        connecting_ranks=delta,
        message="long exact sequence is exact on the window",
    )
