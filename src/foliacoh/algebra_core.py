"""Graded vector spaces, cochain complexes, cohomology, and exactness checks.

All spaces live in an explicit degree window [lo, hi]; degrees outside are
zero.  Differentials raise degree by one, so d at the top of the window is
the zero map out of the complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple
from .ratmat import RationalMatrix, coordinates_modulo, independent_complement


class DimensionMismatch(ValueError):
    """Matrix shapes incompatible with declared graded dimensions."""


class InconsistentOperatorData(ValueError):
    """Operators that contradict each other: d^2 != 0, or d leaving a subspace they cut out."""


@dataclass(frozen=True)
class GradedVectorSpace:
    """Finite-dimensional graded vector space on a window of degrees."""

    dims: dict[int, int]
    labels: dict[int, tuple[str, ...]] = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)

    def __init__(self, dims, labels=None, window=None):
        dims = {int(n): int(d) for n, d in dims.items() if d}
        if any(d < 0 for d in dims.values()):
            raise ValueError("negative dimension")
        if window is None:
            top = max(dims, default=0)
            lo = min(0, min(dims, default=0))
            window = (lo, top)
        if any(n < window[0] or n > window[1] for n in dims):
            raise ValueError("dimension declared outside the window")
        labels = dict(labels or {})
        for n, d in dims.items():
            if n not in labels:
                labels[n] = tuple(f"e{n}_{i}" for i in range(d))
            else:
                labels[n] = tuple(labels[n])
                if len(labels[n]) != d:
                    raise ValueError(f"label count mismatch in degree {n}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "window", (int(window[0]), int(window[1])))

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def label(self, n: int, i: int) -> str:
        return self.labels.get(n, tuple())[i] if self.dim(n) else ""

    def degrees(self) -> range:
        return range(self.window[0], self.window[1] + 1)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * d for n, d in self.dims.items())

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

    def dims_tuple(self, n_max: int, n_min: int = 0) -> tuple[int, ...]:
        return tuple(self.dim(n) for n in range(n_min, n_max + 1))

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


def reduce_to_classes(
    c: CochainComplex, reps: RationalMatrix, n: int, v: RationalMatrix
) -> RationalMatrix | None:
    """Coordinates of the degree-n cocycles in v's columns w.r.t. the representatives reps."""
    return coordinates_modulo(reps, c.diff(n - 1), v)


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
        rank_f = f.rank()
        if rank_f != a.spaces.dim(n):
            return f"inclusion not injective in degree {n}"
        rank_g = g.rank()
        if rank_g != c.spaces.dim(n):
            return f"projection not surjective in degree {n}"
        if not (g @ f).is_zero():
            return f"projection o inclusion != 0 in degree {n}"
        # ker g = im f follows from rank equality once g o f = 0
        if b.spaces.dim(n) - rank_g != rank_f:
            return f"im(inclusion) != ker(projection) in degree {n}"
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


def _representatives(c: CochainComplex) -> dict[int, RationalMatrix]:
    """The cocycle representatives of every degree of the window."""
    lo, hi = c.spaces.window
    return {n: cocycle_representatives(c.diff(n), c.diff(n - 1)) for n in range(lo, hi + 1)}


def _induced_map(
    src_reps: RationalMatrix, dst: CochainComplex, dst_reps: RationalMatrix, m: RationalMatrix, n: int
) -> RationalMatrix:
    coords = reduce_to_classes(dst, dst_reps, n, m @ src_reps)
    if coords is None:
        raise ValueError(f"induced map image is not a cocycle class at degree {n}")
    return coords


def les_exactness_check(ses: ShortExactSequence) -> LESReport:
    """Verify exactness of the induced long exact sequence in cohomology.

    The connecting map is computed by the zig-zag (lift, differentiate,
    pull back along the inclusion); exactness at every node is ker = im,
    checked through vanishing composites and the rank identity.
    """
    err = check_ses(ses)
    if err is not None:
        return LESReport(ok=False, input_error=err, message=f"not an SES: {err}")
    a, b, c = ses.sub, ses.total, ses.quotient
    ra, rb, rc = _representatives(a), _representatives(b), _representatives(c)
    lo, hi = a.spaces.window

    f_star = {n: _induced_map(ra[n], b, rb[n], ses.incl(n), n) for n in range(lo, hi + 1)}
    g_star = {n: _induced_map(rb[n], c, rc[n], ses.proj(n), n) for n in range(lo, hi + 1)}

    # the zig-zag on all representatives of a degree at once: lift along the
    # projection, differentiate, pull back along the inclusion, reduce
    delta: dict[int, RationalMatrix] = {}
    for n in range(lo, hi):
        lifts = ses.proj(n).solve(rc[n])
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
        coords = reduce_to_classes(a, ra[n + 1], n + 1, pre)
        if coords is None:
            return LESReport(
                ok=False,
                failing_degree=n,
                failing_node="connecting",
                message=f"connecting image is not a cocycle class at degree {n}",
            )
        delta[n] = coords

    for n in range(lo, hi + 1):
        # node H^n(A): ker f* = im delta_{n-1}
        incoming = delta.get(n - 1, RationalMatrix.zeros(ra[n].cols, 0))
        if not (f_star[n] @ incoming).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(sub)",
                             message=f"f* o delta != 0 at degree {n}")
        if ra[n].cols - f_star[n].rank() != incoming.rank():
            return LESReport(False, failing_degree=n, failing_node="H(sub)",
                             message=f"exactness fails at H^{n}(sub)")
        # node H^n(B): ker g* = im f*
        if not (g_star[n] @ f_star[n]).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(total)",
                             message=f"g* o f* != 0 at degree {n}")
        if rb[n].cols - g_star[n].rank() != f_star[n].rank():
            return LESReport(False, failing_degree=n, failing_node="H(total)",
                             message=f"exactness fails at H^{n}(total)")
        # node H^n(C): ker delta = im g*
        out = delta.get(n, RationalMatrix.zeros(0, rc[n].cols))
        if out.cols and not (out @ g_star[n]).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(quotient)",
                             message=f"delta o g* != 0 at degree {n}")
        if rc[n].cols - out.rank() != g_star[n].rank():
            return LESReport(False, failing_degree=n, failing_node="H(quotient)",
                             message=f"exactness fails at H^{n}(quotient)")
    return LESReport(
        ok=True,
        connecting_ranks={n: delta[n].rank() for n in delta},
        message="long exact sequence is exact on the window",
    )
