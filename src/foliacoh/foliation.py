"""Formula-level operations on Killing-foliation input records.

Inputs are flat records describing the orbit-type stratification, critical
data of a basic Morse-Bott function, or the face vector of the leaf-closure
polytope.  The operations evaluate the closed-form series identities for
these records and cross-check the internal consistency the proofs provide.

Standing hypotheses (transverse orientability, completeness, compactness of
the leaf-closure space) are not visible in these records; callers assert
them.  Formality enters either as a caller-supplied flag or as a derived
fact (a polytope model or an odd-vanishing/Morse criterion), and its
provenance is recorded in the outputs.
"""

from __future__ import annotations

from typing import NamedTuple

from . import module_theory
from .series import (
    MorseGapResult,
    PoincarePolynomial,
    PoincareSeriesRational,
    euler_at_minus_one,
    morse_gap,
    times_one_minus_t2_power,
)


class Stratum(NamedTuple):
    """One component of an infinitesimal orbit type manifold."""

    name: str
    codim: int
    isotropy_dim: int
    quotient_poincare: PoincarePolynomial


class FoliationStrataModel(NamedTuple):
    q: int
    dim_a: int
    strata: tuple[Stratum, ...]

    def closed_leaf_strata(self) -> tuple[Stratum, ...]:
        return tuple(s for s in self.strata if s.isotropy_dim == self.dim_a)

    def trdim(self, s: Stratum) -> int:
        return self.dim_a - s.isotropy_dim


class ValidationReport(NamedTuple):
    valid: bool
    issues: tuple[str, ...]


class InvalidRecord(ValueError):
    """A record that fails its validation; ``issues`` are the report's."""

    def __init__(self, what: str, report: ValidationReport):
        super().__init__(f"invalid {what}: " + "; ".join(report.issues))
        self.issues = report.issues


def validate_strata(m: FoliationStrataModel) -> ValidationReport:
    """Check the record-level invariants of a stratification model.

    Closed-leaf components carry even codimension; a closed leaf forces
    2 dim_a <= q; an isolated closed leaf (point quotient, full codimension)
    forces q even; transverse dimensions must be non-negative.
    """
    issues = []
    if m.q < 0:
        issues.append("codimension q must be >= 0")
    if m.dim_a < 0:
        issues.append("dim_a must be >= 0")
    for s in m.strata:
        if s.codim < 0:
            issues.append(f"stratum {s.name}: negative codim")
        if not 0 <= s.isotropy_dim <= m.dim_a:
            issues.append(f"stratum {s.name}: isotropy_dim outside 0..dim_a")
        if any(c < 0 for c in s.quotient_poincare.coeffs):
            issues.append(f"stratum {s.name}: quotient Poincare polynomial must be unsigned")
    closed = m.closed_leaf_strata()
    for s in closed:
        if s.codim % 2 != 0:
            issues.append(
                f"closed-leaf stratum {s.name} has odd codimension {s.codim}"
            )
    if closed and 2 * m.dim_a > m.q:
        issues.append(
            f"a closed leaf exists but 2*dim_a = {2 * m.dim_a} exceeds q = {m.q}"
        )
    for s in closed:
        if s.quotient_poincare.coeffs == (1,) and s.codim == m.q and m.q % 2 != 0:
            issues.append(
                f"isolated closed leaf {s.name} requires even q, got {m.q}"
            )
    return ValidationReport(valid=not issues, issues=tuple(issues))


def equivariant_series_from_strata(m: FoliationStrataModel) -> PoincareSeriesRational:
    """Sum over strata of t^codim / (1-t^2)^isotropy times the quotient series."""
    report = validate_strata(m)
    if not report.valid:
        raise InvalidRecord("strata model", report)
    total = PoincareSeriesRational.zero()
    for s in m.strata:
        term = PoincareSeriesRational(
            s.quotient_poincare.shift(s.codim), s.isotropy_dim
        )
        total = total + term
    return total


class BasicSeriesResult(NamedTuple):
    polynomial: PoincarePolynomial
    formality_provenance: str
    identity_checked: bool


def basic_series_formal(m: FoliationStrataModel, formality_provenance: str = "caller-asserted",
                        equivariant: PoincareSeriesRational | None = None) -> BasicSeriesResult:
    """Basic Poincare polynomial of a formal model from its strata.

    Computes sum over strata of t^codim (1-t^2)^trdim P(X) and verifies it
    against the equivariant series times (1-t^2)^dim_a; a non-polynomial or
    negative outcome means the data cannot come from a formal action.  The
    equivariant series is ``equivariant_series_from_strata(m)``, which
    validates m; a caller that holds it passes it, and neither is repeated.
    """
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
    # proof identity: the equivariant series times (1-t^2)^dim_a is this polynomial
    shifted = PoincareSeriesRational(poly, m.dim_a)
    identity = _series_equal_on_window(
        shifted, eq, max(poly.degree(), 0) + 2 * m.dim_a + 4
    )
    if not identity:
        raise ValueError(
            "model inconsistent with formality: the strata series does not "
            "factor through (1-t^2)^dim_a"
        )
    return BasicSeriesResult(poly, formality_provenance, True)


def _series_equal_on_window(a: PoincareSeriesRational, b: PoincareSeriesRational, n: int) -> bool:
    return a.expand(n) == b.expand(n)


class BorelVerdict(NamedTuple):
    inequality_holds: bool
    equality: bool
    consistent_with_formality: bool
    detail: str


def borel_check(dim_total_h_m: int, dim_total_h_c: int, formal: bool) -> BorelVerdict:
    """Total-dimension comparison between the space and its closed leaves.

    dim H(C/F) <= dim H(M,F) always; equality exactly in the formal case.
    """
    if dim_total_h_m < 0 or dim_total_h_c < 0:
        raise ValueError("dimensions must be non-negative")
    ineq = dim_total_h_c <= dim_total_h_m
    equal = dim_total_h_c == dim_total_h_m
    consistent = ineq and (equal == formal)
    if not ineq:
        detail = (
            f"violation: dim H(C/F) = {dim_total_h_c} exceeds "
            f"dim H(M,F) = {dim_total_h_m}"
        )
    elif equal != formal:
        detail = (
            f"equality holds iff formal: equality={equal}, formal={formal} - inconsistent"
        )
    else:
        detail = "consistent"
    return BorelVerdict(ineq, equal, consistent, detail)


class LocalizationVerdict(NamedTuple):
    consistent: bool | None
    computed_rank: int | None
    expected_rank: int
    detail: str


def localization_rank_check(
    module: module_theory.GradedModulePresentation, dim_total_h_c: int
) -> LocalizationVerdict:
    """Localized rank must equal the total closed-leaf cohomology dimension."""
    lr = module_theory.localized_rank(module)
    if not lr.conclusive:
        return LocalizationVerdict(None, None, dim_total_h_c, f"inconclusive: {lr.detail}")
    ok = lr.rank == dim_total_h_c
    return LocalizationVerdict(
        ok,
        lr.rank,
        dim_total_h_c,
        "consistent" if ok else f"rank {lr.rank} != dim H(C/F) = {dim_total_h_c}",
    )


# -- Morse-Bott -------------------------------------------------------------------


class MorseComponent(NamedTuple):
    index: int
    quotient_poincare: PoincarePolynomial
    isotropy_dim: int


class MorseData(NamedTuple):
    components: tuple[MorseComponent, ...]

    def validate(self, dim_a: int) -> ValidationReport:
        """Issues of the data as critical components of an action of rank dim_a."""
        issues = []
        for k, c in enumerate(self.components):
            if c.index < 0:
                issues.append(f"component {k}: negative index")
            if c.isotropy_dim < 0:
                issues.append(f"component {k}: negative isotropy dimension")
            if c.isotropy_dim > dim_a:
                issues.append(
                    f"component {k}: isotropy dimension {c.isotropy_dim} exceeds dim_a = {dim_a}"
                )
            if any(x < 0 for x in c.quotient_poincare.coeffs):
                issues.append(f"component {k}: signed Poincare polynomial")
        return ValidationReport(valid=not issues, issues=tuple(issues))


class MorseSeries(NamedTuple):
    basic: PoincarePolynomial
    equivariant: PoincareSeriesRational


def morse_series(d: MorseData, dim_a: int) -> MorseSeries:
    """Basic and equivariant Morse series of the critical data.

    basic: sum of t^index P(N/F); equivariant: each component additionally
    divided by (1-t^2)^isotropy, the one-isotropy model of its neighborhood.
    Data that fails ``MorseData.validate`` raises ``InvalidRecord``.
    """
    report = d.validate(dim_a)
    if not report.valid:
        raise InvalidRecord("Morse data", report)
    basic = PoincarePolynomial.zero()
    equivariant = PoincareSeriesRational.zero()
    for c in d.components:
        shifted = c.quotient_poincare.shift(c.index)
        basic = basic + shifted
        equivariant = equivariant + PoincareSeriesRational(shifted, c.isotropy_dim)
    return MorseSeries(basic=basic, equivariant=equivariant)


class PerfectnessVerdict(NamedTuple):
    perfect: bool
    gap: MorseGapResult
    detail: str


def perfectness_check(
    d: MorseData, p_basic: PoincarePolynomial, dim_a: int, n_max: int | None = None,
    series: MorseSeries | None = None,
) -> PerfectnessVerdict:
    """Perfect when the basic Morse series equals the basic Poincare polynomial.

    Otherwise the (1+t)-divisibility of the gap is checked and the verdict
    carries the quotient or the violating degree.  The series is
    ``morse_series(d, dim_a)``, which validates d; a caller that holds it
    passes it, and neither is repeated.
    """
    ms = morse_series(d, dim_a) if series is None else series
    window = n_max if n_max is not None else max(ms.basic.degree(), p_basic.degree(), 0) + 2
    gap = morse_gap(
        PoincareSeriesRational(ms.basic, 0),
        PoincareSeriesRational(p_basic, 0),
        window,
    )
    if ms.basic == p_basic:
        return PerfectnessVerdict(True, gap, "perfect: Morse series equals Poincare polynomial")
    if gap.ok:
        return PerfectnessVerdict(
            False, gap, f"not perfect; inequalities hold with Q = {gap.quotient}"
        )
    return PerfectnessVerdict(False, gap, f"inequalities violated: {gap.detail}")


# -- polytopes ---------------------------------------------------------------------


class PolytopeData(NamedTuple):
    """f-vector of a simple convex polytope plus the foliation codimension.

    f_vector[i] counts faces of dimension i; the polytope itself is the top
    face.  The optional incidence witness lists, per vertex, the edges
    through it, and simpleness demands exactly (dimension) many each.
    """

    f_vector: tuple[int, ...]
    q: int
    vertex_edge_incidence: tuple[tuple[int, ...], ...] | None = None

    @property
    def dimension(self) -> int:
        return len(self.f_vector) - 1

    def validate(self) -> ValidationReport:
        issues = []
        lam = self.f_vector
        n = self.dimension
        if n < 0:
            issues.append("empty f-vector")
            return ValidationReport(False, tuple(issues))
        if any(x < 0 for x in lam):
            issues.append("negative face count")
        if lam[n] != 1:
            issues.append(f"top face count must be 1, got {lam[n]}")
        euler = sum((-1) ** i * lam[i] for i in range(n + 1))
        if euler != 1:
            issues.append(f"Euler relation fails: alternating sum is {euler}, not 1")
        if self.q != 2 * n:
            issues.append(f"q must equal 2*dimension = {2 * n}, got {self.q}")
        if self.vertex_edge_incidence is not None:
            if len(self.vertex_edge_incidence) != lam[0]:
                issues.append("incidence witness does not cover every vertex")
            else:
                for v, edges in enumerate(self.vertex_edge_incidence):
                    if len(set(edges)) != n:
                        issues.append(
                            f"vertex {v} meets {len(set(edges))} edges, "
                            f"simpleness needs exactly {n}"
                        )
        # last, on an f-vector that passes the rest: for a simple polytope the
        # face-vector polynomial is the h-polynomial in t^2
        if not issues:
            bad = [k for k, c in enumerate(self.face_polynomial().coeffs) if c < 0]
            if bad:
                issues.append(
                    f"face-vector polynomial has a negative coefficient of t^{bad[0]}, "
                    f"which no simple polytope has"
                )
        return ValidationReport(valid=not issues, issues=tuple(issues))

    def face_polynomial(self) -> PoincarePolynomial:
        """Sum of lambda_i t^{q-2i} (1-t^2)^i; defined when q >= 2 * dimension."""
        total = PoincarePolynomial.zero()
        for i, lam in enumerate(self.f_vector):
            total = total + times_one_minus_t2_power(
                PoincarePolynomial.monomial(self.q - 2 * i, lam), i)
        return total


class PolytopeSeriesResult(NamedTuple):
    polynomial: PoincarePolynomial
    induced_model: FoliationStrataModel
    cross_check_ok: bool
    formal: bool  # automatic for polytope models
    euler_characteristic: int


def polytope_series(p: PolytopeData) -> PolytopeSeriesResult:
    """Face-vector formula: sum of lambda_i t^{q-2i} (1-t^2)^i.

    Also emits the induced strata model (each i-face contributes one stratum
    of codimension q-2i and isotropy dim_a - i with point quotient) and
    cross-checks the formula against the strata route; formality is automatic
    for these models and recorded in the result.
    """
    report = p.validate()
    if not report.valid:
        raise InvalidRecord("polytope data", report)
    n = p.dimension
    poly = p.face_polynomial()
    strata = []
    for i, lam in enumerate(p.f_vector):
        for k in range(lam):
            strata.append(
                Stratum(
                    name=f"face{i}_{k}",
                    codim=p.q - 2 * i,
                    isotropy_dim=n - i,
                    quotient_poincare=PoincarePolynomial.one(),
                )
            )
    model = FoliationStrataModel(q=p.q, dim_a=n, strata=tuple(strata))
    cross = basic_series_formal(model, formality_provenance="polytope (automatic)")
    return PolytopeSeriesResult(
        polynomial=poly,
        induced_model=model,
        cross_check_ok=cross.polynomial == poly,
        formal=True,
        euler_characteristic=euler_at_minus_one(poly),
    )
