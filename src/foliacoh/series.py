"""Poincare polynomials and rational series with denominator (1-t^2)^k.

A polynomial is its integer coefficients, of either sign: differences and
(1 - t^2) factors are negative mid-computation.  Where a polynomial counts
dimensions, the non-negativity of its coefficients is a fact about the data,
checked where the data enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class PoincarePolynomial:
    """Integer-coefficient polynomial in t, held as its trimmed coefficients."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", _trim([int(c) for c in coeffs]))

    # -- basics --------------------------------------------------------------

    @classmethod
    def zero(cls) -> "PoincarePolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "PoincarePolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "PoincarePolynomial":
        if degree < 0:
            raise ValueError("negative degree")
        return cls((0,) * degree + (coeff,))

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, n: int) -> int:
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return PoincarePolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return PoincarePolynomial([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        if self.is_zero() or other.is_zero():
            return PoincarePolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return PoincarePolynomial(out)

    def scale(self, c: int) -> "PoincarePolynomial":
        return PoincarePolynomial([c * x for x in self.coeffs])

    def shift(self, k: int) -> "PoincarePolynomial":
        """Multiply by t^k."""
        if self.is_zero():
            return self
        return PoincarePolynomial((0,) * k + self.coeffs)

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t" if c != 1 else "t")
            else:
                terms.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(terms).replace("+ -", "- ")


def times_one_minus_t2_power(p: PoincarePolynomial, k: int) -> PoincarePolynomial:
    """p (1 - t^2)^k in one product with the binomial expansion."""
    if k == 0:
        return p
    binomial, c = [0] * (2 * k + 1), 1
    for j in range(k + 1):
        binomial[2 * j] = -c if j % 2 else c
        c = c * (k - j) // (j + 1)
    return p * PoincarePolynomial(binomial)


def divide_by_one_minus_tk(p: PoincarePolynomial, k: int) -> PoincarePolynomial | None:
    """Exact quotient p / (1 - t^k) for k >= 1, or None if not divisible."""
    if p.is_zero():
        return p
    d = p.degree()
    if d < k:
        return None
    # ascending synthetic division: p = (1 - t^k) q means p_i = q_i - q_{i-k}
    q = [0] * (d - k + 1)
    for i in range(d - k + 1):
        q[i] = p.coeff(i) + (q[i - k] if i >= k else 0)
    quotient = PoincarePolynomial(q)
    one_minus_tk = PoincarePolynomial((1,) + (0,) * (k - 1) + (-1,))
    return quotient if quotient * one_minus_tk == p else None


@dataclass(frozen=True)
class PoincareSeriesRational:
    """numerator(t) / (1 - t^2)^den_exp, canonicalized on construction.

    Canonical form: the numerator is not divisible by (1 - t^2) unless
    den_exp is already 0.
    """

    numerator: PoincarePolynomial
    den_exp: int

    def __init__(self, numerator: PoincarePolynomial, den_exp: int = 0):
        if den_exp < 0:
            raise ValueError("negative denominator exponent")
        while den_exp > 0:
            q = divide_by_one_minus_tk(numerator, 2)
            if q is None:
                break
            numerator, den_exp = q, den_exp - 1
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "den_exp", den_exp)

    @classmethod
    def zero(cls) -> "PoincareSeriesRational":
        return cls(PoincarePolynomial.zero(), 0)

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def __add__(self, other: "PoincareSeriesRational") -> "PoincareSeriesRational":
        k = max(self.den_exp, other.den_exp)
        a = times_one_minus_t2_power(self.numerator, k - self.den_exp)
        b = times_one_minus_t2_power(other.numerator, k - other.den_exp)
        return PoincareSeriesRational(a + b, k)

    def __sub__(self, other: "PoincareSeriesRational") -> "PoincareSeriesRational":
        return self + other.scale(-1)

    def __mul__(self, other: "PoincareSeriesRational") -> "PoincareSeriesRational":
        return PoincareSeriesRational(
            self.numerator * other.numerator, self.den_exp + other.den_exp
        )

    def scale(self, c: int) -> "PoincareSeriesRational":
        return PoincareSeriesRational(self.numerator.scale(c), self.den_exp)

    def expand(self, n_max: int) -> tuple[int, ...]:
        """Coefficients of the power-series expansion through degree n_max."""
        base = [0] * (n_max + 1)
        for i, c in enumerate(self.numerator.coeffs):
            if i > n_max:
                break
            base[i] = c
        if self.den_exp == 0:
            return tuple(base)
        k = self.den_exp
        out = [0] * (n_max + 1)
        for n in range(n_max + 1):
            acc = 0
            for j in range(0, n // 2 + 1):
                c = base[n - 2 * j]
                if c:
                    acc += c * math.comb(j + k - 1, k - 1)
            out[n] = acc
        return tuple(out)

    def __str__(self) -> str:
        if self.den_exp == 0:
            return str(self.numerator)
        return f"({self.numerator}) / (1-t^2)^{self.den_exp}"


class MorseGapResult(NamedTuple):
    """Outcome of dividing a Morse difference by (1+t) on a window."""

    ok: bool
    quotient: PoincarePolynomial | None
    violation_degree: int | None
    detail: str


def morse_gap(
    morse: PoincareSeriesRational,
    poincare: PoincareSeriesRational,
    n_max: int,
) -> MorseGapResult:
    """Check M_t - P_t = (1+t) * Q with Q >= 0 on the window [0, n_max].

    The difference must have non-negative expansion (else the inequalities
    are already violated); the quotient is produced by ascending division and
    the first negative quotient coefficient pinpoints the violation.
    """
    m = morse.expand(n_max)
    p = poincare.expand(n_max)
    diff = [a - b for a, b in zip(m, p)]
    for n, c in enumerate(diff):
        if c < 0:
            return MorseGapResult(
                False, None, n, f"M_t - P_t has negative coefficient at degree {n}"
            )
    q = [0] * (n_max + 1)
    for n in range(n_max + 1):
        q[n] = diff[n] - (q[n - 1] if n >= 1 else 0)
        if q[n] < 0:
            return MorseGapResult(
                False,
                None,
                n,
                f"(1+t)-quotient has negative coefficient at degree {n}",
            )
    return MorseGapResult(True, PoincarePolynomial(q), None, "gap divides")


def euler_at_minus_one(p: PoincarePolynomial) -> int:
    """Euler characteristic: evaluation at t = -1."""
    return p.evaluate(-1)
