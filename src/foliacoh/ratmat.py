"""Sparse matrices over the rationals.

Every entry is a ``fractions.Fraction``; no floating point enters any
computation in this package.  Matrices act on column vectors, so an operator
from an n-dimensional space to an m-dimensional one is an (m x n) matrix.

A matrix is stored as one dict per row that maps a column to its nonzero
entry; a zero is never stored, so ``==`` and ``is_zero`` compare stored
entries only.  Sums, scaling, stacks, products, ``select`` and
``nonzero_columns`` visit nonzero entries only, and a product sums each
output row over the integers on one common denominator; only ``tolist``
reads dense.

Entries are coerced only at the public boundary: ``frac``, ``vec``,
``RationalMatrix(...)``, ``from_rows``, ``from_cols`` and the CLI parsers.
A matrix this module builds itself (sum, scaling, stack, selection, RREF,
kernel, solution, coordinates) wraps its rows of Fractions with no copy and
no coercion and may share rows with its operands, so rows are immutable by
convention: only a row just allocated is ever written.

Canonical bases (kernels, representatives) come from the reduced row
echelon form, which is unique and hence deterministic.  It is computed
fraction-free: every row is scaled to coprime integers, an elimination sets
row <- (p/g) row - (f/g) pivot_row, with p the pivot, f the row's entry in
the pivot column and g = gcd(p, f), and then divides the row by its content;
each column pivots on the candidate row with the fewest nonzeros, and
Fractions are made only for the output rows.  Rank is computed on its own
by fraction-free Bareiss elimination with pivoting on numerator magnitude;
it is the independent certificate that ``independent_complement`` checks an
RREF against.

A subspace, and a batch of vectors, is always a matrix of columns, and one
elimination serves it whole.  ``nullspace`` returns the canonical kernel
basis; ``solve`` takes a matrix of right-hand sides and reduces ``[A | B]``
once, and so does ``coordinates_modulo`` for ``[basis | modulo | vectors]``;
``independent_complement`` reads its pick off the pivot columns of one RREF
of ``[modulo | candidates]``, and ``select`` takes the picked columns.
``kron_identity`` and ``identity_kron`` place a matrix's entries into its
Kronecker product with an identity, with no arithmetic; ``gstar`` writes the
G*-axioms as identities between such products.  Single dense vectors
(``Vec``, ``vec``, ``apply``) serve only ``gstar.detect_type_c`` and the
tests, and stay while ``bench/spans.py`` binds ``apply`` by name.

Two subspace helpers carry the linear algebra that the Cartan and Weil
routes share: ``joint_kernel`` takes the canonical common kernel of several
maps from one nullspace of their stack, and ``restrict`` writes an operator
between two subspaces in their bases with one batched solve.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Row = dict[int, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _dense(row: dict, n: int, zero=ZERO) -> list:
    out = [zero] * n
    for j, x in row.items():
        out[j] = x
    return out


def _integer(row: Row) -> tuple[int, dict[int, int]]:
    """(d, r) with row = r / d over the integers, d the lcm of the row's denominators."""
    d = math.lcm(*(x.denominator for x in row.values()))
    if d == 1:
        return 1, {j: x.numerator for j, x in row.items()}
    return d, {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _without_content(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries; an empty row stays empty."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict[int, int], top: dict[int, int], c: int) -> dict[int, int]:
    """(p/g) row - (f/g) top over the integers, divided by its content.

    p = top[c] and f = row[c] are nonzero and g = gcd(p, f), so column c
    cancels and the result is primitive, or empty when the row was a
    multiple of top.
    """
    p, f = top[c], row[c]
    g = math.gcd(p, f)
    a, b = p // g, f // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in top.items():
        if j in out:
            v = out[j] - b * y
            if v:
                out[j] = v
            else:
                del out[j]
        else:
            out[j] = -b * y
    return _without_content(out)


class RationalMatrix:
    """Immutable-by-convention sparse matrix of Fractions, one dict per row."""

    __slots__ = ("rows", "cols", "_nz", "_rref_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self._rref_cache = None
        if entries is None:
            self._nz = [{} for _ in range(rows)]
            return
        grid = [[frac(x) for x in r] for r in entries]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entry grid is not {rows}x{cols}: got {len(grid)} rows")
        self._nz = [{j: x for j, x in enumerate(r) if x} for r in grid]

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, nz: list[Row]) -> "RationalMatrix":
        """Wrap rows x cols nonzero Fractions, one dict per row, as they are."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._nz, m._rref_cache = rows, cols, nz, None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._trusted(n, n, [{i: ONE} for i in range(n)])

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        rows = list(rows)
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], dim: int) -> "RationalMatrix":
        """Matrix whose columns are the given vectors (all of length dim)."""
        cols = [tuple(c) for c in cols]
        if any(len(c) != dim for c in cols):
            raise ValueError("column length mismatch")
        nz = [{} for _ in range(dim)]
        for j, c in enumerate(cols):
            for i, x in enumerate(c):
                if type(x) is not Fraction:
                    x = frac(x)
                if x:
                    nz[i][j] = x
        return cls._trusted(dim, len(cols), nz)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable) -> "RationalMatrix":
        """Zero matrix plus each Fraction x of the (i, j, x) entries at row i, column j."""
        nz = [{} for _ in range(rows)]
        for i, j, x in entries:
            r = nz[i]
            r[j] = r[j] + x if j in r else x
        return cls._trusted(rows, cols, [{j: x for j, x in r.items() if x} for r in nz])

    # -- access ------------------------------------------------------------

    def tolist(self) -> list[list[Fraction]]:
        return [_dense(r, self.cols) for r in self._nz]

    def nonzero_columns(self) -> list[list[tuple[int, Fraction]]]:
        """Per column, its nonzero entries as (row, value), rows ascending."""
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self._nz):
            for j, x in r.items():
                out[j].append((i, x))
        return out

    def select(self, cols: Sequence[int], rows: int | None = None) -> "RationalMatrix":
        """The distinct columns cols, in that order, of the first rows rows (all by default)."""
        pos = {j: k for k, j in enumerate(cols)}
        rows = self.rows if rows is None else rows
        if len(pos) != len(cols) or not all(0 <= j < self.cols for j in pos) or not (
            0 <= rows <= self.rows
        ):
            raise ValueError(f"bad selection from a {self.rows}x{self.cols} matrix")
        return RationalMatrix._trusted(
            rows, len(pos), [{pos[j]: x for j, x in r.items() if j in pos} for r in self._nz[:rows]]
        )

    def is_zero(self) -> bool:
        return not any(self._nz)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nz == other._nz
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            r = dict(r1)
            for j, y in r2.items():
                v = r.pop(j, ZERO) + y
                if v:
                    r[j] = v
            out.append(r)
        return RationalMatrix._trusted(self.rows, self.cols, out)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + -other

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = frac(c)
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        return RationalMatrix._trusted(
            self.rows, self.cols, [{j: c * x for j, x in r.items()} for r in self._nz]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # each output row is summed over the integers on one common denominator
        right = [_integer(r) for r in other._nz]
        out = []
        for r in self._nz:
            terms = [(a, right[k]) for k, a in r.items() if right[k][1]]
            den = math.lcm(*(a.denominator * d for a, (d, _) in terms))
            acc = {}
            for a, (d, b) in terms:
                s = a.numerator * (den // (a.denominator * d))
                for j, y in b.items():
                    acc[j] = acc.get(j, 0) + s * y
            out.append({j: Fraction(x, den) for j, x in acc.items() if x})
        return RationalMatrix._trusted(self.rows, other.cols, out)

    def apply(self, v: Sequence) -> Vec:
        """Matrix-vector product."""
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = {j: x for j, x in enumerate(v) if x}
        return tuple(
            sum((a * nonzero[j] for j, a in r.items() if j in nonzero), ZERO) for r in self._nz
        )

    def kron_identity(self, n: int) -> "RationalMatrix":
        """self (x) 1_n: entry (i n + k, j n + k) is self[i, j], placed with no arithmetic."""
        out = [{j * n + k: x for j, x in r.items()} for r in self._nz for k in range(n)]
        return RationalMatrix._trusted(self.rows * n, self.cols * n, out)

    def identity_kron(self, n: int) -> "RationalMatrix":
        """1_n (x) self: entry (k r + i, k c + j) is self[i, j] for self r x c."""
        c = self.cols
        out = [{k * c + j: x for j, x in r.items()} for k in range(n) for r in self._nz]
        return RationalMatrix._trusted(self.rows * n, c * n, out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        shift = self.cols
        out = []
        for r1, r2 in zip(self._nz, other._nz):
            if r2:
                r1 = dict(r1)
                for j, x in r2.items():
                    r1[shift + j] = x
            out.append(r1)
        return RationalMatrix._trusted(self.rows, self.cols + other.cols, out)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        return RationalMatrix._trusted(self.rows + other.rows, self.cols, self._nz + other._nz)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        """Rank via fraction-free Bareiss elimination on integerized rows."""
        if self.rows == 0 or self.cols == 0:
            return 0
        nrows, ncols = self.rows, self.cols
        m = [_dense(_integer(r)[1], ncols, 0) for r in self._nz]
        prev = 1
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            # partial pivoting on numerator magnitude
            piv, best = -1, 0
            for i in range(r, nrows):
                a = abs(m[i][c])
                if a > best:
                    best, piv = a, i
            if piv < 0:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            # Bareiss update must touch every remaining row to keep the
            # exact-division invariant, including rows with a zero in column c;
            # there it only rescales by p / prev, a no-op when p == prev.
            p, top = m[r][c], m[r]
            for i in range(r + 1, nrows):
                row = m[i]
                f = row[c]
                if f:
                    for j in range(c + 1, ncols):
                        row[j] = (p * row[j] - f * top[j]) // prev
                    row[c] = 0
                elif p != prev:
                    for j in range(c + 1, ncols):
                        if row[j]:
                            row[j] = p * row[j] // prev
            prev = p
            r += 1
        return r

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Unique reduced row echelon form and its pivot columns.

        Forward elimination keeps the rows not yet pivoted grouped by their
        leading column, so each column meets only the rows that start there;
        back substitution then clears each pivot column from the pivot rows
        above it, last pivot first.
        """
        if self._rref_cache is not None:
            return self._rref_cache
        by_lead: dict[int, list[dict[int, int]]] = {}
        for r in self._nz:
            if r:
                by_lead.setdefault(min(r), []).append(_without_content(_integer(r)[1]))
        pivots, tops = [], []
        for c in range(self.cols):
            if not by_lead:
                break
            rows = by_lead.pop(c, None)
            if rows is None:
                continue
            top = min(rows, key=len)
            for row in rows:
                if row is not top:
                    row = _eliminate(row, top, c)
                    if row:
                        by_lead.setdefault(min(row), []).append(row)
            pivots.append(c)
            tops.append(top)
        for k in range(len(pivots) - 1, 0, -1):
            c, top = pivots[k], tops[k]
            for i in range(k):
                if c in tops[i]:
                    tops[i] = _eliminate(tops[i], top, c)
        out = [{j: Fraction(x, top[c]) for j, x in top.items()} for c, top in zip(pivots, tops)]
        out += [{} for _ in range(self.rows - len(out))]
        self._rref_cache = RationalMatrix._trusted(self.rows, self.cols, out), tuple(pivots)
        return self._rref_cache

    def nullspace(self) -> "RationalMatrix":
        """Canonical kernel basis as columns: one per free column, ascending."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = {f: k for k, f in enumerate(f for f in range(self.cols) if f not in pivot_set)}
        nz = [{} for _ in range(self.cols)]
        for f, k in free.items():
            nz[f][k] = ONE
        # a row of the RREF is zero in every pivot column but its own
        for row, p in zip(R._nz, pivots):
            nz[p] = {free[f]: -x for f, x in row.items() if f != p}
        return RationalMatrix._trusted(self.cols, len(free), nz)

    def solve(self, b: "RationalMatrix") -> "RationalMatrix | None":
        """One solution X of self @ X = b (free variables zero), or None.

        All columns of b are solved from one RREF of ``[self | b]``; None
        means some column is inconsistent.
        """
        R, pivots = self.hstack(b).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        x = [{} for _ in range(n)]
        for row, p in zip(R._nz, pivots):
            x[p] = {j - n: v for j, v in row.items() if j >= n}
        return RationalMatrix._trusted(n, b.cols, x)


# -- subspace helpers --------------------------------------------------------


def rank_of_columns(m: RationalMatrix, cols: Sequence[int]) -> int:
    """Bareiss rank of the chosen columns of m."""
    return m.select(cols).rank()


def independent_complement(candidates: RationalMatrix, modulo: RationalMatrix) -> list[int]:
    """Indices of candidate columns forming a basis modulo the span of modulo's, greedily.

    Deterministic: candidates are taken in the given order whenever they
    increase the accumulated rank.  Those are exactly the pivot columns past
    ``modulo`` in the RREF of ``[modulo | candidates]``; the pick is
    certified by a Bareiss rank of ``modulo`` plus the picked columns.
    """
    if not candidates.cols:
        return []
    k = modulo.cols
    stacked = modulo.hstack(candidates)
    pivots = stacked.rref()[1]
    picked = [p - k for p in pivots if p >= k]
    if rank_of_columns(stacked, [*range(k), *(k + i for i in picked)]) != len(pivots):
        raise ArithmeticError("RREF pivots disagree with the Bareiss rank")
    return picked


def coordinates_modulo(
    basis: RationalMatrix, modulo: RationalMatrix, v: RationalMatrix
) -> RationalMatrix | None:
    """Coordinates of the columns of v w.r.t. basis, working modulo span(modulo).

    Requires the basis columns to be independent modulo the columns of
    modulo; under that assumption the coordinate block is unique.  All
    columns are solved from one RREF as ``solve`` does.  Returns None when
    some column of v is not in span(basis) + span(modulo).
    """
    sol = basis.hstack(modulo).solve(v)
    return None if sol is None else sol.select(range(sol.cols), basis.cols)


def joint_kernel(ops: Sequence[RationalMatrix], dim: int) -> RationalMatrix | None:
    """Basis columns of the common kernel of maps out of a dim-dimensional space.

    The basis is the canonical one of the stacked maps' nullspace.  None
    means every map is zero, so the kernel is the whole space.
    """
    live = [op for op in ops if not op.is_zero()]
    if not live:
        return None
    stacked = functools.reduce(RationalMatrix.vstack, live)
    if stacked.cols != dim:
        raise ValueError(f"maps out of a {stacked.cols}-dimensional space, not {dim}")
    return stacked.nullspace()


def restrict(
    op: RationalMatrix, src: RationalMatrix | None, tgt: RationalMatrix | None
) -> RationalMatrix | None:
    """The matrix X with tgt @ X = op @ src, or None when op leaves span(tgt).

    src and tgt hold independent basis columns of a subspace of op's source
    and of its target; None stands for the whole space.  A zero image needs
    no solve.
    """
    img = op if src is None else op @ src
    if tgt is None:
        return img
    if img.is_zero():
        return RationalMatrix.zeros(tgt.cols, img.cols)
    return tgt.solve(img)
