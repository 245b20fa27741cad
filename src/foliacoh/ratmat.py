"""Dense matrices over the rationals.

Every entry is a ``fractions.Fraction``; no floating point enters any
computation in this package.  Matrices act on column vectors, so an operator
from an n-dimensional space to an m-dimensional one is an (m x n) matrix.

Entries are coerced only at the public boundary: ``frac``, ``vec``,
``RationalMatrix(...)``, ``from_rows``, ``from_cols`` and the CLI parsers.
A matrix this module builds itself (sum, scaling, stack, RREF, inverse,
solution, coordinates) wraps its grid of Fractions with no copy and no
coercion and may share rows with its operands, so grids are immutable by
convention: only a grid just allocated is ever written.

Rank is computed by fraction-free Bareiss elimination with pivoting on
numerator magnitude, which keeps intermediate integer growth bounded at the
scales this package targets.  Canonical bases (kernels, representatives) come
from the reduced row echelon form, which is unique and hence deterministic.

The operators here are mostly zeros, so the kernels skip them: an RREF step
updates only the nonzero entries of the scaled pivot row, a matrix-vector
product multiplies only where both factors are nonzero, and a Bareiss step
leaves a row with a zero in the pivot column alone when the pivot equals the
previous one.  One elimination serves a whole subspace: ``solve`` takes a
matrix of right-hand sides and reduces ``[A | B]`` once, and so does
``coordinates_modulo`` for a matrix of vectors; ``independent_complement``
reads its pick off the pivot columns of one RREF of ``[modulo | candidates]``,
then certifies it with one Bareiss rank.

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
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


class RationalMatrix:
    """Immutable-by-convention dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_m", "_rref_cache")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        if entries is None:
            self._m = [[Fraction(0)] * cols for _ in range(rows)]
        else:
            self._m = [[frac(x) for x in r] for r in entries]
            if len(self._m) != rows or any(len(r) != cols for r in self._m):
                raise ValueError(
                    f"entry grid is not {rows}x{cols}: got {len(self._m)} rows"
                )
        self._rref_cache = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, grid: list[list[Fraction]]) -> "RationalMatrix":
        """Wrap a rows x cols grid of Fractions as it is: no copy, no coercion."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._m, m._rref_cache = rows, cols, grid, None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        m = cls(n, n)
        for i in range(n):
            m._m[i][i] = Fraction(1)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        rows = list(rows)
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], dim: int | None = None) -> "RationalMatrix":
        """Matrix whose columns are the given vectors (all of length dim)."""
        cols = [vec(c) for c in cols]
        if dim is None:
            if not cols:
                raise ValueError("from_cols with no columns needs explicit dim")
            dim = len(cols[0])
        if any(len(c) != dim for c in cols):
            raise ValueError("column length mismatch")
        grid = [list(r) for r in zip(*cols)] if cols else [[] for _ in range(dim)]
        return cls._trusted(dim, len(cols), grid)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable) -> "RationalMatrix":
        """Zero matrix plus each Fraction x of the (i, j, x) entries at row i, column j."""
        grid = [[Fraction(0)] * cols for _ in range(rows)]
        for i, j, x in entries:
            grid[i][j] += x
        return cls._trusted(rows, cols, grid)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return self._m[i][j]

    def row(self, i: int) -> Vec:
        return tuple(self._m[i])

    def col(self, j: int) -> Vec:
        return tuple(self._m[i][j] for i in range(self.rows))

    def columns(self) -> list[Vec]:
        return [self.col(j) for j in range(self.cols)]

    def tolist(self) -> list[list[Fraction]]:
        return [list(r) for r in self._m]

    def nonzero_columns(self) -> list[list[tuple[int, Fraction]]]:
        """Per column, its nonzero entries as (row, value), rows ascending."""
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self._m):
            for j, x in enumerate(r):
                if x:
                    out[j].append((i, x))
        return out

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._m for x in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._m == other._m
        )

    def __hash__(self):  # pragma: no cover - only identity-ish use
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self._m)))

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix._trusted(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._m, other._m)],
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._check_same_shape(other)
        return RationalMatrix._trusted(
            self.rows,
            self.cols,
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._m, other._m)],
        )

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = frac(c)
        return RationalMatrix._trusted(
            self.rows, self.cols, [[c * x for x in r] for r in self._m]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        out = RationalMatrix(self.rows, other.cols)
        for i in range(self.rows):
            mi = self._m[i]
            for k in range(self.cols):
                a = mi[k]
                if a == 0:
                    continue
                ok = other._m[k]
                oi = out._m[i]
                for j in range(other.cols):
                    if ok[j] != 0:
                        oi[j] += a * ok[j]
        return out

    def apply(self, v: Sequence) -> Vec:
        """Matrix-vector product."""
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        nonzero = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self._m:
            acc = Fraction(0)
            for j, x in nonzero:
                a = row[j]
                if a:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        return RationalMatrix._trusted(
            self.rows,
            self.cols + other.cols,
            [r1 + r2 for r1, r2 in zip(self._m, other._m)],
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        return RationalMatrix._trusted(self.rows + other.rows, self.cols, self._m + other._m)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        """Rank via fraction-free Bareiss elimination on integerized rows."""
        if self.rows == 0 or self.cols == 0:
            return 0
        m = []
        for r in self._m:
            den = math.lcm(*(x.denominator for x in r if x))
            m.append([x.numerator * (den // x.denominator) for x in r])
        nrows, ncols = self.rows, self.cols
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

        Rows from the current pivot row down are zero left of the pivot
        column, so the scaled pivot row is stored as its nonzero entries and
        each elimination touches only those.
        """
        if self._rref_cache is not None:
            return self._rref_cache
        m = [list(r) for r in self._m]
        nrows, ncols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(ncols):
            if r >= nrows:
                break
            piv, best = -1, 0
            for i in range(r, nrows):
                x = m[i][c]
                if x:
                    a = abs(x.numerator)
                    if piv < 0 or a > best:
                        best, piv = a, i
            if piv < 0:
                continue
            if piv != r:
                m[r], m[piv] = m[piv], m[r]
            top = m[r]
            inv = 1 / top[c]
            nonzero = [(j, top[j] * inv) for j in range(c, ncols) if top[j]]
            for j, x in nonzero:
                top[j] = x
            for i in range(nrows):
                row = m[i]
                f = row[c]
                if f and i != r:
                    for j, x in nonzero:
                        row[j] -= f * x
            pivots.append(c)
            r += 1
        out = RationalMatrix._trusted(nrows, ncols, m), tuple(pivots)
        self._rref_cache = out
        return out

    def nullspace(self) -> list[Vec]:
        """Canonical kernel basis: one vector per free column, ascending."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        basis = []
        for f in range(self.cols):
            if f in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for row_idx, p in enumerate(pivots):
                v[p] = -R._m[row_idx][f]
            basis.append(tuple(v))
        return basis

    def pivot_columns(self) -> tuple[int, ...]:
        return self.rref()[1]

    def solve(self, b: "Sequence | RationalMatrix") -> "Vec | RationalMatrix | None":
        """One solution X of self @ X = b (free variables zero), or None.

        b is a vector, giving a vector, or a matrix of right-hand sides,
        giving a matrix; all columns are solved from one RREF of
        ``[self | b]``, and None means some column is inconsistent.
        """
        if isinstance(b, RationalMatrix):
            rhs = b
        else:
            b = vec(b)
            if len(b) != self.rows:
                raise ValueError("rhs length mismatch")
            rhs = RationalMatrix.from_cols([b], self.rows)
        R, pivots = self.hstack(rhs).rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        x = RationalMatrix(self.cols, rhs.cols)
        for row_idx, p in enumerate(pivots):
            x._m[p] = R._m[row_idx][self.cols :]
        return x if rhs is b else x.col(0)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = self.hstack(RationalMatrix.identity(self.rows))
        R, pivots = aug.rref()
        if tuple(pivots[: self.rows]) != tuple(range(self.rows)):
            raise ValueError("matrix is singular")
        return RationalMatrix._trusted(
            self.rows, self.cols, [row[self.cols :] for row in R._m]
        )


# -- subspace helpers --------------------------------------------------------


def rank_of_columns(cols: Sequence[Sequence], dim: int) -> int:
    if not cols:
        return 0
    return RationalMatrix.from_cols(cols, dim).rank()


def independent_complement(
    candidates: Sequence[Vec], modulo: Sequence[Vec], dim: int
) -> list[int]:
    """Indices of candidates forming a basis modulo span(modulo), greedily.

    Deterministic: candidates are taken in the given order whenever they
    increase the accumulated rank.  Those are exactly the pivot columns past
    ``modulo`` in the RREF of ``[modulo | candidates]``; the pick is
    certified by a Bareiss rank of ``modulo`` plus the picked columns.
    """
    if not candidates:
        return []
    cols = list(modulo) + list(candidates)
    pivots = RationalMatrix.from_cols(cols, dim).pivot_columns()
    picked = [p - len(modulo) for p in pivots if p >= len(modulo)]
    if rank_of_columns(list(modulo) + [candidates[i] for i in picked], dim) != len(pivots):
        raise ArithmeticError("RREF pivots disagree with the Bareiss rank")
    return picked


def coordinates_modulo(
    basis: Sequence[Vec], modulo: Sequence[Vec], v: "Vec | RationalMatrix", dim: int
) -> "Vec | RationalMatrix | None":
    """Coordinates of v w.r.t. basis, working modulo span(modulo).

    Requires the basis vectors to be independent modulo the given spanning
    set; under that assumption the coordinate block is unique.  v is a vector,
    giving a vector, or a matrix of vectors, giving the matrix of their
    coordinate columns, all solved from one RREF as ``solve`` does.  Returns
    None when v (some column of v) is not in span(basis) + span(modulo).
    """
    batch = isinstance(v, RationalMatrix)
    cols = list(basis) + list(modulo)
    if not cols:
        if batch:
            return RationalMatrix.zeros(0, v.cols) if v.is_zero() else None
        return None if not is_zero_vec(v) else ()
    sol = RationalMatrix.from_cols(cols, dim).solve(v)
    if sol is None:
        return None
    if batch:
        return RationalMatrix._trusted(len(basis), sol.cols, sol._m[: len(basis)])
    return sol[: len(basis)]


def joint_kernel(ops: Sequence[RationalMatrix], dim: int) -> RationalMatrix | None:
    """Basis columns of the common kernel of maps out of a dim-dimensional space.

    The basis is the canonical one of the stacked maps' nullspace.  None
    means every map is zero, so the kernel is the whole space.
    """
    live = [op for op in ops if not op.is_zero()]
    if not live:
        return None
    stacked = functools.reduce(RationalMatrix.vstack, live)
    return RationalMatrix.from_cols(stacked.nullspace(), dim)


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
