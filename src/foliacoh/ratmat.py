"""Sparse matrices over the rationals.

No floating point enters any computation in this package.  Matrices act on
column vectors, so an operator from an n-dimensional space to an
m-dimensional one is an (m x n) matrix.

A matrix is stored as one pair per row: a dict that maps a column to the
integer numerator of its nonzero entry, and one positive denominator for
the row.  Rows are canonical: no zero is stored, the denominator is coprime
to the gcd of the numerators, and an empty row has denominator 1; so ``==``
and ``is_zero`` compare stored entries only.  Sums, scaling, stacks,
products and ``select`` visit nonzero entries only and work on integers,
with at most one gcd per output row; a product sums each output row over
one common denominator.  Fractions appear only at the edges: the
constructors (``RationalMatrix(...)``, ``from_rows``, ``from_cols``,
``from_entries``) coerce entries, and a row of ints makes no Fraction;
``tolist`` (the one dense reader), ``nonzero_columns`` and ``apply`` hand
Fractions back.  A matrix this module builds itself wraps its rows with no
copy and may share rows with its operands, so rows are immutable by
convention: only a row just allocated is ever written.

Canonical bases (kernels, representatives) come from the reduced row
echelon form, which is unique and hence deterministic.  It is computed
fraction-free on the numerators, each row divided by its content (the gcd
of its entries): an elimination sets row <- (p/g) row - (f/g) pivot_row,
with p the pivot, f the row's entry in the pivot column and g = gcd(p, f),
and divides the row by its content; each column pivots on the candidate
row with the fewest nonzeros.  A row of the RREF is its primitive pivot row
over its pivot entry, which is canonical as it stands.  This forward pass,
``_echelon``, is the one elimination loop, and a matrix runs it once: its
pivot columns and rows are kept, ``pivots`` returns the columns, ``rank()``
counts them and ``rref`` back-substitutes on a copy of the rows, last row
up, in just the later pivot columns each holds, so a rank and a later
kernel share one pass; ``prefix_pivots`` runs the forward pass per block of
rows, for the pivots of each leading-row prefix.  ``rank(p)`` counts pivots
on the rows reduced mod a prime p: row <- row - (row[c]/top[c]) top mod p.
A rank mod p is at most the rank over Q, so a rank mod ``PRIME`` equal to
the number of columns proves full column rank by arithmetic the RREF does
not share; ``rank_of_columns`` falls back to the exact rank otherwise, and
``independent_complement`` certifies its pick with it.

A subspace, and a batch of vectors, is always a matrix of columns, and one
elimination serves it whole.  ``nullspace`` returns the canonical kernel
basis; ``solve`` takes a matrix of right-hand sides and reduces ``[A | B]``
once, and so does ``coordinates_modulo`` for ``[basis | modulo | vectors]``;
the package no longer calls it, and it stays while ``bench/spans.py`` binds
it by name.  On a ``nullspace`` basis, the identity on its free rows,
``solve`` reads coordinates off those rows and checks them by one product.
``independent_complement`` reads its pick off the pivots of one forward pass
of ``[modulo | candidates]``.  ``kron_identity`` and ``identity_kron`` place
a matrix's entries into its Kronecker product with an identity, with no
arithmetic; ``gstar`` holds a product as matrices M_{a,b}, which ``cli``
fills with ``from_entries``, and writes the G*-axioms as identities between
such products.  ``from_blocks`` places matrices, and their Kronecker
products with identities, as blocks of a larger one and adds them where they
overlap, with no arithmetic on a row that one block feeds; ``a + b`` places
both at (0, 0), ``gstar`` assembles tensor-product operators with it,
``cartan`` the ambient d, L and u-multiplication of the Cartan complex, and
``module_theory`` the Koszul boundaries.  ``apply`` is ``@`` on one dense
column, a ``Vec``; it serves ``gstar.detect_type_c`` and the tests, and
stays while ``bench/spans.py`` binds it by name.
``joint_kernel`` (the common kernel of several maps, from one nullspace of
their stack) and ``restrict`` (an operator between two subspaces in their
bases, by one batched solve) carry the linear algebra the Cartan and Weil
routes share.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Row = dict[int, int]

ZERO = Fraction(0)
ONE = Fraction(1)
PRIME = 2**61 - 1


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def _integer(row: dict) -> tuple[Row, int]:
    """A row of nonzero ints and Fractions as (numerators, the lcm d of the denominators).

    It is canonical: an entry whose denominator holds a prime p to p's full
    power in d keeps a numerator prime to p.
    """
    if not row:
        return row, 1
    d = math.lcm(*[x.denominator for x in row.values()])
    if d == 1:
        return {j: x.numerator for j, x in row.items()}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}, d


def _row_in(entries: Sequence) -> tuple[Row, int]:
    """A dense row of exact rationals as a canonical row; a row of ints makes no Fraction."""
    if set(map(type, entries)) <= {int}:
        return {j: x for j, x in enumerate(entries) if x}, 1
    return _integer({j: x for j, x in enumerate(map(frac, entries)) if x})


def _lowest(row: Row, den: int) -> tuple[Row, int]:
    """The row row / den (den > 0) made canonical, with one gcd at most."""
    if den == 1 or not row:
        return row, 1
    g = math.gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: x // g for j, x in row.items()}, den // g


def _fractions(row: Row, den: int) -> dict[int, Fraction]:
    if den == 1:
        return {j: Fraction(x) for j, x in row.items()}
    return {j: Fraction(x, den) for j, x in row.items()}


def _scaled(row: Row, s: int) -> Row:
    """A new dict of the row times s."""
    return {j: s * x for j, x in row.items()} if s != 1 else dict(row)


def _without_content(row: Row) -> Row:
    """The row divided by the gcd of its entries; an empty row stays empty."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: Row, top: Row, c: int) -> Row:
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


def _eliminate_mod(row: Row, top: Row, c: int, p: int) -> Row:
    """row - (row[c]/top[c]) top mod p; column c cancels and zeros are dropped."""
    f = row[c] * pow(top[c], -1, p) % p
    out = dict(row)
    for j, y in top.items():
        v = (out.get(j, 0) - f * y) % p
        if v:
            out[j] = v
        else:
            del out[j]
    return out


def _echelon(rows: list[Row], ncols: int, eliminate) -> tuple[list, list]:
    """Pivot columns and pivot rows of a forward elimination of nonempty rows.

    The rows not yet pivoted are kept grouped by their leading column, so
    each column meets only the rows that start there; it pivots on the one
    with the fewest nonzeros, and eliminate(row, top, c) clears column c
    from the others.
    """
    by_lead: dict[int, list[Row]] = {}
    for r in rows:
        by_lead.setdefault(min(r), []).append(r)
    pivots, tops = [], []
    for c in range(ncols):
        if not by_lead:
            break
        bucket = by_lead.pop(c, None)
        if bucket is None:
            continue
        top = min(bucket, key=len)
        for row in bucket:
            if row is not top:
                row = eliminate(row, top, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        pivots.append(c)
        tops.append(top)
    return pivots, tops


class RationalMatrix:
    """Immutable-by-convention sparse rational matrix: integer rows, one denominator each."""

    __slots__ = ("rows", "cols", "_nz", "_forward", "_units")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows, self.cols = rows, cols
        self._forward = self._units = None
        if entries is None:
            self._nz = [({}, 1) for _ in range(rows)]
            return
        grid = [r if isinstance(r, (list, tuple)) else list(r) for r in entries]
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise ValueError(f"entry grid is not {rows}x{cols}: got {len(grid)} rows")
        self._nz = [_row_in(r) for r in grid]

    # -- constructors ------------------------------------------------------

    @classmethod
    def _trusted(cls, rows: int, cols: int, nz: list[tuple[Row, int]]) -> "RationalMatrix":
        """Wrap rows x cols canonical (numerators, denominator) rows as they are."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._nz = rows, cols, nz
        m._forward = m._units = None
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls._trusted(n, n, [({i: 1}, 1) for i in range(n)])

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
        return cls(dim, len(cols), list(zip(*cols)) if cols else [()] * dim)

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable) -> "RationalMatrix":
        """Zero matrix plus each int or Fraction x of the (i, j, x) entries at row i, column j."""
        nz = [{} for _ in range(rows)]
        for i, j, x in entries:
            r = nz[i]
            r[j] = r[j] + x if j in r else x
        return cls._trusted(rows, cols, [_integer({j: x for j, x in r.items() if x}) for r in nz])

    @classmethod
    def from_blocks(cls, rows: int, cols: int, parts: Iterable) -> "RationalMatrix":
        """Zero matrix plus each block of the parts placed there; where blocks overlap they add.

        A part (r0, c0, m, p, q) places 1_p (x) m (x) 1_q at row r0 and
        column c0 without building it; (r0, c0, m) places m.  A row fed
        by one block is a row of m spread and shifted, canonical as it
        stands; a row fed by several is summed over the lcm of their
        denominators.
        """
        fed: list[list[tuple[int, int, Row, int]]] = [[] for _ in range(rows)]
        for part in parts:
            r0, c0, m, p, q = part if len(part) == 5 else (*part, 1, 1)
            h, w = p * q * m.rows, p * q * m.cols
            if not (0 <= r0 <= rows - h and 0 <= c0 <= cols - w):
                raise ValueError(f"a {h}x{w} block at ({r0}, {c0}) leaves a {rows}x{cols} matrix")
            for a in range(p):  # the p q copies of m
                for b in range(q):
                    i0, j0 = r0 + a * m.rows * q + b, c0 + a * m.cols * q + b
                    for i, (r, d) in enumerate(m._nz):
                        if r:
                            fed[i0 + i * q].append((j0, q, r, d))
        out = []
        for row in fed:
            if not row:
                out.append(({}, 1))
            elif len(row) == 1:
                c0, q, r, d = row[0]
                out.append(({c0 + q * j: x for j, x in r.items()} if c0 or q != 1 else r, d))
            else:
                den = math.lcm(*[d for _, _, _, d in row])
                acc: Row = {}
                get = acc.get
                for c0, q, r, d in row:
                    s = den // d
                    for j, x in r.items():
                        j = c0 + q * j
                        acc[j] = get(j, 0) + (s * x if s != 1 else x)
                out.append(_lowest({j: x for j, x in acc.items() if x}, den))
        return cls._trusted(rows, cols, out)

    # -- access ------------------------------------------------------------

    def tolist(self) -> list[list[Fraction]]:
        rows = (_fractions(r, d) for r, d in self._nz)
        return [[r.get(j, ZERO) for j in range(self.cols)] for r in rows]

    def nonzero_columns(self) -> list[list[tuple[int, Fraction]]]:
        """Per column, its nonzero entries as (row, value), rows ascending."""
        out = [[] for _ in range(self.cols)]
        for i, (r, d) in enumerate(self._nz):
            for j, x in _fractions(r, d).items():
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
        return RationalMatrix._trusted(rows, len(pos), [
            _lowest({pos[j]: x for j, x in r.items() if j in pos}, d) for r, d in self._nz[:rows]
        ])

    def is_zero(self) -> bool:
        return not any(r for r, _ in self._nz)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and (self.rows, self.cols, self._nz) == (
            other.rows, other.cols, other._nz)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return RationalMatrix.from_blocks(self.rows, self.cols, [(0, 0, self), (0, 0, other)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + -other

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def scale(self, c) -> "RationalMatrix":
        c = frac(c)
        if not c:
            return RationalMatrix.zeros(self.rows, self.cols)
        p, q = c.numerator, c.denominator
        return RationalMatrix._trusted(
            self.rows, self.cols, [_lowest({j: p * x for j, x in r.items()}, q * d)
                                   for r, d in self._nz]
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        # each output row is summed over the integers on one common denominator
        right = other._nz
        mixed = any(d != 1 for _, d in right)
        out = []
        for r, da in self._nz:
            if not r:
                out.append((r, 1))
                continue
            den = math.lcm(*(right[k][1] for k in r)) if mixed else 1
            acc = {}
            for k, a in r.items():
                b, db = right[k]
                if den != db:
                    a *= den // db
                for j, y in b.items():
                    acc[j] = acc.get(j, 0) + a * y
            out.append(_lowest({j: x for j, x in acc.items() if x}, da * den))
        return RationalMatrix._trusted(self.rows, other.cols, out)

    def apply(self, v: Sequence) -> Vec:
        """Matrix-vector product: the column v, coerced as a constructor does, under ``@``."""
        col = RationalMatrix.from_cols([v], len(v))
        if col.rows != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(r[0] for r in (self @ col).tolist())

    def kron_identity(self, n: int) -> "RationalMatrix":
        """self (x) 1_n: entry (i n + k, j n + k) is self[i, j], placed with no arithmetic."""
        out = [({j * n + k: x for j, x in r.items()}, d) for r, d in self._nz for k in range(n)]
        return RationalMatrix._trusted(self.rows * n, self.cols * n, out)

    def identity_kron(self, n: int) -> "RationalMatrix":
        """1_n (x) self: entry (k r + i, k c + j) is self[i, j] for self r x c."""
        c = self.cols
        out = [({k * c + j: x for j, x in r.items()}, d) for k in range(n) for r, d in self._nz]
        return RationalMatrix._trusted(self.rows * n, c * n, out)

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        """[self | other]; a row over the lcm of two canonical denominators is canonical."""
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        shift = self.cols
        out = []
        for (r1, d1), (r2, d2) in zip(self._nz, other._nz):
            if r2:
                den = math.lcm(d1, d2)
                r1, s2, d1 = _scaled(r1, den // d1), den // d2, den
                for j, x in r2.items():
                    r1[shift + j] = s2 * x
            out.append((r1, d1))
        return RationalMatrix._trusted(self.rows, self.cols + other.cols, out)

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.cols:
            raise ValueError("vstack column mismatch")
        return RationalMatrix._trusted(self.rows + other.rows, self.cols, self._nz + other._nz)

    # -- elimination ---------------------------------------------------------

    def _primitive_rows(self) -> list[Row]:
        return [_without_content(r) for r, _ in self._nz if r]

    def pivots(self) -> tuple[int, ...]:
        """Pivot columns of the forward pass, which are the RREF's; the pass runs once."""
        if self._forward is None:
            pivots, tops = _echelon(self._primitive_rows(), self.cols, _eliminate)
            self._forward = tuple(pivots), tops
        return self._forward[0]

    def prefix_pivots(self, bounds: Sequence[int]) -> list[tuple[int, ...]]:
        """Pivots of the first b rows, per ascending bound b, from ``_echelon`` on each block of
        rows and the tops above it: they span the rows above, and a span has one set of pivots.
        """
        out, tops = [], []
        for start, b in zip([0, *bounds], bounds):
            if not 0 <= start <= b <= self.rows:
                raise ValueError(f"row bounds {list(bounds)} do not ascend within {self.rows}")
            block = [_without_content(r) for r, _ in self._nz[start:b] if r]
            pivots, tops = _echelon(tops + block, self.cols, _eliminate)
            out.append(tuple(pivots))
        return out

    def rank(self, p: int | None = None) -> int:
        """Pivot count of the forward pass: the exact rank, or the rank mod a prime p (no more)."""
        if p is None:
            return len(self.pivots())
        # a primitive row is never zero mod p
        rows = [{j: x % p for j, x in r.items() if x % p} for r in self._primitive_rows()]
        return len(_echelon(rows, self.cols, functools.partial(_eliminate_mod, p=p))[0])

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Unique RREF and pivots: the kept forward pass, then back substitution, last top up."""
        pivots = self.pivots()
        tops, at = list(self._forward[1]), {c: k for k, c in enumerate(pivots)}
        for i in range(len(tops) - 2, -1, -1):  # each top clears the later pivots it holds
            for c in [c for c in tops[i] if at.get(c, i) > i]:
                tops[i] = _eliminate(tops[i], tops[at[c]], c)
        # a primitive row over its pivot entry is canonical
        out = [(top, top[c]) if top[c] > 0 else ({j: -x for j, x in top.items()}, -top[c])
               for c, top in zip(pivots, tops)]
        out += [({}, 1) for _ in range(self.rows - len(out))]
        return RationalMatrix._trusted(self.rows, self.cols, out), pivots

    def nullspace(self) -> "RationalMatrix":
        """Canonical kernel basis as columns: one per free column, ascending."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = {f: k for k, f in enumerate(f for f in range(self.cols) if f not in pivot_set)}
        nz = [({}, 1) for _ in range(self.cols)]
        for f, k in free.items():
            nz[f] = ({k: 1}, 1)
        # a row of the RREF is zero in every pivot column but its own, where
        # its numerator is its denominator d; so d is coprime to the others,
        # and d is 1 when there are none
        for (row, d), p in zip(R._nz, pivots):
            nz[p] = ({free[f]: -x for f, x in row.items() if f != p}, d)
        basis = RationalMatrix._trusted(self.cols, len(free), nz)
        basis._units = tuple(free)  # read by ``solve``
        return basis

    def solve(self, b: "RationalMatrix") -> "RationalMatrix | None":
        """One solution X of self @ X = b (free variables zero), or None.

        All columns of b are solved from one RREF of ``[self | b]``; None
        means some column is inconsistent.  A ``nullspace`` basis, whose row f
        is e_k for its k-th free column f, skips the RREF: any solution equals
        b on those rows, so X is read off them and kept if self @ X == b.
        """
        if self._units is not None:
            if self.rows != b.rows:
                raise ValueError("hstack row mismatch")
            x = RationalMatrix._trusted(self.cols, b.cols, [b._nz[i] for i in self._units])
            return x if self @ x == b else None
        R, pivots = self.hstack(b).rref()
        n = self.cols
        if pivots and pivots[-1] >= n:
            return None
        x = [({}, 1) for _ in range(n)]
        for (row, d), p in zip(R._nz, pivots):
            x[p] = _lowest({j - n: v for j, v in row.items() if j >= n}, d)
        return RationalMatrix._trusted(n, b.cols, x)


# -- subspace helpers --------------------------------------------------------


def rank_of_columns(m: RationalMatrix, cols: Sequence[int]) -> int:
    """Exact rank of the chosen columns of m.

    A rank mod ``PRIME`` equal to len(cols) proves full column rank; any
    other reading is settled by the exact rank.
    """
    sub = m.select(cols)
    return len(cols) if sub.rank(PRIME) == len(cols) else sub.rank()


def independent_complement(candidates: RationalMatrix, modulo: RationalMatrix) -> list[int]:
    """Indices of candidate columns forming a basis modulo the span of modulo's, greedily.

    Deterministic: candidates are taken in the given order whenever they
    increase the accumulated rank.  Those are exactly the pivot columns past
    ``modulo`` in the forward pass of ``[modulo | candidates]``; the pick is
    certified by the full column rank of the pivot columns.
    """
    if not candidates.cols:
        return []
    k = modulo.cols
    stacked = modulo.hstack(candidates)
    pivots = stacked.pivots()
    if rank_of_columns(stacked, pivots) != len(pivots):
        raise ArithmeticError("RREF pivot columns are not independent")
    return [p - k for p in pivots if p >= k]


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
