import random
from fractions import Fraction

import pytest

from foliacoh.algebra_core import CochainComplex, GradedVectorSpace, ShortExactSequence
from foliacoh.gstar import GradedAlgebraPresentation, GStarStructure
from foliacoh.ratmat import RationalMatrix


def columns(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """The columns of m as tuples, read off its dense grid."""
    grid = m.tolist()
    return [tuple(r[j] for r in grid) for j in range(m.cols)]


def inverse(m: RationalMatrix) -> RationalMatrix | None:
    """The solution X of m X = 1, None when m is singular."""
    return m.solve(RationalMatrix.identity(m.rows))


def random_invertible(rng: random.Random, n: int) -> RationalMatrix:
    """Unit lower-triangular times unit upper-triangular with small entries."""
    lo = [(i, i, Fraction(1)) for i in range(n)]
    up = list(lo)
    for i in range(n):
        for j in range(i):
            lo.append((i, j, Fraction(rng.randint(-2, 2))))
            up.append((j, i, Fraction(rng.randint(-2, 2))))
    return RationalMatrix.from_entries(n, n, lo) @ RationalMatrix.from_entries(n, n, up)


def change_basis(s, rng):
    """The same structure in the basis given by unit-LU changes per degree.

    Degree 0 keeps its basis, so the unit stays a basis element, and the
    product table is carried along with the operators.
    """
    sp = s.space
    t = {n: random_invertible(rng, sp.dim(n)) if n else RationalMatrix.identity(sp.dim(n))
         for n in sp.degrees()}
    t_inv = {n: inverse(m) for n, m in t.items()}

    def conj(get, delta):
        return {n: t[n + delta] @ get(n) @ t_inv[n] for n in sp.degrees()
                if sp.dim(n) and sp.dim(n + delta)}

    products = {}
    for da in sp.degrees():
        for db in sp.degrees():
            if da + db not in t:
                continue
            for ia, va in enumerate(columns(t_inv[da])):
                for ib, vb in enumerate(columns(t_inv[db])):
                    ab = t[da + db].apply(s.algebra.multiply(da, va, db, vb))
                    products[(da, ia, db, ib)] = tuple(enumerate(ab))
    algebra = GradedAlgebraPresentation(sp, products, s.algebra.unit_index,
                                        s.truncated_above)
    r = s.lie.dimension
    return GStarStructure(
        algebra, s.lie, conj(s.op_d, 1),
        [conj(lambda n, j=j: s.op_i(j, n), -1) for j in range(r)],
        [conj(lambda n, j=j: s.op_l(j, n), 0) for j in range(r)],
    )


def random_complex(rng: random.Random, top: int = 4, max_dim: int = 6) -> CochainComplex:
    """Random bounded complex: interval summands conjugated by a random basis.

    Every complex over a field splits into intervals, so this generator is
    fully general up to isomorphism.
    """
    pair_counts = {n: rng.randint(0, max_dim // 2) for n in range(top)}
    single_counts = {n: rng.randint(0, max_dim // 2) for n in range(top + 1)}
    dims = {}
    for n in range(top + 1):
        dims[n] = single_counts[n] + pair_counts.get(n, 0) + pair_counts.get(n - 1, 0)
    dims = {n: d for n, d in dims.items() if d}
    space = GradedVectorSpace(dims, window=(0, top))
    diffs = {}
    for n in range(top):
        rows, cols = space.dim(n + 1), space.dim(n)
        # intervals starting at n occupy the leading columns after singles,
        # and the leading rows of degree n+1 after its own singles
        col0 = single_counts.get(n, 0) + pair_counts.get(n - 1, 0)
        row0 = single_counts.get(n + 1, 0)
        m = RationalMatrix.from_entries(
            rows, cols, [(row0 + k, col0 + k, Fraction(1)) for k in range(pair_counts.get(n, 0))]
        )
        if not m.is_zero():
            diffs[n] = m
    c = CochainComplex(space, diffs)
    # conjugate by random invertible transforms per degree
    t = {n: random_invertible(rng, space.dim(n)) for n in range(top + 1)}
    t_inv = {n: inverse(t[n]) for n in t}
    new_diffs = {}
    for n in range(top):
        m = t[n + 1] @ c.diff(n) @ t_inv[n]
        if not m.is_zero():
            new_diffs[n] = m
    return CochainComplex(space, new_diffs)


def random_split_ses(rng: random.Random, top: int = 3, max_dim: int = 6):
    """SES with total = sub (+) quotient twisted by a random change of basis."""
    sub = random_complex(rng, top, max_dim)
    quot = random_complex(rng, top, max_dim)
    dims = {
        n: sub.spaces.dim(n) + quot.spaces.dim(n) for n in range(top + 1)
    }
    dims = {n: d for n, d in dims.items() if d}
    space = GradedVectorSpace(dims, window=(0, top))
    t = {n: random_invertible(rng, space.dim(n)) for n in range(top + 1)}
    t_inv = {n: inverse(t[n]) for n in t}
    diffs = {}
    incl = {}
    proj = {}
    for n in range(top + 1):
        ds, dq = sub.spaces.dim(n), quot.spaces.dim(n)
        if n < top:
            rs, cs = sub.spaces.dim(n + 1), ds
            block = RationalMatrix.from_entries(
                space.dim(n + 1), space.dim(n),
                [(i, j, x) for j, col in enumerate(sub.diff(n).nonzero_columns())
                 for i, x in col]
                + [(rs + i, cs + j, x) for j, col in enumerate(quot.diff(n).nonzero_columns())
                   for i, x in col],
            )
            m = t[n + 1] @ block @ t_inv[n]
            if not m.is_zero():
                diffs[n] = m
        f = RationalMatrix.from_entries(space.dim(n), ds,
                                        [(i, i, Fraction(1)) for i in range(ds)])
        g = RationalMatrix.from_entries(dq, space.dim(n),
                                        [(i, ds + i, Fraction(1)) for i in range(dq)])
        incl[n] = t[n] @ f
        proj[n] = g @ t_inv[n]
    total = CochainComplex(space, diffs)
    return ShortExactSequence(sub, total, quot, incl, proj)


@pytest.fixture
def rng():
    return random.Random(20240817)
