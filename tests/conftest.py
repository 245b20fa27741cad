import itertools
import random
from fractions import Fraction

import pytest

from foliacoh.algebra_core import CochainComplex, GradedVectorSpace, ShortExactSequence
from foliacoh.gstar import AxiomCheck, GradedAlgebraPresentation, GStarStructure
from foliacoh.ratmat import RationalMatrix, unit_vec, zero_vec


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
                    ab = t[da + db].apply(reference_multiply(s.algebra, da, va, db, vb))
                    products[(da, ia, db, ib)] = tuple(enumerate(ab))
    algebra = GradedAlgebraPresentation(sp, products, s.algebra.unit_index,
                                        s.truncated_above)
    r = s.lie.dimension
    return GStarStructure(
        algebra, s.lie, conj(s.op_d, 1),
        [conj(lambda n, j=j: s.op_i(j, n), -1) for j in range(r)],
        [conj(lambda n, j=j: s.op_l(j, n), 0) for j in range(r)],
    )


# -- element-wise reference for the G*-axiom checks ------------------------------------
# The package checks the axioms as identities between product matrices.  The
# functions below are the element-wise checks they replaced, one basis tuple
# at a time on dense vectors; tests compare the two.


def reference_multiply(alg, da, va, db, vb):
    """Product of two homogeneous elements given as dense vectors; zero above the window."""
    n = da + db
    dim_n = alg.space.dim(n)
    out = [Fraction(0)] * dim_n
    if dim_n == 0:
        return tuple(out)
    for ia, ca in enumerate(va):
        if ca == 0:
            continue
        for ib, cb in enumerate(vb):
            if cb == 0:
                continue
            for k, c in alg.basis_product(da, ia, db, ib):
                out[k] += ca * cb * c
    return tuple(out)


def reference_check_algebra(alg) -> list[str]:
    """Unit, graded commutativity, associativity on all basis tuples."""
    issues = []
    if alg.products is None:
        return ["operator-only presentation: product axioms not checkable"]
    sp = alg.space
    top = alg.stable_product_top()
    one = unit_vec(sp.dim(0), alg.unit_index)
    for n in sp.degrees():
        for i in range(sp.dim(n)):
            e = unit_vec(sp.dim(n), i)
            if reference_multiply(alg, 0, one, n, e) != e or \
                    reference_multiply(alg, n, e, 0, one) != e:
                issues.append(f"unit fails on {sp.label(n, i)}")
    degs = [n for n in sp.degrees() if sp.dim(n)]
    for da, db in itertools.product(degs, repeat=2):
        if da + db > top:
            continue
        for ia in range(sp.dim(da)):
            for ib in range(sp.dim(db)):
                ab = dict(alg.basis_product(da, ia, db, ib))
                ba = dict(alg.basis_product(db, ib, da, ia))
                sign = -1 if (da % 2 and db % 2) else 1
                if any(ab.get(k, 0) != sign * ba.get(k, 0) for k in set(ab) | set(ba)):
                    issues.append(
                        f"graded commutativity fails on ({sp.label(da, ia)}, {sp.label(db, ib)})"
                    )
    for da, db, dc in itertools.product(degs, repeat=3):
        if da + db + dc > top:
            continue
        for ia in range(sp.dim(da)):
            va = unit_vec(sp.dim(da), ia)
            for ib in range(sp.dim(db)):
                vb = unit_vec(sp.dim(db), ib)
                ab = reference_multiply(alg, da, va, db, vb)
                for ic in range(sp.dim(dc)):
                    vc = unit_vec(sp.dim(dc), ic)
                    left = reference_multiply(alg, da + db, ab, dc, vc)
                    right = reference_multiply(
                        alg, da, va, db + dc, reference_multiply(alg, db, vb, dc, vc)
                    )
                    if left != right:
                        issues.append(
                            f"associativity fails on ({sp.label(da, ia)}, "
                            f"{sp.label(db, ib)}, {sp.label(dc, ic)})"
                        )
    return issues


def _reference_apply(s, kind, j, n, v):
    if kind == "d":
        return n + 1, s.op_d(n).apply(v)
    if kind == "i":
        return n - 1, s.op_i(j, n).apply(v)
    return n, s.op_l(j, n).apply(v)


def reference_derivation_checks(s) -> list[AxiomCheck]:
    """The three derivation laws on every basis pair; each stops at its first failure."""
    sp = s.space
    alg = s.algebra
    prod_top = alg.stable_product_top()
    r = s.lie.dimension
    out = []
    specs = [("d derivation", "d", 1, range(1)),
             ("i_X derivation", "i", -1, range(r)),
             ("L_X derivation", "l", 0, range(r))]
    degs = [n for n in sp.degrees() if sp.dim(n)]
    for name, kind, op_deg, gens in specs:
        top = prod_top - 1 if (kind == "d" and s.truncated_above is not None) else prod_top
        bad = None
        for da, db in itertools.product(degs, repeat=2):
            n = da + db
            if n > top:
                continue
            for ia in range(sp.dim(da)):
                va = unit_vec(sp.dim(da), ia)
                for ib in range(sp.dim(db)):
                    vb = unit_vec(sp.dim(db), ib)
                    ab = reference_multiply(alg, da, va, db, vb)
                    for j in gens:
                        _, lhs = _reference_apply(s, kind, j, n, ab)
                        da2, dva = _reference_apply(s, kind, j, da, va)
                        db2, dvb = _reference_apply(s, kind, j, db, vb)
                        zero = zero_vec(sp.dim(n + op_deg))
                        term1 = reference_multiply(alg, da2, dva, db, vb) if da2 >= 0 else zero
                        term2 = reference_multiply(alg, da, va, db2, dvb) if db2 >= 0 else zero
                        sign = -1 if (op_deg % 2 and da % 2) else 1
                        if lhs != tuple(x + sign * y for x, y in zip(term1, term2)):
                            bad = (f"{name} fails on ({sp.label(da, ia)}, "
                                   f"{sp.label(db, ib)}) generator {j}")
                            break
                    if bad:
                        break
                if bad:
                    break
            if bad:
                break
        out.append(AxiomCheck(name, bad is None, top, bad or ""))
    return out


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
