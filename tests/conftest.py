import functools
import itertools
import random
from fractions import Fraction

import pytest

from foliacoh.algebra_core import (
    CochainComplex,
    GradedVectorSpace,
    ShortExactSequence,
    cocycle_representatives,
)
from foliacoh.gstar import (
    AxiomCheck,
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    _mono_degree,
    _mono_label,
    _mono_mul,
)
from foliacoh.module_theory import GradedModulePresentation, free_basis, relation_columns
from foliacoh.ratmat import (
    RationalMatrix,
    coordinates_modulo,
    independent_complement,
    unit_vec,
    zero_vec,
)


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


def unit_lu_bases(sp, rng):
    """(T, T^-1) per degree of sp: unit-LU changes of basis, the identity in degree 0."""
    t = {n: random_invertible(rng, sp.dim(n)) if n else RationalMatrix.identity(sp.dim(n))
         for n in sp.degrees()}
    return t, {n: inverse(m) for n, m in t.items()}


def change_basis(s, rng):
    """The same structure in the basis given by unit-LU changes T_n per degree.

    Degree 0 keeps its basis, so the unit stays a basis element.  Operators
    are conjugated, and each product matrix is carried along as
    M'_{a,b} = T_{a+b} M_{a,b} (T_a^-1 (x) T_b^-1).
    """
    sp = s.space
    t, t_inv = unit_lu_bases(sp, rng)

    def conj(get, delta):
        return {n: t[n + delta] @ get(n) @ t_inv[n] for n in sp.degrees()
                if sp.dim(n) and sp.dim(n + delta)}

    products = None
    if s.algebra.has_products():
        products = {
            (da, db): t[da + db] @ m @ (t_inv[da].kron_identity(sp.dim(db))
                                        @ t_inv[db].identity_kron(sp.dim(da)))
            for (da, db), m in s.algebra.products.items() if da + db in t
        }
    algebra = GradedAlgebraPresentation(sp, products, s.algebra.unit_index,
                                        s.truncated_above)
    r = s.lie.dimension
    return GStarStructure(
        algebra, s.lie, conj(s.op_d, 1),
        [conj(lambda n, j=j: s.op_i(j, n), -1) for j in range(r)],
        [conj(lambda n, j=j: s.op_l(j, n), 0) for j in range(r)],
    )


def reference_change_basis(s, rng):
    """The product matrices of change_basis, carried one basis pair at a time.

    Each new pair e'_ia e'_ib is multiplied out by ``reference_multiply`` from
    the columns of T_a^-1 and T_b^-1 and written back in the new basis.
    """
    sp = s.space
    t, t_inv = unit_lu_bases(sp, rng)
    products = {}
    for da in sp.degrees():
        for db in sp.degrees():
            if da + db not in t:
                continue
            cols = [t[da + db].apply(reference_multiply(s.algebra, da, va, db, vb))
                    for va in columns(t_inv[da]) for vb in columns(t_inv[db])]
            products[(da, db)] = RationalMatrix.from_cols(cols, sp.dim(da + db))
    return products


# -- element-wise reference for the G*-axiom checks ------------------------------------
# The package checks the axioms as identities between product matrices.  The
# functions below are the element-wise checks they replaced, one basis tuple
# at a time on dense vectors; tests compare the two.


def basis_product(alg, da, ia, db, ib):
    """e_ia e_ib as (index, coefficient) terms: column ia * dim A^db + ib of M_{da,db}."""
    return alg.product_matrix(da, db).nonzero_columns()[ia * alg.space.dim(db) + ib]


def product_table(alg):
    """The nonzero product matrices of alg by degree pair; None for an operator-only one."""
    if not alg.has_products():
        return None
    return {key: m for key, m in alg.products.items() if not m.is_zero()}


def reference_multiply(alg, da, va, db, vb):
    """Product of two homogeneous elements given as dense vectors; zero above the window."""
    n = da + db
    dim_n = alg.space.dim(n)
    out = [Fraction(0)] * dim_n
    if dim_n == 0:
        return tuple(out)
    cols = alg.product_matrix(da, db).nonzero_columns()
    for ia, ca in enumerate(va):
        if ca == 0:
            continue
        for ib, cb in enumerate(vb):
            if cb == 0:
                continue
            for k, c in cols[ia * len(vb) + ib]:
                out[k] += ca * cb * c
    return tuple(out)


def reference_check_algebra(alg) -> list[str]:
    """Unit, graded commutativity, associativity on all basis tuples."""
    issues = []
    if alg.products is None:
        return ["operator-only presentation: product axioms not checkable"]
    sp = alg.space
    top = alg.window_tops.products
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
        na, nb = sp.dim(da), sp.dim(db)
        cols_ab = alg.product_matrix(da, db).nonzero_columns()
        cols_ba = alg.product_matrix(db, da).nonzero_columns()
        for ia in range(na):
            for ib in range(nb):
                ab = dict(cols_ab[ia * nb + ib])
                ba = dict(cols_ba[ib * na + ia])
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
    prod_top = alg.window_tops.products
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


# -- monomial-by-monomial reference for the Weil algebra build -------------------------
# The package builds each operator on W(g) by one Leibniz step on the first
# factor of a monomial.  The functions below are the build it replaced: the
# basis from a filtered and sorted enumeration, and every term of D(m) from
# multiplying out the whole monomial again; tests compare the two.


def _reference_exponents_up_to(r, total_max):
    """All exponent tuples of length r with sum <= total_max, lexicographic."""
    if r == 0:
        yield ()
        return
    for first in range(total_max + 1):
        for rest in _reference_exponents_up_to(r - 1, total_max - first):
            yield (first,) + rest


def _reference_gen_mono(g, r):
    kind, i = g
    if kind == "t":
        return ((i,), (0,) * r)
    alpha = [0] * r
    alpha[i] = 1
    return ((), tuple(alpha))


def _reference_derive_monomial(mono, op_deg, on_gen):
    """Extend a generator-level operator to a monomial as a derivation.

    on_gen(('t'|'u', index)) yields (coeff, Mono) terms for the operator's
    value on that generator.
    """
    r = len(mono[1])
    factors = [("t", i) for i in mono[0]]
    for j, e in enumerate(mono[1]):
        factors.extend([("u", j)] * e)
    out = {}
    deg_prefix = 0
    for pos, f in enumerate(factors):
        sign = -1 if (op_deg % 2 and deg_prefix % 2) else 1
        for coeff, dmono in on_gen(f):
            acc_sign, acc = 1, ((), (0,) * r)
            ok = True
            for g in factors[:pos]:
                res = _mono_mul(acc, _reference_gen_mono(g, r))
                if res is None:
                    ok = False
                    break
                acc_sign *= res[0]
                acc = res[1]
            if ok:
                res = _mono_mul(acc, dmono)
                if res is None:
                    ok = False
                else:
                    acc_sign *= res[0]
                    acc = res[1]
            if ok:
                for g in factors[pos + 1:]:
                    res = _mono_mul(acc, _reference_gen_mono(g, r))
                    if res is None:
                        ok = False
                        break
                    acc_sign *= res[0]
                    acc = res[1]
            if ok:
                total = Fraction(coeff) * sign * acc_sign
                if total:
                    out[acc] = out.get(acc, Fraction(0)) + total
        deg_prefix += 1 if f[0] == "t" else 2
    return {m: c for m, c in out.items() if c != 0}


def reference_weil_algebra(lie, max_degree):
    """W(g) truncated above max_degree, built monomial by monomial."""
    r = lie.dimension
    gen = functools.partial(_reference_gen_mono, r=r)
    monos = []
    for k in range(0, r + 1):
        for odd in itertools.combinations(range(r), k):
            for alpha in _reference_exponents_up_to(r, (max_degree - k) // 2):
                monos.append((tuple(odd), alpha))
    monos = [m for m in monos if _mono_degree(m) <= max_degree]
    monos.sort(key=lambda m: (_mono_degree(m), m))
    by_degree = {}
    for m in monos:
        by_degree.setdefault(_mono_degree(m), []).append(m)
    index = {m: (n, i) for n, ms in by_degree.items() for i, m in enumerate(ms)}
    dims = {n: len(ms) for n, ms in by_degree.items()}
    labels = {n: tuple(_mono_label(m) for m in ms) for n, ms in by_degree.items()}
    space = GradedVectorSpace(dims, labels, window=(0, max_degree))
    entries = {}
    for m1, m2 in itertools.product(monos, repeat=2):
        (n1, i1), (n2, i2) = index[m1], index[m2]
        if n1 + n2 <= max_degree and (res := _mono_mul(m1, m2)):
            entries.setdefault((n1, n2), []).append((index[res[1]][1], i1 * dims[n2] + i2, res[0]))
    products = {(n1, n2): RationalMatrix.from_entries(dims[n1 + n2], dims[n1] * dims[n2], e)
                for (n1, n2), e in entries.items()}
    algebra = GradedAlgebraPresentation(space, products, unit_index=0,
                                        truncated_above=max_degree)
    def d_on_gen(g):
        kind, a = g
        if kind == "t":
            terms = [(Fraction(1), gen(("u", a)))]
            for b in range(r):
                for c in range(b + 1, r):
                    coef = lie.structure_constant(b, c, a)
                    if coef != 0:
                        terms.append((-coef, ((b, c), (0,) * r)))
            return terms
        terms = []
        for b in range(r):
            for c in range(r):
                coef = lie.structure_constant(b, c, a)
                if coef != 0:
                    res = _mono_mul(gen(("t", b)), gen(("u", c)))
                    terms.append((-coef * res[0], res[1]))
        return terms

    def i_on_gen(j):
        return lambda g: [(Fraction(1), ((), (0,) * r))] if g == ("t", j) else []

    def l_on_gen(j):
        def op(g):
            kind, a = g
            return [(-coef, gen((kind, c))) for c in range(r)
                    if (coef := lie.structure_constant(j, c, a)) != 0]
        return op

    def build_op(on_gen, op_deg):
        mats = {}
        for n, ms in by_degree.items():
            tgt = n + op_deg
            rows = dims.get(tgt, 0)
            if rows == 0 and not (0 <= tgt <= max_degree):
                continue
            cols = []
            for m in ms:
                col = [Fraction(0)] * rows
                for mono2, x in _reference_derive_monomial(m, op_deg, on_gen).items():
                    if _mono_degree(mono2) <= max_degree:
                        col[index[mono2][1]] += x
                cols.append(tuple(col))
            mats[n] = RationalMatrix.from_cols(cols, rows)
        return mats

    return GStarStructure(algebra, lie, build_op(d_on_gen, 1),
                          [build_op(i_on_gen(j), -1) for j in range(r)],
                          [build_op(l_on_gen(j), 0) for j in range(r)])


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


def random_cone_ses(rng: random.Random, top: int = 3, max_dim: int = 6):
    """0 -> A -> Cone(1_A) -> A[1] -> 0 for a random complex A, twisted by a random change of basis.

    Cone^n = A^n (+) A^(n+1) with d(b, a) = (d b + a, -d a), and A[1]^n =
    A^(n+1) with d = -d_A, all cut to the window [0, top].  The connecting
    map H^n(A[1]) -> H^(n+1)(A) is the identity, so its rank is h^(n+1)(A).
    """
    sub = random_complex(rng, top, max_dim)
    shifted = GradedVectorSpace({n: sub.spaces.dim(n + 1) for n in range(top)}, window=(0, top))
    quot = CochainComplex(shifted, {n: -sub.diff(n + 1) for n in range(top)})
    space = GradedVectorSpace(
        {n: sub.spaces.dim(n) + shifted.dim(n) for n in range(top + 1)}, window=(0, top))
    t = {n: random_invertible(rng, space.dim(n)) for n in range(top + 1)}
    t_inv = {n: inverse(t[n]) for n in t}
    diffs, incl, proj = {}, {}, {}
    for n in range(top + 1):
        ds, dq = sub.spaces.dim(n), shifted.dim(n)
        if n < top:
            block = RationalMatrix.from_blocks(space.dim(n + 1), space.dim(n), [
                (0, 0, sub.diff(n)),
                (0, ds, RationalMatrix.identity(dq)),
                (sub.spaces.dim(n + 1), ds, quot.diff(n)),
            ])
            diffs[n] = t[n + 1] @ block @ t_inv[n]
        incl[n] = t[n] @ RationalMatrix.identity(space.dim(n)).select(range(ds))
        proj[n] = RationalMatrix.from_entries(
            dq, space.dim(n), [(i, ds + i, 1) for i in range(dq)]) @ t_inv[n]
    return ShortExactSequence(sub, CochainComplex(space, diffs), quot, incl, proj)


# -- the Cartan complex, written out element by element --------------------------------


def cartan_basis(s, n):
    """The ambient basis of Cartan slice n as (alpha, a) pairs, in the documented order.

    Sorted by polynomial degree |alpha|, then alpha lexicographically, then the
    algebra basis index a; enumerated from every exponent tuple, so it does not
    depend on ``monomials_of_degree`` or on ``CartanComplexSlice.below``.
    """
    alphas = [alpha for alpha in itertools.product(range(n // 2 + 1), repeat=s.lie.dimension)
              if 2 * sum(alpha) <= n]
    return sorted(((alpha, a) for alpha in alphas for a in range(s.space.dim(n - 2 * sum(alpha)))),
                  key=lambda t: (sum(t[0]), t[0], t[1]))


# -- module presentations on class coordinates ------------------------------------------


def class_u_actions(e) -> tuple[dict[int, RationalMatrix], ...]:
    """Per variable, the u-action on classes from degree n to n + 2, n + 2 <= n_max.

    Classes are the canonical representatives of ``cocycle_representatives``;
    u times the representatives is reduced modulo coboundaries onto them.
    Over a non-abelian Lie algebra every dict is empty.
    """
    cx, n_max, r = e.complex, e.n_max, e.dim_a
    reps: dict[int, RationalMatrix] = {}
    for n in range(n_max + 1):
        d_in = cx.d[n - 1] if n else RationalMatrix.zeros(cx.dim(0), 0)
        reps[n] = cocycle_representatives(cx.d[n], d_in)

    def reduce_classes(n: int, vs: RationalMatrix) -> RationalMatrix:
        """Class coordinates of the columns of vs (n >= 1), all from one solve."""
        coords = coordinates_modulo(reps[n], cx.d[n - 1], vs)
        if coords is None:
            raise AssertionError(f"vector is not a cocycle class in degree {n}")
        return coords

    u_actions: tuple[dict[int, RationalMatrix], ...] = tuple({} for _ in range(r))
    if cx.structure.lie.is_abelian:
        for j in range(r):
            for n in range(n_max - 1):
                mult = cx.u_multiplication(j, n)
                u_actions[j][n] = (
                    reduce_classes(n + 2, mult @ reps[n])
                    if reps[n].cols else RationalMatrix.zeros(e.dim(n + 2), 0)
                )
    return u_actions


def class_module_generators(
    dims: dict[int, int], u_actions: tuple[dict[int, RationalMatrix], ...], n_max: int
) -> list[tuple[int, int]]:
    """Minimal generators as (degree, position of a standard class vector).

    A standard basis vector is taken when it is independent modulo the image
    of the u-action from two degrees down; ties go to the lowest degree, then
    the lowest position.
    """
    generators = []
    for n in range(n_max + 1):
        h_n = dims.get(n, 0)
        if h_n == 0:
            continue
        image = RationalMatrix.zeros(h_n, 0)
        for action in u_actions:
            if n - 2 in action:
                image = image.hstack(action[n - 2])
        picked = independent_complement(RationalMatrix.identity(h_n), image)
        generators.extend((n, i) for i in picked)
    return generators


def reference_module_presentation(e, dim_a: int | None = None) -> GradedModulePresentation:
    """``cartan.module_presentation`` on class coordinates, the reference for its cochain path.

    Generators are standard cohomology basis vectors independent modulo the
    image of the u-action from two degrees down (ties broken by lowest
    degree, then position).  Relations are kernel elements of the evaluation
    from the free cover, taken modulo multiples of earlier relations.
    """
    r = e.dim_a if dim_a is None else dim_a
    if r != e.dim_a:
        raise ValueError("dim_a disagrees with the computed module action")
    n_max = e.n_max

    u_actions = class_u_actions(e)
    generators = class_module_generators(e.dims, u_actions, n_max)
    gen_degrees = tuple(g for g, _i in generators)

    def evaluate(g_idx: int, beta: tuple[int, ...]) -> RationalMatrix:
        """u^beta times generator g_idx, as one class column."""
        deg, i = generators[g_idx]
        v = RationalMatrix.identity(e.dim(deg)).select([i])
        for j in range(r):
            for _ in range(beta[j]):
                m = u_actions[j].get(deg)
                if m is None:
                    raise ValueError("u-action unavailable at the window edge")
                v = m @ v
                deg += 2
        return v

    relations: list[tuple[dict, ...]] = []
    for n in range(n_max + 1):
        fb = free_basis(gen_degrees, r, n)
        if not fb:
            continue
        ev = RationalMatrix.from_blocks(
            e.dim(n), len(fb), [(0, k, evaluate(*key)) for k, key in enumerate(fb)])
        kernel = ev.nullspace()
        if not kernel.cols:
            continue
        old = relation_columns(relations, gen_degrees, r, n, fb)
        kernel_cols = kernel.nonzero_columns()
        for i in independent_complement(kernel, old):
            rel: list[dict] = [dict() for _ in gen_degrees]
            for idx, c in kernel_cols[i]:
                g_idx, beta = fb[idx]
                rel[g_idx][beta] = c
            relations.append(tuple(rel))

    return GradedModulePresentation(r, gen_degrees, tuple(relations), window=n_max)


def circle_action():
    """The circle acting on itself by rotation, as operators only: free, with L != 0.

    A^0 = <1, c, s> and A^1 = <theta, c theta, s theta>; d c = -s theta and
    d s = c theta, i is the identity A^1 -> A^0, and L = d i + i d.  Its
    equivariant cohomology is that of a point.
    """
    sp = GradedVectorSpace({0: 3, 1: 3}, {0: ("1", "c", "s"), 1: ("t", "ct", "st")})
    rot = RationalMatrix.from_rows([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    one = RationalMatrix.identity(3)
    return GStarStructure(GradedAlgebraPresentation(sp, None), LieAlgebraSpec.abelian(1),
                          {0: rot}, [{1: one}], [{0: one @ rot, 1: rot @ one}])


@pytest.fixture
def rng():
    return random.Random(20240817)
