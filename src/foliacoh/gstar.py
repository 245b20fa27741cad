"""Graded algebras with d / i_X / L_X operator packages.

A structure here is a finite-dimensional graded algebra together with
per-degree matrices for a degree +1 differential d, contractions i_X of
degree -1 and Lie derivatives L_X of degree 0, one pair per Lie-algebra
basis element.  The five Cartan relations

    d^2 = 0,  i_X i_Y + i_Y i_X = 0,  [L_X, L_Y] = L_[X,Y],
    [L_X, i_Y] = i_[X,Y],  L_X = d i_X + i_X d

are checkable matrix identities, as are the derivation properties of the
three operators with respect to the product.

Truncation honesty: an algebra may be a degree-truncated stand-in for an
infinite one (the Weil algebra); every check and every cohomology result
then carries an explicit stable-degree bound.  Each such bound is read off
one function, ``GradedAlgebraPresentation.window_tops`` (``WindowTops``),
and nowhere else derived from ``truncated_above``.

The Weil algebra W(g) lives on its monomial basis t_S u^alpha.  Each of its
operators D is known on the generators and reaches a monomial m = g rest,
g the first factor of m, by one Leibniz step,
D(m) = D(g) rest +- g D(rest), with D(rest) read off a lower degree; a
family whose generator images all vanish (each L over abelian g) is
skipped.  Product tables and built labels are made when first read.

A free structure with an invariant span of connection elements is of type
(C); when a free structure arises from a compact-group action it is
automatically of type (C), but that fact carries no algorithmic content and
is only recorded here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra_core import (
    CochainComplex,
    CohomologyResult,
    GradedVectorSpace,
    InconsistentOperatorData,
    cohomology_dims,
)
from .module_theory import monomials_of_degree
from .ratmat import (
    RationalMatrix,
    Vec,
    frac,
    joint_kernel,
    restrict,
    unit_vec,
    zero_vec,
)


# -- Lie algebra data ----------------------------------------------------------


def _int_if_integral(c: Fraction) -> int | Fraction:
    return c.numerator if c.denominator == 1 else c


class LieAlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Finite-dimensional Lie algebra in a fixed basis X_0..X_{r-1}.

    brackets[(i, j)][k] is the coefficient of X_k in [X_i, X_j], stored for
    i < j only, nonzero and by ascending k; antisymmetry fills in the rest.
    An integral coefficient is stored as an int and only a non-integral one
    as a Fraction, so integral structure constants make no Fraction in the
    operators built from them.
    """

    dimension: int
    brackets: dict[tuple[int, int], dict[int, int | Fraction]]

    def __init__(self, dimension: int, brackets=None):
        if dimension < 0:
            raise LieAlgebraError("negative dimension")
        clean: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        for (i, j), comps in (brackets or {}).items():
            if not (0 <= i < dimension and 0 <= j < dimension):
                raise LieAlgebraError(f"bracket index out of range: ({i}, {j})")
            if i >= j:
                raise LieAlgebraError("store brackets for i < j only")
            comps = {k: _int_if_integral(c)
                     for k, c in sorted((int(k), frac(c)) for k, c in comps.items()) if c}
            if any(not 0 <= k < dimension for k in comps):
                raise LieAlgebraError("bracket component out of range")
            if comps:
                clean[(i, j)] = comps
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "brackets", clean)

    @classmethod
    def abelian(cls, dimension: int) -> "LieAlgebraSpec":
        return cls(dimension, {})

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    def structure_constant(self, i: int, j: int, k: int) -> int | Fraction:
        """c^k_{ij} with [X_i, X_j] = sum_k c^k_{ij} X_k; 0 when it vanishes."""
        return self.bracket(i, j).get(k, 0)

    def bracket(self, i: int, j: int) -> dict[int, int | Fraction]:
        """The nonzero c^k_{ij} of [X_i, X_j] by ascending k."""
        if i > j:
            return {k: -c for k, c in self.bracket(j, i).items()}
        return dict(self.brackets.get((i, j), {}))

    def validate(self) -> list[str]:
        """Jacobi identity on all basis triples, by triple and then by ascending component."""
        issues = []
        for i, j, k in itertools.combinations(range(self.dimension), 3):
            total: dict[int, int | Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for l, x in self.bracket(a, b).items():
                    for m, y in self.bracket(l, c).items():
                        total[m] = total.get(m, 0) + x * y
            issues += [f"Jacobi fails on (X{i},X{j},X{k}) component {m}"
                       for m in sorted(total) if total[m]]
        return issues


# -- graded algebra presentation ----------------------------------------------


class WindowTops(NamedTuple):
    """The top total degree through which each law of a structure is exact.

    A structure truncated at T stores degrees through T and nothing above;
    one that is not truncated is exactly zero above its window, so there
    every top is the window top and a result is exact on any window n_max.

    - products: T; a product of total degree <= T lands in a stored degree.
    - homotopy: T - 1; d reads degree n + 1, so the d-derivation law,
      L = d i + i d and the basic subcomplex hold through T - 1.
    - d_squared: T - 2; d d reads degree n + 2, so d^2 = 0 and the Cartan
      complex hold through T - 2.
    """

    products: int
    homotopy: int
    d_squared: int
    truncated: bool

    def through(self, n_max: int, law: str) -> int:
        """The bound of a result on the window n_max that rests on law, a field name."""
        return min(n_max, getattr(self, law)) if self.truncated else n_max


class GradedAlgebraPresentation:
    """Graded algebra given by per-degree bases and per-degree-pair product matrices.

    products maps (deg_a, deg_b) to M_{a,b}: A^a (x) A^b -> A^(a+b), whose
    column ia * dim A^b + ib is the product e_ia e_ib; an absent pair is the
    zero map.  A zero-argument callable returns that dict and runs on the
    first read of ``products`` (built structures and parsed documents pass
    one: only the product laws read it).  products=None marks an operator-only
    presentation, on which multiplication queries are unavailable.
    """

    def __init__(
        self,
        space: GradedVectorSpace,
        products: dict[tuple[int, int], RationalMatrix] | Callable[[], dict] | None,
        unit_index: int = 0,
        truncated_above: int | None = None,
    ):
        self.space = space
        self.unit_index = unit_index
        self.truncated_above = truncated_above
        self._make_products = products if callable(products) else None
        if not callable(products):
            self.products = products
            for (da, db), m in (products or {}).items():
                if (m.rows, m.cols) != (space.dim(da + db), space.dim(da) * space.dim(db)):
                    raise ValueError(f"product matrix M_{da},{db} is {m.rows}x{m.cols}")
        if space.dim(0) == 0 and products is not None:
            raise ValueError("a unital algebra needs a degree-0 element")

    @functools.cached_property
    def products(self) -> dict[tuple[int, int], RationalMatrix]:
        return self._make_products()

    def has_products(self) -> bool:
        return self._make_products is not None or self.products is not None

    def product_matrix(self, da: int, db: int) -> RationalMatrix:
        """M_{da,db}: A^da (x) A^db -> A^(da+db); column ia * dim A^db + ib is e_ia e_ib."""
        sp = self.space
        return self.products.get((da, db)) or RationalMatrix.zeros(
            sp.dim(da + db), sp.dim(da) * sp.dim(db)
        )

    @functools.cached_property
    def window_tops(self) -> WindowTops:
        """The one derivation of every window bound from ``truncated_above``."""
        t = self.truncated_above
        hi = self.space.window[1]
        return WindowTops(hi, hi, hi, False) if t is None else WindowTops(t, t - 1, t - 2, True)

    def check_algebra(self) -> list[str]:
        """Unit, graded commutativity and associativity as product-matrix identities.

        Every failing basis element, pair or triple is reported, in the order
        of its degrees and then of its basis indices.
        """
        if self.products is None:
            return ["operator-only presentation: product axioms not checkable"]
        sp = self.space
        top = self.window_tops.products
        prod = self.product_matrix
        issues = []
        d0, u = sp.dim(0), self.unit_index
        for n in sp.degrees():
            dn, eye = sp.dim(n), RationalMatrix.identity(sp.dim(n))
            bad = range(dn)  # an out-of-range unit index names the zero element
            if 0 <= u < d0:
                bad = set(_differing_columns(prod(0, n).select(range(u * dn, u * dn + dn)), eye))
                bad |= set(_differing_columns(prod(n, 0).select(range(u, dn * d0, d0)), eye))
            issues += [f"unit fails on {sp.label(n, i)}" for i in sorted(bad)]
        degs = [n for n in sp.degrees() if sp.dim(n)]
        for da, db in itertools.product(degs, repeat=2):
            if da + db > top:
                continue
            na, nb = sp.dim(da), sp.dim(db)
            swapped = prod(db, da).select([ib * na + ia for ia in range(na) for ib in range(nb)])
            if da % 2 and db % 2:
                swapped = -swapped
            for c in _differing_columns(prod(da, db), swapped):
                ia, ib = divmod(c, nb)
                issues.append(
                    f"graded commutativity fails on ({sp.label(da, ia)}, {sp.label(db, ib)})"
                )
        neg = functools.cache(lambda da, db: -prod(da, db))
        for da, db, dc in itertools.product(degs, repeat=3):
            if da + db + dc > top:
                continue
            na, nb, nc = sp.dim(da), sp.dim(db), sp.dim(dc)
            # (ab)c - a(bc) = M_{a+b,c} (M_{a,b} (x) 1) - M_{a,b+c} (1 (x) M_{b,c})
            diff = _sum_of_products([(prod(da + db, dc), prod(da, db).kron_identity(nc)),
                                     (prod(da, db + dc), neg(db, dc).identity_kron(na))])
            for c in _nonzero_columns(diff):
                ia, rest = divmod(c, nb * nc)
                ib, ic = divmod(rest, nc)
                issues.append(
                    f"associativity fails on ({sp.label(da, ia)}, "
                    f"{sp.label(db, ib)}, {sp.label(dc, ic)})"
                )
        return issues


def _nonzero_columns(m: RationalMatrix) -> list[int]:
    """Indices of the nonzero columns of m, ascending."""
    return [j for j, col in enumerate(m.nonzero_columns()) if col]


def _differing_columns(a: RationalMatrix, b: RationalMatrix) -> list[int]:
    """Indices of the columns where a and b differ, ascending."""
    return [] if a == b else _nonzero_columns(a - b)


def _sum_of_products(pairs) -> RationalMatrix:
    """The sum of x @ y over the pairs, as one product [x_1 | x_2 | ...] @ [y_1; y_2; ...].

    A pair with a zero factor adds nothing and is left out; with none left
    the sum is the zero matrix of the pairs' shape.  Each output row is
    summed over the integers, so an identity that holds makes no Fraction
    at all.
    """
    live = [(x, y) for x, y in pairs if not (x.is_zero() or y.is_zero())]
    if not live:
        x, y = pairs[0]
        return RationalMatrix.zeros(x.rows, y.cols)
    xs, ys = zip(*live)
    reduce = functools.reduce
    return reduce(RationalMatrix.hstack, xs) @ reduce(RationalMatrix.vstack, ys)


# -- the operator package -------------------------------------------------------


class GStarStructure:
    """Algebra plus d, i_X, L_X operator matrices per degree."""

    def __init__(
        self,
        algebra: GradedAlgebraPresentation,
        lie: LieAlgebraSpec,
        d: dict[int, RationalMatrix],
        i_ops: list[dict[int, RationalMatrix]],
        l_ops: list[dict[int, RationalMatrix]],
    ):
        if len(i_ops) != lie.dimension or len(l_ops) != lie.dimension:
            raise ValueError("need one i_X and one L_X per Lie algebra generator")
        self.algebra = algebra
        self.lie = lie
        sp = algebra.space
        # each family of degree-k maps, zero matrices included, is shape-checked; zeros are dropped
        kept = []
        for name, k, maps in ([("d", 1, d)] + [(f"i[{j}]", -1, ops) for j, ops in enumerate(i_ops)]
                              + [(f"L[{j}]", 0, ops) for j, ops in enumerate(l_ops)]):
            for n, m in maps.items():
                if (m.rows, m.cols) != (sp.dim(n + k), sp.dim(n)):
                    raise ValueError(f"{name} shape mismatch in degree {n}")
            kept.append({n: m for n, m in maps.items() if not m.is_zero()})
        r = lie.dimension
        self._d, self._i, self._l = kept[0], kept[1:r + 1], kept[r + 1:]

    @property
    def space(self) -> GradedVectorSpace:
        return self.algebra.space

    @property
    def truncated_above(self) -> int | None:
        return self.algebra.truncated_above

    def op_d(self, n: int) -> RationalMatrix:
        sp = self.space
        return self._d.get(n) or RationalMatrix.zeros(sp.dim(n + 1), sp.dim(n))

    def op_i(self, j: int, n: int) -> RationalMatrix:
        sp = self.space
        return self._i[j].get(n) or RationalMatrix.zeros(sp.dim(n - 1), sp.dim(n))

    def op_l(self, j: int, n: int) -> RationalMatrix:
        sp = self.space
        return self._l[j].get(n) or RationalMatrix.zeros(sp.dim(n), sp.dim(n))

    def all_l_zero(self) -> bool:
        return all(not ops for ops in self._l)

    def as_complex(self) -> CochainComplex:
        return CochainComplex(self.space, dict(self._d))

    def d_operators(self) -> dict[int, RationalMatrix]:
        return dict(self._d)

    def i_operators(self, j: int) -> dict[int, RationalMatrix]:
        return dict(self._i[j])

    def l_operators(self, j: int) -> dict[int, RationalMatrix]:
        return dict(self._l[j])


def extend_with_trivial_factor(s: GStarStructure, extra: int = 1) -> GStarStructure:
    """Same algebra, Lie algebra enlarged by trivially-acting abelian generators."""
    if not s.lie.is_abelian:
        raise ValueError("only abelian extensions are supported")
    lie = LieAlgebraSpec.abelian(s.lie.dimension + extra)
    i_ops = [s.i_operators(j) for j in range(s.lie.dimension)] + [{} for _ in range(extra)]
    l_ops = [s.l_operators(j) for j in range(s.lie.dimension)] + [{} for _ in range(extra)]
    return GStarStructure(s.algebra, lie, s.d_operators(), i_ops, l_ops)


# -- axiom checking -------------------------------------------------------------


class AxiomCheck(NamedTuple):
    name: str
    ok: bool
    checked_through: int
    witness: str = ""


class GStarAxiomReport(NamedTuple):
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.ok]


def check_gstar_axioms(s: GStarStructure) -> GStarAxiomReport:
    """Verify the five Cartan relations, then the three derivation laws."""
    checks = check_operator_laws(s).checks
    derivations = (_derivation_checks(s) if s.algebra.has_products() else [
        AxiomCheck("derivations", True, s.space.window[1], "skipped: operator-only presentation")])
    return GStarAxiomReport(checks + tuple(derivations))


def check_operator_laws(s: GStarStructure) -> GStarAxiomReport:
    """Verify the five Cartan relations: d^2, i^2, [L, L], [L, i] and L = d i + i d.

    These are the laws basic cohomology rests on; the product laws are not read.
    On a truncated algebra, identities whose composite leaves the stored
    window are only checked through their ``window_tops`` bound (reported per axiom).
    """
    sp = s.space
    lo, hi = sp.window
    tops = s.algebra.window_tops
    r = s.lie.dimension
    checks: list[AxiomCheck] = []

    def run(name, top, cases):
        """cases(n) yields (terms, message) in check order; the first nonzero sum fails the law.

        ``{w}`` in a message stands for the label of the first basis vector moved.
        """
        for n in range(lo, top + 1):
            for terms, message in cases(n):
                m = _sum_of_products(terms)
                if not m.is_zero():
                    witness = message.format(w=sp.first_moved_label(n, m))
                    checks.append(AxiomCheck(name, False, top, witness))
                    return
        checks.append(AxiomCheck(name, True, top))

    def bracket(op, j, k, n):
        """The terms of -op_[X_j,X_k] at degree n."""
        return [(op(b, n), RationalMatrix.identity(sp.dim(n)).scale(-c))
                for b, c in s.lie.bracket(j, k).items()]

    run("d^2 = 0", tops.d_squared, lambda n: [
        ([(s.op_d(n + 1), s.op_d(n))], f"degree {n}, witness {{w}}")])
    run("i_X^2 = 0", hi, lambda n: (
        ([(s.op_i(j, n - 1), s.op_i(k, n)), (s.op_i(k, n - 1), s.op_i(j, n))],
         f"i_X{j} i_X{k} + i_X{k} i_X{j} != 0 at degree {n}")
        for j in range(r) for k in range(j, r)))
    # the (k, j) expression is minus the (j, k) one, and j = k gives zero
    run("[L_X, L_Y] = L_[X,Y]", hi, lambda n: (
        ([(s.op_l(j, n), s.op_l(k, n)), (-s.op_l(k, n), s.op_l(j, n))] + bracket(s.op_l, j, k, n),
         f"[L_X{j}, L_X{k}] != L_[X{j},X{k}] at degree {n}")
        for j in range(r) for k in range(j + 1, r)))
    run("[L_X, i_Y] = i_[X,Y]", hi, lambda n: (
        ([(s.op_l(j, n - 1), s.op_i(k, n)), (-s.op_i(k, n), s.op_l(j, n))]
         + bracket(s.op_i, j, k, n),
         f"[L_X{j}, i_X{k}] != i_[X{j},X{k}] at degree {n}")
        for j in range(r) for k in range(r)))
    run("L_X = d i_X + i_X d", tops.homotopy, lambda n: (
        ([(s.op_d(n - 1), s.op_i(j, n)), (s.op_i(j, n + 1), s.op_d(n)),
          (s.op_l(j, n), RationalMatrix.identity(sp.dim(n)).scale(-1))],
         f"L_X{j} != d i_X{j} + i_X{j} d at degree {n}, witness {{w}}")
        for j in range(r)))
    return GStarAxiomReport(tuple(checks))


def _derivation_checks(s: GStarStructure) -> list[AxiomCheck]:
    """D(xy) = D(x) y + (-1)^(k deg x) x D(y) for D in d, i_X, L_X, as matrix identities.

    For D of degree k and each degree pair (a, b), in ``itertools.product``
    order: D M_{a,b} = M_{a+k,b} (D (x) 1) + (-1)^(ka) M_{a,b+k} (1 (x) D).  A
    law stops at its first failing block, where the witness is the smallest
    failing basis pair over all generators, and then the smallest generator.
    """
    sp = s.space
    prod = s.algebra.product_matrix
    neg = functools.cache(lambda da, db: -prod(da, db))
    tops, r = s.algebra.window_tops, s.lie.dimension
    specs = [("d derivation", 1, [s.op_d], tops.homotopy)] + [
        (f"{x}_X derivation", k, [functools.partial(op, j) for j in range(r)], tops.products)
        for x, k, op in (("i", -1, s.op_i), ("L", 0, s.op_l))]
    degs = [n for n in sp.degrees() if sp.dim(n)]
    out = []
    for name, k, ops, top in specs:
        bad = ""
        for da, db in itertools.product(degs, repeat=2):
            if da + db > top:
                continue
            na, nb = sp.dim(da), sp.dim(db)
            odd = k % 2 and da % 2
            fails = []
            for j, op in enumerate(ops):
                terms = [(op(da + db), prod(da, db))]
                if da + k >= 0:
                    terms.append((neg(da + k, db), op(da).kron_identity(nb)))
                if db + k >= 0:
                    terms.append(((prod if odd else neg)(da, db + k), op(db).identity_kron(na)))
                cols = _nonzero_columns(_sum_of_products(terms))
                if cols:
                    fails.append((cols[0], j))
            if fails:
                c, j = min(fails)
                ia, ib = divmod(c, nb)
                bad = f"{name} fails on ({sp.label(da, ia)}, {sp.label(db, ib)}) generator {j}"
                break
        out.append(AxiomCheck(name, not bad, top, bad))
    return out


# -- basic subcomplex -----------------------------------------------------------


class BasicSubcomplex(NamedTuple):
    complex: CochainComplex
    embeddings: dict[int, RationalMatrix]
    stable_through: int


def basic_subcomplex(s: GStarStructure) -> BasicSubcomplex:
    """Joint kernel of all i_X and L_X, with the restricted differential.

    The restriction of d to the kernel is solved for explicitly and the
    residual is verified to vanish; a failure here means the operator data
    was inconsistent.
    """
    sp = s.space
    lo, hi = sp.window
    # joint kernel per degree of positive dimension, from the stored nonzero
    # i_X and L_X; None is the whole space
    families = [f for j in range(s.lie.dimension) for f in (s.i_operators(j), s.l_operators(j))]
    kernels = {
        n: joint_kernel([f[n] for f in families if n in f], sp.dim(n))
        for n in range(lo, hi + 1)
        if sp.dim(n)
    }
    embeddings = {
        n: RationalMatrix.identity(sp.dim(n)) if k is None else k
        for n, k in kernels.items()
        if k is None or k.cols
    }
    dims = {n: e.cols for n, e in embeddings.items()}
    spaces = GradedVectorSpace(dims, lambda n, i: f"b{n}_{i}", window=sp.window)
    diffs: dict[int, RationalMatrix] = {}
    d = s.d_operators()
    for n in range(lo, hi):
        if n not in dims or n not in d:
            continue  # a zero d restricts to zero
        diffs[n] = restrict(d[n], kernels[n], kernels.get(n + 1))
        if diffs[n] is None:
            raise InconsistentOperatorData(
                f"differential does not restrict to the basic subcomplex "
                f"at degree {n} (operator data inconsistent)"
            )
    return BasicSubcomplex(CochainComplex(spaces, diffs), embeddings,
                           s.algebra.window_tops.homotopy)


# -- Weil algebra ----------------------------------------------------------------

Mono = tuple[tuple[int, ...], tuple[int, ...]]  # (odd indices ascending, even exponents)


def _mono_label(m: Mono) -> str:
    odd, alpha = m
    parts = [f"t{i}" for i in odd]
    parts += [f"u{j}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(alpha) if e]
    return "*".join(parts) if parts else "1"


def _mono_mul(a: Mono, b: Mono) -> tuple[int, Mono] | None:
    """Product of monomials with Koszul sign, or None when an odd repeats."""
    sa, aa = a
    sb, ab = b
    if set(sa) & set(sb):
        return None
    inversions = sum(1 for x in sa for y in sb if y < x)
    merged = tuple(sorted(sa + sb))
    alpha = tuple(x + y for x, y in zip(aa, ab))
    return ((-1) ** inversions, (merged, alpha))


def _gen_mono(g: tuple[str, int], r: int) -> Mono:
    kind, i = g
    if kind == "t":
        return ((i,), (0,) * r)
    alpha = [0] * r
    alpha[i] = 1
    return ((), tuple(alpha))


def _first_factor(m: Mono) -> tuple[tuple[str, int], Mono]:
    """(g, rest) with m = g rest at sign +1: g is the first odd factor, else the first even one."""
    odd, alpha = m
    if odd:
        return ("t", odd[0]), (odd[1:], alpha)
    j = next(j for j, e in enumerate(alpha) if e)
    return ("u", j), ((), alpha[:j] + (alpha[j] - 1,) + alpha[j + 1 :])


def weil_algebra(lie: LieAlgebraSpec, max_degree: int) -> GStarStructure:
    """The Koszul-acyclic universal structure on odd/even generator pairs.

    One odd generator t_a (degree 1) and one even generator u_a (degree 2)
    per Lie-algebra basis element; conventions (see docs/FORMAT.md):

        d t^a = u^a - 1/2 c^a_{bc} t^b t^c      d u^a = -c^a_{bc} t^b u^c
        i_a t^b = delta_ab                      i_a u^b = 0
        L_a t^b = -c^b_{ac} t^c                 L_a u^b = -c^b_{ac} u^c

    Each operator D of degree k extends to the monomial basis by one Leibniz
    step on the first factor: a monomial m != 1 is g rest with sign +1, g
    its first odd generator or, with none, its first even one, and

        D(m) = D(g) rest + (-1)^(k |g|) g D(rest),

    with D(rest) read off the lower degree built before m.  The result is
    truncated above max_degree and flags itself accordingly.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    r = lie.dimension
    # degree n holds t_S u^alpha with |S| + 2|alpha| = n, ordered by S and then by alpha
    odds = sorted(s for k in range(r + 1) for s in itertools.combinations(range(r), k))
    by_degree: dict[int, list[Mono]] = {}
    for n in range(max_degree + 1):
        ms = [(odd, alpha) for odd in odds if len(odd) <= n and (n - len(odd)) % 2 == 0
              for alpha in monomials_of_degree(r, (n - len(odd)) // 2)]
        if ms:
            by_degree[n] = ms
    index = {m: (n, i) for n, ms in by_degree.items() for i, m in enumerate(ms)}
    dims = {n: len(ms) for n, ms in by_degree.items()}
    space = GradedVectorSpace(dims, lambda n, i: _mono_label(by_degree[n][i]), (0, max_degree))

    def products():
        out = {}
        for (n1, ms1), (n2, ms2) in itertools.product(by_degree.items(), repeat=2):
            if n1 + n2 > max_degree:
                continue
            entries = [(index[res[1]][1], i1 * len(ms2) + i2, res[0])
                       for i1, m1 in enumerate(ms1) for i2, m2 in enumerate(ms2)
                       if (res := _mono_mul(m1, m2))]
            out[(n1, n2)] = RationalMatrix.from_entries(
                dims[n1 + n2], len(ms1) * len(ms2), entries)
        return out

    algebra = GradedAlgebraPresentation(
        space, products, unit_index=0, truncated_above=max_degree
    )

    gens = {(kind, a): _gen_mono((kind, a), r) for kind in "tu" for a in range(r)}
    one = ((), (0,) * r)
    # D(g) as {monomial: coefficient} for D = d, each i_j and each L_j, read in one pass
    # over the stored c^a_{bc}, b < c; a term with b > c takes c^a_{cb} = -c^a_{bc}
    d_img = {g: {gens["u", g[1]]: 1} if g[0] == "t" else {} for g in gens}
    i_img = [{g: {one: 1} if g == ("t", j) else {} for g in gens} for j in range(r)]
    l_img = [{g: {} for g in gens} for _ in range(r)]
    for (b, c), comps in lie.brackets.items():
        for a, k in comps.items():
            d_img["t", a][(b, c), one[1]] = -k
            d_img["u", a][(b,), gens["u", c][1]] = -k
            d_img["u", a][(c,), gens["u", b][1]] = k
            for kind in "tu":
                l_img[b][kind, a][gens[kind, c]] = -k
                l_img[c][kind, a][gens[kind, b]] = k

    def build_op(images, k):
        """The matrices of D from its generator images, one Leibniz step per monomial.

        Integral structure constants are stored as ints, so they make no
        Fraction here.  D vanishes when every D(g) does (each L over abelian
        g), and then no degree is built.
        """
        if not any(images.values()):
            return {}
        derived: dict[Mono, dict[Mono, int | Fraction]] = {one: {}}  # D(1) = 0
        mats = {}
        for n, ms in by_degree.items():
            if not 0 <= n + k <= max_degree:
                continue  # truncated, or below degree 0
            entries = []
            for col, m in enumerate(ms):
                if n:
                    g, rest = _first_factor(m)
                    sign = -1 if k % 2 and g[0] == "t" else 1
                    gm = gens[g]
                    out: dict[Mono, int | Fraction] = {}
                    for c, x, y in ([(c, dg, rest) for dg, c in images[g].items()]
                                    + [(sign * c, gm, dm) for dm, c in derived[rest].items()]):
                        if res := _mono_mul(x, y):
                            out[res[1]] = out.get(res[1], 0) + res[0] * c
                    derived[m] = {x: c for x, c in out.items() if c}
                entries += [(index[x][1], col, c) for x, c in derived[m].items()]
            mats[n] = RationalMatrix.from_entries(dims.get(n + k, 0), len(ms), entries)
        return mats

    return GStarStructure(algebra, lie, build_op(d_img, 1), [build_op(x, -1) for x in i_img],
                          [build_op(x, 0) for x in l_img])


# -- type (C) detection -----------------------------------------------------------


class ConnectionElements(NamedTuple):
    """Candidate degree-1 elements theta_0..theta_{r-1}."""

    vectors: tuple[Vec, ...]


class TypeCVerdict(NamedTuple):
    free: bool
    type_c: bool
    detail: str = ""


def detect_type_c(s: GStarStructure, candidates: ConnectionElements) -> TypeCVerdict:
    """free <=> i_{X_j} theta_i = delta_ij; type (C) adds L-invariance of the span."""
    r = s.lie.dimension
    thetas = candidates.vectors
    if len(thetas) != r:
        return TypeCVerdict(False, False, f"need {r} candidates, got {len(thetas)}")
    sp = s.space
    one = unit_vec(sp.dim(0), s.algebra.unit_index)
    for i, th in enumerate(thetas):
        if len(th) != sp.dim(1):
            return TypeCVerdict(False, False, "candidate is not a degree-1 vector")
        for j in range(r):
            got = s.op_i(j, 1).apply(th)
            want = one if i == j else zero_vec(sp.dim(0))
            if got != want:
                return TypeCVerdict(
                    False, False, f"i_X{j}(theta_{i}) != {'1' if i == j else '0'}"
                )
    span = RationalMatrix.from_cols(list(thetas), sp.dim(1))
    for j in range(r):
        if restrict(s.op_l(j, 1), span, span) is None:
            return TypeCVerdict(
                True, False, f"L_X{j} does not preserve the span of the candidates"
            )
    return TypeCVerdict(True, True)


# -- tensor product ----------------------------------------------------------------


def tensor_gstar(
    a: GStarStructure, b: GStarStructure, max_degree: int | None = None
) -> GStarStructure:
    """Graded tensor product with Koszul signs; operators extend as derivations.

    The result window is capped by both factors' stable ranges and the
    optional max_degree; if anything was cut, the output carries the
    truncation marker.
    """
    if a.lie.dimension != b.lie.dimension or a.lie.brackets != b.lie.brackets:
        raise ValueError("tensor factors must share the Lie algebra spec")
    lie = a.lie
    natural = a.space.window[1] + b.space.window[1]
    cap = natural
    for t in (a.truncated_above, b.truncated_above, max_degree):
        if t is not None:
            cap = min(cap, t)
    truncated = cap < natural or a.truncated_above is not None or b.truncated_above is not None

    # degree n is the direct sum over da of the blocks A^da (x) B^(n - da), each in
    # Kronecker order, so pairs[n] is sorted by (da, ia, db, ib)
    pairs: dict[int, list[tuple[int, int, int, int]]] = {}
    blocks: dict[int, dict[int, int]] = {}  # n -> {da: first index of its block}
    for da in a.space.degrees():
        for db in b.space.degrees():
            n, na, nb = da + db, a.space.dim(da), b.space.dim(db)
            if n > cap or not (na and nb):
                continue
            lst = pairs.setdefault(n, [])
            blocks.setdefault(n, {})[da] = len(lst)
            lst += [(da, ia, db, ib) for ia in range(na) for ib in range(nb)]
    dims = {n: len(lst) for n, lst in pairs.items()}

    def label(n, i):
        da, ia, db, ib = pairs[n][i]
        return f"{a.space.label(da, ia)}(x){b.space.label(db, ib)}"

    space = GradedVectorSpace(dims, label, window=(0, cap))

    def products():
        """M_{n1,n2} from (a1 (x) b1)(a2 (x) b2) = (-1)^(|b1| |a2|) a1 a2 (x) b1 b2.

        Each factor product is read off a column of the factor's M_{a,b}.
        """
        columns = functools.cache(lambda alg, d1, d2: alg.product_matrix(d1, d2).nonzero_columns())
        out = {}
        for (n1, lst1), (n2, lst2) in itertools.product(pairs.items(), repeat=2):
            if n1 + n2 > cap:
                continue
            entries = []
            for i1, (da1, ia1, db1, ib1) in enumerate(lst1):
                for i2, (da2, ia2, db2, ib2) in enumerate(lst2):
                    col_a = columns(a.algebra, da1, da2)[ia1 * a.space.dim(da2) + ia2]
                    col_b = columns(b.algebra, db1, db2)[ib1 * b.space.dim(db2) + ib2]
                    if not (col_a and col_b):
                        continue
                    # both factors' targets are nonzero, so their block exists
                    start, nb = blocks[n1 + n2][da1 + da2], b.space.dim(db1 + db2)
                    sign = -1 if db1 % 2 and da2 % 2 else 1
                    col = i1 * len(lst2) + i2
                    entries += [(start + ka * nb + kb, col, sign * ca * cb)
                                for ka, ca in col_a for kb, cb in col_b]
            if entries:
                out[(n1, n2)] = RationalMatrix.from_entries(
                    dims[n1 + n2], len(lst1) * len(lst2), entries)
        return out

    # degree 0 is the one block A^0 (x) B^0 (any other would put a basis element in a
    # negative degree), so the unit e_ua (x) e_ub is ua * dim B^0 + ub; out of range, 0
    ua, ub = (f.algebra.unit_index if f.algebra.has_products() else 0 for f in (a, b))
    nb0 = b.space.dim(0)
    unit_idx = ua * nb0 + ub if 0 in dims and 0 <= ua < a.space.dim(0) and 0 <= ub < nb0 else 0
    algebra = GradedAlgebraPresentation(
        space, products if a.algebra.has_products() and b.algebra.has_products() else None,
        unit_index=unit_idx,
        truncated_above=cap if truncated else None,
    )

    def build(k, ops_a, ops_b):
        """D = D_A (x) 1 + (-1)^(k da) 1 (x) D_B of degree k, from the factors' stored D."""
        mats = {}
        for n, starts in blocks.items():
            tgt = blocks.get(n + k)
            if tgt is None:
                continue
            parts = []
            # a nonzero factor operator has a nonzero target, so its block exists
            for da, col in starts.items():
                db = n - da
                if (m := ops_a.get(da)) is not None:
                    parts.append((tgt[da + k], col, m, 1, b.space.dim(db)))
                if (m := ops_b.get(db)) is not None:
                    m = -m if k % 2 and da % 2 else m
                    parts.append((tgt[da], col, m, a.space.dim(da), 1))
            if parts:
                mats[n] = RationalMatrix.from_blocks(len(pairs[n + k]), len(pairs[n]), parts)
        return mats

    r = lie.dimension
    d_mats = build(1, a.d_operators(), b.d_operators())
    i_mats = [build(-1, a.i_operators(j), b.i_operators(j)) for j in range(r)]
    l_mats = [build(0, a.l_operators(j), b.l_operators(j)) for j in range(r)]
    return GStarStructure(algebra, lie, d_mats, i_mats, l_mats)


# -- the Weil model ---------------------------------------------------------------


def weil_model_cohomology(s: GStarStructure, n_max: int) -> CohomologyResult:
    """Equivariant cohomology through the universal-structure route.

    Tensors the acyclic structure onto the algebra, extracts the joint
    i/L kernel, and takes cohomology, cut at n_max.  Independent of the
    Cartan-complex route, which makes it the cross-check oracle for it.

    Both factors are built through degree n_max + 1 and no further.  H^n
    reads only B^(n-1), B^n, B^(n+1) and the maps d_(n-1), d_n; a structure
    truncated at T keeps d exact through degree T - 1, so T = n_max + 1
    covers every reported degree.  A window with n_max < 0 reads no degree
    and builds nothing.
    """
    if n_max < 0:
        return CohomologyResult(dims={})
    w = weil_algebra(s.lie, n_max + 1)
    t = tensor_gstar(w, s, max_degree=n_max + 1)
    h = cohomology_dims(basic_subcomplex(t).complex)
    return CohomologyResult(dims={n: h.dim(n) for n in range(n_max + 1) if h.dim(n)})
