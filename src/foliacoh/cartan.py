"""The Cartan complex of a g*-algebra and its equivariant cohomology.

Degree-n slice: polynomial monomials tensor algebra basis elements with
2|alpha| + |a| = n, cut down to Lie-algebra invariants when the L-operators
are nonzero.  The differential is d + delta with delta contracting against
each generator while multiplying by its dual variable.

A slice is the blocks S^p (x) A^(n-2p) in ascending p, stored as their
offsets (``CartanComplexSlice.below``), and every operator is placed as
Kronecker blocks with ``RationalMatrix.from_blocks``.

``equivariant_cohomology`` counts dimensions from ranks alone, and
``generator_degrees`` counts minimal generators from ranks of u-images of
cocycles.  Representatives are built only for a module presentation
(``module_presentation``), which works on cochains: a class is a cocycle
taken modulo the coboundaries, and no class coordinates are formed.

The polynomial factor is never truncated on its own: total degree n only
ever sees symmetric degrees p <= n/2, so each slice is exact regardless of
the window.  Truncation flags come only from the underlying algebra.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .algebra_core import InconsistentOperatorData, cocycle_representatives
from .gstar import (
    ConnectionElements,
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    basic_subcomplex,
    detect_type_c,
)
from .module_theory import (
    GradedModulePresentation,
    Poly,
    dim_sym,
    free_basis,
    monomials_of_degree,
    relation_columns,
)
from .ratmat import (
    RationalMatrix,
    independent_complement,
    joint_kernel,
    restrict,
)


class DifferentialNotSquareZero(ValueError):
    """Raised when the Cartan differential squares to nonzero in the stable range."""


class CartanComplexSlice(NamedTuple):
    """One total degree of the Cartan complex.

    The ambient slice is the blocks S^p (x) A^(n-2p) for p = 0..n//2 in
    ascending p, each in Kronecker order (monomial major); below[p] is the
    first index of block p, so block p holds the vectors of polynomial
    degree p, and below[-1] is the ambient dimension.  embedding is None
    when the invariants are the whole ambient slice, otherwise its columns
    embed the invariant basis into the ambient one.
    """

    n: int
    below: tuple[int, ...]
    embedding: RationalMatrix | None

    @property
    def ambient_dim(self) -> int:
        return self.below[-1]

    @property
    def dim(self) -> int:
        return self.ambient_dim if self.embedding is None else self.embedding.cols


@functools.cache
def _shifted(r: int, p: int, j: int) -> tuple[int, ...]:
    """Per monomial u^alpha of S^p, in order, the position of u_j u^alpha in S^(p+1)."""
    pos = {alpha: k for k, alpha in enumerate(monomials_of_degree(r, p + 1))}
    return tuple(pos[alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]]
                 for alpha in monomials_of_degree(r, p))


def _u_times(shifted: tuple[int, ...], op: RationalMatrix, row0: int, col0: int) -> list:
    """u_j (x) op as blocks: op once per monomial k of S^p, at block shifted[k] of S^(p+1)."""
    return [(row0 + row * op.rows, col0 + k * op.cols, op) for k, row in enumerate(shifted)]


def _coadjoint(lie: LieAlgebraSpec, j: int, p: int) -> RationalMatrix:
    """The derivation of S^p extending u_b -> -c^b_{jc} u_c, as sum_{b,c} -c^b_{jc} u_c d/du_b."""
    r, low = lie.dimension, monomials_of_degree(lie.dimension, p - 1)
    entries = [(to, at, -lie.structure_constant(j, c, b) * (alpha[b] + 1))
               for b, c in itertools.product(range(r), repeat=2)
               for alpha, at, to in zip(low, _shifted(r, p - 1, b), _shifted(r, p - 1, c))]
    return RationalMatrix.from_entries(dim_sym(r, p), dim_sym(r, p), entries)


class CartanComplex:
    """Slices 0..n_max+1 with verified differential, ready for cohomology."""

    def __init__(self, s: GStarStructure, n_max: int):
        self.structure = s
        self.n_max = n_max
        r = s.lie.dimension
        sp = s.space
        self.stable_through = s.algebra.window_tops.through(n_max, "d_squared")
        self.slices: list[CartanComplexSlice] = []
        invariant_everywhere = s.all_l_zero() and s.lie.is_abelian
        self._coadjoints: dict[tuple[int, int], RationalMatrix] = {}  # by (j, p), as built
        for n in range(n_max + 2):
            below = tuple(itertools.accumulate(
                (dim_sym(r, p) * sp.dim(n - 2 * p) for p in range(n // 2 + 1)), initial=0))
            sl = CartanComplexSlice(n, below, None)
            if not invariant_everywhere:
                l_total = [self._l_total_matrix(j, sl) for j in range(r)]
                sl = sl._replace(embedding=joint_kernel(l_total, sl.ambient_dim))
            self.slices.append(sl)
        self.d = {n: self._differential(n) for n in range(n_max + 1)}
        # d_n d_(n-1) by n where it is nonzero, which only the edge above d_squared allows
        self.squares: dict[int, RationalMatrix] = {}
        self._verify_d_squared()

    # -- construction helpers ---------------------------------------------

    def _l_total_matrix(self, j: int, sl: CartanComplexSlice) -> RationalMatrix:
        """L_j on an ambient slice: L on A plus the coadjoint action on S^p, per block p."""
        s = self.structure
        parts = []
        for p, at in enumerate(sl.below[:-1]):
            m = sl.n - 2 * p
            if (j, p) not in self._coadjoints:
                self._coadjoints[j, p] = _coadjoint(s.lie, j, p)
            l_a, coad = s.op_l(j, m), self._coadjoints[j, p]
            if not l_a.is_zero():
                parts.append((at, at, l_a, coad.rows, 1))
            if not coad.is_zero():
                parts.append((at, at, coad, 1, l_a.rows))
        return RationalMatrix.from_blocks(sl.ambient_dim, sl.ambient_dim, parts)

    def _ambient_differential(self, n: int) -> RationalMatrix:
        """d on each block S^p (x) A^m plus sum_j u_j i_j into S^(p+1), slice n to n + 1."""
        s = self.structure
        r = s.lie.dimension
        src, tgt = self.slices[n].below, self.slices[n + 1].below
        parts = []
        for p, col in enumerate(src[:-1]):
            m = n - 2 * p
            parts.append((tgt[p], col, s.op_d(m), dim_sym(r, p), 1))
            for j in range(r):
                parts += _u_times(_shifted(r, p, j), s.op_i(j, m), tgt[p + 1], col)
        return RationalMatrix.from_blocks(tgt[-1], src[-1], parts)

    def _differential(self, n: int) -> RationalMatrix:
        src, tgt = self.slices[n], self.slices[n + 1]
        sol = restrict(self._ambient_differential(n), src.embedding, tgt.embedding)
        if sol is None:
            raise InconsistentOperatorData(
                f"equivariant differential does not preserve invariants at degree {n}"
            )
        return sol

    def _verify_d_squared(self):
        """d_(n+1) d_n = 0 wherever the structure's ``d_squared`` top certifies d^2 = 0."""
        tops = self.structure.algebra.window_tops
        for n in range(self.n_max):
            prod = self.d[n + 1] @ self.d[n]
            if prod.is_zero():
                continue
            if not tops.truncated or n <= tops.d_squared:
                raise DifferentialNotSquareZero(
                    f"equivariant differential does not square to zero at {n}"
                )
            self.squares[n + 1] = prod

    # -- queries ------------------------------------------------------------

    def dim(self, n: int) -> int:
        return self.slices[n].dim if 0 <= n < len(self.slices) else 0

    def u_multiplication(self, j: int, n: int) -> RationalMatrix:
        """Multiplication by the j-th dual variable, slice n to slice n + 2."""
        if not self.structure.lie.is_abelian:
            raise ValueError("polynomial module action requires an abelian Lie algebra")
        r, sp = self.structure.lie.dimension, self.structure.space
        src, tgt = self.slices[n], self.slices[n + 2]
        parts = [part for p, col in enumerate(src.below[:-1]) for part in _u_times(
            _shifted(r, p, j), RationalMatrix.identity(sp.dim(n - 2 * p)), tgt.below[p + 1], col)]
        shift = RationalMatrix.from_blocks(tgt.ambient_dim, src.ambient_dim, parts)
        sol = restrict(shift, src.embedding, tgt.embedding)
        if sol is None:
            raise ValueError("u-multiplication left the invariant subspace")
        return sol


class EquivariantCohomologyResult(NamedTuple):
    """Dimensions of the equivariant cohomology and the Cartan complex they come from."""

    dims: dict[int, int]
    n_max: int
    stable_through: int
    dim_a: int
    complex: CartanComplex

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def dims_tuple(self, n_max: int | None = None) -> tuple[int, ...]:
        n_max = self.n_max if n_max is None else n_max
        return tuple(self.dim(n) for n in range(n_max + 1))

    def total_dim(self) -> int:
        return sum(self.dims.values())


def equivariant_cohomology(s: GStarStructure, n_max: int) -> EquivariantCohomologyResult:
    """Dimensions of the cohomology of the Cartan complex, from ranks alone.

    h_n = dim C^n - rank d_n - rank d_(n-1) + rank(d_n d_(n-1)): the cocycles
    less their meet with the coboundaries, as dim(im A & ker B) =
    rank A - rank BA.  The last term is nonzero only where d squares to
    nonzero, at the unstable edge of a truncated algebra.
    """
    cx = CartanComplex(s, n_max)
    dims: dict[int, int] = {}
    for n in range(n_max + 1):
        h = cx.dim(n) - sum(cx.d[k].rank() for k in (n - 1, n) if k in cx.d)
        if n in cx.squares:
            h += cx.squares[n].rank()
        if h:
            dims[n] = h
    return EquivariantCohomologyResult(
        dims=dims,
        n_max=n_max,
        stable_through=cx.stable_through,
        dim_a=s.lie.dimension,
        complex=cx,
    )


def generator_degrees(e: EquivariantCohomologyResult) -> tuple[int, ...]:
    """Degree of each minimal generator of the cohomology module, ascending.

    Over abelian g, the classes of degree n that the u-action reaches from
    degree n - 2 span (span U + im d_(n-1)) / im d_(n-1), with U the columns
    u_j K and K the kernel of d_(n-2): a coboundary goes to a coboundary, as
    u commutes with d.  The generators of degree n are the h_n classes less
    those.  Over a non-abelian g there is no u-action and every class is a
    generator.
    """
    cx, r = e.complex, e.dim_a
    acts = r > 0 and cx.structure.lie.is_abelian
    degrees: list[int] = []
    for n in range(e.n_max + 1):
        h = e.dim(n)
        if h and acts and n >= 2:
            kernel = cx.d[n - 2].nullspace()
            reached = functools.reduce(RationalMatrix.hstack, [
                cx.u_multiplication(j, n - 2) @ kernel for j in range(r)])
            if not (cx.d[n] @ reached).is_zero():
                raise AssertionError(f"u times a cocycle is not a cocycle in degree {n}")
            h -= len(independent_complement(reached, cx.d[n - 1]))
        degrees += [n] * h
    return tuple(degrees)


def module_presentation(e: EquivariantCohomologyResult) -> GradedModulePresentation:
    """Minimal generators and harvested relations of the cohomology module, on cochains.

    Degree by degree, the multiples u^beta g of the generators found so far are
    evaluated on their representatives.  In [B | multiples | reps], with B the
    independent columns of the incoming d and reps the canonical
    representatives (``cocycle_representatives``), the multiples' free columns
    are their dependencies modulo coboundaries, and the kernel vector of each
    is a relation; relations are kept modulo multiples of earlier ones.  The
    pivots among reps are the new generators: the representatives independent
    modulo what u reaches and the coboundaries, greedily (ties broken by lowest
    degree, then position).  Over a non-abelian Lie algebra there is no
    u-action, so a generator at or below degree e.n_max - 2 raises ValueError.
    The polynomial ring is e's, on e.dim_a variables, and the window e.n_max.
    """
    cx, r = e.complex, e.dim_a
    gen_degrees: list[int] = []
    relations: list[list[Poly]] = []
    evaluated: dict[int, RationalMatrix] = {}  # per degree, u^beta g over the free basis
    for n in range(e.n_max + 1):
        d_in = cx.d[n - 1] if n else RationalMatrix.zeros(cx.dim(0), 0)
        reps = cocycle_representatives(cx.d[n], d_in)
        # column (g, beta) of the multiples is u_j times column (g, beta - e_j) of
        # the evaluation two degrees down, j the first index with beta_j > 0
        fb = free_basis(tuple(gen_degrees), r, n)
        mult = RationalMatrix.zeros(cx.dim(n), 0)
        if fb:
            below = {key: at for at, key in enumerate(free_basis(tuple(gen_degrees), r, n - 2))}
            pool = functools.reduce(RationalMatrix.hstack, [
                cx.u_multiplication(j, n - 2) @ evaluated[n - 2] for j in range(r)])
            firsts = [next(j for j, b in enumerate(beta) if b) for _g, beta in fb]
            mult = pool.select([j * len(below) + below[g, beta[:j] + (beta[j] - 1,) + beta[j + 1:]]
                                for (g, beta), j in zip(fb, firsts)])
        # where H^n = 0 every multiple is a coboundary: a relation by itself
        joint = (d_in.select(d_in.pivots()).hstack(mult).hstack(reps) if reps.cols
                 else RationalMatrix.zeros(0, len(fb)))
        k = joint.cols - len(fb) - reps.cols  # the columns of B
        pivots = joint.pivots()
        free = len(fb) - sum(k <= p < k + len(fb) for p in pivots)
        if free:
            kernel_cols = [[(i - k, c) for i, c in col if k <= i < k + len(fb)]
                           for col in joint.nullspace().nonzero_columns()[:free]]
            kernel = RationalMatrix.from_entries(len(fb), free, [
                (i, t, c) for t, col in enumerate(kernel_cols) for i, c in col])
            old = relation_columns(relations, tuple(gen_degrees), r, n, fb)
            for i in independent_complement(kernel, old):
                rel: list[Poly] = [dict() for _ in gen_degrees]
                for idx, c in kernel_cols[i]:
                    g_idx, beta = fb[idx]
                    rel[g_idx][beta] = c
                relations.append(rel)
        new = [p - k - len(fb) for p in pivots if p >= k + len(fb)]
        gen_degrees += [n] * len(new)
        evaluated[n] = mult.hstack(reps.select(new))

    relations = [rel + [dict() for _ in gen_degrees[len(rel):]] for rel in relations]
    return GradedModulePresentation(r, gen_degrees, tuple(map(tuple, relations)), window=e.n_max)


# -- commuting reduction -----------------------------------------------------------


class CommutingReductionReport(NamedTuple):
    applicable: bool
    agrees: bool | None
    lhs_dims: tuple[int, ...] | None
    rhs_dims: tuple[int, ...] | None
    detail: str


def _sub_lie(lie: LieAlgebraSpec, indices: list[int]) -> LieAlgebraSpec:
    pos = {g: i for i, g in enumerate(indices)}
    brackets = {}
    for (i, j), comps in lie.brackets.items():
        if i in pos and j in pos:
            moved = {}
            for k, c in comps.items():
                if k not in pos:
                    raise ValueError("generator subset is not a subalgebra")
                moved[pos[k]] = c
            brackets[(pos[i], pos[j])] = moved
    return LieAlgebraSpec(len(indices), brackets)


def _restrict_structure(
    s: GStarStructure, gen_indices: list[int]
) -> GStarStructure:
    """Same algebra, operator package restricted to a generator subset."""
    return GStarStructure(
        s.algebra,
        _sub_lie(s.lie, gen_indices),
        s.d_operators(),
        [s.i_operators(j) for j in gen_indices],
        [s.l_operators(j) for j in gen_indices],
    )


def _structure_on_basic(
    s: GStarStructure, h_indices: list[int], k_indices: list[int]
) -> GStarStructure:
    """Operator package of the k-generators on the h-basic subcomplex."""
    basic = basic_subcomplex(_restrict_structure(s, h_indices))
    emb = basic.embeddings
    sp_b = basic.complex.spaces

    def on_basic(op, delta):
        mats = {}
        for n, src in emb.items():
            tgt = emb.get(n + delta, RationalMatrix.zeros(s.space.dim(n + delta), 0))
            mats[n] = restrict(op(n), src, tgt)
            if mats[n] is None:
                raise ValueError(
                    "commuting operators do not preserve the basic subcomplex"
                )
        return mats

    d = dict(basic.complex.d)
    lie_k = _sub_lie(s.lie, k_indices)
    i_ops = [on_basic(lambda n, j=j: s.op_i(j, n), -1) for j in k_indices]
    l_ops = [on_basic(lambda n, j=j: s.op_l(j, n), 0) for j in k_indices]
    algebra = GradedAlgebraPresentation(
        sp_b, None, truncated_above=s.truncated_above
    )
    return GStarStructure(algebra, lie_k, d, i_ops, l_ops)


def commuting_reduction_check(
    s: GStarStructure,
    h_candidates: ConnectionElements,
    n_max: int,
) -> CommutingReductionReport:
    """Compare full equivariant cohomology with the reduced two-step route.

    The first len(h_candidates) Lie generators are the factor to divide out;
    applicability needs type (C) for that factor (witnessed by the given
    connection elements), vanishing brackets between the two factors, and a
    trivial action of the remaining factor (all its L-matrices zero).
    """
    r_h = len(h_candidates.vectors)
    r = s.lie.dimension
    if not 0 < r_h < r:
        return CommutingReductionReport(False, None, None, None,
                                        "need a proper nonempty first factor")
    h_idx, k_idx = list(range(r_h)), list(range(r_h, r))
    for i in h_idx:
        for j in k_idx:
            if s.lie.bracket(i, j):
                return CommutingReductionReport(
                    False, None, None, None,
                    f"generators X{i} and X{j} do not commute: not a product algebra",
                )
    s_h = _restrict_structure(s, h_idx)
    verdict = detect_type_c(s_h, h_candidates)
    if not verdict.type_c:
        return CommutingReductionReport(
            False, None, None, None,
            f"first factor is not of type (C): {verdict.detail}",
        )
    for j in k_idx:
        for n in s.space.degrees():
            if not s.op_l(j, n).is_zero():
                return CommutingReductionReport(
                    False, None, None, None,
                    f"second factor acts nontrivially (L_X{j} != 0): "
                    "invariants condition fails",
                )
    lhs = equivariant_cohomology(s, n_max)
    rhs_structure = _structure_on_basic(s, h_idx, k_idx)
    rhs = equivariant_cohomology(rhs_structure, n_max)
    lt, rt = lhs.dims_tuple(n_max), rhs.dims_tuple(n_max)
    return CommutingReductionReport(
        True, lt == rt, lt, rt,
        "dims agree on the window" if lt == rt else "dimension mismatch",
    )
