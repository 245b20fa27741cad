import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import ratmat
from foliacoh.ratmat import (
    RationalMatrix,
    coordinates_modulo,
    independent_complement,
    joint_kernel,
    rank_of_columns,
    restrict,
)

from conftest import columns, inverse


def M(rows):
    return RationalMatrix.from_rows(rows)


def column(v, dim=None):
    """The one-column matrix of the vector v."""
    return RationalMatrix.from_cols([v], len(v) if dim is None else dim)


def test_rank_matches_rref_pivot_count(rng):
    for _ in range(50):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = RationalMatrix(
            rows, cols,
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
             for _ in range(rows)],
        )
        assert m.rank() == len(m.rref()[1])


def test_rank_known_values():
    assert M([[1, 2], [2, 4]]).rank() == 1
    assert M([[1, 0], [0, 1]]).rank() == 2
    assert RationalMatrix.zeros(3, 4).rank() == 0
    assert M([["1/2", "1/3"], ["1/4", "1/6"]]).rank() == 1


def test_nullspace_canonical_and_correct():
    m = M([[1, 2, 3], [2, 4, 6]])
    ns = m.nullspace()
    assert (ns.rows, ns.cols) == (3, 2)
    for v in columns(ns):
        assert all(x == 0 for x in m.apply(v))
    # canonical: free columns are 1 and 2, each carries a single 1
    assert columns(ns)[0][1] == 1 and columns(ns)[1][2] == 1


def test_solve_and_inverse():
    m = M([[2, 1], [1, 1]])
    x = m.solve(column((3, 2)))
    assert m @ x == column((3, 2))
    inv = inverse(m)
    assert inv @ m == RationalMatrix.identity(2)
    assert M([[1, 1], [1, 1]]).solve(column((1, 0))) is None
    assert inverse(M([[1, 1], [1, 1]])) is None


def test_matmul_shapes():
    a = RationalMatrix.zeros(2, 3)
    b = RationalMatrix.zeros(3, 4)
    assert (a @ b).rows == 2 and (a @ b).cols == 4
    with pytest.raises(ValueError):
        b @ a


def test_subspace_helpers():
    e = RationalMatrix.identity(3)
    e0, e1, e2 = (e.select([i]) for i in range(3))
    assert rank_of_columns(e0.hstack(e1).hstack(e0), [0, 1, 2]) == 2
    assert rank_of_columns(e0.hstack(e1).hstack(e0), [2, 0]) == 1
    picked = independent_complement(e, e0)
    assert picked == [1, 2]
    coords = coordinates_modulo(e1, e0, column((5, 7, 0)))
    assert coords == M([[7]])
    assert coordinates_modulo(e1, e0, e2) is None


def test_no_floats_accepted():
    with pytest.raises(TypeError):
        RationalMatrix(1, 1, [[0.5]])


# -- sparse kernels against test-local copies of the dense ones -----------------------
# The reference functions below are the dense kernels that the sparse ones
# replaced, so every answer can be compared exactly.


def dense_rref(rows, ncols):
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv, best = -1, 0
        for i in range(r, nrows):
            if m[i][c] != 0:
                a = abs(m[i][c].numerator)
                if piv < 0 or a > best:
                    best, piv = a, i
        if piv < 0:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def dense_rank(rows, ncols):
    """Bareiss rank with every row updated at every step."""
    if not rows or ncols == 0:
        return 0
    m = []
    for r in rows:
        lcm = 1
        for x in r:
            if x != 0:
                lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        m.append([int(x * lcm) for x in r])
    nrows = len(m)
    prev, r = 1, 0
    for c in range(ncols):
        if r >= nrows:
            break
        piv, best = -1, 0
        for i in range(r, nrows):
            if abs(m[i][c]) > best:
                best, piv = abs(m[i][c]), i
        if piv < 0:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def column_solve(a, b):
    """One augmented dense RREF for a single right-hand side b."""
    rows = [list(row) + [x] for row, x in zip(a.tolist(), b)]
    R, pivots = dense_rref(rows, a.cols + 1)
    if a.cols in pivots:
        return None
    x = [Fraction(0)] * a.cols
    for row_idx, p in enumerate(pivots):
        x[p] = R[row_idx][a.cols]
    return tuple(x)


def greedy_complement(candidates, modulo, dim):
    """One Bareiss rank per candidate, kept when it raises the rank."""
    def rank(cols):
        return dense_rank([[c[i] for c in cols] for i in range(dim)], len(cols)) if cols else 0

    picked, acc = [], list(modulo)
    r = rank(acc)
    for idx, v in enumerate(candidates):
        r2 = rank(acc + [v])
        if r2 > r:
            picked.append(idx)
            acc, r = acc + [v], r2
    return picked


# primes near 10**6, so that a row of 1/p entries has a denominator lcm of 20+ digits
PRIMES = (999907, 999917, 999931, 999953, 999959, 999961, 999979, 999983, 1000003,
          1000033, 1000037, 1000039, 1000081, 1000099)
ENTRIES = {
    "sparse": st.sampled_from((0, 0, 0, 0, 0, 1, -1)).map(Fraction),
    "dense": st.fractions(min_value=-6, max_value=6, max_denominator=5),
    "wide": st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70)),
    "coprime": st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.sampled_from((1, -1, 2, -3)), st.sampled_from(PRIMES)),
    ),
}


@st.composite
def matrices(draw, rows=None, cols=None):
    """Sparse +-1, dense, >= 64-bit, 1/p for coprime p near 10**6 or rank-deficient.

    0 to 6 rows and columns.
    """
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    kind = draw(st.sampled_from(("sparse", "dense", "wide", "coprime", "low_rank")))
    if kind != "low_rank":
        grid = draw(st.lists(st.lists(ENTRIES[kind], min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
        return RationalMatrix(rows, cols, grid)
    k = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
    left = draw(st.lists(st.lists(ENTRIES["dense"], min_size=k, max_size=k),
                         min_size=rows, max_size=rows))
    entry = ENTRIES[draw(st.sampled_from(("sparse", "dense", "coprime")))]
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                          min_size=k, max_size=k))
    grid = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(cols)] for i in range(rows)]
    return RationalMatrix(rows, cols, grid)


@st.composite
def systems(draw):
    """(A, B): B mixes columns in the image of A with arbitrary ones."""
    a = draw(matrices())
    entry = ENTRIES[draw(st.sampled_from(("dense", "coprime")))]
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            x = draw(st.lists(entry, min_size=a.cols, max_size=a.cols))
            cols.append(a.apply(x))
        else:
            cols.append(tuple(draw(st.lists(entry, min_size=a.rows, max_size=a.rows))))
    return a, RationalMatrix.from_cols(cols, a.rows)


FAST = settings(max_examples=100, deadline=None)


@FAST
@given(matrices())
def test_rref_matches_dense_rref(m):
    R, pivots = m.rref()
    want, want_pivots = dense_rref(m.tolist(), m.cols)
    assert pivots == want_pivots
    assert R.tolist() == want
    assert all(type(x) is Fraction for row in R.tolist() for x in row)


@FAST
@given(matrices())
# rank 3: wrong as 4 if rows with a zero in the pivot column skip the p / prev rescale
@example(M([[4, 3, -4, 1], [0, 2, -1, 6], [-1, -8, 11, -5], [-6, -3, 3, -3]]))
def test_rank_matches_dense_bareiss(m):
    assert m.rank() == dense_rank(m.tolist(), m.cols) == len(m.rref()[1])


@FAST
@given(systems())
def test_matrix_solve_matches_column_solves(system):
    a, b = system
    per_column = [column_solve(a, v) for v in columns(b)]
    for v, sol in zip(columns(b), per_column):
        one = a.solve(column(v, a.rows))
        assert (None if one is None else columns(one)[0]) == sol
        assert sol is None or a.apply(sol) == v
    x = a.solve(b)
    if any(sol is None for sol in per_column):
        assert x is None
        return
    assert (x.rows, x.cols) == (a.cols, b.cols)
    assert columns(x) == per_column


@FAST
@given(matrices(), st.data())
def test_independent_complement_matches_greedy(m, data):
    split = data.draw(st.integers(0, m.cols))
    cols = columns(m)
    modulo, candidates = m.select(range(split)), m.select(range(split, m.cols))
    assert independent_complement(candidates, modulo) == \
        greedy_complement(cols[split:], cols[:split], m.rows)


@FAST
@given(matrices(), st.data())
def test_apply_matches_dense_sum(m, data):
    v = data.draw(st.lists(st.one_of(ENTRIES["sparse"], ENTRIES["wide"]),
                           min_size=m.cols, max_size=m.cols))
    grid = m.tolist()
    want = tuple(sum((grid[i][j] * v[j] for j in range(m.cols)), Fraction(0))
                 for i in range(m.rows))
    got = m.apply(v)
    assert got == want
    assert all(type(x) is Fraction for x in got)


@FAST
@given(systems(), st.data())
def test_batched_coordinates_match_per_vector(system, data):
    a, b = system
    split = data.draw(st.integers(0, a.cols))
    basis, modulo = a.select(range(split)), a.select(range(split, a.cols))
    per_vector = [coordinates_modulo(basis, modulo, column(v, a.rows)) for v in columns(b)]
    got = coordinates_modulo(basis, modulo, b)
    if any(c is None for c in per_vector):
        assert got is None
        return
    assert (got.rows, got.cols) == (basis.cols, b.cols)
    assert columns(got) == [columns(c)[0] for c in per_vector]


def fresh(m: RationalMatrix) -> RationalMatrix:
    """The same matrix, rebuilt from its entries, with no elimination run on it."""
    return RationalMatrix(m.rows, m.cols, m.tolist())


@settings(max_examples=40, deadline=None)
@given(systems())
def test_a_kept_forward_pass_gives_what_a_fresh_matrix_gives(system):
    a, b = system
    for call in (RationalMatrix.rref, RationalMatrix.nullspace, lambda m: m.solve(b)):
        kept = fresh(a)
        rank = kept.rank()
        assert call(kept) == call(fresh(a))
        # back substitution works on a copy: the pass and the rows stay as they were
        assert kept.pivots() == fresh(a).pivots() and kept.rank() == rank and kept == a


def rank_squared_rref(m: RationalMatrix):
    """(R, pivots) by the back substitution ``rref`` once ran on the forward pass: each
    pivot column, last first, is looked up in every top above it."""
    rows = [ratmat._without_content(r) for r, _ in map(ratmat._row_in, m.tolist()) if r]
    pivots, tops = ratmat._echelon(rows, m.cols, ratmat._eliminate)
    for k in range(len(pivots) - 1, 0, -1):
        c, top = pivots[k], tops[k]
        for i in range(k):
            if c in tops[i]:
                tops[i] = ratmat._eliminate(tops[i], top, c)
    R = RationalMatrix.from_entries(m.rows, m.cols, [
        (i, j, Fraction(x, top[c])) for i, (c, top) in enumerate(zip(pivots, tops))
        for j, x in top.items()])
    return R, tuple(pivots)


@st.composite
def back_substitution_cases(draw):
    """Wide, tall, zero, full-rank and block-diagonal matrices, with empty rows mixed in."""
    kind = draw(st.sampled_from(("wide", "tall", "zero", "full", "blocks")))
    if kind == "blocks":
        parts = draw(st.lists(matrices(), min_size=2, max_size=3))
        at = [(sum(p.rows for p in parts[:k]), sum(p.cols for p in parts[:k]), p)
              for k, p in enumerate(parts)]
        m = RationalMatrix.from_blocks(sum(p.rows for p in parts), sum(p.cols for p in parts), at)
    elif kind == "full":  # unit upper triangular
        n = draw(st.integers(1, 6))
        m = RationalMatrix.identity(n) + RationalMatrix.from_entries(n, n, [
            (i, j, draw(ENTRIES["coprime"])) for i in range(n) for j in range(i + 1, n)])
    else:
        small, large = draw(st.integers(0, 3)), draw(st.integers(3, 9))
        m = (RationalMatrix.zeros(small, large) if kind == "zero"
             else draw(matrices(*((small, large) if kind == "wide" else (large, small)))))
    rows = m.tolist()
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * m.cols)
    return RationalMatrix(len(rows), m.cols, rows)


@settings(max_examples=150, deadline=None)
@given(back_substitution_cases())
@example(M([[1, 2, 3, 4], [0, 1, "1/2", 5], [0, 0, "3/7", 1]]))
@example(M([[2, 4], [0, 3], [0, 0], [1, 1]]))
def test_back_substitution_matches_the_rank_squared_loop(m):
    before, pivots = fresh(m), m.pivots()
    R, got = m.rref()
    assert (R, got) == rank_squared_rref(m) and got == pivots
    # the stored rows, which the forward pass may share, stay as they were
    assert m == before and m.rref() == (R, got)
    assert R.tolist() == dense_rref(m.tolist(), m.cols)[0]


@st.composite
def row_blocks(draw):
    """(m, bounds): blocks of rows of mixed kinds and zero blocks, in no echelon order.

    The bounds ascend and hold every block end and a few other row counts.
    """
    cols = draw(st.integers(0, 6))
    zeros = st.integers(1, 2).map(lambda k: RationalMatrix.zeros(k, cols))
    parts = draw(st.lists(st.one_of(matrices(cols=cols), zeros), max_size=4))
    m = functools.reduce(RationalMatrix.vstack, parts, RationalMatrix.zeros(0, cols))
    ends = list(itertools.accumulate(part.rows for part in parts))
    return m, sorted(ends + draw(st.lists(st.integers(0, m.rows), max_size=3)))


@settings(max_examples=60, deadline=None)
@given(row_blocks())
def test_prefix_pivots_match_a_pass_per_prefix(case):
    m, bounds = case
    assert m.prefix_pivots(bounds) == [m.select(range(m.cols), b).pivots() for b in bounds]


def test_prefix_pivots_want_ascending_bounds():
    m = M([[0, 3], [2, 1], [0, 0]])
    assert m.prefix_pivots([0, 1, 1, 3]) == [(), (1,), (1,), (0, 1)]
    for bounds in ([2, 1], [4], [-1]):
        with pytest.raises(ValueError):
            m.prefix_pivots(bounds)


def transpose(m: RationalMatrix) -> RationalMatrix:
    return RationalMatrix.from_cols(m.tolist(), m.cols)


@st.composite
def composable_pairs(draw):
    """(A, B) with B @ A defined; B kills all of im A, part of it, or none by design."""
    a = draw(matrices())
    kind = draw(st.sampled_from(("any", "kills", "kills part")))
    if kind == "any":
        return a, draw(matrices(cols=a.rows))
    # rows in the left kernel of A
    left = transpose(transpose(a).nullspace())
    b = draw(matrices(cols=left.rows)) @ left
    if kind == "kills part":
        b = b.vstack(draw(matrices(cols=a.rows)))
    return a, b


@settings(max_examples=40, deadline=None)
@given(composable_pairs())
@example((M([[1], [0]]), M([[0, 1]]))).via("B A = 0")
@example((M([[1], [0]]), M([[1, 0]]))).via("B A != 0")
def test_a_complement_of_a_kernel_is_counted_by_ranks(pair):
    # dim(ker B + im A) - rank A = nullity(B) - (rank A - rank BA)
    a, b = pair
    picked = independent_complement(b.nullspace(), a)
    assert len(picked) == b.cols - b.rank() - a.rank() + (b @ a).rank()


def test_batched_coordinates_edge_shapes():
    none = RationalMatrix.zeros(2, 0)
    assert coordinates_modulo(none, none, RationalMatrix.zeros(2, 3)) == RationalMatrix.zeros(0, 3)
    assert coordinates_modulo(none, none, RationalMatrix.identity(2)) is None
    e = RationalMatrix.identity(2)
    assert coordinates_modulo(e.select([1]), e.select([0]), e) == M([[0, 1]])


def test_matrix_solve_edge_shapes():
    empty = RationalMatrix.zeros(3, 0)
    assert empty.solve(RationalMatrix.zeros(3, 2)) == RationalMatrix.zeros(0, 2)
    assert empty.solve(RationalMatrix.identity(3).select([1])) is None
    a = M([[1, 0], [0, 1]])
    assert a.solve(RationalMatrix.zeros(2, 0)) == RationalMatrix.zeros(2, 0)
    with pytest.raises(ValueError):
        a.solve(column((1, 2, 3)))


def test_independent_complement_certificate(monkeypatch):
    # the certificate is what rejects a pick that disagrees with the exact rank
    e = RationalMatrix.identity(3)
    monkeypatch.setattr(ratmat, "rank_of_columns", lambda m, cols: len(cols) - 1)
    with pytest.raises(ArithmeticError):
        independent_complement(e.select([1, 2]), e.select([0]))


def test_a_dependent_pick_fails_the_certificate(monkeypatch):
    # columns 0 and 1 are equal, so a forward pass that pivots on both reports a dependent
    # pick; only the 2x3 stacked matrix lies, so the certificate's exact rank still runs
    m = M([[1, 1, 0], [2, 2, 1]])
    pivots = RationalMatrix.pivots
    monkeypatch.setattr(RationalMatrix, "pivots",
                        lambda self: (0, 1) if (self.rows, self.cols) == (2, 3) else pivots(self))
    with pytest.raises(ArithmeticError):
        independent_complement(m.select([1, 2]), m.select([0]))


def test_the_certificate_falls_back_to_the_exact_rank():
    # the rank mod PRIME drops below the rank over Q; the pick is still right
    m = M([[ratmat.PRIME, 1], [0, 1]])
    assert m.rank(ratmat.PRIME) == 1 < m.rank() == 2
    assert rank_of_columns(m, [0, 1]) == 2
    assert independent_complement(m, RationalMatrix.zeros(2, 0)) == [0, 1]


def dense_rank_mod(rows, ncols, p):
    """Rank mod p of the rows scaled to coprime integers, by dense Gaussian elimination."""
    m = []
    for r in rows:
        lcm = math.lcm(*(x.denominator for x in r))
        ints = [int(x * lcm) for x in r]
        g = math.gcd(*ints) or 1
        m.append([x // g % p for x in ints])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        for i in range(rank + 1, len(m)):
            f = m[i][c] * inv % p
            m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@FAST
@given(matrices(), st.sampled_from((2, 3, 5, ratmat.PRIME)))
def test_rank_mod_a_prime_bounds_the_exact_rank(m, p):
    assert m.rank(p) == dense_rank_mod(m.tolist(), m.cols, p)
    assert m.rank(ratmat.PRIME) <= m.rank() == dense_rank(m.tolist(), m.cols)
    assert m.rank(p) <= m.rank()


# -- trusted grids: results wrap fresh Fractions and never touch their operands ------


def snapshot(x):
    """A deep copy of a matrix, vector or list of vectors, to compare after a call."""
    if isinstance(x, RationalMatrix):
        return ("matrix", x.rows, x.cols, x.tolist())
    return [list(v) if isinstance(v, (list, tuple)) else v for v in x]


def all_fractions(x) -> bool:
    rows = x.tolist() if isinstance(x, RationalMatrix) else [x]
    return all(type(v) is Fraction for row in rows for v in row)


@FAST
@given(systems(), st.data())
def test_trusted_results_are_fractions_and_leave_inputs_alone(system, data):
    a, b = system
    same = data.draw(matrices(a.rows, a.cols))
    c = data.draw(st.sampled_from((2, -1, "1/3", Fraction(-5, 7))))
    raw_cols = data.draw(st.lists(
        st.lists(st.sampled_from((0, 1, -2, "3/4", Fraction(1, 5))),
                 min_size=a.rows, max_size=a.rows), max_size=4))
    split = data.draw(st.integers(0, a.cols))
    basis, modulo = a.select(range(split)), a.select(range(split, a.cols))
    v = b.select([0]) if b.cols else RationalMatrix.zeros(a.rows, 1)
    calls = [
        ((a, same), lambda: a + same),
        ((a, same), lambda: a - same),
        ((a,), lambda: a.scale(c)),
        ((a,), lambda: -a),
        ((a, b), lambda: a.hstack(RationalMatrix.zeros(a.rows, 0)).hstack(b)),
        ((a, same), lambda: a.vstack(same)),
        ((a,), lambda: a.kron_identity(2)),
        ((a,), lambda: a.identity_kron(2)),
        ((a,), lambda: a.rref()[0]),
        ((a, v), lambda: a.solve(v)),
        ((a, b), lambda: a.solve(b)),
        ((a,), lambda: a.nullspace()),
        ((a,), lambda: a.select(range(a.cols - 1, -1, -1), a.rows // 2)),
        ((basis, modulo, v), lambda: coordinates_modulo(basis, modulo, v)),
        ((basis, modulo, b), lambda: coordinates_modulo(basis, modulo, b)),
        ((raw_cols,), lambda: RationalMatrix.from_cols(raw_cols, a.rows)),
        ((raw_cols,), lambda: RationalMatrix.from_rows(raw_cols)),
        ((a,), lambda: a.solve(RationalMatrix.identity(a.rows))),
    ]
    for inputs, call in calls:
        before = [snapshot(x) for x in inputs]
        out = call()
        assert [snapshot(x) for x in inputs] == before
        if out is not None:
            assert all_fractions(out)


@FAST
@given(matrices())
def test_nonzero_columns_round_trip(m):
    cols, grid = m.nonzero_columns(), m.tolist()
    assert len(cols) == m.cols
    for j, entries in enumerate(cols):
        assert entries == [(i, grid[i][j]) for i in range(m.rows) if grid[i][j]]
    scattered = RationalMatrix.from_entries(
        m.rows, m.cols, [(i, j, x) for j, entries in enumerate(cols) for i, x in entries]
    )
    assert scattered == m
    assert all_fractions(scattered)


def test_from_entries_sums_repeated_positions():
    m = RationalMatrix.from_entries(2, 2, [(0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 3)),
                                           (1, 0, Fraction(-1)), (1, 0, Fraction(1))])
    assert m == M([[0, "5/6"], [0, 0]])
    assert RationalMatrix.from_entries(0, 3, []) == RationalMatrix.zeros(0, 3)


# -- subspace helpers against the dense references ------------------------------------


def dense_nullspace(rows, ncols):
    R, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -R[row_idx][f]
        basis.append(tuple(v))
    return basis


@st.composite
def spans_around(draw, img):
    """Columns that mix combinations of img's columns with arbitrary ones."""
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if img.cols and draw(st.booleans()):
            x = draw(st.lists(ENTRIES["dense"], min_size=img.cols, max_size=img.cols))
            cols.append(img.apply(x))
        else:
            cols.append(tuple(draw(st.lists(ENTRIES["dense"], min_size=img.rows,
                                            max_size=img.rows))))
    return RationalMatrix.from_cols(cols, img.rows)


@FAST
@given(matrices(), st.data())
def test_restrict_solves_or_reports_leaving(op, data):
    src = data.draw(st.none() | matrices(rows=op.cols))
    img = op if src is None else op @ src
    tgt = data.draw(st.none() | spans_around(img))
    x = restrict(op, src, tgt)
    if tgt is None:
        assert x == img
        return
    aug = tgt.hstack(img)
    leaves = dense_rank(aug.tolist(), aug.cols) > dense_rank(tgt.tolist(), tgt.cols)
    assert (x is None) == leaves
    if x is not None:
        assert (x.rows, x.cols) == (tgt.cols, img.cols)
        assert tgt @ x == img


@FAST
@given(st.integers(0, 6).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(matrices(cols=dim), max_size=3))))
def test_joint_kernel_matches_dense_nullspace(dim_ops):
    dim, ops = dim_ops
    k = joint_kernel(ops, dim)
    stacked = [row for op in ops for row in op.tolist()]
    if all(x == 0 for row in stacked for x in row):
        assert k is None
        return
    assert k == RationalMatrix.from_cols(dense_nullspace(stacked, dim), dim)


def test_restrict_edge_shapes():
    op = M([[1], [0]])
    assert restrict(op, None, RationalMatrix.zeros(2, 0)) is None
    assert restrict(op, RationalMatrix.zeros(1, 2), RationalMatrix.zeros(2, 0)) == \
        RationalMatrix.zeros(0, 2)
    assert restrict(RationalMatrix.zeros(2, 1), None, M([[1], [1]])) == RationalMatrix.zeros(1, 1)


def rref_solve(a, b):
    """The RREF path of ``solve``, kept as the reference: one RREF of [a | b], free variables 0."""
    R, pivots = a.hstack(b).rref()
    if pivots and pivots[-1] >= a.cols:
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for row, p in zip(R.tolist(), pivots):
        x[p] = row[a.cols:]
    return RationalMatrix(a.cols, b.cols, x)


@st.composite
def kernel_systems(draw):
    """(K, B): K a nullspace basis, B mixing columns in span(K) with arbitrary ones."""
    k = draw(matrices()).nullspace()
    entry = ENTRIES[draw(st.sampled_from(("sparse", "dense", "coprime")))]
    cols = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            cols.append(k.apply(draw(st.lists(entry, min_size=k.cols, max_size=k.cols))))
        else:
            cols.append(tuple(draw(st.lists(entry, min_size=k.rows, max_size=k.rows))))
    return k, RationalMatrix.from_cols(cols, k.rows)


@FAST
@given(kernel_systems())
@example((M([[1, 0], [0, 1]]).nullspace(), M([[1], [0]]))).via("no kernel, b outside")
@example((M([[1, 0], [0, 1]]).nullspace(), RationalMatrix.zeros(2, 3))).via("no kernel, b zero")
@example((M([[1, "1/3", "2/5"]]).nullspace(), M([["-1/3", "1/7"], [1, 0], [0, "1/2"]])))
def test_solve_on_a_kernel_basis_reads_coordinates_off(system):
    k, b = system
    want = rref_solve(k, b)
    with mock.patch.object(RationalMatrix, "rref", side_effect=AssertionError("RREF run")):
        got = k.solve(b)
    assert got == want
    outside = [v for v in columns(b)
               if dense_rank(k.hstack(column(v, k.rows)).tolist(), k.cols + 1) > k.cols]
    assert (got is None) == bool(outside)
    if got is not None:
        assert k @ got == b
        assert_well_formed(got)


# -- every kernel against a dense reference on the same grid ---------------------------


def dense_matmul(a, b, ncols):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(ncols)]
            for row in a]


def dense_inverse(rows):
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    R, pivots = dense_rref(aug, 2 * n)
    if pivots[:n] != tuple(range(n)):
        return None
    return [r[n:] for r in R]


def assert_well_formed(m):
    """Fractions everywhere, and no zero among the stored (nonzero) entries."""
    assert all_fractions(m)
    assert all(x != 0 and type(x) is Fraction for col in m.nonzero_columns() for _, x in col)
    assert m.is_zero() == (m == RationalMatrix.zeros(m.rows, m.cols))


@FAST
@given(matrices(), st.data())
def test_matmul_matches_dense(a, data):
    b = data.draw(matrices(rows=a.cols))
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.tolist() == dense_matmul(a.tolist(), b.tolist(), b.cols)
    assert_well_formed(got)


@FAST
@given(matrices(), st.data())
def test_sum_difference_and_scaling_match_dense(a, data):
    b = data.draw(matrices(a.rows, a.cols))
    c = data.draw(st.one_of(ENTRIES["dense"], ENTRIES["coprime"], st.just(Fraction(0))))
    ga, gb = a.tolist(), b.tolist()
    cases = [
        (a + b, [[x + y for x, y in zip(r, s)] for r, s in zip(ga, gb)]),
        (a - b, [[x - y for x, y in zip(r, s)] for r, s in zip(ga, gb)]),
        (a.scale(c), [[c * x for x in r] for r in ga]),
        (-a, [[-x for x in r] for r in ga]),
    ]
    for got, want in cases:
        assert got.tolist() == want
        assert_well_formed(got)


@FAST
@given(matrices(), st.data())
def test_stacks_match_dense(a, data):
    right = data.draw(matrices(rows=a.rows))
    below = data.draw(matrices(cols=a.cols))
    h, v = a.hstack(right), a.vstack(below)
    assert h.tolist() == [r + s for r, s in zip(a.tolist(), right.tolist())]
    assert v.tolist() == a.tolist() + below.tolist()
    assert (h.rows, h.cols, v.rows, v.cols) == (a.rows, a.cols + right.cols,
                                                 a.rows + below.rows, a.cols)
    assert_well_formed(h)
    assert_well_formed(v)


def dense_kron(a, b):
    """The Kronecker product of two dense grids, entry (i q + k, j c + l) = a[i][j] b[k][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


@FAST
@given(matrices(), st.integers(0, 3))
def test_kronecker_products_with_an_identity_match_dense(a, n):
    eye = RationalMatrix.identity(n).tolist()
    for got, want in ((a.kron_identity(n), dense_kron(a.tolist(), eye)),
                      (a.identity_kron(n), dense_kron(eye, a.tolist()))):
        assert (got.rows, got.cols) == (a.rows * n, a.cols * n)
        assert got.tolist() == want
        assert_well_formed(got)


@FAST
@given(st.integers(0, 5).flatmap(lambda n: matrices(n, n)))
def test_inverse_matches_dense(m):
    want = dense_inverse(m.tolist())
    inv = inverse(m)
    if want is None:
        assert inv is None
        return
    assert inv.tolist() == want
    assert_well_formed(inv)
    assert m @ inv == RationalMatrix.identity(m.rows) == inv @ m


@FAST
@given(matrices(), st.data())
def test_readers_match_the_dense_grid(m, data):
    grid = m.tolist()
    assert len(grid) == m.rows and all(len(r) == m.cols for r in grid)
    assert all_fractions(m)
    assert_well_formed(m)
    cols = data.draw(st.permutations(range(m.cols)))[: data.draw(st.integers(0, m.cols))]
    rows = data.draw(st.integers(0, m.rows))
    picked = m.select(cols, rows)
    assert picked.tolist() == [[r[j] for j in cols] for r in grid[:rows]]
    assert (picked.rows, picked.cols) == (rows, len(cols))
    assert_well_formed(picked)


def test_select_rejects_bad_indices():
    m = M([[1, 2], [3, 4]])
    assert m.select([]) == RationalMatrix.zeros(2, 0)
    assert m.select([1, 0], 0) == RationalMatrix.zeros(0, 2)
    for cols, rows in (([0, 0], None), ([2], None), ([-1], None), ([0], 3), ([0], -1)):
        with pytest.raises(ValueError):
            m.select(cols, rows)


# -- storage invariants: no stored zero, one value per matrix whatever the route ---------


def test_cancelling_entries_store_nothing():
    cancel = RationalMatrix.from_entries(
        2, 3, [(0, 1, Fraction(1, 999983)), (0, 1, Fraction(-1, 999983)),
               (1, 2, Fraction(0)), (1, 0, Fraction(2)), (1, 0, Fraction(-2))])
    assert cancel == RationalMatrix.zeros(2, 3)
    assert cancel.is_zero() and cancel.nonzero_columns() == [[], [], []]
    m = M([[1, "1/999983", 0], [0, -2, "3/1000003"]])
    for z in (m.scale(0), m - m, m + (-m), m @ RationalMatrix.zeros(3, 3)):
        assert z == RationalMatrix.zeros(2, 3)
        assert z.nonzero_columns() == [[], [], []]


@FAST
@given(matrices())
def test_equality_does_not_depend_on_the_route(m):
    grid, cols = m.tolist(), columns(m)
    routes = [
        RationalMatrix(m.rows, m.cols, grid),
        RationalMatrix(m.rows, m.cols, [[str(x) for x in r] for r in grid]),
        RationalMatrix.from_cols(cols, m.rows),
        RationalMatrix.from_entries(
            m.rows, m.cols, [(i, j, x) for j, col in enumerate(m.nonzero_columns())
                             for i, x in col]),
        RationalMatrix.from_entries(
            m.rows, m.cols, [(i, j, y) for i, r in enumerate(grid) for j, x in enumerate(r)
                             for y in (x, Fraction(1), Fraction(-1))]),
        m + RationalMatrix.zeros(m.rows, m.cols),
        m - m + m,
        m.scale(1),
        m.scale(Fraction(1, 999983)).scale(999983),
        RationalMatrix.identity(m.rows) @ m,
        m @ RationalMatrix.identity(m.cols),
        m.hstack(RationalMatrix.zeros(m.rows, 0)),
        m.vstack(RationalMatrix.zeros(0, m.cols)),
        m.select(range(m.cols)),
        m.hstack(m).select(range(m.cols, 2 * m.cols)),
    ]
    if m.rows:
        routes.append(RationalMatrix.from_rows(grid))
    for r in routes:
        assert r == m and m == r
        assert r.tolist() == grid
        assert_well_formed(r)
    other = M([[1]]) if (m.rows, m.cols) != (1, 1) else M([[grid[0][0] + 1]])
    assert m != other


def canonical(m) -> bool:
    """Whether m's storage is canonical, read through the public surface only.

    A grid of Fractions is stored over the lcm of each row's denominators,
    which is canonical, and ``==`` compares stored entries; so a matrix
    whose rows are not in lowest terms differs from its own rebuilt grid.
    """
    return m == RationalMatrix(m.rows, m.cols, m.tolist())


@FAST
@given(systems(), st.data())
def test_every_operation_stores_canonical_rows(system, data):
    a, b = system
    same = data.draw(matrices(a.rows, a.cols))
    right = data.draw(matrices(rows=a.cols))
    c = data.draw(st.sampled_from((2, -1, "1/3", Fraction(-5, 7), Fraction(6, 35))))
    split = data.draw(st.integers(0, a.cols))
    basis, modulo = a.select(range(split)), a.select(range(split, a.cols))
    outs = [
        a + same, a - same, a.scale(c), -a, a @ right, a.hstack(b), b.hstack(a), a.vstack(same),
        a.kron_identity(2), a.identity_kron(2), a.rref()[0], a.solve(b), a.nullspace(),
        a.select(range(a.cols - 1, -1, -1), a.rows // 2), coordinates_modulo(basis, modulo, b),
        a.solve(RationalMatrix.identity(a.rows)), joint_kernel([a, same], a.cols),
        RationalMatrix.from_entries(a.rows, a.cols, [
            (i, j, x * y) for j, col in enumerate(a.nonzero_columns()) for i, x in col
            for y in (Fraction(1, 3), Fraction(2, 3))]),
    ]
    for out in outs:
        assert out is None or canonical(out)
    assert a.pivots() == a.rref()[1] and a.rank() == len(a.pivots())


@st.composite
def block_layouts(draw):
    """A frame of 0 to 8 rows and columns and 0 to 4 parts placed in it; parts may overlap.

    A part is sometimes followed by its negation or a rescaling at an
    overlapping offset, so that sums cancel in part or in whole.
    """
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    parts = []
    for _ in range(draw(st.integers(0, 4))):
        m = draw(matrices(draw(st.integers(0, rows)), draw(st.integers(0, cols))))
        parts.append((draw(st.integers(0, rows - m.rows)), draw(st.integers(0, cols - m.cols)), m))
        twin = draw(st.sampled_from((None, -1, Fraction(-1, 2), 3)))
        if twin is not None:
            r0, c0, _ = parts[-1]
            parts.append((draw(st.integers(max(r0 - 1, 0), min(r0 + 1, rows - m.rows))),
                          draw(st.integers(max(c0 - 1, 0), min(c0 + 1, cols - m.cols))),
                          m.scale(twin)))
    return rows, cols, parts


@FAST
@given(block_layouts())
@example((3, 3, [(1, 1, M([["1/2", "1/3"], [0, 1]])), (1, 1, M([["-1/2", "-1/3"], [0, -1]]))]))
@example((2, 4, [(0, 0, M([["1/6", 1]])), (0, 1, M([["1/10", "1/15"]])), (1, 2, M([["2/4"]]))]))
def test_from_blocks_matches_dense_sum(layout):
    rows, cols, parts = layout
    want = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, m in parts:
        for i, r in enumerate(m.tolist()):
            for j, x in enumerate(r):
                want[r0 + i][c0 + j] += x
    got = RationalMatrix.from_blocks(rows, cols, parts)
    assert (got.rows, got.cols) == (rows, cols)
    assert got.tolist() == want
    assert canonical(got)
    assert_well_formed(got)


@FAST
@given(block_layouts(), st.data())
@example((3, 4, [(0, 0, M([[0, 0], ["1/3", 0]])), (1, 1, M([["1/2", 1], [0, 0]])),
                 (1, 0, M([["-1/3", 2]]))]), None)
def test_a_plain_part_stores_the_rows_of_its_kronecker_form(layout, data):
    # a plain part (r0, c0, m) is the Kronecker part (r0, c0, m, 1, 1)
    rows, cols, parts = layout
    plain = parts if data is None else [
        part if data.draw(st.booleans()) else part + (1, 1) for part in parts]
    got = RationalMatrix.from_blocks(rows, cols, plain)
    assert got == RationalMatrix.from_blocks(rows, cols, [part + (1, 1) for part in parts])
    assert canonical(got)  # and ``==`` compares stored rows


def test_from_blocks_rejects_a_part_outside_the_frame():
    m = M([[1, 2], [3, 4]])
    assert RationalMatrix.from_blocks(2, 2, [(0, 0, m)]) == m
    assert RationalMatrix.from_blocks(0, 0, []) == RationalMatrix.zeros(0, 0)
    for r0, c0 in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            RationalMatrix.from_blocks(2, 2, [(r0, c0, m)])


# -- the loops that ``from_blocks`` and ``@`` replaced ---------------------------------
# ``a + b`` merged rows by hand, ``from_blocks`` fed a plain part's rows straight
# in, and ``apply`` summed Fraction products row by row.  Each loop is kept here
# as it ran, on the (numerators, denominator) rows that ratmat stores.


def stored_rows(m):
    """m's rows as ratmat stores them, read through the public surface."""
    return [ratmat._row_in(r) for r in m.tolist()]


def reference_add(a, b):
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")
    out = []
    for (r1, d1), (r2, d2) in zip(stored_rows(a), stored_rows(b)):
        if not (r1 and r2):
            out.append((r1, d1) if r1 else (r2, d2))
            continue
        den = math.lcm(d1, d2)
        r, s2 = ratmat._scaled(r1, den // d1), den // d2
        for j, y in r2.items():
            v = r.pop(j, 0) + s2 * y
            if v:
                r[j] = v
        out.append(ratmat._lowest(r, den))
    return out


def reference_from_blocks(rows, cols, parts):
    fed = [[] for _ in range(rows)]
    for part in parts:
        plain = len(part) == 3
        if plain:
            r0, c0, m = part
            p = q = 1
        else:
            r0, c0, m, p, q = part
        h, w = p * q * m.rows, p * q * m.cols
        if not (0 <= r0 <= rows - h and 0 <= c0 <= cols - w):
            raise ValueError(f"a {h}x{w} block at ({r0}, {c0}) leaves a {rows}x{cols} matrix")
        if plain:  # m's rows go straight in
            for i, (r, d) in enumerate(stored_rows(m), r0):
                if r:
                    fed[i].append((c0, 1, r, d))
            continue
        for a, b in itertools.product(range(p), range(q)):  # the p q copies of m
            i0, j0 = r0 + a * m.rows * q + b, c0 + a * m.cols * q + b
            for i, (r, d) in enumerate(stored_rows(m)):
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
            acc = {}
            for c0, q, r, d in row:
                s = den // d
                for j, x in r.items():
                    j = c0 + q * j
                    acc[j] = acc.get(j, 0) + (s * x if s != 1 else x)
            out.append(ratmat._lowest({j: x for j, x in acc.items() if x}, den))
    return out


def reference_apply(m, v):
    v = tuple(ratmat.frac(x) for x in v)
    if len(v) != m.cols:
        raise ValueError("vector length mismatch")
    nonzero = {j: x for j, x in enumerate(v) if x}
    return tuple(
        sum((a * nonzero[j] for j, a in r.items() if j in nonzero), Fraction(0)) / d
        for r, d in stored_rows(m)
    )


def agrees(got, rows, cols, want_rows) -> bool:
    """got has the shape rows x cols and stores exactly the rows want_rows."""
    return (got.rows, got.cols) == (rows, cols) and canonical(got) and (
        stored_rows(got) == want_rows)


@st.composite
def kronecker_layouts(draw):
    """A ``block_layouts`` frame plus up to two parts (r0, c0, m, p, q), p, q in 1..2.

    A Kronecker part is sometimes followed by its negation at the same
    place, so that its rows cancel to empty.
    """
    rows, cols, parts = draw(block_layouts())
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        m = draw(matrices(draw(st.integers(0, rows // (p * q))),
                          draw(st.integers(0, cols // (p * q)))))
        r0 = draw(st.integers(0, rows - p * q * m.rows))
        c0 = draw(st.integers(0, cols - p * q * m.cols))
        parts.append((r0, c0, m, p, q))
        if draw(st.booleans()):
            parts.append((r0, c0, -m, p, q))
    return rows, cols, draw(st.permutations(parts))


@FAST
@given(kronecker_layouts(), st.data())
@example((3, 4, [(0, 0, M([[0, 0], ["1/3", 0]])), (1, 1, M([["1/2", 1], [0, 0]])),
                 (1, 0, M([["-1/3", 2]]), 1, 1), (1, 0, M([["1/6", "-1/4"]]), 1, 2)]), None)
def test_sums_blocks_and_apply_match_the_loops_they_replaced(layout, data):
    rows, cols, parts = layout
    got = RationalMatrix.from_blocks(rows, cols, parts)
    assert agrees(got, rows, cols, reference_from_blocks(rows, cols, parts))
    if data is None:
        return
    a = data.draw(matrices())
    b = data.draw(st.one_of(
        matrices(a.rows, a.cols),
        st.just(-a),  # every row cancels to empty
        st.lists(st.booleans(), min_size=a.rows, max_size=a.rows).map(lambda keep: M(
            [[-x for x in r] if k else [0] * a.cols for r, k in zip(a.tolist(), keep)])
            if a.rows else RationalMatrix.zeros(0, a.cols)),
    ))
    assert agrees(a + b, a.rows, a.cols, reference_add(a, b))
    v = data.draw(st.lists(st.one_of(ENTRIES["dense"], ENTRIES["coprime"], st.integers(-3, 3)),
                           min_size=a.cols, max_size=a.cols))
    got_v = a.apply(v)
    assert got_v == reference_apply(a, v) and all(type(x) is Fraction for x in got_v)


def test_the_replaced_loops_raise_as_their_replacements_do():
    m = M([[1, 2], [3, 4]])
    for parts in ([(1, 0, m)], [(0, 1, m)], [(-1, 0, m)], [(0, -1, m)], [(0, 0, m, 1, 2)]):
        for build in (RationalMatrix.from_blocks, reference_from_blocks):
            with pytest.raises(ValueError, match="block at"):
                build(2, 2, parts)
    for other in (M([[1, 2]]), M([[1], [2]])):
        for add in (lambda a, b: a + b, reference_add):
            with pytest.raises(ValueError, match="shape mismatch"):
                add(m, other)
    for apply in (RationalMatrix.apply, reference_apply):
        with pytest.raises(ValueError, match="vector length mismatch"):
            apply(m, [1, 2, 3])
        with pytest.raises(TypeError):
            apply(m, [0.5, 1])


def test_a_row_in_lowest_terms_is_told_from_one_that_is_not():
    half = M([["1/2", "1/4"]])
    assert canonical(half) and half.scale(2) == M([[1, "1/2"]]) and canonical(half.scale(2))
    assert half + half == M([[1, "1/2"]]) and canonical(half + half)
    assert (half @ M([[2], [0]])) == M([[1]]) and canonical(half @ M([[2], [0]]))
    assert canonical(M([["2/3", "4/3"]]).select([1]))


@FAST
@given(matrices())
def test_int_rational_string_and_fraction_grids_agree(m):
    grid = m.tolist()
    scale = math.lcm(*(x.denominator for r in grid for x in r))
    ints = [[int(x * scale) for x in r] for r in grid]
    strings = [[f"{x.numerator * 3}/{x.denominator * 3}" for x in r] for r in grid]
    fractions = [[Fraction(x, scale) for x in r] for r in ints]
    assert RationalMatrix(m.rows, m.cols, strings) == m
    assert RationalMatrix(m.rows, m.cols, fractions) == m
    assert RationalMatrix(m.rows, m.cols, ints) == m.scale(scale)
    assert RationalMatrix(m.rows, m.cols, [[Fraction(x) for x in r] for r in ints]) == m.scale(scale)


def test_pivots_are_the_rref_pivots_without_back_substitution():
    m = M([[0, 2, 4, 1], [0, 1, 2, 0], [0, 0, 0, 3]])
    assert m.pivots() == (1, 3) == m.rref()[1] and m.rank() == 2
    assert M([[0, 0]]).pivots() == () and RationalMatrix.zeros(0, 3).pivots() == ()
