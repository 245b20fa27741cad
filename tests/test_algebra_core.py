import random

import pytest
from hypothesis import given, settings, strategies as st

from foliacoh.algebra_core import (
    CochainComplex,
    GradedVectorSpace,
    ShortExactSequence,
    cocycle_representatives,
    cohomology_dims,
    LESReport,
    check_ses,
    les_exactness_check,
    verify_complex,
)
from foliacoh.ratmat import RationalMatrix, coordinates_modulo, rank_of_columns

from conftest import columns, random_complex, random_cone_ses, random_split_ses


def complex_from(dims, diffs, top=None):
    top = max(dims) if top is None else top
    space = GradedVectorSpace(
        {n: d for n, d in dims.items() if d}, window=(0, top)
    )
    return CochainComplex(
        space, {n: RationalMatrix.from_rows(m) for n, m in diffs.items()}
    )


def s3_model_complex():
    # basis 1, theta, omega, theta*omega with d(theta) = omega
    return complex_from({0: 1, 1: 1, 2: 1, 3: 1}, {1: [[1]]})


def test_verify_zero_differentials():
    c = complex_from({0: 1, 1: 2, 2: 1}, {})
    assert verify_complex(c).ok


def test_verify_identity_top():
    c = complex_from({0: 1, 1: 1}, {0: [[1]]})
    assert verify_complex(c).ok


def test_verify_failure_witness():
    c = complex_from({0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    rep = verify_complex(c)
    assert not rep.ok
    assert rep.failing_degree == 0
    assert rep.witness_label == "e0_0"


def test_cohomology_zero_differentials():
    c = complex_from({0: 1, 1: 2, 2: 1}, {})
    h = cohomology_dims(c)
    assert h.dims_tuple(2) == (1, 2, 1)


def test_cohomology_exact_two_term():
    c = complex_from({0: 1, 1: 1}, {0: [[1]]})
    h = cohomology_dims(c)
    assert h.dims_tuple(1) == (0, 0)


def test_cohomology_s3_model():
    h = cohomology_dims(s3_model_complex())
    assert h.dims_tuple(3) == (1, 0, 0, 1)


def representatives(c):
    """cocycle_representatives of every degree of c's window."""
    return {n: cocycle_representatives(c.diff(n), c.diff(n - 1)) for n in c.spaces.degrees()}


def test_representatives_are_cocycles_and_independent(rng):
    for _ in range(20):
        c = random_complex(rng)
        h = cohomology_dims(c)
        reps_by_degree = representatives(c)
        assert sorted(reps_by_degree) == list(c.spaces.degrees())
        for n, reps in reps_by_degree.items():
            assert (reps.rows, reps.cols) == (c.spaces.dim(n), h.dim(n))
            d = c.diff(n)
            for v in columns(reps):
                assert all(x == 0 for x in d.apply(v))
            image = c.diff(n - 1)
            both = image.hstack(reps)
            assert rank_of_columns(both, range(both.cols)) == \
                rank_of_columns(image, range(image.cols)) + reps.cols


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 5), st.integers(0, 8))
def test_rank_dims_equal_representative_counts(seed, top, max_dim):
    c = random_complex(random.Random(seed), top, max_dim)
    h = cohomology_dims(c)
    assert h.dims == {n: reps.cols for n, reps in representatives(c).items() if reps.cols}


def test_euler_characteristic_preserved_on_random_complexes(rng):
    for _ in range(100):
        c = random_complex(rng)
        h = cohomology_dims(c)
        chi_c = sum((-1) ** n * d for n, d in c.spaces.dims.items())
        chi_h = sum((-1) ** n * d for n, d in h.dims.items())
        assert chi_c == chi_h


# -- the long exact sequence on class coordinates, the reference for the rank path --------


def reduce_to_classes(c, reps, n, v):
    """Coordinates of the degree-n cocycles in v's columns w.r.t. the representatives reps."""
    return coordinates_modulo(reps, c.diff(n - 1), v)


def _induced_map(src_reps, dst, dst_reps, m, n):
    coords = reduce_to_classes(dst, dst_reps, n, m @ src_reps)
    if coords is None:
        raise ValueError(f"induced map image is not a cocycle class at degree {n}")
    return coords


def reference_les_exactness_check(ses) -> LESReport:
    """``les_exactness_check`` through the induced maps on class coordinates."""
    err = check_ses(ses)
    if err is not None:
        return LESReport(ok=False, input_error=err, message=f"not an SES: {err}")
    a, b, c = ses.sub, ses.total, ses.quotient
    ra, rb, rc = representatives(a), representatives(b), representatives(c)
    lo, hi = a.spaces.window

    f_star = {n: _induced_map(ra[n], b, rb[n], ses.incl(n), n) for n in range(lo, hi + 1)}
    g_star = {n: _induced_map(rb[n], c, rc[n], ses.proj(n), n) for n in range(lo, hi + 1)}

    delta: dict[int, RationalMatrix] = {}
    for n in range(lo, hi):
        lifts = ses.proj(n).solve(rc[n])
        if lifts is None:
            raise AssertionError("surjectivity was already checked")
        pre = ses.incl(n + 1).solve(b.diff(n) @ lifts)
        if pre is None:
            return LESReport(
                ok=False,
                failing_degree=n,
                failing_node="connecting",
                message=f"zig-zag failed at degree {n}: d(lift) not in the subcomplex",
            )
        coords = reduce_to_classes(a, ra[n + 1], n + 1, pre)
        if coords is None:
            return LESReport(
                ok=False,
                failing_degree=n,
                failing_node="connecting",
                message=f"connecting image is not a cocycle class at degree {n}",
            )
        delta[n] = coords

    for n in range(lo, hi + 1):
        incoming = delta.get(n - 1, RationalMatrix.zeros(ra[n].cols, 0))
        if not (f_star[n] @ incoming).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(sub)",
                             message=f"f* o delta != 0 at degree {n}")
        if ra[n].cols - f_star[n].rank() != incoming.rank():
            return LESReport(False, failing_degree=n, failing_node="H(sub)",
                             message=f"exactness fails at H^{n}(sub)")
        if not (g_star[n] @ f_star[n]).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(total)",
                             message=f"g* o f* != 0 at degree {n}")
        if rb[n].cols - g_star[n].rank() != f_star[n].rank():
            return LESReport(False, failing_degree=n, failing_node="H(total)",
                             message=f"exactness fails at H^{n}(total)")
        out = delta.get(n, RationalMatrix.zeros(0, rc[n].cols))
        if out.cols and not (out @ g_star[n]).is_zero():
            return LESReport(False, failing_degree=n, failing_node="H(quotient)",
                             message=f"delta o g* != 0 at degree {n}")
        if rc[n].cols - out.rank() != g_star[n].rank():
            return LESReport(False, failing_degree=n, failing_node="H(quotient)",
                             message=f"exactness fails at H^{n}(quotient)")
    return LESReport(
        ok=True,
        connecting_ranks={n: delta[n].rank() for n in delta},
        message="long exact sequence is exact on the window",
    )


# messages of the reference that the rank path no longer has: once ``check_ses``
# passes, the induced maps are cocycle classes and the composites vanish
DELETED_BRANCHES = ("f* o delta != 0", "g* o f* != 0", "delta o g* != 0",
                    "connecting image is not a cocycle class")


def mutated(ses, rng):
    """ses with one map changed: one entry shifted by -2..2, or every degree scaled."""
    maps = dict(inclusion=dict(ses.inclusion), projection=dict(ses.projection))
    which = maps[rng.choice(sorted(maps))]
    lo, hi = ses.sub.spaces.window
    if rng.random() < 0.5:
        c = rng.choice([-2, -1, 2, 3])
        which.update({n: which[n].scale(c) for n in which})
    else:
        n = rng.randint(lo, hi)
        m = ses.incl(n) if which is maps["inclusion"] else ses.proj(n)
        if m.rows and m.cols:
            at = (rng.randrange(m.rows), rng.randrange(m.cols), rng.randint(-2, 2))
            which[n] = m + RationalMatrix.from_entries(m.rows, m.cols, [at])
    return ses._replace(**maps)


FAMILIES = {"split": random_split_ses, "cone": random_cone_ses}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.booleans(), st.integers(0, 2**32))
def test_les_ranks_match_the_class_path(family, mutate, seed):
    rng = random.Random(seed)
    ses = FAMILIES[family](rng)
    if mutate:
        ses = mutated(ses, rng)
    want = reference_les_exactness_check(ses)
    assert les_exactness_check(ses) == want
    # past ``check_ses`` the reference is exact and never reaches a deleted branch
    assert want.ok == (want.input_error is None), want.message
    assert not want.message.startswith(DELETED_BRANCHES)


def test_cone_ses_connecting_maps_are_the_identity(rng):
    nonzero = 0
    for _ in range(30):
        ses = random_cone_ses(rng)
        h = cohomology_dims(ses.sub)
        rep = les_exactness_check(ses)
        assert rep.ok, rep.message
        assert rep.connecting_ranks == {n: h.dim(n + 1) for n in range(3)}
        nonzero += any(rep.connecting_ranks.values())
    assert nonzero > 20


def test_reduce_to_classes_identifies_coboundaries():
    c = s3_model_complex()
    reps = representatives(c)
    # omega = d(theta) is a coboundary: class is zero
    one, two = RationalMatrix.from_rows([[1]]), RationalMatrix.from_rows([[2]])
    assert reduce_to_classes(c, reps[2], 2, one) == RationalMatrix.zeros(0, 1)
    assert reduce_to_classes(c, reps[3], 3, two) == two


def test_les_split_ses_of_s3_model():
    full = s3_model_complex()
    sub = complex_from({2: 1, 3: 1}, {}, top=3)
    quot = complex_from({0: 1, 1: 1}, {}, top=3)
    one = RationalMatrix.from_rows([[1]])
    ses = ShortExactSequence(
        sub, full, quot, {2: one, 3: one}, {0: one, 1: one}
    )
    rep = les_exactness_check(ses)
    assert rep.ok
    assert rep.connecting_ranks[1] == 1  # H^1(quotient) -> H^2(sub)


def test_les_identity_ses():
    a = s3_model_complex()
    zero = complex_from({}, {}, top=3)
    eye = {n: RationalMatrix.identity(a.spaces.dim(n)) for n in range(4)}
    zeros = {n: RationalMatrix.zeros(0, a.spaces.dim(n)) for n in range(4)}
    ses = ShortExactSequence(a, a, zero, eye, zeros)
    assert les_exactness_check(ses).ok


def test_les_rejects_non_ses():
    line = complex_from({0: 1}, {}, top=0)
    two = complex_from({0: 2}, {}, top=0)
    bad = ShortExactSequence(
        line, two, line,
        {0: RationalMatrix.from_cols([(1, 0)], 2)},
        {0: RationalMatrix.from_rows([[1, 0]])},
    )
    rep = les_exactness_check(bad)
    assert not rep.ok
    assert rep.input_error is not None


def test_les_random_split_ses(rng):
    for _ in range(100):
        ses = random_split_ses(rng)
        rep = les_exactness_check(ses)
        assert rep.ok, rep.message


def test_dimension_mismatch_errors():
    space = GradedVectorSpace({0: 1, 1: 2}, window=(0, 1))
    with pytest.raises(Exception):
        CochainComplex(space, {0: RationalMatrix.from_rows([[1]])}).check_shapes()
