import random

import pytest
from hypothesis import given, settings, strategies as st

from foliacoh.algebra_core import (
    CochainComplex,
    GradedVectorSpace,
    ShortExactSequence,
    cocycle_representatives,
    cohomology_dims,
    les_exactness_check,
    reduce_to_classes,
    verify_complex,
)
from foliacoh.ratmat import RationalMatrix, rank_of_columns

from conftest import columns, random_complex, random_split_ses


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
