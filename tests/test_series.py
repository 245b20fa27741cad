from hypothesis import given, strategies as st

from foliacoh.series import (
    MorseGapResult,
    PoincarePolynomial,
    PoincareSeriesRational,
    divide_by_one_minus_tk,
    euler_at_minus_one,
    morse_gap,
    times_one_minus_t2_power,
)


def poly(*coeffs):
    return PoincarePolynomial(coeffs)


def series(coeffs, k):
    return PoincareSeriesRational(PoincarePolynomial(coeffs), k)


def test_series_addition_canonical():
    # (1+t^2)/(1-t^2) + (1-t^2)/(1-t^2) = 2/(1-t^2)
    a = series([1, 0, 1], 1)
    b = series([1, 0, -1], 1)
    c = a + b
    assert c.numerator.coeffs == (2,) and c.den_exp == 1


def test_expand_shift():
    s = series([0, 0, 1], 1)  # t^2/(1-t^2)
    assert s.expand(8) == (0, 0, 1, 0, 1, 0, 1, 0, 1)


def test_expand_long_division():
    # (1+t+t^2+t^3)/(1-t^2) = (1+t^2)/(1-t): every degree >= 2 sees exactly
    # two numerator terms of matching parity
    s = series([1, 1, 1, 1], 1)
    assert s.expand(7) == (1, 1, 2, 2, 2, 2, 2, 2)


def test_canonical_form_idempotent():
    # (1-t^4)/(1-t^2)^2 reduces to (1+t^2)/(1-t^2)
    s = series([1, 0, 0, 0, -1], 2)
    assert s.numerator.coeffs == (1, 0, 1) and s.den_exp == 1
    again = PoincareSeriesRational(s.numerator, s.den_exp)
    assert again == s


@given(
    st.lists(st.integers(-5, 5), max_size=6),
    st.lists(st.integers(-5, 5), max_size=6),
    st.integers(0, 3),
    st.integers(0, 3),
)
def test_product_expansion_is_cauchy_product(a, b, ka, kb):
    sa = series(a, ka)
    sb = series(b, kb)
    n = 12
    ea, eb = sa.expand(n), sb.expand(n)
    cauchy = tuple(
        sum(ea[i] * eb[m - i] for i in range(m + 1)) for m in range(n + 1)
    )
    assert (sa * sb).expand(n) == cauchy


def test_morse_gap_perfect():
    r = morse_gap(series([1, 0, 1], 0), series([1, 0, 1], 0), 8)
    assert r.ok and r.quotient.is_zero()


def test_morse_gap_quotient():
    # M - P = (1+t) t^2
    r = morse_gap(series([1, 0, 1, 1], 0), series([1], 0), 8)
    assert r.ok and r.quotient.coeffs == (0, 0, 1)


def test_morse_gap_violations():
    # negative difference
    r = morse_gap(series([1], 0), series([1, 1], 0), 8)
    assert not r.ok and r.violation_degree == 1
    # M - P = t: quotient t - t^2 + ... goes negative at degree 2
    r2 = morse_gap(series([1, 1], 0), series([1], 0), 8)
    assert not r2.ok and r2.violation_degree == 2
    # M - P = t^2: not divisible either
    r3 = morse_gap(series([1, 0, 1], 0), series([1], 0), 8)
    assert not r3.ok


@given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 4), max_size=5))
def test_morse_gap_roundtrip(p, q):
    # M = P + (1+t) Q with Q >= 0 must always come back with gap ok
    P = PoincarePolynomial(p)
    Q = PoincarePolynomial(q)
    M = P + Q * PoincarePolynomial((1, 1))
    n = max(M.degree(), 0) + 3
    r = morse_gap(
        PoincareSeriesRational(M, 0), PoincareSeriesRational(P, 0), n
    )
    assert r.ok
    assert r.quotient == Q


def test_euler_at_minus_one():
    assert euler_at_minus_one(poly(1, 0, 1)) == 2
    assert euler_at_minus_one(poly(1, 0, 2, 0, 1)) == 4
    assert euler_at_minus_one(poly(1, 1)) == 0


@given(st.lists(st.integers(-4, 4), max_size=6), st.lists(st.integers(-4, 4), max_size=6),
       st.integers(1, 3))
def test_divide_by_one_minus_tk_is_exact_division(q, p, k):
    one_minus_tk = poly(*((1,) + (0,) * (k - 1) + (-1,)))
    q = poly(*q)
    assert divide_by_one_minus_tk(q * one_minus_tk, k) == q
    p = poly(*p)
    got = divide_by_one_minus_tk(p, k)
    assert got is None or got * one_minus_tk == p
    if k == 1 and not p.is_zero():
        assert (got is None) == (p.evaluate(1) != 0)


@given(st.lists(st.integers(-4, 4), max_size=6), st.integers(0, 12))
def test_times_one_minus_t2_power_is_repeated_multiplication(coeffs, k):
    p = poly(*coeffs)
    want = p
    for _ in range(k):
        want = want * poly(1, 0, -1)
    assert times_one_minus_t2_power(p, k) == want
