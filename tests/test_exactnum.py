from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from thueq.exactnum import (
    GRID_BITS,
    ComplexBall,
    DomainError,
    IndeterminateBallError,
    RatInterval,
    iroot,
    kappa,
    ln_enclosure,
    pow_cmp,
    round_down_grid,
    round_down_sig,
    round_nearest_sig,
    round_up_grid,
    round_up_sig,
    sig_str,
    sqrt_lower,
    sqrt_upper,
)

rationals = st.fractions(
    min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6
)
positive_rationals = st.fractions(
    min_value=F(1, 10**6), max_value=F(10**6), max_denominator=10**6
)


@given(rationals)
def test_grid_rounding_brackets(x):
    lo, hi = round_down_grid(x), round_up_grid(x)
    assert lo <= x <= hi
    assert hi - lo <= F(2, 2**GRID_BITS)
    assert (lo * 2**GRID_BITS).denominator == 1
    assert (hi * 2**GRID_BITS).denominator == 1


def test_grid_rounding_exact_on_grid():
    x = F(3, 2**10)
    assert round_down_grid(x) == x == round_up_grid(x)


def test_sig_rounding():
    assert round_up_sig(F(1, 3)) == F("0.3334")
    assert round_down_sig(F(1, 3)) == F("0.3333")
    assert round_nearest_sig(F(12345)) in (F(12340), F(12350))
    assert round_up_sig(F(0)) == 0


@given(positive_rationals)
def test_sig_rounding_brackets(x):
    assert round_down_sig(x) <= x <= round_up_sig(x)


def test_sig_str():
    assert sig_str(F(1, 3)) == "0.3333"
    assert sig_str(F(-12345, 10)) == "-1235"
    assert sig_str(F(0)) == "0"


@given(positive_rationals)
def test_sqrt_bounds(q):
    lo, hi = sqrt_lower(q), sqrt_upper(q)
    assert 0 <= lo <= hi
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= F(2, 2**100)


def test_sqrt_exact():
    assert sqrt_lower(F(4)) == 2 == sqrt_upper(F(4))
    assert sqrt_lower(F(0)) == 0 == sqrt_upper(F(0))


def test_interval_arithmetic():
    a = RatInterval(F(1), F(2))
    b = RatInterval(F(3), F(5))
    s = a + b
    assert (s.lo, s.hi) == (4, 7)
    assert a.shift(F(10)).lo == 11
    assert a.scale(F(-2)).lo == -4 and a.scale(F(-2)).hi == -2
    q = a.div_pos(b)
    assert q.lo == F(1, 5) and q.hi == F(2, 3)
    assert a.contains(F(3, 2)) and not a.contains(F(3))
    with pytest.raises(ValueError):
        RatInterval(F(2), F(1))


def test_ln_enclosure_known_values():
    w = F(1, 10**7)
    ln100 = ln_enclosure(F(100), w)
    assert F("4.60517") < ln100.lo and ln100.hi < F("4.60518")
    assert ln100.hi - ln100.lo <= w
    ln2 = ln_enclosure(F(2), w)
    assert F("0.693147") < ln2.lo and ln2.hi < F("0.693148")
    assert ln_enclosure(F(1), w).contains(F(0))


def test_ln_enclosure_reciprocal_symmetry():
    w = F(1, 10**6)
    a = ln_enclosure(F(3), w)
    b = ln_enclosure(F(1, 3), w)
    assert a.lo + b.lo <= 0 <= a.hi + b.hi


def test_kappa_enclosure():
    k = kappa(F(100), F(1, 10**7))
    assert F("2.82118") < k.lo <= k.hi < F("2.82119")


def test_pow_cmp():
    assert pow_cmp(F(2), 2, F(3), 3) == -1  # 2^(1/2) < 3^(1/3): 8 < 9
    assert pow_cmp(F(4), 1, F(2), 2) == 1  # 4 > sqrt(2)
    assert pow_cmp(F(4), 2, F(2), 1) == 0  # 4^(1/2) = 2
    assert pow_cmp(F(9), 1, F(2), 3) == 1


def test_complex_ball_arithmetic():
    z = ComplexBall.exact(F(3), F(4))
    lo, hi = z.abs_bounds()
    assert lo == 5 == hi
    w = z * z.inverse()
    one_lo, one_hi = w.abs_bounds()
    assert one_lo <= 1 <= one_hi
    assert (w - ComplexBall.exact(F(1))).contains_zero()
    s = z + (-z)
    assert s.contains_zero()
    d = z - z
    assert d.contains_zero()


def test_complex_ball_inverse_through_zero():
    z = ComplexBall(F(0), F(0), F(1, 2))
    with pytest.raises(IndeterminateBallError):
        z.inverse()


def test_complex_ball_nth_root():
    z = ComplexBall.exact(F(16))
    r = z.nth_root(4)
    assert (r - ComplexBall.exact(F(2))).contains_zero()
    lo, hi = r.abs_bounds()
    assert lo <= 2 <= hi


@given(rationals, rationals, rationals, rationals)
def test_complex_ball_product_contains_exact(a, b, c, d):
    z = ComplexBall.exact(a, b) * ComplexBall.exact(c, d)
    exact = ComplexBall.exact(a * c - b * d, a * d + b * c)
    assert (z - exact).contains_zero()


@given(st.integers(min_value=0, max_value=2 ** 4096 - 1), st.integers(min_value=1, max_value=12))
def test_iroot_is_the_floor_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_iroot_edges():
    assert [iroot(n, 2) for n in range(10)] == [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    assert iroot(2 ** 300, 3) == 2 ** 100 and iroot(2 ** 300 - 1, 3) == 2 ** 100 - 1
    with pytest.raises(DomainError):
        iroot(-1, 2)
    with pytest.raises(DomainError):
        iroot(5, 0)
