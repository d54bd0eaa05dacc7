import math
from fractions import Fraction as F

import pytest
from oracles import (LETTL_NAMES, chi_coeffs_oracle, cleared_chi_oracle, compose_1_minus_8x,
                     gamma_ratio_g1, gamma_ratio_g2, verify_lettl_oracle)

from thueq import hyperchi
from thueq.exactnum import ChainError
from thueq.hyperchi import chi_coeffs, chi_ints, denom_data, verify_lettl

# ---------------------------------------------------------------------------
# oracles: an independent prime-by-prime (delta, N), and the hypergeometric
# ODE residual; the Fraction composition is tests/oracles.py's


def denom_data_by_valuation(r: int) -> tuple[int, int]:
    """Independent (delta, N) computation prime by prime.

    Candidate primes come from factoring one denominator lcm (for delta)
    and one coefficient gcd (for N); the per-prime valuations are then
    recomputed coefficient by coefficient.
    """
    cs = chi_coeffs_oracle(r)
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    delta = 1
    for p in _trial_factor(den_lcm):
        e = max(_val(c.denominator, p) for c in cs)
        delta *= p ** e
    shifted = [c * delta for c in compose_1_minus_8x(cs)]
    ints = [abs(c.numerator) for c in shifted if c != 0]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    n = 1
    for p in _trial_factor(g):
        e = min(_val(v, p) for v in ints)
        n *= p ** e
    return delta, n


def _trial_factor(n: int) -> list:
    """Distinct prime factors by trial division (a leftover cofactor above
    the trial bound is itself prime for the sizes arising here)."""
    out = []
    for p in range(2, 1 + math.isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _val(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def chi_ode_residual(r: int) -> list:
    """Coefficients of X(1-X) y'' + (3/4 - (a+b+1)X) y' - a b y for y = chi_r;
    identically zero when the terminating sum is transcribed correctly."""
    a = F(-r)
    b = F(-4 * r - 1, 4)
    c = F(3, 4)
    y = list(chi_coeffs(r))
    d1 = [k * y[k] for k in range(1, len(y))] or [F(0)]
    d2 = [k * d1[k] for k in range(1, len(d1))] or [F(0)]
    n = len(y) + 2
    # X(1-X)y'' = X y'' - X^2 y'': shift y'' coefficients up by one and two
    res = [F(0)] * n
    for k, v in enumerate(d2):
        res[k + 1] += v
        res[k + 2] -= v
    for k, v in enumerate(d1):
        res[k] += c * v
        res[k + 1] -= (a + b + 1) * v
    for k, v in enumerate(y):
        res[k] -= a * b * v
    return res

# ---------------------------------------------------------------------------


def test_chi_small_cases():
    assert chi_coeffs(1) == (F(1), F(5, 3))
    assert chi_coeffs(2) == (F(1), F(6), F(15, 7))


def test_chi_ode_residual_vanishes():
    for r in range(1, 8):
        assert all(v == 0 for v in chi_ode_residual(r))


def test_denominator_data_small():
    assert denom_data(1) == (3, 8)
    assert cleared_chi_oracle(1)[2] == (1, -5)
    assert denom_data(2) == (7, 64)
    assert cleared_chi_oracle(2)[2] == (1, -9, 15)


def test_cleared_polynomial_is_integral():
    for r in range(1, 15):
        dd = denom_data(r)
        coeffs = chi_coeffs(r)
        # delta clears every denominator of chi's coefficients
        for c in coeffs:
            assert (dd.delta * c).denominator == 1
        # and (delta/N) chi_r(1 - 8X) is integral
        assert all((c * dd.delta / dd.n).denominator == 1 for c in compose_1_minus_8x(coeffs))


def test_integer_denom_data_matches_the_fraction_composition():
    for r in range(1, 61):
        delta, n, cleared = cleared_chi_oracle(r)
        assert tuple(denom_data(r)) == (delta, n), r
        assert all(c.denominator == 1 for c in cleared), r
        assert math.gcd(*(c.numerator for c in cleared)) == 1, r


def test_eight_to_the_r_is_the_gcd_of_delta_chi_at_1_minus_8x():
    # denom_data's N_r = 8^r rests on a valuation proof; the composition over
    # Z checks it: 8^r divides every coefficient c_k, is their gcd, and is the
    # whole 2-part of c_0
    for r in range(1, 301):
        nums, delta = chi_ints(r)
        cs = compose_1_minus_8x(nums)
        n = denom_data(r).n
        assert delta % 2 == 1, r
        assert all(c % n == 0 for c in cs), r
        assert math.gcd(*cs) == n, r
        assert (cs[0] & -cs[0]).bit_length() - 1 == 3 * r, r


def test_lettl_rows_with_the_composition_gcd_are_the_same(monkeypatch, lettl_lines):
    monkeypatch.setattr(hyperchi, "denom_data",
                        lambda r: hyperchi.DenomData(*cleared_chi_oracle(r)[:2]))
    assert verify_lettl(60) == lettl_lines


def test_integer_chi_ints_match_the_fraction_coefficients():
    # the running products over Q are the reference; chi_coeffs is a view of chi_ints
    for r in range(0, 61):
        cs = chi_coeffs_oracle(r)
        delta = math.lcm(*(c.denominator for c in cs))
        assert chi_ints(r) == ([c.numerator * (delta // c.denominator) for c in cs], delta), r
        assert chi_coeffs(r) == cs, r


@pytest.mark.parametrize("bad", [
    lambda n, delta: ([*n[:-1], n[-1] + 1], delta),
    lambda n, delta: (n, delta + 1),
])
def test_denom_data_checks_that_delta_clears_chi(monkeypatch, bad):
    # a numerator off by one breaks the term ratio of chi_r, and a delta off
    # by one the constant term
    real = hyperchi.chi_ints
    monkeypatch.setattr(hyperchi, "chi_ints", lambda r: bad(*real(r)))
    denom_data.cache_clear()
    try:
        with pytest.raises(ChainError, match="delta does not clear chi_5"):
            denom_data(5)
    finally:
        denom_data.cache_clear()


def test_denom_data_by_valuation_agrees():
    for r in range(1, 21):
        assert denom_data_by_valuation(r) == denom_data(r)


def test_lettl_rows_match_the_fraction_gamma_ratios(lettl_lines):
    # the cleared integers give the same lines, names and exact margins, in order
    assert verify_lettl_oracle(60) == lettl_lines


def test_lettl_lines_fail_where_the_fraction_bounds_fail(monkeypatch):
    # delta_r scaled at one r fails the same first line in both, named alike and
    # with the same sides, since the integer pairs are the Fraction sides unreduced
    real = hyperchi.denom_data
    for at, factor in ((1, 8), (7, 10 ** 6), (60, 30), (60, 40)):
        monkeypatch.setattr(hyperchi, "denom_data", lambda r: (
            real(r)._replace(delta=real(r).delta * factor) if r == at else real(r)))
        with pytest.raises(ChainError) as got:
            verify_lettl(60)
        with pytest.raises(ChainError) as want:
            verify_lettl_oracle(60)
        assert str(got.value) == str(want.value)


def test_gamma_ratios_small():
    assert gamma_ratio_g1(1) == F(4, 3)
    assert gamma_ratio_g2(1) == F(5, 16)
    assert gamma_ratio_g1(2) == F(32, 21)


def test_gamma_ratios_positive_and_increasing():
    # both ratios grow like r^(1/4); check positivity and monotonicity
    prev1, prev2 = F(0), F(0)
    for r in range(1, 30):
        g1, g2 = gamma_ratio_g1(r), gamma_ratio_g2(r)
        assert g1 > prev1 and g2 > prev2
        prev1, prev2 = g1, g2


def test_growth_bounds_hold_to_60(lettl_lines):
    assert [name for name, _ in lettl_lines] == LETTL_NAMES
    for _, margin in lettl_lines:
        assert margin > 0


def test_growth_bound_margins_shrink_slowly(lettl_lines):
    # the certified margins stay positive but the ratio bound is tight in
    # the exponential base, so relative margins never collapse to zero
    (name1, margin1), (name2, margin2) = lettl_lines[-2:]
    assert name1.endswith(" at r=60") and name2.endswith(" at r=60")
    assert margin1 > 0 and margin2 > 0
