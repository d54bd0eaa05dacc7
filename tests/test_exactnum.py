import itertools
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from thueq import corollary, exactnum, measure
from thueq.exactnum import (
    GRID_BITS,
    TMIN_FLOOR,
    ChainError,
    DomainError,
    RatInterval,
    UndefinedKappaError,
    floor_line,
    iroot,
    kappa,
    lines,
    ln_enclosure,
    pow_up_sig,
    round_nearest_sig,
    round_up_sig,
    sig_str,
    sqrt_grid,
)
from thueq.concrete import ComplexBall, round_up_grid
from thueq.corollary import LIN_COEFF
from thueq.measure import KAPPA_WIDTH

from oracles import (atanh_count_oracle, atanh_enclosure_oracle, ball_abs_bounds_oracle,
                     ball_contains_zero, ball_mul_oracle, dec_exponent_oracle, iv_add,
                     iv_contains, iv_div_pos, iv_scale, iv_shift, iv_width, kappa_oracle,
                     lines_oracle, ln_enclosure_oracle, outcome, round_down_grid,
                     round_nearest_sig_oracle, round_up_sig_oracle, round_up_sig_two_powers,
                     sig_str_oracle, sqrt_lower, sqrt_upper)

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


def dec_exponent(x):
    """e with 10**e <= x < 10**(e+1): the exponent s of exactnum._sig_round rounding x, a
    rational or an integer pair (num, den), up to one digit."""
    n, d = x if type(x) is tuple else (x.numerator, x.denominator)
    return exactnum._sig_round(n, d, 1, False)[1]


def round_down_sig(x, digits=4):
    if x == 0:
        return F(0)
    q = F(10) ** (dec_exponent(x) - digits + 1)
    return F((x.numerator * q.denominator) // (x.denominator * q.numerator)) * q


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


def grid_ends(q: F, bits: int = GRID_BITS) -> tuple[F, F]:
    """sqrt_grid's floor and ceiling for the rational q, as multiples of 2^-bits."""
    return tuple(F(e, 1 << bits) for e in sqrt_grid(q.numerator, q.denominator, bits))


@given(positive_rationals)
def test_sqrt_grid_brackets(q):
    lo, hi = grid_ends(q)
    assert 0 <= lo <= hi
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= F(2, 2**100)


def test_sqrt_exact():
    assert sqrt_grid(4, 1) == (2 << GRID_BITS, 2 << GRID_BITS)
    assert sqrt_grid(0, 1) == (0, 0)
    assert sqrt_lower(F(4)) == 2 == sqrt_upper(F(4))
    assert sqrt_lower(F(0)) == 0 == sqrt_upper(F(0))
    with pytest.raises(ValueError):
        sqrt_grid(-1, 3)


SQRT_BITS = (0, 64, 128, 200, 264)


@given(st.one_of(st.just(0), st.integers(min_value=0, max_value=2**600)),
       st.integers(min_value=1, max_value=2**600), st.sampled_from(SQRT_BITS),
       st.sampled_from(("q", "square", "grid square")), st.integers(min_value=0, max_value=264))
def test_sqrt_grid_equals_the_two_square_roots(n, d, bits, kind, k):
    # a grid square (n / 2^k)^2 with k <= bits has its root on the 2^-bits grid
    q = {"q": F(n, d), "square": F(n, d) ** 2, "grid square": F(n, 1 << min(k, bits)) ** 2}[kind]
    assert grid_ends(q, bits) == (sqrt_lower(q, bits), sqrt_upper(q, bits))


@given(st.integers(min_value=0, max_value=2**600), st.integers(min_value=1, max_value=2**300),
       st.integers(min_value=1, max_value=2**300), st.sampled_from(SQRT_BITS),
       st.sampled_from(("q", "square")))
def test_sqrt_grid_takes_an_unreduced_quotient(n, d, c, bits, kind):
    # n/d with a common factor c (c^2 for a square): the grid ends of the
    # reduced rational, which the two square roots give
    if kind == "square":
        n, d, c = n * n, d * d, c * c
    q = F(n, d)
    ends = (sqrt_lower(q, bits) * 2**bits, sqrt_upper(q, bits) * 2**bits)
    assert sqrt_grid(n * c, d * c, bits) == ends
    assert all(isinstance(e, int) for e in sqrt_grid(n * c, d * c, bits))


def test_sqrt_grid_equals_the_two_square_roots_on_exact_squares():
    # 19/2 and 13/3 floor to a square at 2^0 with a nonzero remainder
    cases = [F(0), F(1), F(4), F(9, 4), F(3, 2**64) ** 2, F(5 * 2**300 + 1, 2**100) ** 2,
             F(2**600 - 1, 2**64) ** 2, F(7), F(163), F(10**6 + 3), F(19, 2), F(13, 3)]
    for q, bits in itertools.product(cases, SQRT_BITS):
        assert grid_ends(q, bits) == (sqrt_lower(q, bits), sqrt_upper(q, bits))


def test_interval_arithmetic():
    a = RatInterval(F(1), F(2))
    b = RatInterval(F(3), F(5))
    s = iv_add(a, b)
    assert (s.lo, s.hi) == (4, 7)
    assert iv_shift(a, F(10)).lo == 11
    assert iv_scale(a, F(-2)).lo == -4 and iv_scale(a, F(-2)).hi == -2
    q = iv_div_pos(a, b)
    assert q.lo == F(1, 5) and q.hi == F(2, 3)
    assert iv_contains(a, F(3, 2)) and not iv_contains(a, F(3))
    assert iv_width(a) == 1 and iv_width(b) == 2
    with pytest.raises(ValueError):
        RatInterval(F(2), F(1))


def test_ln_enclosure_known_values():
    w = F(1, 10**7)
    ln100 = ln_enclosure(F(100), w)
    assert F("4.60517") < ln100.lo and ln100.hi < F("4.60518")
    assert ln100.hi - ln100.lo <= w
    ln2 = ln_enclosure(F(2), w)
    assert F("0.693147") < ln2.lo and ln2.hi < F("0.693148")
    assert iv_contains(ln_enclosure(F(1), w), F(0))


def test_ln_enclosure_reciprocal_symmetry():
    w = F(1, 10**6)
    a = ln_enclosure(F(3), w)
    b = ln_enclosure(F(1, 3), w)
    assert a.lo + b.lo <= 0 <= a.hi + b.hi


def ln_enclosure_by_halving(x, target_width):
    """ln_enclosure with its range reduction done by one halving or doubling
    per bit, kept as the reference for the bit-length reduction."""
    k, m = 0, x
    while m >= F(3, 2):
        m /= 2
        k += 1
    while m < F(3, 4):
        m *= 2
        k -= 1
    budget = target_width / 4
    total = iv_scale(atanh_enclosure_oracle((m - 1) / (m + 1), budget / 2), 2)
    if k != 0:
        b = budget / (2 * abs(k))
        total = iv_add(total, iv_scale(exactnum._ln2(b.numerator, b.denominator), k))
    bits = max(8, (4 * target_width.denominator.bit_length() // 4) + 8)
    while F(2, 1 << bits) > target_width / 4:
        bits += 8
    return RatInterval(round_down_grid(total.lo, bits), round_up_grid(total.hi, bits))


WIDTHS = (F(1, 16), F(1, 10**6), F(1, 10**7), F(1, 2**40))
# m = 3/2 and m = 3/4 after reduction, and their neighbours
BOUNDARY_X = [x for j in (-70, -3, 0, 1, 5, 141) for c in (F(3, 2), F(3, 4))
              for x in (c * F(2) ** j, c * F(2) ** j * F(1000001, 1000000),
                        c * F(2) ** j * F(999999, 1000000))]


@given(st.integers(min_value=1, max_value=2**600), st.integers(min_value=1, max_value=2**600),
       st.sampled_from(WIDTHS), st.integers(min_value=-700, max_value=700))
def test_ln_enclosure_matches_the_halving_reduction(n, d, w, z):
    # z puts a power of two into the numerator or the denominator, which
    # LnArg shifts out before it reduces x, as for a cut value m 2^s
    x = F(n << max(z, 0), d << max(-z, 0))
    if x != 1:
        assert ln_enclosure(x, w) == ln_enclosure_by_halving(x, w)


def test_ln_enclosure_matches_the_halving_reduction_at_the_boundaries():
    for x in BOUNDARY_X:
        if x != 1:
            assert ln_enclosure(x, F(1, 10**6)) == ln_enclosure_by_halving(x, F(1, 10**6))


def on_the_same_ln2_cache(cold, *fns):
    """Run each fn from the same state of the ln 2 cache (empty when cold,
    else as the process left it) and return their results, an exception as
    its type and message; the cache is left as it was."""
    saved = dict(exactnum._LN2_CACHE)
    results = []
    for fn in fns:
        exactnum._LN2_CACHE.clear()
        exactnum._LN2_CACHE.update({} if cold else saved)
        try:
            results.append(fn())
        except (DomainError, UndefinedKappaError) as exc:
            results.append((type(exc), str(exc)))
    exactnum._LN2_CACHE.clear()
    exactnum._LN2_CACHE.update(saved)
    return results


@given(st.integers(min_value=1, max_value=2**600), st.integers(min_value=1, max_value=2**600),
       st.sampled_from(WIDTHS), st.booleans())
def test_ln_enclosure_equals_the_fraction_oracle(n, d, w, cold):
    x = F(n, d)
    got, want = on_the_same_ln2_cache(cold, lambda: ln_enclosure(x, w),
                                      lambda: ln_enclosure_oracle(x, w))
    assert got == want


def test_ln_enclosure_equals_the_fraction_oracle_at_the_boundaries():
    for x, w, cold in itertools.product(BOUNDARY_X + [F(1), F(2), F(1, 2), F(3), F(1, 3)],
                                        WIDTHS, (True, False)):
        got, want = on_the_same_ln2_cache(cold, lambda: ln_enclosure(x, w),
                                          lambda: ln_enclosure_oracle(x, w))
        assert got == want


@given(st.one_of(st.integers(min_value=1, max_value=2**600),
                 st.integers(min_value=1, max_value=10**4)),
       st.one_of(st.integers(min_value=1, max_value=2**600),
                 st.integers(min_value=1, max_value=100)), st.booleans())
def test_kappa_equals_the_fraction_oracle(n, d, cold):
    # n/d below e^2.59 raises UndefinedKappaError on both sides, with the same message
    t = F(n, d)
    got, want = on_the_same_ln2_cache(cold, lambda: kappa(t, KAPPA_WIDTH),
                                      lambda: kappa_oracle(t, KAPPA_WIDTH))
    assert got == want


def test_kappa_equals_the_fraction_oracle_on_moduli():
    moduli = [F(n) for n in range(12, 40)] + [F(10**j + 1) for j in range(2, 300, 17)]
    for t, cold in itertools.product(moduli, (True, False)):
        got, want = on_the_same_ln2_cache(cold, lambda: kappa(t, KAPPA_WIDTH),
                                          lambda: kappa_oracle(t, KAPPA_WIDTH))
        assert got == want


def test_ln_enclosure_rejects_bad_arguments():
    for x, w in ((F(0), F(1, 16)), (F(-1), F(1, 16)), (F(2), F(0)), (F(2), F(-1, 16))):
        with pytest.raises(DomainError):
            ln_enclosure(x, w)
    with pytest.raises(DomainError):
        kappa(F(0), KAPPA_WIDTH)


def test_ln_enclosure_does_not_depend_on_the_ln2_cache():
    # _ln2 keys its cache by the term count, and the count by the budget: the
    # ln 2 entry that an earlier call at k = 5 leaves is not read at k = 12,
    # whose budget needs another count, and the enclosure is the cold one
    x, w = F(5, 4) * 2 ** 12, F(1, 10**6)
    cold, after = on_the_same_ln2_cache(True, lambda: ln_enclosure(x, w), lambda: (
        ln_enclosure(F(5, 4) * 2 ** 5, w), ln_enclosure(x, w))[1])
    assert cold.lo == F(2292682955, 2**28)
    assert after == cold


@given(st.integers(min_value=1, max_value=10**400), st.integers(min_value=1, max_value=10**400))
def test_dec_exponent_brackets(n, d):
    x = F(n, d)
    e = dec_exponent(x)
    assert F(10) ** e <= x < F(10) ** (e + 1)
    assert dec_exponent(F(10) ** e) == e
    assert dec_exponent(F(10) ** e * F(10**50 - 1, 10**50)) == e - 1


def test_kappa_enclosure():
    k = kappa(F(100), F(1, 10**7))
    assert F("2.82118") < k.lo <= k.hi < F("2.82119")


def test_complex_ball_arithmetic():
    z = ComplexBall.exact(F(3), F(4))
    lo, hi = z.abs_bounds()
    assert lo == 5 == hi
    s = z + (-z)
    assert ball_contains_zero(s)
    d = z - z
    assert ball_contains_zero(d)


@given(rationals, rationals, rationals, rationals)
def test_complex_ball_product_contains_exact(a, b, c, d):
    z = ComplexBall.exact(a, b) * ComplexBall.exact(c, d)
    exact = ComplexBall.exact(a * c - b * d, a * d + b * c)
    assert ball_contains_zero(z - exact)


# midpoints over independent or shared denominators, far past the 2^320 of a
# root ball asked for at 2^-256, and radii that are often 0
big_rationals = st.fractions(min_value=-10**12, max_value=10**12, max_denominator=2**2400)
radii = st.one_of(st.just(F(0)), st.fractions(min_value=0, max_value=10**3,
                                              max_denominator=2**300))
balls = st.one_of(
    st.builds(ComplexBall, big_rationals, big_rationals, radii),
    st.builds(lambda a, b, n, r: ComplexBall(F(a, n), F(b, n), r),
              st.integers(-2**900, 2**900), st.integers(-2**900, 2**900),
              st.integers(1, 2**900), radii))


@given(balls)
def test_complex_ball_modulus_equals_the_fraction_formula(z):
    assert z.abs_bounds() == ball_abs_bounds_oracle(z)


@given(balls, balls)
def test_complex_ball_product_equals_the_two_modulus_formula(a, b):
    assert a * b == ball_mul_oracle(a, b)


def test_complex_ball_product_takes_a_modulus_only_against_a_radius(monkeypatch):
    calls = []
    real = ComplexBall.abs_bounds
    monkeypatch.setattr(ComplexBall, "abs_bounds", lambda z: calls.append(z) or real(z))
    exact, ball = ComplexBall.exact(F(3), F(-4, 7)), ComplexBall(F(1, 3), F(2), F(1, 2**70))
    counts = []
    for a, b in ((exact, exact), (exact, ball), (ball, exact), (ball, ball)):
        calls.clear()
        product = a * b
        counts.append(len(calls))
        assert product == ball_mul_oracle(a, b)
    assert counts == [0, 1, 1, 2]


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


def _near_decimals():
    """m 10**e, m < 10**8, and its neighbours 10**(e-1), 10**(e-7) or 10**(e-60) away, where
    the exponent guessed from the bit lengths is one decade off on either side."""
    e = st.integers(min_value=-400, max_value=400)
    ulp = st.sampled_from([F(1, 10), F(1, 10**7), F(1, 10**60)])
    return st.builds(lambda m, e, u, s: (m + s * u) * F(10) ** e, st.integers(1, 10**8 - 1), e,
                     ulp, st.sampled_from([-1, 0, 1]))


# unreduced integer pairs (num, den) of up to 4,000 bits a side, with a common factor
_PAIRS = st.builds(lambda n, d, g: (n * g, d * g), st.integers(1, 2**3000),
                   st.integers(1, 2**3000), st.integers(1, 2**1000))

SIG_ARGS = st.one_of(
    positive_rationals,
    _near_decimals(),
    st.builds(lambda e: F(99995, 10**4) * F(10) ** e, st.integers(-400, 400)),  # 9.9995 10**e
    st.builds(F, st.integers(min_value=1, max_value=2**1000),
              st.integers(min_value=1, max_value=2**1000)),
    st.builds(F, st.integers(min_value=2**999, max_value=2**1000),
              st.integers(min_value=2**999, max_value=2**1000)),
    _PAIRS,
)


def as_fraction(x):
    """x, a rational or an integer pair (num, den), as the Fraction the oracles take."""
    return F(*x) if type(x) is tuple else x


@settings(max_examples=300, deadline=None)
@given(SIG_ARGS, st.integers(min_value=1, max_value=12))
def test_round_up_sig_equals_the_fraction_oracle(x, digits):
    assert dec_exponent(x) == dec_exponent_oracle(as_fraction(x))
    assert round_up_sig(x, digits) == round_up_sig_oracle(as_fraction(x), digits)


def assert_decimals_equal_the_fraction_oracles(x, digits):
    v = as_fraction(x)
    assert sig_str(x, digits) == sig_str_oracle(v, digits)
    for got, want in ((round_nearest_sig, round_nearest_sig_oracle),
                      (round_up_sig, round_up_sig_oracle)):
        assert outcome(got, x, digits) == outcome(want, v, digits)


@settings(max_examples=300, deadline=None)
@given(st.one_of(SIG_ARGS, SIG_ARGS.map(lambda x: (-x[0], x[1]) if type(x) is tuple else -x),
                 st.just(F(0))),
       st.integers(min_value=1, max_value=8))
def test_the_integer_rounding_equals_the_fraction_oracles(x, digits):
    assert_decimals_equal_the_fraction_oracles(x, digits)


def test_the_integer_rounding_carries_into_the_next_decade():
    # (10^digits - 1/2) 10^s rounds half up to 10^(digits + s), as 9.9995
    # rounds to 10.00; a hair below it stays in its decade
    for e, digits, sign in itertools.product(range(-9, 10), (1, 2, 4, 7), (1, -1)):
        half = (10 ** digits - F(1, 2)) * F(10) ** (e - digits + 1)
        for x in (half, half * (1 - F(1, 10**30))):
            assert_decimals_equal_the_fraction_oracles(sign * x, digits)
    assert sig_str(F(99995, 10**4)) == "10" and sig_str(F(-99995, 10**9)) == "-1e-4"
    assert round_nearest_sig(F(99995, 10**4)) == 10


def test_the_integer_rounding_on_the_t0_of_eps_1_over_10000():
    t0 = corollary.corollary_eps(F(1, 10000))["t0"]
    for digits in (1, 2, 4, 7):
        assert_decimals_equal_the_fraction_oracles(t0, digits)


# m 10^e + r with e past 4,300 digits, as a value and as its reciprocal; r = 0
# puts a power of ten itself on the rounding boundary
_HUGE = st.builds(lambda m, e, r: m * 10 ** e + r, st.integers(min_value=1, max_value=10**20),
                  st.integers(min_value=4301, max_value=14000),
                  st.integers(min_value=-10**6, max_value=10**6))


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.builds(F, _HUGE, st.integers(min_value=1, max_value=10**30)),
                 st.builds(F, st.integers(min_value=1, max_value=10**30), _HUGE)),
       st.integers(min_value=1, max_value=12))
def test_round_up_sig_with_one_power_of_ten_equals_the_two_power_rounding(x, digits):
    assert round_up_sig(x, digits) == round_up_sig_two_powers(x, digits)


def test_round_up_sig_on_powers_of_ten_and_their_neighbours():
    for e in (-301, -4, -1, 0, 1, 3, 4, 5, 300):
        p = F(10) ** e
        for x in (p, p - F(1, 10**320), p + F(1, 10**320), p * 9999 / 10000, p * 10001 / 10000):
            assert dec_exponent(x) == dec_exponent_oracle(x)
            assert round_up_sig(x) == round_up_sig_oracle(x)
        assert round_up_sig(p) == p and round_up_sig(p * 1001 / 1000) == p * 1001 / 1000
        assert round_up_sig(p * 10001 / 10000) == p * 1001 / 1000
        assert round_up_sig(p * 99999 / 100000) == p
    for x in (F(0), F(-1), F(-1, 3)):
        got = want = None
        try:
            got = round_up_sig(x)
        except DomainError as exc:
            got = str(exc)
        try:
            want = round_up_sig_oracle(x)
        except DomainError as exc:
            want = str(exc)
        assert got == want
    # zero rounds to itself; a negative value, or a pair with a negative numerator, raises
    assert round_up_sig((0, 7)) == 0
    for x in (F(-1), F(-1, 3), (-3, 7), (-(2**4000), 3 * 2**2000)):
        with pytest.raises(DomainError, match="positive value required"):
            round_up_sig(x)


# x = 443 C as corollary-lin raises it to n, with C = 1/443 and 10^k/443
# putting x^n on a power of ten
_POW_BASES = st.one_of(
    st.builds(lambda a, b: LIN_COEFF * F(a, b), st.integers(1, 4000), st.integers(1, 40)),
    st.builds(F, st.integers(1, 10**40), st.integers(1, 10**6)).filter(lambda x: x >= 1),
    st.builds(lambda k: F(10) ** k, st.integers(0, 4)),
    st.builds(lambda m, k: F(m * 10 ** k, 1000), st.integers(1000, 9999), st.integers(0, 4)),
    st.just(LIN_COEFF * F(1, 443)))


@settings(max_examples=150, deadline=None)
@given(_POW_BASES, st.integers(0, 3000))
def test_pow_up_sig_equals_rounding_the_power(x, n):
    assert pow_up_sig(x, n) == round_up_sig(x ** n, 4)


@settings(max_examples=60, deadline=None)
@given(_POW_BASES, st.integers(0, 3000), st.sampled_from([8, 12, 16]))
def test_pow_up_sig_doubles_a_low_precision_until_decided(x, n, bits):
    calls = []
    real = exactnum._pow_bracket

    def recording(a, m, p):
        calls.append(p)
        return real(a, m, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_POW_BITS", bits)
        mp.setattr(exactnum, "_pow_bracket", recording)
        got = pow_up_sig(x, n)
    assert got == round_up_sig(x ** n, 4)
    assert calls[0] == bits


def test_pow_up_sig_doubles_on_exact_powers_of_ten():
    # 10^2500 needs every bit of itself: the precision doubles from 64 past 8,300 bits
    calls = []
    real = exactnum._pow_bracket

    def recording(a, m, p):
        calls.append(p)
        return real(a, m, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactnum, "_pow_bracket", recording)
        assert pow_up_sig(LIN_COEFF * F(10, 443), 2500) == F(10) ** 2500
    assert max(calls) >= 8192 and F(10) ** 2500 == round_up_sig(F(10) ** 2500)


def test_pow_up_sig_refuses_more_than_max_digits_as_printing_would():
    top = exactnum.MAX_DIGITS
    # MAX_DIGITS digits print; one more, also after a carry into the next decade, does not
    assert pow_up_sig(F(10), top - 1) == 10 ** (top - 1)
    assert pow_up_sig(F(9999 * 10 ** (top - 4)), 1) == 9999 * 10 ** (top - 4)
    for x, n in ((F(10), top), (F(10 ** top - 1), 1), (F(10 ** 300), 2500)):
        with pytest.raises(exactnum.OutputLimitError):
            pow_up_sig(x, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.one_of(st.integers(1, 10**6), st.integers(1, 10**400)),
       st.integers(1, 10**40), st.integers(1, 10**40))
@example(1, 2 * 10**400 + 1, 1, 10**40)  # b/a past the float range
def test_atanh_count_equals_the_linear_scan(a, b, bn, bd):
    if 2 * abs(a) >= b:
        a = a % max(1, (b - 1) // 2)
    series = exactnum._AtanhSeries(a, b)
    assert series.count(bn, bd) == atanh_count_oracle(series, bn, bd)


def test_atanh_count_equals_the_linear_scan_on_the_ln2_and_kappa_budgets(monkeypatch):
    calls = []
    real = exactnum._AtanhSeries.count

    def recording(self, bn, bd):
        calls.append((self, bn, bd))
        return real(self, bn, bd)

    monkeypatch.setattr(exactnum._AtanhSeries, "count", recording)
    # ln 2's counts are kept per budget: start from none kept, so that every one is made
    monkeypatch.setattr(exactnum, "_ln2_count",
                        lru_cache(maxsize=128)(exactnum._ln2_count.__wrapped__))
    for t in [F(n) for n in range(14, 40)] + [F(10**j + 1) for j in range(2, 300, 17)]:
        kappa(t, KAPPA_WIDTH)
        kappa(t, F(1, 10**12))
    for k in range(1, 200, 7):
        exactnum._ln2(1, 10**k)
    ln2 = [c for c in calls if c[0] is exactnum._LN2_SERIES]
    assert len(ln2) > 20 and len(calls) > len(ln2) + 50
    for series, bn, bd in calls:
        assert real(series, bn, bd) == atanh_count_oracle(series, bn, bd)


def test_lines_record_exact_margins_and_name_the_first_failure():
    assert lines() == ()
    assert lines(("a", F(1, 3), F(1, 2)), ("b", 2, 2), ("c", F(-7), F(10**40, 3))) == (
        ("a", F(1, 6)), ("b", 0), ("c", F(10**40 + 21, 3)))
    # b and c both fail: the error names b, with both sides exact, on every call
    for _ in range(2):
        with pytest.raises(ChainError, match=r"^b: 7/3 > 2$") as info:
            lines(("a", 0, 1), ("b", F(7, 3), 2), ("c", 5, 4))
        assert type(info.value) is ChainError and isinstance(info.value, ArithmeticError)
    assert measure.ChainError is ChainError


def test_a_strict_line_fails_on_equality():
    assert lines(("a", F(1, 3), F(1, 2), "<"), ("b", 2, 2)) == (("a", F(1, 6)), ("b", 0))
    with pytest.raises(ChainError, match=r"^b: 2 >= 2$"):
        lines(("a", 0, 1, "<"), ("b", 2, 2, "<"))
    with pytest.raises(ChainError, match=r"^c: 5 >= 4$"):
        lines(("c", 5, 4, "<"))


def _sides(x: F) -> list:
    """x as a Fraction, as its reduced pair, as a pair with a common factor and,
    when integral, as an int."""
    n, d = x.numerator, x.denominator
    return [x, (n, d), (7 * n, 7 * d)] + ([n] if d == 1 else [])


@pytest.mark.parametrize("lhs, rhs", [(F(1, 3), F(1, 2)), (F(2), F(2)), (F(-7), F(10**40, 3)),
                                      (F(7, 3), F(2)), (F(5), F(4)), (F(0), F(-1, 9))])
def test_lines_read_int_fraction_and_pair_sides_alike(lhs, rhs):
    for strict in ((), ("<",)):
        fails = lhs > rhs or strict and lhs == rhs
        want = ((ChainError, f"a: {lhs} {'>=' if strict else '>'} {rhs}") if fails
                else (("a", rhs - lhs),))
        for left, right in itertools.product(_sides(lhs), _sides(rhs)):
            got = outcome(lines, ("a", left, right, *strict))
            assert got == want, (left, right, strict)
            assert fails or type(got[0][1]) is F


# a side as an int, a Fraction or an unreduced pair, up to 400 bits, so that a failing
# line renders some sides exactly and some by sig_str
_BIG = st.integers(-2**400, 2**400)
_SIDE = st.one_of(st.integers(-10**6, 10**6), _BIG,
                  st.builds(F, _BIG, st.integers(1, 2**200)),
                  st.tuples(_BIG, st.integers(1, 2**200)))


@st.composite
def _line(draw):
    lhs = draw(_SIDE)
    # the right side is often the left side's value, or it moved by one unit: zero gaps
    # and gaps of either sign, each in another representation
    n, d = lhs if type(lhs) is tuple else lhs.as_integer_ratio()
    rhs = draw(st.one_of(_SIDE, st.sampled_from([(n, d), (3 * n, 3 * d), (n + 1, d), (n - 1, d),
                                                  F(n, d), F(n - d, d)])))
    return (draw(st.sampled_from(["a", "tmin floor 100", "type 3 step k=6 x"])), lhs, rhs,
            *draw(st.sampled_from([(), ("<",)])))


@settings(max_examples=300, deadline=None)
@given(st.lists(_line(), max_size=4))
def test_lines_equals_the_oracle(reqs):
    got = outcome(lines, *reqs)
    assert got == outcome(lines_oracle, *reqs)
    if got[:1] != (ChainError,):
        assert all(type(margin) is F for _, margin in got)


def test_a_long_failing_side_is_rendered_by_sig_str():
    big = F(10**150, 3)
    for side in _sides(big) + [(2**400 * 10**150, 2**400 * 3)]:
        with pytest.raises(ChainError, match=rf"^a: {sig_str(big)} > 1$"):
            lines(("a", side, 1))
    # reduced before it is judged: a long pair of a short value renders exactly
    with pytest.raises(ChainError, match=r"^a: 5 >= 5$"):
        lines(("a", (5 * 10**200, 10**200), 5, "<"))


def test_the_floor_line():
    assert floor_line(F(12345, 7)) == ("tmin floor 100", TMIN_FLOOR, F(12345, 7))
    assert lines(floor_line(TMIN_FLOOR)) == (("tmin floor 100", 0),)
    for tmin, text in ((F(99), "99"), (F(19999, 200), "19999/200"), (F(0), "0")):
        with pytest.raises(ChainError, match=f"^tmin floor 100: 100 > {text}$"):
            lines(floor_line(tmin))
