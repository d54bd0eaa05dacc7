import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import example, given, strategies as st
from oracles import (conj, conj_oracle, div_exact, divides, eligible_fields_oracle,
                     field_pairs_oracle, is_half_integral, mul_oracle, norm_oracle,
                     pairs_with_norm_in_oracle, re_im_oracle, squarefree)

from thueq import quadfield
from thueq.quadfield import (
    MAX_ABS,
    QuadInt,
    eligible_fields,
    enumerate_bounded,
    field_pairs,
    norm,
    pairs_with_norm_in,
    ring,
    roots_of_unity,
)


def from_root_coords(d: int, p, q) -> QuadInt:
    """Element p + q*sqrt(-d), raising if not integral in the ring."""
    p, q = F(p), F(q)
    if ring(d)[0]:
        b = 2 * q
        a = p - q
    else:
        b = q
        a = p
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{p} + {q}*sqrt(-{d}) is not an algebraic integer here")
    return QuadInt(d, int(a), int(b))


def test_half_integral_convention():
    # omega = (1 + sqrt(-d))/2 exactly when -d = 1 mod 4, where
    # omega^2 = omega - (1+d)/4; otherwise omega^2 = -d
    assert [ring(d) for d in (3, 7, 11)] == [(1, 1), (1, 2), (1, 3)]
    assert [ring(d) for d in (1, 2, 5, 6)] == [(0, 1), (0, 2), (0, 5), (0, 6)]
    assert all(ring(d)[0] == is_half_integral(d) for d in range(1, 400))


def test_re_im():
    # re_im returns (rational part, coefficient of sqrt(-d))
    w = QuadInt(3, 0, 1)  # omega in d=3
    re, im = w.re_im()
    assert re == F(1, 2)
    assert im == F(1, 2)
    i = QuadInt(1, 0, 1)
    assert i.re_im()[0] == 0 and i.re_im()[1] == 1


def test_abs_sq_and_conj():
    w = QuadInt(3, 2, 5)  # 2 + 5*omega
    assert w.abs_sq() == (2 * 2 + 2 * 5 + 5 * 5 * 1)  # |a|^2+ab+b^2(1+d)/4
    z = w * conj(w)
    assert z.b == 0 and z.a == w.abs_sq()


small_ints = st.integers(min_value=-20, max_value=20)


@given(small_ints, small_ints, small_ints, small_ints)
def test_ring_arithmetic_matches_embedding(a, b, c, d):
    x = QuadInt(7, a, b)
    y = QuadInt(7, c, d)
    s = x + y
    p = x * y
    xr, xi = x.re_im()  # x = xr + xi * sqrt(-7)
    yr, yi = y.re_im()
    assert s.re_im() == (xr + yr, xi + yi)
    pr, pi = p.re_im()
    assert pr == xr * yr - 7 * xi * yi
    assert pi == xr * yi + xi * yr


def test_division():
    x = QuadInt(1, 3, 4)
    y = QuadInt(1, 1, 2)
    assert divides(y, x * y)
    assert div_exact(x * y, y) == x
    with pytest.raises(ValueError):
        div_exact(QuadInt(1, 1, 0), QuadInt(1, 0, 2))


def test_from_root_coords():
    assert from_root_coords(3, F(1, 2), F(5, 2)) == QuadInt(3, -2, 5)
    assert from_root_coords(1, F(0), F(4)) == QuadInt(1, 0, 4)
    with pytest.raises(ValueError):
        from_root_coords(3, F(1, 3), F(0))


def test_roots_of_unity_counts():
    assert len(roots_of_unity(1)) == 4
    assert len(roots_of_unity(3)) == 6
    for d in (2, 7, 11, 19):
        assert len(roots_of_unity(d)) == 2


def test_roots_of_unity_built_once():
    assert roots_of_unity(3) is roots_of_unity(3)
    assert isinstance(roots_of_unity(7), tuple)


def test_roots_of_unity_are_units():
    for d in (1, 2, 3, 7):
        for u in roots_of_unity(d):
            assert u.abs_sq() == 1


def test_eligible_fields():
    assert eligible_fields(3) == [1, 2, 3, 5, 6, 7, 11, 15, 19, 23, 31, 35]
    assert 4 not in eligible_fields(10)  # not squarefree


def test_enumerate_bounded_refuses_m_past_max_abs_before_allocating(monkeypatch):
    # eligible_fields(10**6) would sieve 4 * 10^12 bytes: the bound is checked
    # first, so neither the list of rational integers nor the sieve is built
    def no_sieve(m):
        raise AssertionError(f"eligible_fields({m}) ran")

    monkeypatch.setattr(quadfield, "eligible_fields", no_sieve)
    tracemalloc.start()
    try:
        for m in (10 ** 6, MAX_ABS + F(1, 10 ** 9)):
            with pytest.raises(ValueError, match=rf"m must be in \[0, {MAX_ABS}\]"):
                enumerate_bounded(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5
    # the small-solution search sizes eligible_fields by its own bound, 65
    monkeypatch.undo()
    assert eligible_fields(65) == eligible_fields_oracle(65)


def test_enumeration_counts():
    assert len(enumerate_bounded(3, normalize=True)) == 76
    assert len(enumerate_bounded(3)) == 152


def test_enumeration_is_exhaustive_and_bounded():
    elems = enumerate_bounded(3)
    seen = set()
    for x in elems:
        assert x.abs_sq() <= 9
        assert x.abs_sq() > 0
        key = (x.d, x.a, x.b)
        assert key not in seen
        seen.add(key)
    # rational integers live under d = 1 exactly once
    rats = [x for x in elems if x.is_rational()]
    assert sorted((x.a) for x in rats) == [-3, -2, -1, 1, 2, 3]


def test_normalized_enumeration_halves():
    full = {(x.d, x.a, x.b) for x in enumerate_bounded(3)}
    half = [x for x in enumerate_bounded(3, normalize=True)]
    for x in half:
        n = -x
        assert (x.d, x.a, x.b) in full and (n.d, n.a, n.b) in full


def _embedding_norm(x: QuadInt) -> F:
    re, im = x.re_im()  # x = re + im * sqrt(-d)
    return re * re + x.d * im * im


def _box(m: F) -> list[QuadInt]:
    """Normalized elements with |x| <= m by plain loops over a + b*omega in
    every squarefree d <= 4m^2, with the norm taken from the embedding."""
    m2 = m * m
    out = [QuadInt(1, a, 0) for a in range(1, int(m) + 1)]
    reach = 2 * int(m) + 2  # |b| <= 2|Im| <= 2m and |a| <= |Re| + |b|/2
    for d in range(1, int(4 * m2) + 1):
        if any(d % (k * k) == 0 for k in range(2, d) if k * k <= d):
            continue
        for b in range(1, reach + 1):
            for a in range(-2 * reach, 2 * reach + 1):
                x = QuadInt(d, a, b)
                if _embedding_norm(x) <= m2:
                    out.append(x)
    return sorted(out, key=lambda x: (x.d, x.b, x.a))


@pytest.mark.parametrize("m", [F(5, 2), F(3), F(7, 2), F(5), F(7)])
def test_enumeration_matches_a_plain_loop_box(m):
    # non-integer bounds reach fields that floor(m) misses (sqrt(-5) at
    # m = 5/2), and half-integral fields reach b^2 <= 4m^2/d (-2 + 3*omega
    # and -1 + 3*omega, norm 25, in d = 11)
    assert enumerate_bounded(m, normalize=True) == _box(m)


@given(st.sampled_from([1, 2, 3, 5, 7, 11, 15, 19, 23]), small_ints, small_ints)
def test_norm_is_the_embedding_norm(d, a, b):
    assert norm(d, a, b) == _embedding_norm(QuadInt(d, a, b))


def test_field_pairs_order_and_normalization():
    full = list(field_pairs(11, 25))
    assert full == sorted(full, key=lambda p: (p[1], p[0]))
    assert all(b != 0 and norm(11, a, b) <= 25 for a, b in full)
    half = list(field_pairs(11, 25, normalize=True))
    assert half == [(a, b) for a, b in full if b > 0]
    assert (-2, 3) in half and (-1, 3) in half


@given(st.integers(1, 2000).filter(squarefree), st.integers(0, 5000),
       st.sets(st.integers(0, 6000), max_size=40))
@example(3, 25, {1, 2, 3, 4, 5, 7, 26})  # 2 and 5 are no norms in d = 3
@example(1, 50, {3, 6, 7, 25, 50})  # 25 and 50 are sums of two squares twice
@example(7, 4225, {0, 2, 4, 8, 11, 4225})
@example(7, 47, set(range(1, 48)))  # x^4 = mu: every norm in the box divides 0
def test_pairs_with_norm_in_is_the_filtered_walk(d, m2, norms):
    assert list(pairs_with_norm_in(d, m2, norms)) == [
        (a, b) for a, b in field_pairs(d, m2, normalize=True) if norm(d, a, b) in norms]


# the one ring(d) table against the branchy formulas it replaced (oracles):
# every squarefree d <= 400 and coordinates up to 10^6
fields = st.integers(1, 400).filter(squarefree)
coords = st.integers(-10**6, 10**6)
# squared bounds m^2, integer and not
squared_bounds = st.one_of(st.integers(0, 3000).map(F),
                           st.builds(F, st.integers(0, 12000), st.integers(2, 7)))


@given(fields, coords, coords, coords, coords)
@example(3, 1, 1, -1, 2)
@example(7, 10**6, -10**6, -10**6, 10**6)
def test_ring_arithmetic_matches_the_branchy_formulas(d, a, b, c, e):
    # b = 0 puts x at d = 1, where both tables give the same rational integer
    x, y = QuadInt(d, a, b), QuadInt(d, c, e)
    assert norm(d, a, b) == norm_oracle(d, a, b) == x.abs_sq()
    assert ((x * y).a, (x * y).b) == mul_oracle(d, (a, b), (c, e))
    assert (conj(x).a, conj(x).b) == conj_oracle(d, a, b)
    assert x.re_im() == re_im_oracle(d, a, b)


# bounds m with an integer or a non-integer square
@given(st.fractions(0, 25, max_denominator=12))
@example(F(3))
@example(F(5, 2))  # sqrt(-5) at m = 5/2
def test_eligible_fields_match_the_branchy_formula(m):
    assert eligible_fields(m) == eligible_fields_oracle(m)


@given(fields, squared_bounds, st.booleans(), st.sets(st.integers(0, 3000), max_size=40))
@example(11, F(25), True, {25})  # -2 + 3 omega and -1 + 3 omega
@example(2, F(37, 4), False, {1, 2, 3, 9})
def test_field_pairs_match_the_branchy_formulas(d, m2, normalize, norms):
    assert list(field_pairs(d, m2, normalize)) == list(field_pairs_oracle(d, m2, normalize))
    assert list(pairs_with_norm_in(d, m2, norms)) == list(pairs_with_norm_in_oracle(d, m2, norms))
