"""The integer polynomial kernel against the Poly2 oracle over Q(i)."""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st
from oracles import X, Poly2, from_form, from_pair, gshift

from thueq import concrete, zpoly
from thueq.series import GaussRat

ints = st.lists(st.integers(-10**6, 10**6), max_size=7)
gaussian = st.tuples(ints, ints)
points = st.integers(-50, 50)


def _real(a):
    return from_pair((a, ()))


@settings(max_examples=100, deadline=None)
@given(ints, ints, st.integers(-99, 99))
def test_integer_arithmetic_matches_the_oracle(a, b, c):
    A, B = _real(a), _real(b)
    assert _real(zpoly.mul(a, b)) == A * B
    assert _real(zpoly.add(a, b)) == A + B
    assert _real(zpoly.sub(a, b)) == A - B
    assert _real(zpoly.scale(c, a)) == c * A
    assert _real(zpoly.deriv(a)) == A.dX()


@settings(max_examples=100, deadline=None)
@given(gaussian, gaussian)
@example(([1, 2], []), ([3], [4, 5]))  # a real factor, imaginary part empty or zero
@example(([1], [2]), ([3, 4], [0, 0]))
def test_gaussian_arithmetic_matches_the_oracle(f, g):
    assert from_pair(zpoly.gmul(f, g)) == from_pair(f) * from_pair(g)
    assert from_pair(zpoly.gadd(f, g)) == from_pair(f) + from_pair(g)
    assert from_pair(zpoly.gsub(f, g)) == from_pair(f) - from_pair(g)


# the exact Taylor shift that the divisibility oracle runs on, against substitution


def _shifted(f, m):
    """f(X + m) by substitution on Poly2, m a Gaussian integer (re, im)."""
    mg = GaussRat(F(m[0]), F(m[1]))
    return sum((c * (X + mg) ** k for k, c in enumerate(from_pair(f).eval_t(0).coeffs)), Poly2())


@settings(max_examples=100, deadline=None)
@given(gaussian, points)
def test_taylor_shift_at_an_integer_matches_the_oracle(f, m):
    assert from_pair(gshift(f, (m, 0))) == _shifted(f, (m, 0))


@settings(max_examples=100, deadline=None)
@given(gaussian, points, points)
def test_taylor_shift_at_a_gaussian_point_matches_the_oracle(f, mr, mi):
    assert from_pair(gshift(f, (mr, mi))) == _shifted(f, (mr, mi))


small = st.lists(st.integers(-1000, 1000), max_size=4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=5), st.tuples(small, small),
       st.tuples(small, small))
def test_homogenise_matches_the_oracle(n, P, Q):
    d = len(n) - 1
    oracle = sum((c * from_pair(P) ** k * from_pair(Q) ** (d - k) for k, c in enumerate(n)),
                 Poly2())
    assert from_pair(zpoly.homogenise(n, P, Q)) == oracle


forms = st.lists(st.tuples(small, small), max_size=4)


@settings(max_examples=60, deadline=None)
@given(forms, forms)
def test_forms_match_the_oracle(Fm, Gm):
    assert from_form(zpoly.fmul(Fm, Gm)) == from_form(Fm) * from_form(Gm)
    assert from_form(zpoly.fadd(Fm, Gm)) == from_form(Fm) + from_form(Gm)
    assert zpoly.same(Fm, Gm) == (from_form(Fm) == from_form(Gm))
    assert zpoly.same(Fm, Fm + [zpoly.ZERO]) and zpoly.same(Fm, ()) == from_form(Fm).is_zero()


@given(ints, st.integers(-99, 99))
def test_evaluate_is_horner(a, x):
    assert concrete.evaluate(a, x, 0) == sum(c * x ** k for k, c in enumerate(a))


def test_no_argument_is_mutated():
    a, f = [1, 2, 3], ([1, 2], [3])
    zpoly.homogenise(a, f, f)
    zpoly.fmul([f], [f])
    assert a == [1, 2, 3] and f == ([1, 2], [3])
