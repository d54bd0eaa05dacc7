import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (G0, G1, GI, QUARTIC as QUARTIC_ORACLE, _gpow, approximants,
                     approximants_oracle, chi_star_oracle, cross_product, from_form,
                     series_inverse, thue_data, thue_data_oracle, thue_polys_at_oracle)

from thueq import concrete, series, zpoly
from thueq.descent import KMAX, KSTART
from thueq.exactnum import ChainError
from thueq.hyperchi import chi_ints
from thueq.series import (
    GaussRat,
    IntSeries,
    PadePair,
    Series,
    alpha3_series,
    horner,
    newton_alpha_series,
    pade,
    pade_residual,
    quotient_root_check,
    root_series,
    tail_bound,
)
from thueq.concrete import TPoly, thue_polys_at

G = GaussRat.of

# ---------------------------------------------------------------------------
# oracles: the Q(i) algorithms the integer core replaced


def _newton_oracle(N):
    """alpha modulo s^N by Newton iteration on s*f over Series."""
    s = Series([0, 1], N)

    def f(x):
        x2 = x * x
        return s * x2 * x2 - x2 * x - 6 * s * x2 + x + s

    def df(x):
        x2 = x * x
        return 4 * s * x2 * x - 3 * x2 - 12 * s * x + 1

    x = Series([0], N)
    for _ in range(math.ceil(math.log2(N)) + 1):
        x = x - f(x) * series_inverse(df(x))
    return x


def _solve_linear_oracle(A, rhs):
    """Exact Gaussian elimination over Q(i); A is a list of rows."""
    n = len(rhs)
    M = [list(row) + [rhs[k]] for k, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise ChainError("singular linear system")
        M[col], M[piv] = M[piv], M[col]
        pinv = M[col][col].inv()
        M[col] = [e * pinv for e in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [er - f * ec for er, ec in zip(M[r], M[col])]
    return [M[k][n] for k in range(n)]


def _pade_oracle(B, deg_num, n):
    """The Pade pair by Gaussian elimination over Q(i), contact order from
    the Series residual."""
    b = B.coeffs
    rows = [[b[k - j] if k >= j else G0 for j in range(1, n + 1)]
            for k in range(deg_num + 1, deg_num + n + 1)]
    rhs = [-b[k] for k in range(deg_num + 1, deg_num + n + 1)]
    v = [G1] + (_solve_linear_oracle(rows, rhs) if n else [])
    U = tuple(sum((v[j] * b[k - j] for j in range(min(k, n) + 1)), G0)
              for k in range(deg_num + 1))
    resid = Series(list(U), B.trunc) - B * Series(v, B.trunc)
    return PadePair(U, tuple(v), resid.valuation())


def _primitive(pair):
    """A real pair with V(0) = 1 scaled to the primitive integer pair, whose
    V(0) stays positive."""
    assert not any(c.im for c in pair.U + pair.V)
    vals = [c.re for c in pair.U + pair.V]
    lam = F(math.lcm(*(x.denominator for x in vals)), math.gcd(*(x.numerator for x in vals)))
    ints = [int(x * lam) for x in vals]
    return PadePair(tuple(ints[:len(pair.U)]), tuple(ints[len(pair.U):]), pair.contact_order)


def _thue_polys_oracle(r, t_val):
    """(A_r, B_r) from the Poly2 thue_data record evaluated at t, over Q(i)."""
    data = thue_data_oracle()
    a, b, c, d, u, z = (data[k].eval_t(t_val) for k in "abcduz")
    chi_zu, chi_uz = chi_star_oracle(r, z, u), chi_star_oracle(r, u, z)
    mi_r = _gpow(-GI, r % 4)  # (1/sqrt(lambda))^r = (1/i)^r = (-i)^r
    return mi_r * (a * chi_zu - b * chi_uz), mi_r * (c * chi_zu - d * chi_uz)

# ---------------------------------------------------------------------------


def test_alpha_series_endpoints():
    a = newton_alpha_series(31)
    assert a[0] == G(0)
    assert a[1] == G(-1)
    assert a[3] == G(5)
    assert a[5] == G(-46)
    assert a[7] == G(509)
    assert a[29] == G(-1821914025180536)
    # odd series: every even coefficient vanishes
    assert all(not a[k] for k in range(0, 31, 2))


def test_integer_alpha_recurrence_matches_newton_iteration():
    for N in range(2, 41):
        assert newton_alpha_series(N) == _newton_oracle(N), N
        assert newton_alpha_series(N).trunc == N


def test_alpha_series_satisfies_quartic():
    # x^4 - (1/s) x^3 - 6 x^2 + (1/s) x + 1 = 0; cleared: s x^4 - x^3 - 6 s x^2 + x + s
    a = newton_alpha_series(31)
    s = Series([G(0), G(1)], 31)
    resid = s * a * a * a * a - a * a * a - 6 * s * a * a + a + s
    assert resid.is_zero()


def test_alpha3_series_endpoints():
    a3 = alpha3_series(newton_alpha_series(31))
    for k, c in enumerate([1, -2, 2, 8, -18]):
        assert a3[k] == G(c)
    assert a3[29] == G(-1435829041889280)


def test_root_cycle_identity():
    # the Moebius map z -> (z-1)/(z+1) sends the root near 1 to the root
    # near 0: alpha * (a3 + 1) = a3 - 1
    a = newton_alpha_series(30)
    a3 = alpha3_series(newton_alpha_series(31)).truncated(30)
    lhs = a * (a3 + Series([G(1)], 30))
    rhs = a3 - Series([G(1)], 30)
    assert (lhs - rhs).is_zero()


def test_pade_small_case():
    a = newton_alpha_series(31)
    pair = pade(a, 1, 2)
    assert pair.U == (0, -1)
    assert pair.V == (1, 0, 5)
    assert pair.contact_order == 5


def test_pade_contact_orders():
    a = newton_alpha_series(31)
    for k in range(2, 8):
        pair = pade(a, k - 1, k - 1)
        assert pair.contact_order >= 2 * k - 1
        resid = pade_residual(a, pair)
        assert resid.valuation() >= 2 * k - 1


def _storage(s):
    """What an IntSeries record and a Series both hold: (num, den, trunc)."""
    return s.num, s.den, s.trunc


def test_bareiss_pade_matches_gaussian_elimination_on_both_chains():
    for ti in KSTART:
        B = root_series(ti)
        S = Series.from_ints(B.num, B.den, B.trunc)  # the same storage, in Q(i) arithmetic
        assert _storage(S) == _storage(B)
        for k in range(KSTART[ti], KMAX + 1):
            pair = pade(B, k - 1, k - 1)
            assert pair == _primitive(_pade_oracle(S, k - 1, k - 1)), (ti, k)
            assert all(isinstance(c, int) for c in pair.U + pair.V) and pair.V[0] > 0
            U, V = Series(list(pair.U), B.trunc), Series(list(pair.V), B.trunc)
            assert _storage(pade_residual(B, pair)) == _storage(U - S * V)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=1, max_size=12),
       st.integers(1, 12), st.integers(0, 4), st.integers(0, 4))
@example([1], 1, 1, 2)  # B = 1: the Toeplitz system is singular
def test_bareiss_pade_on_drawn_integer_series(nums, den, deg_num, deg_den):
    trunc = max(len(nums), deg_num + deg_den + 1)
    B = Series([F(c, den) for c in nums], trunc)
    # the plain record of the same integers, in lowest terms, holds B's storage
    R = IntSeries.of((nums, []), den, trunc)
    assert _storage(R) == _storage(B) and R.valuation() == B.valuation()
    try:
        oracle = _pade_oracle(B, deg_num, deg_den)
    except ChainError:
        with pytest.raises(ChainError):
            pade(B, deg_num, deg_den)
        with pytest.raises(ChainError):
            pade(R, deg_num, deg_den)
        return
    pair = pade(B, deg_num, deg_den)
    assert pair == _primitive(oracle) == pade(R, deg_num, deg_den)
    assert pade_residual(B, pair).valuation() == pair.contact_order
    # the residual record is U - B*V in Series arithmetic, cut to B.trunc
    U, V = Series(list(pair.U), trunc), Series(list(pair.V), trunc)
    assert _storage(pade_residual(R, pair)) == _storage(U - B * V)


def test_pade_refuses_a_singular_system_and_a_non_real_series():
    with pytest.raises(ChainError):
        pade(Series([1], 5), 1, 2)
    with pytest.raises(ValueError):
        pade(Series([GI, 1, 2], 3), 1, 1)


def test_pade_requires_enough_terms():
    a = newton_alpha_series(5)
    with pytest.raises(ChainError):
        pade(a, 10, 10)


_gauss_rats = st.lists(st.builds(lambda a, b, c, d: GaussRat(F(a, c), F(b, d)),
                                 st.integers(-50, 50), st.integers(-50, 50),
                                 st.integers(1, 12), st.integers(1, 12)), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_gauss_rats, _gauss_rats, st.integers(1, 8))
def test_the_one_storage_against_coefficientwise_q_i(a, b, trunc):
    # num over den in lowest terms: den is the least common denominator, the
    # coefficients read back, and a common factor in from_ints reduces away
    p, q = TPoly(a), TPoly(b)
    while a and not a[-1]:
        a = a[:-1]
    assert p.coeffs == a and p.degree() == len(a) - 1
    assert p.den == math.lcm(*(x.denominator for c in a for x in (c.re, c.im)))
    tripled = TPoly.from_ints(tuple([3 * x for x in xs] for xs in p.num), 3 * p.den)
    assert (tripled.num, tripled.den) == (p.num, p.den) and tripled == p
    prod = [sum((x * y for i, x in enumerate(a) for j, y in enumerate(b) if i + j == k), G0)
            for k in range(len(a) + len(b))]
    n = max(len(a), len(b))
    total = [x + y for x, y in zip(a + [G0] * n, b + [G0] * n)]
    assert p * q == TPoly(prod) and p + q == TPoly(total) and p - p == 0
    S, T = Series(a, trunc), Series(b, trunc)
    assert (S * T).coeffs == (prod + [G0] * trunc)[:trunc]
    assert (S - T + T).coeffs == (a + [G0] * trunc)[:trunc] and S == S - T + T


# q = 1 takes horner_sum's integer branch, as every integer tmin does; p up to 10^300
@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just([]), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=1),
                 st.lists(st.integers(-10**6, 10**6), max_size=8)),
       st.one_of(st.integers(1, 10**4), st.integers(1, 10**300)),
       st.one_of(st.just(1), st.integers(2, 50)))
@example([], 7, 1)
@example([5], 10**300, 1)
@example([3, -1, 2], 10**300, 1)
@example([3, -1, 2], 7, 2)
@example([3, -1, 2], 10**300 + 1, 3)
def test_horner_is_the_direct_sum(a, p, q):
    tmin = F(p, q)
    assert F(*horner(a, p, q)) == sum((F(c) / tmin ** d for d, c in enumerate(a)), F(0))


def test_tail_bound():
    s = Series([G(0), G(0), G(3), G(F(1, 2))], 4)
    # |3 s^2 + s^3/2| <= (3 + 1/200) / t^2 at |t| >= 100
    assert tail_bound(s, 2, F(100)) == F(3) + F(1, 200)
    with pytest.raises(ValueError):
        tail_bound(s, 3, F(100))


def test_thue_data_identities():
    # the structural identities behind the approximant construction
    thue_data()  # raises on any failed internal identity


def test_quartic_table_is_the_oracle_quartic():
    assert from_form([(row, ()) for row in series.QUARTIC]) == QUARTIC_ORACLE


def test_thue_data_matches_the_poly2_derivation():
    data, oracle = thue_data(), thue_data_oracle()
    for k in "PUY":
        assert from_form(data[k]) == oracle[k], k
    for k in "abcd":  # held without the prefactor 5/2
        assert F(5, 2) * from_form(data[k]) == oracle[k], k
    for k in "uz":  # held times 16
        assert from_form(data[k]) == 16 * oracle[k], k


def _bump(form):
    """The form plus 1 in its constant term."""
    return [zpoly.gadd(form[0], ((1,), ()))] + list(form[1:])


@pytest.mark.parametrize("entry, perturb, failed", [
    ("Y", _bump, "Y"),
    ("a", _bump, "a, ad-bc"),
    ("b", _bump, "b, ad-bc"),
    ("c", _bump, "c, ad-bc"),
    ("d", _bump, "d, ad-bc"),
    ("u", _bump, "u, uz"),
    ("z", _bump, "z, uz"),
    # (iU)^4 = U^4, so i U moves a d - b c alone; 2U moves u z as well
    ("U", lambda U: zpoly.fmul([((), (1,))], U), "ad-bc"),
    ("U", lambda U: zpoly.fmul([((2,), ())], U), "ad-bc, uz"),
], ids=["Y", "a", "b", "c", "d", "u", "z", "ad-bc", "uz"])
def test_each_thue_identity_fails_on_a_perturbed_entry(entry, perturb, failed):
    data = thue_data()
    concrete._check_thue_data(data)
    data[entry] = perturb(data[entry])
    with pytest.raises(ChainError) as err:
        concrete._check_thue_data(data)
    assert str(err.value) == f"thue_data identities failed: {failed}"


def test_differential_identity_fails_on_a_perturbed_quartic(monkeypatch):
    A, B = series.QUARTIC
    monkeypatch.setattr(concrete, "QUARTIC", ((2,) + A[1:], B))
    concrete._thue_data.cache_clear()
    try:
        with pytest.raises(ChainError, match="differential identity failed"):
            thue_data()
    finally:
        monkeypatch.undo()
        concrete._thue_data.cache_clear()
    thue_data()


def test_thue_data_check_fails_closed_under_python_O():
    # the identities must be checked by raises, not by asserts that -O strips
    code = (
        "import sys\n"
        "from thueq.concrete import ChainError, _check_thue_data, _thue_data\n"
        "if not sys.flags.optimize: sys.exit(3)\n"
        "data = dict(_thue_data())\n"
        "data['a'] = data['b']\n"
        "try:\n"
        "    _check_thue_data(data)\n"
        "except ChainError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_thue_data_checked_once_per_process(monkeypatch):
    checks = []
    real = concrete._check_thue_data
    monkeypatch.setattr(concrete, "_check_thue_data",
                        lambda data: checks.append(data) or real(data))
    concrete._thue_data.cache_clear()
    first, second = concrete._thue_data(), concrete._thue_data()
    assert len(checks) == 1
    assert first is second


def test_root_series_built_once():
    assert root_series(0) is root_series(0)
    # each record holds the storage of the Series its Q(i) builders give
    assert _storage(root_series(0)) == _storage(newton_alpha_series(31))
    assert (_storage(root_series(3))
            == _storage(alpha3_series(newton_alpha_series(31)).truncated(30)))
    assert root_series(3).trunc == 30
    with pytest.raises(ValueError):
        root_series(1)


def test_moebius_builder_runs_without_gaussrat_arithmetic(monkeypatch):
    # the type-3 series is built over Z: no GaussRat sum or product
    def refuse(*args):
        raise AssertionError("GaussRat arithmetic")

    for name in ("__add__", "__radd__", "__mul__"):
        monkeypatch.setattr(GaussRat, name, refuse)
    root_series.cache_clear()
    try:
        a3 = root_series(3)
        assert alpha3_series(newton_alpha_series(31)).truncated(30).num == a3.num
    finally:
        root_series.cache_clear()


def test_alpha3_series_refuses_all_but_an_integer_real_series():
    a = newton_alpha_series(31)
    for bad in (a * F(1, 2), a * GI, a + 1, Series([], 0)):
        with pytest.raises(ValueError):
            alpha3_series(bad)


def test_quotient_root_check(monkeypatch):
    assert quotient_root_check(0)
    assert quotient_root_check(3)
    # perturbing the closed form (2i for i) must break the identity
    monkeypatch.setitem(series.QUOTIENT_ROOTS, 0, (((), (-2, 2)), ((1, 1), ())))
    monkeypatch.setitem(series.QUOTIENT_ROOTS, 3, (((0, 1), (-2,)), ((1,), (0, -2))))
    assert not quotient_root_check(0)
    assert not quotient_root_check(3)


def test_approximants_are_gaussian_integral():
    for xi in (0, 1):
        for r in range(1, 6):
            p, q = approximants(xi, r)
            for poly in (p, q):
                assert all(c.is_gaussian_integer() for c in poly.coeffs)


def test_approximants_match_the_gaussrat_chi_star_oracle():
    for xi in (0, 1):
        for r in range(1, 7):
            p, q = approximants(xi, r)
            op, oq = approximants_oracle(xi, r)
            assert (p.coeffs, q.coeffs) == (op.coeffs, oq.coeffs), (xi, r)


def test_cross_product_nonvanishing():
    for xi in (0, 1):
        for r in range(1, 6):
            w = cross_product(xi, r)
            assert not w.is_zero()


def test_cross_product_is_the_closed_form_constant():
    # p_r q_{r+1} - p_{r+1} q_r does not depend on t: at xi = 0 it is
    # (-1)^(r+1) 4 delta_r delta_{r+1} prod_{k=1}^{r} (4k+1) / prod_{k=0}^{r} (4k+3),
    # for delta_r the denominator of chi_r, and at xi = 1 it is -2 times that
    for r in range(1, 21):
        c0 = F((-1) ** (r + 1) * 4 * chi_ints(r)[1] * chi_ints(r + 1)[1]
               * math.prod(4 * k + 1 for k in range(1, r + 1)),
               math.prod(4 * k + 3 for k in range(r + 1)))
        assert cross_product(0, r) == TPoly([c0]), r
        assert cross_product(1, r) == TPoly([-2 * c0]), r


def test_thue_polys_shape():
    t = GaussRat(F(0), F(100))
    A, B = thue_polys_at(2, t)
    assert A.degree() >= 1 and B.degree() >= 1


def _drawn_ts():
    """t = 100i, a non-integral t and seeded Gaussian rationals."""
    rng = random.Random(10)
    ts = [GaussRat(F(0), F(100)), GaussRat(F(37, 3), F(-512, 7))]
    for _ in range(4):
        ts.append(GaussRat(F(rng.randint(-10**4, 10**4), rng.randint(1, 60)),
                           F(rng.randint(-10**4, 10**4), rng.randint(1, 60))))
    return ts


def test_thue_polys_over_zi_match_the_q_i_oracle():
    for t in _drawn_ts():
        for r in range(7):
            A, B = thue_polys_at(r, t)
            oA, oB = _thue_polys_oracle(r, t)
            assert isinstance(A, concrete.TPoly) and isinstance(B, concrete.TPoly)
            assert A.coeffs == oA.coeffs and B.coeffs == oB.coeffs, (r, str(t))
            assert max(A.degree(), B.degree()) == 4 * r + 1


def test_thue_polys_are_the_homogenise_oracle_bit_for_bit():
    # integral, non-integral and 300-digit t: the weighted sum of the per-r
    # X-polynomials reduces to the numerator and denominator of homogeneous Horner
    big = 10**300
    ts = [GaussRat(F(5), F(-7)), GaussRat(F(0), F(100)), GaussRat(F(-4), F(0)),
          GaussRat(F(37, 3), F(-512, 7)), GaussRat(F(big + 7), F(-3 * big - 11)),
          GaussRat(F(big + 1, 7**5), F(2, big + 3)), GaussRat(F(0), F(4))]
    for t in ts:
        for r in range(7):
            for got, want in zip(thue_polys_at(r, t), thue_polys_at_oracle(r, t)):
                assert (got.num, got.den) == (want.num, want.den), (r, str(t))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(-10**40, 10**40), st.integers(1, 10**6),
       st.integers(-10**40, 10**40), st.integers(1, 10**6))
def test_thue_polys_on_drawn_t_are_the_homogenise_oracle(r, a, n, b, m):
    t = GaussRat(F(a, n), F(b, m))
    for got, want in zip(thue_polys_at(r, t), thue_polys_at_oracle(r, t)):
        assert (got.num, got.den) == (want.num, want.den)


def test_thue_x_polys_are_built_on_first_use_only():
    out = subprocess.run(
        [sys.executable, "-c", "from thueq import concrete; "
         "print(concrete._thue_x_polys.cache_info().currsize)"],
        capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
    concrete.thue_polys_at(3, GaussRat(F(0), F(100)))
    assert concrete._thue_x_polys.cache_info().currsize >= 1


def test_thue_polys_refuse_a_negative_order():
    with pytest.raises(ValueError):
        thue_polys_at(-1, GaussRat(F(0), F(100)))


def test_thue_polys_build_behind_the_identity_check(monkeypatch):
    def failing_check(data):
        raise ChainError("thue_data identities failed")

    monkeypatch.setattr(concrete, "_check_thue_data", failing_check)
    concrete._thue_data.cache_clear()
    try:
        with pytest.raises(ChainError):
            thue_polys_at(2, GaussRat(F(0), F(100)))
    finally:
        concrete._thue_data.cache_clear()
