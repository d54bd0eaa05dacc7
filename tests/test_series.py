import subprocess
import sys
from fractions import Fraction as F

import pytest

from thueq.series import (
    DegeneratePadeError,
    GaussRat,
    Poly2,
    Series,
    alpha3_series,
    approximants,
    cross_product,
    newton_alpha_series,
    pade,
    pade_residual,
    quotient_root_check,
    root_series,
    tail_bound,
    thue_data,
    thue_polys_at,
)

G = GaussRat.of


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
    assert pair.U == (G(0), G(-1))
    assert pair.V == (G(1), G(0), G(5))
    assert pair.contact_order == 5


def test_pade_contact_orders():
    a = newton_alpha_series(31)
    for k in range(2, 8):
        pair = pade(a, k - 1, k - 1)
        assert pair.contact_order >= 2 * k - 1
        resid = pade_residual(a, pair)
        assert resid.valuation() >= 2 * k - 1


def test_pade_requires_enough_terms():
    a = newton_alpha_series(5)
    with pytest.raises(ArithmeticError):
        pade(a, 10, 10)


def test_tail_bound():
    s = Series([G(0), G(0), G(3), G(F(1, 2))], 4)
    # |3 s^2 + s^3/2| <= (3 + 1/200) / t^2 at |t| >= 100
    assert tail_bound(s, 2, F(100)) == F(3) + F(1, 200)
    with pytest.raises(ValueError):
        tail_bound(s, 3, F(100))


def test_thue_data_identities():
    # the structural identities behind the approximant construction
    thue_data()  # raises on any failed internal identity


def test_thue_data_check_fails_closed_under_python_O():
    # the identities must be checked by raises, not by asserts that -O strips
    code = (
        "import sys\n"
        "from thueq.series import _check_thue_data, thue_data\n"
        "if not sys.flags.optimize: sys.exit(3)\n"
        "data = thue_data()\n"
        "data['a'] = data['b']\n"
        "try:\n"
        "    _check_thue_data(data)\n"
        "except ArithmeticError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_root_series_built_once():
    assert root_series(0) is root_series(0)
    assert root_series(0) == newton_alpha_series(31)
    assert root_series(3) == alpha3_series(newton_alpha_series(31)).truncated(30)
    assert root_series(3).trunc == 30
    with pytest.raises(ValueError):
        root_series(1)


def test_poly2_evaluation_refuses_negative_t_powers():
    laurent = Poly2.X() + Poly2.t(-1)
    with pytest.raises(ValueError):
        laurent.eval_t(G(2))
    with pytest.raises(ValueError):
        laurent.eval_X(G(2))


def test_quotient_root_check():
    assert quotient_root_check("type0")
    assert quotient_root_check("type3")
    # perturbing the closed form must break the identity
    assert not quotient_root_check("type0", perturb=True)
    assert not quotient_root_check("type3", perturb=True)


def test_approximants_are_gaussian_integral():
    for xi in (0, 1):
        for r in range(1, 6):
            p, q = approximants(xi, r)
            for poly in (p, q):
                assert all(c.is_gaussian_integer() for c in poly.coeffs)


def test_cross_product_nonvanishing():
    for xi in (0, 1):
        for r in range(1, 6):
            w = cross_product(xi, r)
            assert not w.is_zero()


def test_thue_polys_shape():
    t = GaussRat(F(0), F(100))
    A, B = thue_polys_at(2, t)
    assert A.degree() >= 1 and B.degree() >= 1
