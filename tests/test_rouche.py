from fractions import Fraction as F

import pytest
from oracles import QUARTIC, Poly2, enclosure_margin_oracle

from thueq import rouche
from thueq.rouche import (
    BASE_CERT_PARAMS,
    CENTER_ALPHA0,
    HIGH_ORDER,
    CertificationError,
    base_certificates,
    certify_enclosure,
    certify_high_order,
    root_separation,
)
from thueq.series import GaussRat


def test_base_certificates_verify():
    certs = base_certificates()
    assert set(certs) == {"alpha0", "alpha1", "alpha2", "alpha3"}
    for cert in certs.values():
        assert cert.verified
        assert cert.margin > 0


def test_base_certificate_radii():
    certs = base_certificates()
    assert (certs["alpha0"].radius_c, certs["alpha0"].radius_exp) == (F("5.01"), 3)
    assert (certs["alpha2"].radius_c, certs["alpha2"].radius_exp) == (F("5.02"), 1)
    assert (certs["alpha1"].radius_c, certs["alpha1"].radius_exp) == (F("2.16"), 1)
    assert (certs["alpha3"].radius_c, certs["alpha3"].radius_exp) == (F("2.16"), 1)


def test_base_certificates_negative_control():
    # a 1000x tighter disc must not certify: the dominant term no longer wins
    for _, center, c, k in BASE_CERT_PARAMS:
        cert = certify_enclosure(center, c / 1000, k, F(100))
        assert not cert.verified


def test_high_order_certificates_verify():
    for which in ("B", "B3"):
        cert = certify_high_order(which)
        assert cert.verified
        assert cert.margin > 0


def test_high_order_negative_control():
    for which, type_index in (("B", 0), ("B3", 3)):
        radius_c, radius_exp = HIGH_ORDER[type_index]
        center = certify_high_order(which).center
        cert = certify_enclosure(center, radius_c / 1000, radius_exp, F(100))
        assert not cert.verified


def test_certificates_improve_with_larger_tmin():
    a = certify_enclosure(CENTER_ALPHA0, F("5.01"), 3, F(100))
    b = certify_enclosure(CENTER_ALPHA0, F("5.01"), 3, F(1000))
    assert a.verified and b.verified
    assert b.margin > a.margin


def test_tmin_domain():
    with pytest.raises(CertificationError):
        certify_enclosure(CENTER_ALPHA0, F("5.01"), 3, F(1, 2))


def test_root_separation():
    sep = root_separation()
    assert sep["min_pairwise"] >= F(1, 2)
    assert sep["min_to_alpha2_coeff"] > F("0.9")
    assert sep["alpha0_lower_coeff"] > F("0.99")


def test_taylor_coefficients_built_once_per_center():
    rouche._taylor_terms.cache_clear()
    try:
        for tmin in (F(100), F(1000)):
            base_certificates(tmin)
            certify_high_order("B", tmin)
            certify_high_order("B3", tmin)
        info = rouche._taylor_terms.cache_info()
    finally:
        rouche._taylor_terms.cache_clear()
    # four base centers plus B and B3, each expanded once
    assert (info.misses, info.hits) == (6, 6)


def _taylor_terms_oracle(center: dict) -> set:
    """The old expansion of f(C + z) on Poly2 over Q(i): {(j, p, c)}."""
    C = Poly2({(0, p): c for p, c in center.items()})
    cpow = [Poly2.const(1)]
    for _ in range(4):
        cpow.append(cpow[-1] * C)
    out, deriv, fact = set(), QUARTIC, 1
    for j in range(5):
        h = sum((Poly2({(0, e): v / fact}) * cpow[i]
                 for (i, e), v in deriv.terms.items()), Poly2())
        out |= {(j, p, c) for (_, p), c in h.terms.items()}
        deriv, fact = deriv.dX(), fact * (j + 1)
    return out


def test_integer_taylor_terms_match_the_poly2_expansion():
    centers = [center for _, center, _, _ in BASE_CERT_PARAMS]
    centers += [certify_high_order(which).center for which in ("B", "B3")]
    for center in centers:
        terms = rouche._taylor_terms(tuple(sorted(center.items())))
        assert all(isinstance(c, int) and c for _, _, c in terms)
        assert len(set(terms)) == len(terms)
        assert {(j, p, GaussRat.of(c)) for j, p, c in terms} == _taylor_terms_oracle(center)


def _six_certificates() -> list:
    """(center, radius_c, radius_exp) of the four base and the two
    high-order certificates."""
    out = [(center, c, k) for _, center, c, k in BASE_CERT_PARAMS]
    out += [(certify_high_order(which).center, *HIGH_ORDER[ti])
            for which, ti in (("B", 0), ("B3", 3))]
    return out


def test_margins_match_the_per_term_fraction_sum():
    for center, radius_c, radius_exp in _six_certificates():
        assert all(isinstance(c, int) for c in center.values())
        terms = rouche._taylor_terms(tuple(sorted(center.items())))
        for r in (radius_c, radius_c / 1000, radius_c * 3):
            for tmin in (F(100), F(101), F(12345, 7), F(10**6), F(10**30)):
                cert = certify_enclosure(center, r, radius_exp, tmin)
                assert cert.margin == enclosure_margin_oracle(terms, r, radius_exp, tmin)
                assert cert.verified == (cert.margin > 0)


def test_taylor_terms_refuse_a_non_integral_center():
    for c in (F(1, 2), GaussRat.of(F(1, 2)), GaussRat(F(0), F(1))):
        with pytest.raises(CertificationError):
            certify_enclosure({0: c}, F("2.16"), 1, F(100))
