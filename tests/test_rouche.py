import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (certify_enclosure_oracle, enclosure_margin_oracle, enclosure_split_oracle,
                     outcome, taylor_terms_oracle)

from thueq import rouche
from thueq.exactnum import ChainError
from thueq.rouche import (
    BASE_CERT_PARAMS,
    CENTER_ALPHA0,
    HIGH_ORDER,
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
    with pytest.raises(ValueError):
        certify_enclosure(CENTER_ALPHA0, F("5.01"), 3, F(1, 2))


def test_root_separation():
    sep = root_separation()
    assert sep["min_pairwise"] >= F(1, 2)
    assert sep["min_to_alpha2_coeff"] > F("0.9")
    assert sep["alpha0_lower_coeff"] > F("0.99")


def test_taylor_coefficients_built_once_per_center(monkeypatch):
    calls = {"_enclosure_split": 0}
    for name in calls:
        real = getattr(rouche, name)
        monkeypatch.setattr(rouche, name, lambda *args, real=real, name=name:
                            calls.__setitem__(name, calls[name] + 1) or real(*args))
    caches = (rouche._cert_splits, rouche._certificates)
    for cache in caches:
        cache.cache_clear()
    try:
        for tmin in (F(100), F(1000)):
            base_certificates(tmin)
            base_certificates(tmin)
            certify_high_order("B", tmin)
            certify_high_order("B3", tmin)
        table, base = (cache.cache_info() for cache in caches)
    finally:
        for cache in caches:
            cache.cache_clear()
    # four base centers plus B and B3, each expanded and split once, into one
    # table that every tmin reads; the six certificates are built once per tmin
    assert calls == {"_enclosure_split": 6}
    assert (table.misses, table.hits) == (1, 1)
    assert (base.misses, base.hits) == (2, 6)


def test_base_certificates_are_a_fresh_dict_on_each_call():
    first = base_certificates(F(12345, 7))
    expected = dict(first)
    first["alpha0"] = first.pop("alpha2")
    first.clear()
    assert base_certificates(F(12345, 7)) == expected
    assert base_certificates(F(12345, 7)) is not base_certificates(F(12345, 7))


def test_a_refused_certificate_raises_on_every_call():
    # the linear monomials of f(C + z) have distinct powers of t and f' has
    # no root in Z[t, 1/t], so an integer center always has a unique
    # dominant term: the raises are for a non-integral center and tmin < 1
    for _ in range(2):
        for args, error in ((({0: F(1, 2)}, F(1), 1, F(100)), ChainError),
                            (({0: 1}, F("2.16"), 1, F(1, 2)), ValueError)):
            got = outcome(certify_enclosure, *args)
            assert got[0] is error
            assert got == outcome(certify_enclosure_oracle, *args)


def _six_certificates() -> list:
    """(center, radius_c, radius_exp) of the four base and the two
    high-order certificates."""
    out = [(center, c, k) for _, center, c, k in BASE_CERT_PARAMS]
    out += [(certify_high_order(which).center, *HIGH_ORDER[ti])
            for which, ti in (("B", 0), ("B3", 3))]
    return out


def test_integer_taylor_terms_match_the_poly2_expansion():
    for center, radius_c, radius_exp in _six_certificates():
        terms = taylor_terms_oracle(center)
        # the monomials are nonzero rational integers, one per power of t and z
        assert all(c and not c.im and c.re.denominator == 1 for _, _, c in terms)
        assert len({(j, p) for j, p, _ in terms}) == len(terms)
        for r in (radius_c, radius_c / 1000, radius_c * 3):
            split = rouche._enclosure_split(center, r, radius_exp)
            assert all(isinstance(x, int) for x in (split[0], *split[1], split[2])) and split[0]
            assert split == enclosure_split_oracle(center, r, radius_exp)


def test_margins_match_the_per_term_fraction_sum():
    for center, radius_c, radius_exp in _six_certificates():
        assert all(isinstance(c, int) for c in center.values())
        for r in (radius_c, radius_c / 1000, radius_c * 3):
            for tmin in (F(100), F(101), F(12345, 7), F(10**6), F(10**30)):
                cert = certify_enclosure(center, r, radius_exp, tmin)
                assert cert.margin == enclosure_margin_oracle(center, r, radius_exp, tmin)
                assert cert.verified == (cert.margin > 0)


def test_taylor_terms_refuse_a_non_integral_center():
    for c in (F(1, 2), GaussRat.of(F(1, 2)), GaussRat(F(0), F(1))):
        with pytest.raises(ChainError):
            certify_enclosure({0: c}, F("2.16"), 1, F(100))


TMIN = st.one_of(
    st.integers(min_value=1, max_value=10**7).map(F),
    st.builds(F, st.integers(min_value=1, max_value=10**9),
              st.integers(min_value=2, max_value=10**4)),
    st.integers(min_value=10**299, max_value=10**300).map(F),
    st.builds(F, st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=10)),
)


def _random_center(seed: int, center: dict) -> dict:
    """A seeded random center of ints: `center` with one coefficient moved and, at
    times, the lower powers of t cut off, or a sparse one with small coefficients."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        center = dict(center)
        p = rng.choice([*center, min(center) - 1])
        center[p] = center.get(p, 0) + rng.randint(-3, 3)
        return {q: c for q, c in center.items() if q >= p} if rng.random() < 0.3 else center
    lo = rng.randint(-8, 3)
    return {p: rng.randint(-5, 5) for p in rng.sample(range(lo, lo + 10), rng.randint(0, 6))}


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.sampled_from([F(1), F(1, 1000), F(3), F(7, 3)]),
       st.integers(min_value=-3, max_value=3), TMIN,
       st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)))
def test_certify_enclosure_equals_the_fraction_oracle(which, scale, exp_shift, tmin, seed):
    # the six certificates, with their radius scaled and their exponent
    # moved (from one more on, a term decays slower than the dominant one),
    # or a seeded random center near one of them or of small coefficients
    center, radius_c, radius_exp = _six_certificates()[which]
    if seed is not None:
        center = _random_center(seed, center)
    args = (center, radius_c * scale, max(radius_exp + exp_shift, 0), tmin)
    assert outcome(certify_enclosure, *args) == outcome(certify_enclosure_oracle, *args)


@pytest.mark.parametrize("tmin", [F(100), F(12345, 7), F(10**300)])
def test_base_and_high_order_certificates_equal_the_fraction_oracle(tmin):
    for name, center, c, k in BASE_CERT_PARAMS:
        assert base_certificates(tmin)[name] == certify_enclosure_oracle(center, c, k, tmin)
    for which, ti in (("B", 0), ("B3", 3)):
        cert = certify_high_order(which, tmin)
        assert cert == certify_enclosure_oracle(cert.center, *HIGH_ORDER[ti], tmin)
