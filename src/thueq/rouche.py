"""Uniform root-enclosure certificates for the quartic family
f_t(X) = X^4 - tX^3 - 6X^2 + tX + 1.

A certificate states: for every complex t with |t| >= tmin, f_t has a root
within radius_c/|t|^radius_exp of center(1/t).  The proof is a Rouche
argument made uniform structurally: after expanding f(center+z) in powers
of z, each term is majorized by a monomial in w = 1/|t| with nonnegative
coefficient, so each bound is decreasing in |t| and may be evaluated once
at w = 1/tmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Rat, sqrt_lower, sqrt_upper
from .series import QUARTIC, GaussRat, Poly2, Series, root_series


class CertificationError(ArithmeticError):
    pass


@dataclass(frozen=True)
class EnclosureCert:
    center: dict          # {power of t: GaussRat}, negative powers allowed
    radius_c: Rat
    radius_exp: int
    tmin: Rat
    verified: bool
    margin: Rat


def _h_coeffs(center: dict) -> list[dict]:
    """h_j = f^(j)(C)/j! as {power of t: coefficient} dicts,
    where h(z) = f(C + z) and C is the center."""
    C = Poly2({(0, p): c for p, c in center.items()})
    cpow = [Poly2.const(1)]
    for _ in range(4):
        cpow.append(cpow[-1] * C)
    h, deriv, fact = [], QUARTIC, 1
    for j in range(5):
        hj = sum((Poly2({(0, e): v / fact}) * cpow[i]
                  for (i, e), v in deriv.terms.items()), Poly2())
        h.append({e: c for (_, e), c in hj.terms.items()})
        deriv, fact = deriv.dX(), fact * (j + 1)
    return h


def certify_enclosure(center: dict, radius_c: Rat, radius_exp: int,
                      tmin: Rat) -> EnclosureCert:
    """Certify a root of f_t within radius_c/|t|^radius_exp of center(1/t)
    for all |t| >= tmin."""
    radius_c, tmin = Fraction(radius_c), Fraction(tmin)
    if tmin < 1:
        raise CertificationError("tmin must be >= 1")
    h = _h_coeffs(center)
    # every monomial c * t^p * z^j contributes |c| radius_c^j w^(j*radius_exp - p)
    terms = []  # (j, p, coeff)
    for j in range(1, 5):
        for p, c in h[j].items():
            terms.append((j, p, c))
    for p, c in h[0].items():
        terms.append((0, p, c))
    if not any(j == 1 for j, _, _ in terms):
        raise CertificationError("no linear term at the center (degenerate)")
    # dominant: the j=1 monomial with minimal exponent
    lin = [(1 * radius_exp - p, p, c) for j, p, c in terms if j == 1]
    e0 = min(e for e, _, _ in lin)
    dominants = [(e, p, c) for e, p, c in lin if e == e0]
    if len(dominants) != 1:
        raise CertificationError("dominant linear term not unique")
    _, p0, c0 = dominants[0]
    A = sqrt_lower(c0.abs_sq()) * radius_c
    w = 1 / tmin
    rest = Fraction(0)
    ok = True
    for j, p, c in terms:
        if j == 1 and p == p0:
            continue
        e = j * radius_exp - p
        if e < e0:
            # a non-dominant term decays slower than the dominant one:
            # no uniform certificate from this split
            ok = False
            break
        mag = sqrt_upper(c.abs_sq()) * radius_c ** j
        rest += mag * w ** (e - e0)
    if not ok:
        return EnclosureCert(center, radius_c, radius_exp, tmin, False, Fraction(-1))
    margin = A - rest
    return EnclosureCert(center, radius_c, radius_exp, tmin, margin > 0, margin)


# the four low-order root centers of the quartic
CENTER_ALPHA0 = {-1: GaussRat.of(-1)}
CENTER_ALPHA1 = {0: GaussRat.of(-1)}
CENTER_ALPHA3 = {0: GaussRat.of(1)}
CENTER_ALPHA2 = {1: GaussRat.of(1)}

BASE_CERT_PARAMS = [
    ("alpha0", CENTER_ALPHA0, Fraction("5.01"), 3),
    ("alpha2", CENTER_ALPHA2, Fraction("5.02"), 1),
    ("alpha1", CENTER_ALPHA1, Fraction("2.16"), 1),
    ("alpha3", CENTER_ALPHA3, Fraction("2.16"), 1),
]


def base_certificates(tmin: Rat = Fraction(100)) -> dict[str, EnclosureCert]:
    return {
        name: certify_enclosure(center, c, k, tmin)
        for name, center, c, k in BASE_CERT_PARAMS
    }


def _series_center(s: Series) -> dict:
    return {-k: c for k, c in enumerate(s.coeffs) if c}


# the high-order radii radius_c/|t|^radius_exp, by root type: type 0 is
# certificate B (root near 0), type 3 is certificate B3 (root near 1)
HIGH_ORDER = {0: (Fraction(271) * 10 ** 14, 31), 3: (Fraction(984) * 10 ** 13, 30)}


def certify_high_order(which: str, tmin: Rat = Fraction(100),
                       radius_scale: Rat = Fraction(1)) -> EnclosureCert:
    """The two long-center certificates: B (root near 0, truncation 31)
    and B3 (root near 1, truncation 30)."""
    if which not in ("B", "B3"):
        raise ValueError("which must be 'B' or 'B3'")
    type_index = 0 if which == "B" else 3
    radius_c, radius_exp = HIGH_ORDER[type_index]
    return certify_enclosure(_series_center(root_series(type_index)),
                             radius_c * Fraction(radius_scale), radius_exp, tmin)


def root_separation(tmin: Rat = Fraction(100)) -> dict:
    """Certified distance bounds among the enclosed roots at |t| >= tmin:
    pairwise separation of the three small roots, distance from the large
    root to the others, and a lower bound on the root near 0."""
    tmin = Fraction(tmin)
    certs = base_certificates(tmin)
    if not all(c.verified for c in certs.values()):
        raise CertificationError("base certificates unavailable")
    r0 = Fraction("5.01") / tmin ** 3
    r1 = Fraction("2.16") / tmin
    # |alpha0| >= | -1/t | - r0, so scaled by |t|: >= 1/t * (1 - 5.01/t^2)*...
    alpha0_lower_coeff = 1 - Fraction("5.01") / tmin ** 2
    # centers: -1/t, -1, +1; pairwise distances minus radii, at |t| = tmin
    d01 = 1 - 1 / tmin - r0 - r1
    d03 = 1 - 1 / tmin - r0 - r1  # |1 - (-1/t)| >= 1 - 1/tmin
    d13 = 2 - 2 * r1
    min_pairwise = min(d01, d03, d13)
    # distance from alpha2 (center t) to the small centers, in units of |t|:
    # |t - c| >= |t|(1 - (1 + r)/tmin) for |c| <= 1 + small
    worst_small = 1 + 1 / tmin + max(r0, r1)
    min_to_alpha2 = 1 - worst_small / tmin - Fraction("5.02") / tmin ** 2
    return {
        "min_pairwise": min_pairwise,
        "min_to_alpha2_coeff": min_to_alpha2,
        "alpha0_lower_coeff": alpha0_lower_coeff,
    }
