"""Uniform root-enclosure certificates for the quartic family
f_t(X) = X^4 - tX^3 - 6X^2 + tX + 1.

A certificate states: for every complex t with |t| >= tmin, f_t has a root
within radius_c/|t|^radius_exp of center(1/t).  The proof is a Rouche
argument made uniform structurally: after expanding f(center+z) in powers
of z, each term is majorized by a monomial in w = 1/|t| with nonnegative
coefficient, so each bound is decreasing in |t| and may be evaluated once
at w = 1/tmin.  Each consumer checks the certificates it reads with ``require``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import zpoly
from .exactnum import TMIN_FLOOR, ChainError, Rat, pair_record
from .series import QUARTIC, ROOT_TRUNC, horner, root_series


# center: {power of t: int}, negative powers allowed; the margin is an unreduced pair
EnclosureCert = pair_record("EnclosureCert", "center radius_c radius_exp tmin verified margin",
                            "margin")


def _enclosure_split(center: dict, radius_c: Rat, radius_exp: int) -> tuple:
    """The tmin-free part of a certificate over Z: (lead, rest, den) with margin
    (lead - sum_d rest_d w^d) / den at w = 1/tmin and lead/den = |c0| radius_c for the
    dominant linear term c0 t^p0 z of h(z) = f(C + z), or (-1, (), 1), margin -1, if another
    term decays slower; a refused center raises.  C = {power of t: int} is held as t^lo times
    a dense list, and h_j = f^(j)(C)/j! = sum_i binom(i, j) f_i C^(i-j) as t^base times one."""
    if not all(isinstance(c, int) for c in center.values()):
        raise ChainError("center coefficients must be rational integers")
    lo = min(center, default=0)
    C = [center.get(p, 0) for p in range(lo, max(center, default=-1) + 1)]
    cpow = [*accumulate([C] * 4, zpoly.mul, initial=[1])]
    base = min(0, 4 * lo)  # below every power of t that occurs
    h: list[list[int]] = [[] for _ in range(5)]
    for e, row in enumerate(QUARTIC):  # f_i t^e X^i
        for i, f in enumerate(row):
            for j in range(i + 1):
                term = zpoly.scale(math.comb(i, j) * f, cpow[i - j])
                h[j] = zpoly.add(h[j], [0] * (e + (i - j) * lo - base) + term)
    # dominant: the linear term at the top power of t, t^(base + k0)
    k0 = max((k for k, c in enumerate(h[1]) if c), default=None)
    if k0 is None:
        raise ChainError("no linear term at the center (degenerate)")
    # every other term c t^(base + k) z^j adds |c| radius_c^j w^d, d its decay's excess
    # over the dominant's; with radius_c = rn/rd, den = rd^4 clears radius_c^j (j <= 4)
    rn, rd = radius_c.numerator, radius_c.denominator
    cleared = [rn ** j * rd ** (4 - j) for j in range(5)]
    rest: list[int] = []
    for j, hj in enumerate(h):
        for k, c in enumerate(hj):
            d = (j - 1) * radius_exp + k0 - k
            if not c or not d and j == 1:  # zero, or the dominant term itself
                continue
            if d < 0:  # decays slower than the dominant term: no uniform certificate
                return -1, (), 1
            rest += [0] * (d + 1 - len(rest))
            rest[d] += abs(c) * cleared[j]
    return abs(h[1][k0]) * cleared[1], tuple(rest), cleared[0]


def _certify(center: dict, radius_c: Rat, radius_exp: int, split: tuple, tmin: Rat):
    lead, rest, den = split
    n, d = horner(rest, tmin.numerator, tmin.denominator)  # d > 0: verified by the sign
    return EnclosureCert(center, radius_c, radius_exp, tmin, lead * d > n, (lead * d - n, den * d))


def certify_enclosure(center: dict, radius_c: Rat, radius_exp: int,
                      tmin: Rat) -> EnclosureCert:
    """Certify a root of f_t within radius_c/|t|^radius_exp of center(1/t)
    for all |t| >= tmin: one integer Horner sum at tmin on the certificate's split."""
    radius_c, tmin = Fraction(radius_c), Fraction(tmin)
    if tmin < 1:
        raise ValueError("tmin must be >= 1")
    split = _enclosure_split(center, radius_c, radius_exp)
    return _certify(center, radius_c, radius_exp, split, tmin)


# the four low-order root centers of the quartic
CENTER_ALPHA0 = {-1: -1}
CENTER_ALPHA1 = {0: -1}
CENTER_ALPHA3 = {0: 1}
CENTER_ALPHA2 = {1: 1}

ALPHA0_RADIUS = Fraction("5.01")   # alpha0 within 5.01/|t|^3
ALPHA13_RADIUS = Fraction("2.16")  # alpha1 and alpha3 within 2.16/|t|
# alpha2 within 5.02/|t|; equal to descent.STEP2_DIVISOR in value only
ALPHA2_RADIUS = Fraction("5.02")

BASE_CERT_PARAMS = [
    ("alpha0", CENTER_ALPHA0, ALPHA0_RADIUS, 3),
    ("alpha2", CENTER_ALPHA2, ALPHA2_RADIUS, 1),
    ("alpha1", CENTER_ALPHA1, ALPHA13_RADIUS, 1),
    ("alpha3", CENTER_ALPHA3, ALPHA13_RADIUS, 1),
]


# the high-order radii radius_c/|t|^radius_exp, by root type: type 0 is
# certificate B (root near 0), type 3 is certificate B3 (root near 1)
HIGH_ORDER = {0: (Fraction(271) * 10 ** 14, ROOT_TRUNC[0]),
              3: (Fraction(984) * 10 ** 13, ROOT_TRUNC[3])}

# the six certificates, in the order _certificates holds them
CERT_NAMES = (*(name for name, *_ in BASE_CERT_PARAMS), "B", "B3")
_CERT_INDEX = {name: i for i, name in enumerate(CERT_NAMES)}


@lru_cache(maxsize=None)
def _cert_splits() -> tuple:
    """(center, radius_c, radius_exp, split) of the six certificates, once per process."""
    params = [p[1:] for p in BASE_CERT_PARAMS]
    for s, radius in ((root_series(ti), HIGH_ORDER[ti]) for ti in (0, 3)):
        if s.den != 1 or s.num[1]:  # B's and B3's centers {-k: s_k} must lie in Z[[1/t]]
            raise ChainError("center coefficients must be rational integers")
        params.append(({-k: c for k, c in enumerate(s.num[0]) if c}, *radius))
    return tuple((*p, _enclosure_split(*p)) for p in params)


@lru_cache(maxsize=64)
def _certificates(tmin: Rat) -> tuple:
    """The six certificates at tmin, in CERT_NAMES order, once per tmin."""
    if tmin.numerator < tmin.denominator:
        raise ValueError("tmin must be >= 1")
    return tuple(_certify(*split, tmin) for split in _cert_splits())


def require(tmin: Rat, *names: str) -> None:
    """Check that each named certificate is verified at tmin, in order, or
    raise ChainError naming the first that is not."""
    tmin = Fraction(tmin)
    certs = _certificates(tmin)
    for name in names:
        if not certs[_CERT_INDEX[name]].verified:
            raise ChainError(f"root enclosure {name} unverified at tmin={tmin}")


def base_certificates(tmin: Rat = TMIN_FLOOR) -> dict[str, EnclosureCert]:
    """The four low-order certificates at tmin, a fresh dict on each call."""
    return dict(zip(CERT_NAMES[:4], _certificates(Fraction(tmin))))


def certify_high_order(which: str, tmin: Rat = TMIN_FLOOR) -> EnclosureCert:
    """The two long-center certificates: B (root near 0, truncation 31)
    and B3 (root near 1, truncation 30)."""
    if which not in ("B", "B3"):
        raise ValueError("which must be 'B' or 'B3'")
    return _certificates(Fraction(tmin))[_CERT_INDEX[which]]


def root_separation(tmin: Rat = TMIN_FLOOR) -> dict:
    """Certified distance bounds among the enclosed roots at |t| >= tmin:
    pairwise separation of the three small roots, distance from the large
    root to the others, and a lower bound on the root near 0."""
    tmin = Fraction(tmin)
    require(tmin, "alpha0", "alpha1", "alpha2", "alpha3")
    # over den = b p^4 for tmin = p/q: r0 = 5.01/tmin^3 and r1 = 2.16/tmin, the small radii
    (p, q), (a0, b0), (a1, b1), (a2, b2) = (x.as_integer_ratio() for x in (
        tmin, ALPHA0_RADIUS, ALPHA13_RADIUS, ALPHA2_RADIUS))
    b, pq = b0 * b1 * b2, p * p * q * q
    den, r0, r1 = b * p ** 4, a0 * b1 * b2 * p * q ** 3, a1 * b0 * b2 * p ** 3 * q
    return {
        # centers -1/t, -1, +1: pairwise distances minus radii, at |t| = tmin;
        # alpha0 is as far (>= 1 - 1/tmin) from alpha1 as from alpha3
        "min_pairwise": Fraction(min(den - b * p ** 3 * q - r0 - r1, 2 * den - 2 * r1), den),
        # distance from alpha2 (center t) to the small centers, in units of |t|:
        # |t - c| >= |t|(1 - (1 + r)/tmin) for |c| <= 1 + small, less 5.02/tmin^2
        "min_to_alpha2_coeff": Fraction(den - b * p ** 3 * q - b * pq - max(r0, r1) // p * q
                                        - a2 * b0 * b1 * pq, den),
        # |alpha0| >= |1/t| - r0, so scaled by |t|: >= 1 - 5.01/tmin^2
        "alpha0_lower_coeff": Fraction(den - a0 * b1 * b2 * pq, den),
    }
