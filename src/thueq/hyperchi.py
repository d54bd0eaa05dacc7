"""The terminating hypergeometric family chi_r = 2F1(-r, -r-1/4; 3/4; X),
its denominator-clearing integers, exact gamma-ratio products and finite-r
verification of the growth bounds they satisfy."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .exactnum import ChainError, Rat, lines

# the Lettl growth constants, certified by verify_lettl
LETTL_K0, LETTL_Q_BASE = Fraction("3.32"), Fraction("1.35")
LETTL_L0, LETTL_E_BASE = Fraction("1.6"), Fraction("10.7")


# delta: the denominator of chi_r; n: N_r = 8^r, dividing delta chi_r(1 - 8X)
DenomData = namedtuple("DenomData", "delta n")


def chi_ints(r: int) -> tuple[list[int], int]:
    """The numerators of chi_r = sum_k n_k X^k / delta, and delta, their common
    denominator.  The coefficient of X^k is (-r)_k (-r-1/4)_k / ((3/4)_k k!),
    the running product of the term ratio (k-r)(4k-4r-1) / ((4k+3)(k+1)):
    the products are taken over the full denominator D = prod_{k<r} (4k+3)(k+1),
    then divided by their one gcd."""
    # num_k = prod_{j<k} (j-r)(4j-4r-1), and D / den_k = prod_{k<=j<r} (4j+3)(j+1)
    heads = accumulate(((k - r) * (4 * k - 4 * r - 1) for k in range(r)), mul, initial=1)
    tails = [*accumulate(((4 * k + 3) * (k + 1) for k in reversed(range(r))), mul, initial=1)]
    raw = [h * t for h, t in zip(heads, reversed(tails))]
    g = math.gcd(*raw)  # divides raw[0] = D, so delta = D / g is the least denominator
    return [n // g for n in raw], tails[-1] // g


@lru_cache(maxsize=None)
def chi_coeffs(r: int) -> tuple:
    """The coefficients of chi_r, from X^0 up, as fractions: a view of chi_ints."""
    nums, delta = chi_ints(r)
    return tuple(Fraction(n, delta) for n in nums)


@lru_cache(maxsize=None)
def denom_data(r: int) -> DenomData:
    """delta, checked to clear chi_r, and N_r = 8^r.  The X^k coefficient of
    delta chi_r(1 - 8X) is c_k = (-8)^k delta chi_r^(k)(1)/k!, and for
    chi_r = sum a_k X^k, a_k = C(r,k) prod_{j<k} (4r+1-4j)/(4j+3), Chu-Vandermonde
    gives chi_r^(k)(1)/k! = a_k 4^(r-k) (2r-k)!/(r! prod_{k<=j<r} (4j+3)).  The
    products over j are odd, and C(r,k) (2r-k)!/r! = C(2r-k,k) 2^(r-k) (2r-2k-1)!!,
    so v2(c_k) >= 3k + 2(r-k) + (r-k) = 3r: 8^r divides every c_k, and as delta
    is odd it is the whole 2-part of c_0, so of their gcd."""
    if r < 1:
        raise ValueError("r must be >= 1")
    nums, delta = chi_ints(r)
    # the n_k / delta are chi_r's coefficients, by its term ratio: delta clears chi_r
    if nums[0] != delta or any(
            nums[k + 1] * (4 * k + 3) * (k + 1) != nums[k] * (k - r) * (4 * k - 4 * r - 1)
            for k in range(r)):
        raise ChainError(f"delta does not clear chi_{r}")
    return DenomData(delta, 8 ** r)


def gamma_ratio_g1(r: int) -> Rat:
    """Gamma(3/4) r! / Gamma(r+3/4) = r! / prod_{k=0}^{r-1} (k + 3/4)."""
    return Fraction(math.factorial(r) * 4 ** r, math.prod(4 * k + 3 for k in range(r)))


def gamma_ratio_g2(r: int) -> Rat:
    """Gamma(r+5/4) / (Gamma(1/4) r!) = (1/4) prod_{k=1}^{r} (k + 1/4) / r!."""
    return Fraction(math.prod(4 * k + 1 for k in range(1, r + 1)),
                    4 ** (r + 1) * math.factorial(r))


def verify_lettl(rmax: int) -> list[dict]:
    """Two strict lines per r: 2^(r+2)(D/N)g1 < 3.32*1.35^r and
    2^(4r+3)(D/N)g2 < 1.6*10.7^r, for 1 <= r <= rmax; returns the margins."""
    rows = []
    for r in range(1, rmax + 1):
        ratio = Fraction(*denom_data(r))
        (_, m1), (_, m2) = lines(
            (f"Lettl bound 3.32*1.35^r at r={r}", 2 ** (r + 2) * ratio * gamma_ratio_g1(r),
             LETTL_K0 * LETTL_Q_BASE ** r, "<"),
            (f"Lettl bound 1.6*10.7^r at r={r}", 2 ** (4 * r + 3) * ratio * gamma_ratio_g2(r),
             LETTL_L0 * LETTL_E_BASE ** r, "<"))
        rows.append({"r": r, "margin1": m1, "margin2": m2})
    return rows
