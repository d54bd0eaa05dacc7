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

from .exactnum import ChainError, lines

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


def verify_lettl(rmax: int) -> tuple:
    """The (name, margin) pairs of two strict lines per r, 1 <= r <= rmax: 2^(r+2)(D/N)g1 <
    3.32*1.35^r and 2^(4r+3)(D/N)g2 < 1.6*10.7^r.  With g1 = r! 4^r / prod_{k<r} (4k+3) and
    g2 = prod_{k=1}^{r} (4k+1) / (4^(r+1) r!), the left sides are the pairs (2^(3r+2) D r!,
    N prod_{k<r} (4k+3)) and (2^(2r+1) D prod_{k=1}^{r} (4k+1), N r!)."""
    # the right sides 3.32*1.35^r and 1.6*10.7^r as running pairs, from 3.32 and 1.6 at r = 0
    (rhs1n, rhs1d), (qn, qd), (rhs2n, rhs2d), (en, ed) = (c.as_integer_ratio() for c in (
        LETTL_K0, LETTL_Q_BASE, LETTL_L0, LETTL_E_BASE))
    fact = odd3 = odd1 = 1  # r!, prod_{k<r} (4k+3), prod_{k=1}^{r} (4k+1)
    margins = ()
    for r in range(1, rmax + 1):
        fact, odd3, odd1 = fact * r, odd3 * (4 * r - 1), odd1 * (4 * r + 1)
        rhs1n, rhs1d, rhs2n, rhs2d = rhs1n * qn, rhs1d * qd, rhs2n * en, rhs2d * ed
        delta, n = denom_data(r)
        margins += lines(
            (f"Lettl bound 3.32*1.35^r at r={r}", (delta * fact << 3 * r + 2, n * odd3),
             (rhs1n, rhs1d), "<"),
            (f"Lettl bound 1.6*10.7^r at r={r}", (delta * odd1 << 2 * r + 1, n * fact),
             (rhs2n, rhs2d), "<"))
    return margins
