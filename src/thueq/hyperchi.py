"""The terminating hypergeometric family chi_r = 2F1(-r, -r-1/4; 3/4; X),
its denominator-clearing integers, exact gamma-ratio products and finite-r
verification of the growth bounds they satisfy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from . import zpoly

Rat = Fraction

# the Lettl growth constants, certified by verify_lettl
LETTL_K0, LETTL_Q_BASE = Fraction("3.32"), Fraction("1.35")
LETTL_L0, LETTL_E_BASE = Fraction("1.6"), Fraction("10.7")


@dataclass(frozen=True)
class DenomData:
    r: int
    delta: int          # lcm of denominators of chi_r
    n_gcd: int          # gcd of numerators of chi_r(1 - 8X)
    cleared: tuple      # integer coefficients of (delta/n_gcd) chi_r(1-8X)


class LettlBoundViolation(ArithmeticError):
    pass


@lru_cache(maxsize=None)
def chi_coeffs(r: int) -> tuple:
    """Coefficient of X^k is (-r)_k (-r-1/4)_k / ((3/4)_k k!), from integer
    running products of the term ratio (k-r)(4k-4r-1) / ((4k+3)(k+1))."""
    out = [Fraction(1)]
    num = den = 1
    for k in range(r):
        num *= (k - r) * (4 * k - 4 * r - 1)
        den *= (4 * k + 3) * (k + 1)
        out.append(Fraction(num, den))
    return tuple(out)


def chi_ints(r: int) -> tuple[list[int], int]:
    """The numerators of chi_r = sum_k n_k X^k / delta, and delta, their common denominator."""
    cs = chi_coeffs(r)
    delta = reduce(math.lcm, (c.denominator for c in cs))
    return [c.numerator * (delta // c.denominator) for c in cs], delta


@lru_cache(maxsize=None)
def denom_data(r: int) -> DenomData:
    """delta, n_gcd and the primitive cleared chi_r(1 - 8X): the coefficients
    are scaled by delta to integers first, then Taylor-shifted to 1 and the
    X^k coefficient scaled by (-8)^k."""
    if r < 1:
        raise ValueError("r must be >= 1")
    nums, delta = chi_ints(r)
    if any(delta % c.denominator for c in chi_coeffs(r)):
        raise ArithmeticError(f"delta does not clear chi_{r}")
    shifted, _ = zpoly.gshift((nums, ()), (1, 0))
    acc = [c * (-8) ** k for k, c in enumerate(shifted)]
    n_gcd = reduce(math.gcd, acc)
    cleared = tuple(n // n_gcd for n in acc)
    if reduce(math.gcd, cleared) != 1:
        raise ArithmeticError(f"cleared chi_{r}(1 - 8X) is not primitive")
    return DenomData(r, delta, n_gcd, cleared)


def gamma_ratio_g1(r: int) -> Rat:
    """Gamma(3/4) r! / Gamma(r+3/4) = r! / prod_{k=0}^{r-1} (k + 3/4)."""
    return Fraction(math.factorial(r) * 4 ** r, math.prod(4 * k + 3 for k in range(r)))


def gamma_ratio_g2(r: int) -> Rat:
    """Gamma(r+5/4) / (Gamma(1/4) r!) = (1/4) prod_{k=1}^{r} (k + 1/4) / r!."""
    return Fraction(math.prod(4 * k + 1 for k in range(1, r + 1)),
                    4 ** (r + 1) * math.factorial(r))


def verify_lettl(rmax: int) -> list[dict]:
    """Exact check of 2^(r+2)(D/N)g1 < 3.32*1.35^r and
    2^(4r+3)(D/N)g2 < 1.6*10.7^r for 1 <= r <= rmax; returns margins."""
    rows = []
    for r in range(1, rmax + 1):
        dd = denom_data(r)
        ratio = Fraction(dd.delta, dd.n_gcd)
        lhs1 = 2 ** (r + 2) * ratio * gamma_ratio_g1(r)
        rhs1 = LETTL_K0 * LETTL_Q_BASE ** r
        lhs2 = 2 ** (4 * r + 3) * ratio * gamma_ratio_g2(r)
        rhs2 = LETTL_L0 * LETTL_E_BASE ** r
        if lhs1 >= rhs1 or lhs2 >= rhs2:
            raise LettlBoundViolation(f"bound fails at r={r}")
        rows.append({"r": r, "margin1": rhs1 - lhs1, "margin2": rhs2 - lhs2})
    return rows
