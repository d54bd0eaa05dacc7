"""The terminating hypergeometric family chi_r = 2F1(-r, -r-1/4; 3/4; X),
its denominator-clearing integers, exact gamma-ratio products and finite-r
verification of the growth bounds they satisfy."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

Rat = Fraction


@dataclass(frozen=True)
class ChiPoly:
    r: int
    coeffs: tuple  # Rat, ascending, length r+1


@dataclass(frozen=True)
class DenomData:
    r: int
    delta: int          # lcm of denominators of chi_r
    n_gcd: int          # gcd of numerators of chi_r(1 - 8X)
    cleared: tuple      # integer coefficients of (delta/n_gcd) chi_r(1-8X)


class LettlBoundViolation(ArithmeticError):
    pass


@lru_cache(maxsize=None)
def chi(r: int) -> ChiPoly:
    if r < 0:
        raise ValueError("r must be nonnegative")
    return ChiPoly(r, tuple(chi_coeffs(r)))


@lru_cache(maxsize=None)
def chi_coeffs(r: int) -> tuple:
    """Coefficient of X^k is (-r)_k (-r-1/4)_k / ((3/4)_k k!)."""
    a = Fraction(-r)
    b = Fraction(-4 * r - 1, 4)
    c = Fraction(3, 4)
    out = [Fraction(1)]
    term = Fraction(1)
    for k in range(r):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1))
        out.append(term)
    return tuple(out)


def _compose_1_minus_8x(coeffs) -> list:
    """p(1 - 8X) by Horner in the shifted variable."""
    acc = [Fraction(0)]
    for c in reversed(coeffs):
        # acc = acc * (1 - 8X) + c
        new = [Fraction(0)] * (len(acc) + 1)
        for k, a in enumerate(acc):
            new[k] += a
            new[k + 1] -= 8 * a
        new[0] += c
        acc = new
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return acc


@lru_cache(maxsize=None)
def denom_data(r: int) -> DenomData:
    if r < 1:
        raise ValueError("r must be >= 1")
    cs = chi_coeffs(r)
    delta = reduce(math.lcm, (c.denominator for c in cs))
    shifted = _compose_1_minus_8x(cs)
    # after scaling by delta all shifted coefficients are integers
    nums = [c * delta for c in shifted]
    if any(n.denominator != 1 for n in nums):
        raise ArithmeticError(f"delta does not clear chi_{r}(1 - 8X)")
    n_gcd = reduce(math.gcd, (abs(n.numerator) for n in nums))
    cleared = tuple(n.numerator // n_gcd for n in nums)
    if reduce(math.gcd, map(abs, cleared)) != 1:
        raise ArithmeticError(f"cleared chi_{r}(1 - 8X) is not primitive")
    return DenomData(r, delta, n_gcd, cleared)


def denom_data_by_valuation(r: int) -> tuple[int, int]:
    """Independent (delta, N) computation prime by prime.

    Candidate primes come from factoring one denominator lcm (for delta)
    and one coefficient gcd (for N); the per-prime valuations are then
    recomputed coefficient by coefficient.
    """
    cs = chi_coeffs(r)
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    delta = 1
    for p in _trial_factor(den_lcm):
        e = max(_val(c.denominator, p) for c in cs)
        delta *= p ** e
    shifted = [c * delta for c in _compose_1_minus_8x(cs)]
    ints = [abs(c.numerator) for c in shifted if c != 0]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    n = 1
    for p in _trial_factor(g):
        e = min(_val(v, p) for v in ints)
        n *= p ** e
    return delta, n


def _trial_factor(n: int) -> list:
    """Distinct prime factors by trial division (a leftover cofactor above
    the trial bound is itself prime for the sizes arising here)."""
    out = []
    for p in range(2, 1 + math.isqrt(n)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _val(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def gamma_ratio_g1(r: int) -> Rat:
    """Gamma(3/4) r! / Gamma(r+3/4) = r! / prod_{k=0}^{r-1} (k + 3/4)."""
    num = Fraction(math.factorial(r))
    den = Fraction(1)
    for k in range(r):
        den *= k + Fraction(3, 4)
    return num / den


def gamma_ratio_g2(r: int) -> Rat:
    """Gamma(r+5/4) / (Gamma(1/4) r!) = (1/4) prod_{k=1}^{r} (k + 1/4) / r!."""
    prod = Fraction(1, 4)
    for k in range(1, r + 1):
        prod *= k + Fraction(1, 4)
    return prod / math.factorial(r)


def verify_lettl(rmax: int) -> list[dict]:
    """Exact check of 2^(r+2)(D/N)g1 < 3.32*1.35^r and
    2^(4r+3)(D/N)g2 < 1.6*10.7^r for 1 <= r <= rmax; returns margins."""
    rows = []
    c1, b1 = Fraction("3.32"), Fraction("1.35")
    c2, b2 = Fraction("1.6"), Fraction("10.7")
    for r in range(1, rmax + 1):
        dd = denom_data(r)
        ratio = Fraction(dd.delta, dd.n_gcd)
        lhs1 = 2 ** (r + 2) * ratio * gamma_ratio_g1(r)
        rhs1 = c1 * b1 ** r
        lhs2 = 2 ** (4 * r + 3) * ratio * gamma_ratio_g2(r)
        rhs2 = c2 * b2 ** r
        if lhs1 >= rhs1 or lhs2 >= rhs2:
            raise LettlBoundViolation(f"bound fails at r={r}")
        rows.append({"r": r, "margin1": rhs1 - lhs1, "margin2": rhs2 - lhs2})
    return rows


def chi_ode_residual(r: int) -> list:
    """Coefficients of X(1-X) y'' + (3/4 - (a+b+1)X) y' - a b y for y = chi_r;
    identically zero when the terminating sum is transcribed correctly."""
    a = Fraction(-r)
    b = Fraction(-4 * r - 1, 4)
    c = Fraction(3, 4)
    y = list(chi_coeffs(r))
    d1 = [k * y[k] for k in range(1, len(y))] or [Fraction(0)]
    d2 = [k * d1[k] for k in range(1, len(d1))] or [Fraction(0)]
    n = len(y) + 2
    # X(1-X)y'' = X y'' - X^2 y'': shift y'' coefficients up by one and two
    res = [Fraction(0)] * n
    for k, v in enumerate(d2):
        res[k + 1] += v
        res[k + 2] -= v
    for k, v in enumerate(d1):
        res[k] += c * v
        res[k + 1] -= (a + b + 1) * v
    for k, v in enumerate(y):
        res[k] -= a * b * v
    return res
