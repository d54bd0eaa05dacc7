"""Exact rational substrate: intervals with rational endpoints, certified
logarithm enclosures, fractional-power comparisons and complex ball
arithmetic.

Every routine here either returns an exact rational or an enclosure that
provably contains the true real/complex value.  No floating point enters
any certified path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction

#: fractional bits of the outward-rounding grid for ball radii
GRID_BITS = 128


class DomainError(ValueError):
    pass


class UndefinedKappaError(ValueError):
    """log|t| - 2.59 is not certifiably positive."""


class IndeterminateBallError(ZeroDivisionError):
    """Divisor ball contains 0."""


# ---------------------------------------------------------------------------
# rounding helpers

def round_up_grid(x: Rat, bits: int = GRID_BITS) -> Rat:
    """Smallest multiple of 2**-bits that is >= x."""
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def round_down_grid(x: Rat, bits: int = GRID_BITS) -> Rat:
    scale = 1 << bits
    return Fraction((x.numerator * scale) // x.denominator, scale)


def _dec_exponent(x: Rat) -> int:
    """e such that 10**e <= x < 10**(e+1), for x > 0."""
    if x <= 0:
        raise DomainError("positive value required")
    # crude estimate from bit lengths: log10(x) ~ 0.30103 * log2(x)
    e = (x.numerator.bit_length() - x.denominator.bit_length()) * 30103 // 100000
    # correct the crude estimate
    while x >= Fraction(10) ** (e + 1):
        e += 1
    while x < Fraction(10) ** e:
        e -= 1
    return e


def round_up_sig(x: Rat, digits: int = 4) -> Rat:
    """Round a positive rational up to `digits` significant decimal digits."""
    if x == 0:
        return Fraction(0)
    e = _dec_exponent(x)
    q = Fraction(10) ** (e - digits + 1)
    return Fraction(-((-x.numerator * q.denominator) // (x.denominator * q.numerator))) * q


def round_down_sig(x: Rat, digits: int = 4) -> Rat:
    if x == 0:
        return Fraction(0)
    e = _dec_exponent(x)
    q = Fraction(10) ** (e - digits + 1)
    return Fraction((x.numerator * q.denominator) // (x.denominator * q.numerator)) * q


def round_nearest_sig(x: Rat, digits: int = 4) -> Rat:
    if x == 0:
        return Fraction(0)
    e = _dec_exponent(x)
    q = Fraction(10) ** (e - digits + 1)
    n = x / q
    m = (2 * n.numerator + n.denominator) // (2 * n.denominator)  # round half up
    return m * q


def sig_str(x: Rat, digits: int = 4) -> str:
    """Decimal hint with `digits` significant digits (nearest)."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    r = round_nearest_sig(abs(x), digits)
    e = _dec_exponent(r)
    m = r / Fraction(10) ** (e - digits + 1)
    ms = str(m.numerator).rstrip()
    mant = ms[0] + "." + ms[1:]
    mant = mant.rstrip("0").rstrip(".")
    return f"{sign}{mant}e{e}" if (e < -1 or e >= digits + 2) else sign + _plain_decimal(r)


def _plain_decimal(r: Rat) -> str:
    e = _dec_exponent(r)
    if e >= 0:
        scaled = r
        shift = 0
        while scaled.denominator != 1:
            scaled *= 10
            shift += 1
        s = str(scaled.numerator)
        return s if shift == 0 else s[:-shift] + "." + s[-shift:]
    shift = 0
    scaled = r
    while scaled.denominator != 1:
        scaled *= 10
        shift += 1
    s = str(scaled.numerator).rjust(shift, "0")
    return "0." + s.rjust(shift, "0")


# ---------------------------------------------------------------------------
# integer roots and square roots of rationals (certified bounds)

def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for integers n >= 0, k >= 1, by integer Newton
    iteration from an upper bound (the iterates decrease to the floor)."""
    if n < 0 or k < 1:
        raise DomainError("iroot needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def sqrt_lower(q: Rat, bits: int = GRID_BITS) -> Rat:
    """Rational lower bound for sqrt(q), q >= 0."""
    if q < 0:
        raise DomainError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = (q.numerator * scale * scale) // q.denominator
    return Fraction(math.isqrt(n), scale)


def sqrt_upper(q: Rat, bits: int = GRID_BITS) -> Rat:
    if q < 0:
        raise DomainError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = -((-q.numerator * scale * scale) // q.denominator)
    s = math.isqrt(n)
    if s * s < n:
        s += 1
    return Fraction(s, scale)


# ---------------------------------------------------------------------------
# intervals

@dataclass(frozen=True)
class RatInterval:
    lo: Rat
    hi: Rat

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Rat:
        return self.hi - self.lo

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def shift(self, c: Rat) -> "RatInterval":
        return RatInterval(self.lo + c, self.hi + c)

    def scale(self, c: Rat) -> "RatInterval":
        if c >= 0:
            return RatInterval(self.lo * c, self.hi * c)
        return RatInterval(self.hi * c, self.lo * c)

    def div_pos(self, other: "RatInterval") -> "RatInterval":
        """Division assuming both intervals are strictly positive."""
        if other.lo <= 0:
            raise DomainError("divisor interval not strictly positive")
        return RatInterval(self.lo / other.hi, self.hi / other.lo)


def _atanh_enclosure(u: Rat, tail_budget: Rat) -> RatInterval:
    """Enclosure of atanh(u) for |u| < 1/2 with tail <= tail_budget."""
    u2 = u * u
    term = u
    total = Fraction(0)
    k = 0
    while True:
        total += term / (2 * k + 1)
        term *= u2
        k += 1
        # remaining tail bounded by geometric series
        tail = abs(term) / ((2 * k + 1) * (1 - u2))
        if tail <= tail_budget:
            break
    return RatInterval(total - tail, total + tail)


_LN2_CACHE: dict[int, RatInterval] = {}


def _ln2(tail_budget: Rat) -> RatInterval:
    key = _dec_exponent(tail_budget) if tail_budget > 0 else 0
    iv = _LN2_CACHE.get(key)
    if iv is None:
        iv = _atanh_enclosure(Fraction(1, 3), tail_budget / 2).scale(2)
        _LN2_CACHE[key] = iv
    return iv


def ln_enclosure(x: Rat, target_width: Rat) -> RatInterval:
    """Interval containing ln(x), of width <= target_width.

    ln x = k ln 2 + 2 atanh((m-1)/(m+1)) after reducing x = 2**k * m with
    m in [3/4, 3/2); both series tails are bounded geometrically.
    """
    x = Fraction(x)
    if x <= 0:
        raise DomainError("ln of non-positive value")
    if target_width <= 0:
        raise DomainError("target_width must be positive")
    if x == 1:
        return RatInterval(Fraction(0), Fraction(0))
    k = 0
    m = x
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    budget = target_width / 4
    total = _atanh_enclosure((m - 1) / (m + 1), budget / 2).scale(2)
    if k != 0:
        total = total + _ln2(budget / (2 * abs(k))).scale(k)
    # outward-round endpoints onto a power-of-two grid to cap denominators
    bits = max(8, (4 * target_width.denominator.bit_length() // 4) + 8)
    while Fraction(2, 1 << bits) > target_width / 4:
        bits += 8
    return RatInterval(round_down_grid(total.lo, bits), round_up_grid(total.hi, bits))


KAPPA_NUM_SHIFT = Fraction("1.08")
KAPPA_DEN_SHIFT = Fraction("2.59")


def kappa(t_abs: Rat, target_width: Rat) -> RatInterval:
    """Enclosure of (ln|t| + 1.08) / (ln|t| - 2.59)."""
    t_abs = Fraction(t_abs)
    if t_abs <= 0:
        raise DomainError("t_abs must be positive")
    w = min(Fraction(target_width), Fraction(1, 16))
    for _ in range(64):
        ln_t = ln_enclosure(t_abs, w)
        den_lo = ln_t.lo - KAPPA_DEN_SHIFT
        if ln_t.hi - KAPPA_DEN_SHIFT <= 0:
            raise UndefinedKappaError(f"log({t_abs}) <= 2.59")
        if den_lo <= 0:
            w /= 4
            continue
        num = ln_t.shift(KAPPA_NUM_SHIFT)
        den = ln_t.shift(-KAPPA_DEN_SHIFT)
        result = num.div_pos(den)
        if result.width <= target_width:
            return result
        w /= 4
    raise UndefinedKappaError(f"kappa enclosure did not converge for t={t_abs}")


def pow_cmp(a: Rat, p: int, b: Rat, q: int) -> int:
    """Ordering of a**(1/p) versus b**(1/q): -1, 0 or +1.

    Exact: reduces to comparing a**q with b**p.
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0 or p <= 0 or q <= 0:
        raise DomainError("pow_cmp requires positive arguments")
    lhs = a ** q
    rhs = b ** p
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# complex balls

@dataclass(frozen=True)
class ComplexBall:
    re_mid: Rat
    im_mid: Rat
    radius: Rat

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("negative ball radius")

    @staticmethod
    def exact(re: Rat, im: Rat = Fraction(0)) -> "ComplexBall":
        return ComplexBall(Fraction(re), Fraction(im), Fraction(0))

    def _mid_abs_sq(self) -> Rat:
        return self.re_mid * self.re_mid + self.im_mid * self.im_mid

    def abs_bounds(self) -> tuple[Rat, Rat]:
        """Certified [lo, hi] for |z| over the ball."""
        a2 = self._mid_abs_sq()
        lo = sqrt_lower(a2) - self.radius
        hi = sqrt_upper(a2) + self.radius
        return (max(lo, Fraction(0)), hi)

    def abs_upper(self) -> Rat:
        return self.abs_bounds()[1]

    def contains_zero(self) -> bool:
        return self.abs_bounds()[0] <= 0

    def __neg__(self) -> "ComplexBall":
        return ComplexBall(-self.re_mid, -self.im_mid, self.radius)

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        return ComplexBall(
            self.re_mid + other.re_mid,
            self.im_mid + other.im_mid,
            round_up_grid(self.radius + other.radius),
        )

    def __sub__(self, other: "ComplexBall") -> "ComplexBall":
        return self + (-other)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        re = self.re_mid * other.re_mid - self.im_mid * other.im_mid
        im = self.re_mid * other.im_mid + self.im_mid * other.re_mid
        rad = (
            self.abs_upper() * other.radius
            + other.abs_upper() * self.radius
            + self.radius * other.radius
        )
        return ComplexBall(re, im, round_up_grid(rad))

    def inverse(self) -> "ComplexBall":
        lo, _ = self.abs_bounds()
        if lo <= 0:
            raise IndeterminateBallError("ball contains zero")
        a2 = self._mid_abs_sq()
        # 1/z for z in ball: midpoint conj(m)/|m|^2, radius r / (|m| (|m|-r))
        mid_abs_lo = sqrt_lower(a2)
        rad = self.radius / (mid_abs_lo * (mid_abs_lo - self.radius))
        # account for the enclosure of 1/m itself being exact
        return ComplexBall(self.re_mid / a2, -self.im_mid / a2, round_up_grid(rad))

    def __truediv__(self, other: "ComplexBall") -> "ComplexBall":
        return self * other.inverse()

    def nth_root(self, n: int) -> "ComplexBall":
        """Principal n-th root for balls in the right half plane, away from 0."""
        if n <= 0:
            raise DomainError("n must be positive")
        lo, hi = self.abs_bounds()
        if lo <= 0:
            raise IndeterminateBallError("nth_root of ball containing zero")
        if self.re_mid <= self.radius:
            raise DomainError("nth_root requires the ball in the open right half plane")
        # float candidate for the midpoint root, certified error bound afterwards
        zc = complex(float(self.re_mid), float(self.im_mid)) ** (1.0 / n)
        w_re = Fraction(zc.real).limit_denominator(1 << (2 * GRID_BITS))
        w_im = Fraction(zc.imag).limit_denominator(1 << (2 * GRID_BITS))
        w = ComplexBall.exact(w_re, w_im)
        wn = w
        for _ in range(n - 1):
            wn = wn * w
        # |w - z^(1/n)| <= |w^n - z| * max |d(z^{1/n})/dz| over the segment;
        # |f'| = |z|^{(1-n)/n} / n, bounded using the ball's |z| lower bound.
        defect = (wn - ComplexBall(self.re_mid, self.im_mid, Fraction(0))).abs_upper()
        reach = defect + self.radius
        # lower bound for |z| on everything within `reach` of the input ball
        zlo = lo - defect
        if zlo <= 0:
            raise IndeterminateBallError("nth_root enclosure collapsed onto zero")
        # upper bound for |z|^{(1-n)/n} = 1 / |z|^{(n-1)/n}
        scale = 1 << GRID_BITS
        root_lo = Fraction(iroot(zlo.numerator * scale ** n // zlo.denominator, n), scale)
        deriv_hi = Fraction(1, n) / (root_lo ** (n - 1))
        return ComplexBall(w_re, w_im, round_up_grid(reach * deriv_hi))
