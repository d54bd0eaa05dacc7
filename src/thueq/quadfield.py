"""Rings of integers of imaginary quadratic fields Q(sqrt(-d)).

Elements are stored as a + b*omega with integer a, b, where
omega = (1 + sqrt(-d))/2 when d = 3 (mod 4) and omega = sqrt(-d) otherwise.
The squared absolute value is then an integer, which makes bounded
enumeration and divisibility tests exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction


def is_half_integral(d: int) -> bool:
    """True when the ring is Z[(1+sqrt(-d))/2], i.e. -d = 1 (mod 4)."""
    return d % 4 == 3


@dataclass(frozen=True)
class QuadInt:
    """Algebraic integer a + b*omega in Q(sqrt(-d))."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive squarefree integer")
        if self.b == 0 and self.d != 1:
            # canonical home for rational integers is d=1
            object.__setattr__(self, "d", 1)

    # -- basic structure ---------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def _check(self, other: "QuadInt") -> None:
        if self.d != other.d and not (self.is_rational() or other.is_rational()):
            raise ValueError(f"mixed fields d={self.d} and d={other.d}")

    def _lift(self, d: int) -> "QuadInt":
        return QuadInt(d, self.a, 0) if self.is_rational() and d != self.d else self

    def __add__(self, other):
        other = _coerce(other)
        self._check(other)
        d = self.d if not self.is_rational() else other.d
        x, y = self._lift(d), other._lift(d)
        return QuadInt(d, x.a + y.a, x.b + y.b)

    def __neg__(self):
        return QuadInt(self.d, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        self._check(other)
        d = self.d if not self.is_rational() else other.d
        x, y = self._lift(d), other._lift(d)
        if is_half_integral(d):
            # omega^2 = omega - (1+d)/4
            m = (1 + d) // 4
            return QuadInt(d, x.a * y.a - m * x.b * y.b,
                           x.a * y.b + x.b * y.a + x.b * y.b)
        return QuadInt(d, x.a * y.a - d * x.b * y.b, x.a * y.b + x.b * y.a)

    def __rmul__(self, other):
        return self * other

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return _coerce(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = QuadInt(self.d, 1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "QuadInt":
        if is_half_integral(self.d):
            return QuadInt(self.d, self.a + self.b, -self.b)
        return QuadInt(self.d, self.a, -self.b)

    def abs_sq(self) -> int:
        if is_half_integral(self.d):
            return self.a * self.a + self.a * self.b + self.b * self.b * (1 + self.d) // 4
        return self.a * self.a + self.d * self.b * self.b

    def re_im(self) -> tuple[Rat, Rat]:
        """(rational part, coefficient of sqrt(d) in the imaginary part)."""
        if is_half_integral(self.d):
            return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))
        return (Fraction(self.a), Fraction(self.b))

    def divides(self, other: "QuadInt") -> bool:
        try:
            div_exact(other, self)
            return True
        except ValueError:
            return False

    def __str__(self):
        re, im = self.re_im()
        if im == 0:
            return str(re)
        parts = []
        if re:
            parts.append(str(re))
        root = "i" if self.d == 1 else f"sqrt(-{self.d})"
        coef = "" if abs(im) == 1 else f"{abs(im)}*"
        parts.append(("-" if im < 0 else ("+" if parts else "")) + coef + root)
        return "".join(parts)


def _coerce(x) -> QuadInt:
    if isinstance(x, QuadInt):
        return x
    if isinstance(x, int):
        return QuadInt(1, x, 0)
    raise TypeError(f"cannot coerce {x!r} to QuadInt")


def from_root_coords(d: int, p: Rat, q: Rat) -> QuadInt:
    """Element p + q*sqrt(-d), raising if not integral in the ring."""
    p, q = Fraction(p), Fraction(q)
    if is_half_integral(d):
        b = 2 * q
        a = p - q
    else:
        b = q
        a = p
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{p} + {q}*sqrt(-{d}) is not an algebraic integer here")
    return QuadInt(d, int(a), int(b))


def div_exact(x: QuadInt, y: QuadInt) -> QuadInt:
    """x / y, raising ValueError when y does not divide x in the ring."""
    x, y = _coerce(x), _coerce(y)
    if not (x.is_rational() or y.is_rational()) and x.d != y.d:
        raise ValueError("mixed fields")
    d = y.d if not y.is_rational() else x.d
    x, y = x._lift(d), y._lift(d)
    n = y.abs_sq()
    if n == 0:
        raise ZeroDivisionError("division by zero element")
    num = x * y.conj()
    if num.a % n or num.b % n:
        raise ValueError(f"{y} does not divide {x}")
    return QuadInt(d, num.a // n, num.b // n)


def roots_of_unity(d: int) -> list[QuadInt]:
    if d == 1:
        i = QuadInt(1, 0, 1)
        return [QuadInt(1, 1, 0), i, QuadInt(1, -1, 0), -i]
    if d == 3:
        w = QuadInt(3, 0, 1)  # primitive 6th root of unity
        out = [QuadInt(3, 1, 0)]
        for _ in range(5):
            out.append(out[-1] * w)
        return out
    return [QuadInt(d, 1, 0), QuadInt(d, -1, 0)]


# fields with ring elements of absolute value <= m exist iff the shortest
# non-rational vector fits: (1+d)/4 <= m^2 in the half-integral case, d <= m^2
# otherwise
def eligible_fields(m) -> list[int]:
    m2 = Fraction(m) ** 2
    out = []
    for d in range(1, int(4 * m2) + 2):
        if not _squarefree(d):
            continue
        if is_half_integral(d):
            if Fraction(1 + d, 4) <= m2:
                out.append(d)
        elif d <= m2:
            out.append(d)
    return out


def _squarefree(n: int) -> bool:
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def enumerate_bounded(m: int, normalize: bool = False) -> list[QuadInt]:
    """All nonzero ring elements with |x| <= m across every imaginary
    quadratic field.

    Rational integers appear once (at d=1).  With normalize=True only one
    representative of each pair {x, -x} is kept: positive imaginary part,
    or positive rational integer.
    """
    m = Fraction(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    out: list[QuadInt] = []
    m2 = m * m
    mi = int(m)  # floor; |x| <= m for a rational integer means |x| <= floor(m)
    for a in range(1 if normalize else -mi, mi + 1):
        if a != 0:
            out.append(QuadInt(1, a, 0))
    for d in eligible_fields(mi):
        if is_half_integral(d):
            bmax = int(4 * m2 / (1 + d))
        else:
            bmax = int(m2 / d)
        bmax = math.isqrt(bmax)
        for b in range(1 if normalize else -bmax, bmax + 1):
            if b == 0:
                continue
            # solve abs_sq <= m2 for a
            lo, hi = _a_range(d, b, m2)
            for a in range(lo, hi + 1):
                x = QuadInt(d, a, b)
                if x.abs_sq() <= m2:
                    out.append(x)
    out.sort(key=lambda x: (x.d, x.b, x.a))
    return out


def _a_range(d: int, b: int, m2) -> tuple[int, int]:
    if is_half_integral(d):
        # a^2 + ab + b^2 (1+d)/4 <= m2;  vertex at a = -b/2
        disc = m2 - Fraction(b * b * (1 + d), 4) + Fraction(b * b, 4)
        if disc < 0:
            return (0, -1)
        r = math.isqrt(int(disc)) + 1
        return (-b // 2 - r - 1, -b // 2 + r + 1)
    disc = m2 - d * b * b
    if disc < 0:
        return (0, -1)
    r = math.isqrt(int(disc))
    return (-r, r)
