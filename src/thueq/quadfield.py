"""Rings of integers of imaginary quadratic fields Q(sqrt(-d)).

Elements are stored as a + b*omega with integer a, b, where
omega = (1 + sqrt(-d))/2 when d = 3 (mod 4) and omega = sqrt(-d) otherwise.
``ring`` decides the basis; every formula below reads its table.  The
squared absolute value is then an integer, which makes bounded enumeration
and divisibility tests exact.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import Frozen

Rat = Fraction


def ring(d: int) -> tuple[int, int]:
    """(s, m) with omega^2 = s*omega - m: s = 1 and m = (1+d)/4 for the ring
    Z[(1+sqrt(-d))/2] when -d = 1 (mod 4), else s = 0 and m = d.  Then
    N(a + b*omega) = a^2 + s ab + m b^2, and 4N = (2a + sb)^2 + (4m - s) b^2."""
    return (1, (1 + d) // 4) if d % 4 == 3 else (0, d)


class QuadInt(Frozen):
    """Algebraic integer a + b*omega in Q(sqrt(-d))."""

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: int, b: int):
        if d < 1:
            raise ValueError("d must be a positive squarefree integer")
        object.__setattr__(self, "d", d if b else 1)  # rational integers live in d=1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    # -- basic structure ---------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def _lift(self, d: int) -> "QuadInt":
        return QuadInt(d, self.a, 0) if self.is_rational() and d != self.d else self

    def __add__(self, other):
        d, x, y = _common(self, other)
        return QuadInt(d, x.a + y.a, x.b + y.b)

    def __neg__(self):
        return QuadInt(self.d, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        d, x, y = _common(self, other)
        s, m = ring(d)
        return QuadInt(d, x.a * y.a - m * x.b * y.b, x.a * y.b + x.b * y.a + s * x.b * y.b)

    def __rmul__(self, other):
        return self * other

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

    def abs_sq(self) -> int:
        return norm(self.d, self.a, self.b)

    def re_im(self) -> tuple[Rat, Rat]:
        """(rational part, coefficient of sqrt(d) in the imaginary part)."""
        s = ring(self.d)[0]
        return (Fraction(2 * self.a + s * self.b, 2), Fraction(self.b, 1 + s))

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


def _common(x, y) -> tuple[int, QuadInt, QuadInt]:
    """(d, x, y): both coerced and lifted to their common field d, where a
    rational integer joins the other operand's field."""
    x, y = _coerce(x), _coerce(y)
    if x.d != y.d and not (x.is_rational() or y.is_rational()):
        raise ValueError(f"mixed fields d={x.d} and d={y.d}")
    d = x.d if not x.is_rational() else y.d
    return d, x._lift(d), y._lift(d)


@lru_cache(maxsize=None)
def roots_of_unity(d: int) -> tuple[QuadInt, ...]:
    if d == 1:
        i = QuadInt(1, 0, 1)
        return (QuadInt(1, 1, 0), i, QuadInt(1, -1, 0), -i)
    if d == 3:
        w = QuadInt(3, 0, 1)  # primitive 6th root of unity
        out = [QuadInt(3, 1, 0)]
        for _ in range(5):
            out.append(out[-1] * w)
        return tuple(out)
    return (QuadInt(d, 1, 0), QuadInt(d, -1, 0))


# enumerate_bounded(m) lists about 2.7 m^3 elements, 170,720 at m = 40, and
# eligible_fields(m) sieves 4 m^2 bytes: a larger m is refused before either
MAX_ABS = 40


# fields with ring elements of absolute value <= m exist iff the shortest
# non-rational vector fits: N(omega) = m <= m^2 for (s, m) = ring(d)
def eligible_fields(m) -> list[int]:
    m2 = math.floor(Fraction(m) ** 2)  # the integer N(omega) <= m^2 iff <= m2
    n = 4 * m2  # N(omega) >= (1 + d)/4
    free = bytearray([1]) * n  # a sieve of the squarefree d < n
    for k in range(2, math.isqrt(n) + 1):
        free[k * k::k * k] = bytes(len(range(k * k, n, k * k)))
    return [d for d in range(1, n) if free[d] and ring(d)[1] <= m2]


def norm(d: int, a: int, b: int) -> int:
    """N(a + b*omega) = |a + b*omega|^2 in Q(sqrt(-d))."""
    s, m = ring(d)
    return a * a + s * a * b + m * b * b


def field_pairs(d: int, m2, normalize: bool = False):
    """Integer pairs (a, b) with b != 0 and N(a + b*omega) <= m2 in field d,
    in (b, a) order; with normalize=True only b > 0 (positive imaginary
    part)."""
    s, m = ring(d)
    lim, c = 4 * Fraction(m2), 4 * m - s  # 4N = (2a + sb)^2 + c b^2
    bmax = math.isqrt(int(lim / c))
    for b in range(1 if normalize else -bmax, bmax + 1):
        if b == 0:
            continue
        r = math.isqrt(int(lim - c * b * b))  # |2a + sb| <= r
        for a in range(-((r + s * b) // 2), (r - s * b) // 2 + 1):
            yield a, b


def pairs_with_norm_in(d: int, m2, norms):
    """The pairs of field_pairs(d, m2, normalize=True) whose norm lies in
    the set norms, in the same (b, a) order: for each b and each norm n,
    (2a + sb)^2 = 4n - (4m - s) b^2 for (s, m) = ring(d), solved by isqrt."""
    s, m = ring(d)
    c, scaled = 4 * m - s, sorted({4 * n for n in norms if 0 < n <= m2})
    for b in range(1, math.isqrt(scaled[-1] // c) + 1 if scaled else 1):
        # the r = |2a + sb| of the row, ascending: only the n >= c b^2 can give one
        cb2 = c * b * b
        rs = [r for n in scaled[bisect.bisect_left(scaled, cb2):]
              for r in [math.isqrt(n - cb2)] if r * r == n - cb2]
        # v = 2a + sb with v = sb (mod 2), as v^2 = (sb)^2 (mod 4)
        for v in [-r for r in reversed(rs) if r] + rs:
            yield (v - s * b) // 2, b


def enumerate_bounded(m: Rat, normalize: bool = False) -> list[QuadInt]:
    """All nonzero ring elements with |x| <= m across every imaginary
    quadratic field.

    Rational integers appear once (at d=1).  With normalize=True only one
    representative of each pair {x, -x} is kept: positive imaginary part,
    or positive rational integer.  m must lie in [0, MAX_ABS].
    """
    m = Fraction(m)
    if not 0 <= m <= MAX_ABS:
        raise ValueError(f"m must be in [0, {MAX_ABS}]")
    mi = int(m)  # floor; |x| <= m for a rational integer means |x| <= floor(m)
    out = [QuadInt(1, a, 0) for a in range(1 if normalize else -mi, mi + 1) if a]
    for d in eligible_fields(m):
        out += [QuadInt(d, a, b) for a, b in field_pairs(d, m * m, normalize)]
    out.sort(key=lambda x: (x.d, x.b, x.a))
    return out
