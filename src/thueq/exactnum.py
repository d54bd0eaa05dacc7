"""Exact rational substrate: intervals with rational endpoints, certified
logarithm enclosures and integer roots.  Complex balls are in ``concrete``.

Every routine here either returns an exact rational or an enclosure that
provably contains the true real value.  No floating point enters any
certified path.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

Rat = Fraction

#: fractional bits of the outward-rounding grid for ball radii
GRID_BITS = 128


class DomainError(ValueError):
    pass


class UndefinedKappaError(ValueError):
    """log|t| - 2.59 is not certifiably positive."""


class ChainError(ArithmeticError):
    """A certified check failed: a named inequality line, a root enclosure or
    an identity; the message names it."""


MAX_DIGITS = 200_000  # the most digits of a printed integer, or of a corollary-eps t0


class OutputLimitError(Exception):
    """An exact result has more than MAX_DIGITS digits."""


TMIN_FLOOR = Fraction(100)  # the least |t| the tmin chains certify, and the default tmin


def _side(x) -> str:
    """x exactly while its text fits in 100 characters, judged by bit length, else by sig_str."""
    n, d = x.numerator, x.denominator
    return str(x) if (abs(n).bit_length() + d.bit_length()) * 30103 < 9_700_000 else sig_str(x)


def lines(*reqs) -> tuple:
    """Check each line (name, lhs, rhs) as lhs <= rhs, or (name, lhs, rhs, "<") as lhs < rhs,
    in order, by the sign of rn ld - ln rd for sides that are ints, Fractions or integer pairs
    (num, den), den > 0: the (name, rhs - lhs) margins, or ChainError naming the first to fail."""
    margins = []
    for req in reqs:  # indexed, not unpacked: this runs about 30 times per tmin
        name, lhs, rhs = req[0], req[1], req[2]
        ln, ld = lhs if type(lhs) is tuple else lhs.as_integer_ratio()
        rn, rd = rhs if type(rhs) is tuple else rhs.as_integer_ratio()
        gap, den = rn * ld - ln * rd, ld * rd
        if gap < 0 or not gap and len(req) > 3:
            raise ChainError(f"{name}: {_side(Fraction(ln, ld))} {'>=' if len(req) > 3 else '>'} "
                             f"{_side(Fraction(rn, rd))}")
        margins.append((name, Fraction(gap) if den == 1 else Fraction(gap, den)))
    return tuple(margins)


def floor_line(tmin: Rat) -> tuple:
    """The line |t| >= TMIN_FLOOR that each tmin chain checks first."""
    return f"tmin floor {TMIN_FLOOR}", TMIN_FLOOR, tmin


def pair_record(name: str, fields: str, pairs: str) -> type:
    """namedtuple(name, fields) whose fields named in `pairs` may hold an integer pair (num, den),
    den > 0, unreduced, read as its reduced Fraction on each read but as held by index (a rational
    held there reads as it is); equality goes by the fields as read, so none is hashable."""
    base = namedtuple(name, fields)
    key = attrgetter(*base._fields)
    read = lambda i: property(lambda r: Fraction(*r[i]) if type(r[i]) is tuple else r[i])
    eq = lambda a, b: type(b) is type(a) and key(a) == key(b)
    return type(name, (base,), {f: read(base._fields.index(f)) for f in pairs.split()} | {
        "__slots__": (), "__eq__": eq, "__ne__": lambda a, b: not eq(a, b)})


class Frozen:
    """Base of the immutable value types: the fields are the ``__slots__``, set
    by ``__init__`` through ``object.__setattr__`` and read-only after; equality
    and hashing go by the field tuple within one class, so no tuple compares
    equal, and copy and pickle rebuild a value through ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)


# ---------------------------------------------------------------------------
# rounding helpers

def _sig_round(n: int, d: int, digits: int, nearest: bool) -> tuple[int, int, int]:
    """(m, s, 10**abs(s)) with m 10**s the rounding of x = n/d > 0, d > 0, to `digits`
    significant decimal digits, up or to nearest (half up), by one integer division on
    x / 10**s, scaled once for s guessed from the bit lengths and moved a decade at a time
    into [10**(digits-1), 10**digits); m is 10**digits after a carry, as 9.9995 to 10.00."""
    if n <= 0:
        raise DomainError("positive value required")
    # log10(x) ~ 0.30103 * log2(x) from bit lengths
    s = (n.bit_length() - d.bit_length()) * 30103 // 100000 - digits + 1
    z, top = 10 ** abs(s), 10 ** digits
    n, d = (n, d * z) if s >= 0 else (n * z, d)
    while n >= top * d:
        d, s = 10 * d, s + 1
        z = z * 10 if s > 0 else z // 10
    while 10 * n < top * d:
        n, s = 10 * n, s - 1
        z = z * 10 if s < 0 else z // 10
    return ((2 * n + d) // (2 * d) if nearest else -(-n // d)), s, z


def _sig_value(x, digits: int, nearest: bool) -> Rat:
    n, d = x if type(x) is tuple else (x.numerator, x.denominator)
    if n == 0:
        return Fraction(0)
    m, s, z = _sig_round(n, d, digits, nearest)
    return Fraction(m * z) if s >= 0 else Fraction(m, z)


def round_up_sig(x, digits: int = 4) -> Rat:
    """Round x > 0, a rational or an integer pair (num, den), up to `digits` significant digits."""
    return _sig_value(x, digits, False)


def round_nearest_sig(x, digits: int = 4) -> Rat:
    return _sig_value(x, digits, True)


_POW_BITS = 64  # pow_up_sig's first working precision, past the exponent's length


def _pow_bracket(a: int, n: int, p: int) -> tuple[int, int, int]:
    """(lo, hi, k) with lo 2^k <= a^n <= hi 2^k for integers a >= 1, n >= 0, by square
    and multiply cut outward to p bits past n's length: exact once a^n fits."""
    lo, hi, k, p = 1, 1, 0, p + n.bit_length()
    for bit in map(int, bin(n)[2:]):
        lo, hi, k = lo * lo * a ** bit, hi * hi * a ** bit, 2 * k
        cut = max(0, hi.bit_length() - p)
        lo, hi, k = lo >> cut, -(-hi >> cut), k + cut
    return lo, hi, k


def pow_up_sig(x: Rat, n: int) -> Rat:
    """round_up_sig(x ** n) for rational x >= 1, integer n >= 0, without x ** n: x^n / 10^s, s
    a float guess of its decimal exponent, is bracketed at a precision doubling until both ends
    round up alike, as once the brackets are exact; the result m 10^k is built as m 5^k 2^k,
    a shift of the smaller power 5^k.  OutputLimitError past MAX_DIGITS digits."""
    a, b = x.numerator, x.denominator
    s, p = max(0, math.floor(n * (math.log10(a) - math.log10(b)))), _POW_BITS
    while True:
        (al, ah, ak), (bl, bh, bk), (zl, zh, zk) = (
            _pow_bracket(c, m, p) for c, m in ((a, n), (b, n), (10, s)))
        k = ak - bk - zk  # x^n / 10^s lies in [al, ah] 2^k / ([bh, bl] [zh, zl])
        (m, e, _), up = (_sig_round(u << max(k, 0), v << max(-k, 0), 4, False)
                         for u, v in ((al, bh * zh), (ah, bl * zl)))
        if len(str(m)) + e + s > MAX_DIGITS:  # the result is at least m 10^(e + s)
            raise OutputLimitError(f"x^{n} rounded up has more than {MAX_DIGITS:,} digits")
        if (m, e) == up[:2]:
            k = e + s
            return Fraction(m * 5 ** k << k) if k >= 0 else Fraction(m, 5 ** -k << -k)
        p *= 2


def sig_str(x, digits: int = 4) -> str:
    """Decimal hint for x, a rational or an integer pair (num, den), with `digits` significant
    digits (nearest): m 10**e with one digit before the point when e < -1 or e >= digits + 2,
    else plain, with no trailing zero after the point."""
    n, d = x if type(x) is tuple else (x.numerator, x.denominator)
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    m, s, _ = _sig_round(abs(n), d, digits, True)
    if m == 10 ** digits:
        m, s = m // 10, s + 1
    e, ms = s + digits - 1, str(m)
    if e < -1 or e >= digits + 2:
        return f"{sign}{(ms[0] + '.' + ms[1:]).rstrip('0').rstrip('.')}e{e}"
    if s >= 0:
        return sign + ms + "0" * s
    ms = ms.rjust(1 - s, "0")  # a leading 0 below 1
    frac = ms[s:].rstrip("0")
    return sign + ms[:s] + ("." + frac if frac else "")


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


def sqrt_grid(n: int, d: int, bits: int = GRID_BITS) -> tuple[int, int]:
    """The floor and the ceiling of 2**bits sqrt(n/d), integers n >= 0, d > 0,
    by one divmod and one isqrt; they are equal only when both are exact."""
    q, rem = divmod(n << 2 * bits, d)
    r = math.isqrt(q)
    return r, (r if rem == 0 and r * r == q else r + 1)


# ---------------------------------------------------------------------------
# intervals

class RatInterval(Frozen):
    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        if lo > hi:
            raise DomainError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


# ---------------------------------------------------------------------------
# logarithms over Z

class _AtanhSeries:
    """atanh(a/b) for integers with |a/b| < 1/2, b > 0, summed over Z.  The
    powers of a^2 and b^2 are kept, so that sums to several budgets share
    them.  The sum of n terms, and so its enclosure, is a function of n."""

    __slots__ = ("a", "b", "_c", "_a2", "_b2")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b
        self._c = b * b - a * a
        self._a2, self._b2 = [1, a * a], [1, b * b]

    @staticmethod
    def _pow(table: list, n: int) -> int:
        while len(table) <= n:
            table.append(table[-1] * table[1])
        return table[n]

    def count(self, bn: int, bd: int) -> int:
        """The least n >= 1 whose tail bound r/den in enclose(n) is <= bn/bd > 0: it falls
        by a^2/b^2 (2n+1)/(2n+3) a step, so a walk from where (a/b)^(2n) meets bn/bd finds it."""
        a, b, c = abs(self.a), self.b, self._c

        def holds(n):
            return (a * self._pow(self._a2, n) * bd
                    <= bn * b * self._pow(self._b2, n - 1) * (2 * n + 1) * c)

        n = 1 if holds(1) else max(2, int((bd.bit_length() - bn.bit_length())
                                          / (2 * (math.log2(b) - math.log2(a)))))
        while not holds(n):
            n += 1
        while n > 1 and holds(n - 1):
            n -= 1
        return n

    def enclose(self, n: int) -> tuple[int, int, int]:
        """(s, r, den) with atanh(a/b) in [(s - r)/den, (s + r)/den]: s/den is
        the sum of the first n terms u^(2j+1)/(2j+1), u = a/b, over the
        denominator b^(2n-1) (2n+1) (b^2 - a^2) prod_{j<n} (2j+1), and
        r/den = |u|^(2n+1) / ((2n+1)(1 - u^2)) bounds the rest geometrically.
        """
        a, b, c = self.a, self.b, self._c
        a2, b2 = self._a2, self._b2
        a_n, b_n = self._pow(a2, n), self._pow(b2, n - 1)
        odd = math.prod(range(1, 2 * n, 2))
        s = a * sum(a2[j] * b2[n - 1 - j] * (odd // (2 * j + 1)) for j in range(n))
        m = (2 * n + 1) * c
        return s * m, abs(a) * a_n * odd, b * b_n * odd * m


_LN2_SERIES = _AtanhSeries(1, 3)
_LN2_CACHE: dict[int, RatInterval] = {}  # term count -> enclosure of ln 2


@lru_cache(maxsize=128)
def _ln2_count(bn: int, bd: int) -> int:
    """_LN2_SERIES.count, kept for the last 128 budgets."""
    return _LN2_SERIES.count(bn, bd)


def _ln2(bn: int, bd: int) -> RatInterval:
    """ln 2 = 2 atanh(1/3) with tail <= bn/bd: the enclosure of the least
    term count whose tail meets the budget, so a function of the budget
    alone; each count is summed once per process."""
    n = _ln2_count(bn, 2 * bd)
    if n not in _LN2_CACHE:
        s, r, den = _LN2_SERIES.enclose(n)
        _LN2_CACHE[n] = RatInterval(Fraction(2 * (s - r), den), Fraction(2 * (s + r), den))
    return _LN2_CACHE[n]


KAPPA_NUM_SHIFT = Fraction("1.08")
KAPPA_DEN_SHIFT = Fraction("2.59")


class LnArg:
    """One x > 0 reduced once for its logarithm: x = 2**k * m with m in
    [3/4, 3/2), and ln x = k ln 2 + 2 atanh(a/b) with a/b = (m - 1)/(m + 1)
    in lowest terms.  Enclosures of several widths share the reduction and
    the power table of the series."""

    __slots__ = ("x", "k", "_atanh")

    def __init__(self, x: Rat):
        if not isinstance(x, int):
            x = Fraction(x)
        if x <= 0:
            raise DomainError("ln of non-positive value")
        self.x = x
        p, q = x.numerator, x.denominator
        # x = 2**z p / q with p and q odd, so that a cut value m 2**s reduces
        # as m does; p / (q 2**k) lies in (1/2, 2) for k from the bit lengths,
        # and one step more lands it in [3/4, 3/2)
        z = (p & -p).bit_length() - (q & -q).bit_length()
        p, q = p >> max(z, 0), q >> max(-z, 0)
        k = p.bit_length() - q.bit_length()
        if k >= 0:
            q <<= k
        else:
            p <<= -k
        if 2 * p >= 3 * q:
            q <<= 1
            k += 1
        elif 4 * p < 3 * q:
            p <<= 1
            k -= 1
        g = math.gcd(p - q, p + q)
        self.k = k + z
        self._atanh = _AtanhSeries((p - q) // g, (p + q) // g)

    def _unrounded(self, wn: int, wd: int) -> tuple[int, int, int, int]:
        """(lo, lo_den, hi, hi_den): ln x in [lo/lo_den, hi/hi_den] before the
        grid rounding to width wn/wd.  Of the budget w/4, half goes to the
        atanh tail, and w/(8|k|) to the enclosure _ln2(bn, bd) of ln 2."""
        s, r, den = self._atanh.enclose(self._atanh.count(wn, 8 * wd))
        lo, hi = 2 * (s - r), 2 * (s + r)
        k = self.k
        if k == 0:
            return lo, den, hi, den
        c = _ln2(wn, 8 * abs(k) * wd)
        c_lo, c_hi = (c.lo, c.hi) if k > 0 else (c.hi, c.lo)
        return (lo * c_lo.denominator + k * c_lo.numerator * den, den * c_lo.denominator,
                hi * c_hi.denominator + k * c_hi.numerator * den, den * c_hi.denominator)

    def _grid(self, wn: int, wd: int) -> tuple[int, int, int]:
        """(lo, hi, bits): ln x in [lo, hi] / 2**bits, the ends of
        _unrounded(wn, wd) rounded outward onto the 2**-bits grid, bits 8 past
        wd's length: its spacing is at most (wn/wd) / 8, as with wn >= 1,
        2**-bits < 1/(256 wd) <= (wn/wd) / 8."""
        if wn <= 0:
            raise DomainError("target_width must be positive")
        lo, lo_den, hi, hi_den = self._unrounded(wn, wd)
        bits = wd.bit_length() + 8
        return (lo << bits) // lo_den, -((-hi << bits) // hi_den), bits


def ln_enclosure(x: Rat, target_width: Rat) -> RatInterval:
    """Interval containing ln(x), of width <= target_width.

    ln x = k ln 2 + 2 atanh((m-1)/(m+1)) after reducing x = 2**k * m with
    m in [3/4, 3/2); both series tails are bounded geometrically.
    """
    arg, w = LnArg(x), Fraction(target_width)
    lo, hi, bits = arg._grid(w.numerator, w.denominator)
    return RatInterval(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits))


def ln_floor(x: Rat, bits: int) -> int:
    """floor(2**bits ln x) for a rational x > 0, exactly: the width of
    LnArg._unrounded shrinks until both ends floor to the same integer.  This
    stops, as ln x is irrational for every rational x != 1 (e^(p/q) is
    transcendental) and the enclosure of ln 1 is [0, 0]."""
    arg, wd = LnArg(x), 1 << bits + 8
    while True:
        lo, lo_den, hi, hi_den = arg._unrounded(1, wd)
        f = (lo << bits) // lo_den
        if f == (hi << bits) // hi_den:
            return f
        wd <<= 32


def kappa(t_abs: Rat, target_width: Rat) -> RatInterval:
    """Enclosure of (ln|t| + 1.08) / (ln|t| - 2.59), of width <= target_width,
    from ln|t| at width target_width, or 1/16 if that is wider, then a
    quarter of it per step until the quotient is narrow enough."""
    if Fraction(t_abs) <= 0:
        raise DomainError("t_abs must be positive")
    arg, w = LnArg(t_abs), Fraction(target_width)
    tn, td = w.numerator, w.denominator
    nn, nd = KAPPA_NUM_SHIFT.numerator, KAPPA_NUM_SHIFT.denominator
    dn, dd = KAPPA_DEN_SHIFT.numerator, KAPPA_DEN_SHIFT.denominator
    wn, wd = (tn, td) if 16 * tn <= td else (1, 16)
    for _ in range(64):
        lo, hi, bits = arg._grid(wn, wd)
        # (ln x + 1.08) and (ln x - 2.59) over the common denominator
        # 2**bits * nd * dd
        num_lo, num_hi = ((e * nd + (nn << bits)) * dd for e in (lo, hi))
        den_lo, den_hi = ((e * dd - (dn << bits)) * nd for e in (lo, hi))
        if den_hi <= 0:
            raise UndefinedKappaError(f"log({arg.x}) <= 2.59")
        if den_lo > 0 and (num_hi * den_hi - num_lo * den_lo) * td <= tn * den_lo * den_hi:
            return RatInterval(Fraction(num_lo, den_hi), Fraction(num_hi, den_lo))
        g = math.gcd(wn, 4)  # w / 4 in lowest terms
        wn, wd = wn // g, wd * (4 // g)
    raise UndefinedKappaError(f"kappa enclosure did not converge for t={arg.x}")
