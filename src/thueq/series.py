"""Exact algebra over Q(i) for the quartic family: truncated power series in
s = 1/t, the root series, Pade approximants, and the polynomial identities
behind the proof (the fourth-root closed form).  All of it runs over Z or
Z[i] on the ``zpoly`` kernel.

Two types, one job each:

* ``GaussRat`` -- an element of Q(i), the scalar at the boundary.
* ``Series`` -- a power series in s = 1/t known modulo s^trunc; it carries
  the root series, their Pade residuals and tail bounds.

``Series`` and ``concrete.TPoly``, the dense polynomial of the Thue
polynomials at a concrete t, share one storage (``_GaussDense``): a Z[i]
numerator, two integer lists in the ``zpoly`` format, over one positive
denominator in lowest terms.  Both are built from scalars, or from integers
by ``from_ints``; ``coeffs`` reads the coefficients back as ``GaussRat``s.
The differential-equation data and the Thue polynomials at a concrete t are
in ``concrete``; ``thue_polys_at`` and ``TPoly`` still resolve here, on first
access (``__getattr__``).

The quartic itself is the integer table ``QUARTIC``, f_t = A(X) + t B(X).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from . import _forward, zpoly
from .exactnum import ChainError, Frozen, Rat

# ---------------------------------------------------------------------------
# Gaussian rationals


class GaussRat(Frozen):
    __slots__ = ("re", "im")

    def __init__(self, re: Rat, im: Rat):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(Fraction(x), Fraction(0))

    def __add__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        return self + (-GaussRat.of(other))

    def __mul__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = GaussRat.of(other)
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def abs_sq(self) -> Rat:
        return self.re * self.re + self.im * self.im

    def inv(self):
        n = self.abs_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussRat.of(other).inv()

    def __bool__(self):
        return bool(self.re or self.im)

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"


# ---------------------------------------------------------------------------
# polynomials and truncated series over Q(i): one storage, a Z[i] numerator
# over one denominator


def _cleared(coeffs) -> tuple[tuple[list[int], list[int]], int]:
    """Q(i) scalars (int, ``Fraction`` or ``GaussRat``) as a Z[i] numerator
    (re, im) over their least common denominator."""
    cs = [GaussRat.of(c) for c in coeffs]
    den = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return tuple([x.numerator * (den // x.denominator) for x in xs]
                 for xs in ([c.re for c in cs], [c.im for c in cs])), den


def _strip(xs) -> list[int]:
    xs = list(xs)
    while xs and not xs[-1]:
        xs.pop()
    return xs


class _GaussDense:
    """The storage ``TPoly`` and ``Series`` share: coefficient k is
    (re[k] + i im[k]) / den for the Z[i] numerator num = (re, im), two integer
    lists in the ``zpoly`` format without trailing zeros, and the positive
    integer den.  It is kept in lowest terms, so den is the least common
    denominator and equal values have equal storage.  Arithmetic runs on
    ``zpoly``; values are not mutated once built."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        self._set(*_cleared(coeffs))

    def _set(self, num, den: int, n: int | None = None):
        re, im = (_strip(xs[:n]) for xs in num)
        g = math.gcd(den, *re, *im)
        if g != 1:
            re, im, den = [x // g for x in re], [x // g for x in im], den // g
        self.num, self.den = (re, im), den
        return self

    def _width(self) -> int:
        return max(len(self.num[0]), len(self.num[1]))

    def _num_pairs(self):
        """The numerator's coefficients (re_k, im_k), k < width."""
        n = self._width()
        return zip(*(zpoly.pad(xs, n) for xs in self.num))

    @property
    def coeffs(self) -> list[GaussRat]:
        """The coefficients as ``GaussRat``s: a view, built on each read."""
        den = self.den
        return [GaussRat(Fraction(a, den), Fraction(b, den)) for a, b in self._num_pairs()]

    def is_zero(self) -> bool:
        return not (self.num[0] or self.num[1])

    def _lift(self, x):
        """x as a value of this type: itself, or a scalar as a constant."""
        if isinstance(x, type(self)):
            return x
        if isinstance(x, (int, Fraction, GaussRat)):
            return self._like(*_cleared([x]))
        raise TypeError(f"cannot combine {type(self).__name__} with {type(x).__name__}")

    def __add__(self, other):
        other = self._lift(other)
        den = math.lcm(self.den, other.den)
        return self._like(zpoly.gadd(zpoly.gscale(den // self.den, self.num),
                                     zpoly.gscale(den // other.den, other.num)), den, other)

    __radd__ = __add__

    def __neg__(self):
        return self._like(zpoly.gscale(-1, self.num), self.den)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        other = self._lift(other)
        return self._like(zpoly.gmul(self.num, other.num), self.den * other.den, other)

    __rmul__ = __mul__


class Series(_GaussDense):
    """Power series known modulo s^trunc, over Q(i)."""

    __slots__ = ("trunc",)

    def __init__(self, coeffs, trunc: int):
        self.trunc = trunc
        self._set(*_cleared(coeffs[:trunc]))

    @classmethod
    def from_ints(cls, num, den: int, trunc: int) -> "Series":
        """The series num/den modulo s^trunc, for a Z[i] numerator num and a
        positive integer den, reduced to lowest terms."""
        out = cls.__new__(cls)
        out.trunc = trunc
        return out._set(num, den, trunc)

    def _like(self, num, den, other=None):
        trunc = self.trunc if other is None else min(self.trunc, other.trunc)
        return Series.from_ints(num, den, trunc)

    def _width(self) -> int:
        return self.trunc

    def __getitem__(self, k: int) -> GaussRat:
        if not 0 <= k < self.trunc:
            raise IndexError(f"coefficient of s^{k} unknown (trunc {self.trunc})")
        re, im = (xs[k] if k < len(xs) else 0 for xs in self.num)
        return GaussRat(Fraction(re, self.den), Fraction(im, self.den))

    def __eq__(self, other):
        return (self - other).is_zero()

    def valuation(self) -> int:
        return min(next((k for k, c in enumerate(xs) if c), self.trunc) for xs in self.num)

    def truncated(self, n: int) -> "Series":
        return Series.from_ints(self.num, self.den, min(n, self.trunc))

    def __repr__(self):
        terms = [f"({c})*s^{k}" for k, c in enumerate(self.coeffs) if c]
        return (" + ".join(terms) or "0") + f"  (mod s^{self.trunc})"


# ---------------------------------------------------------------------------
# the root series, over Z: alpha lies in Z[[s]] because f'(0) is a unit


def _alpha_ints(N: int) -> list[int]:
    """Coefficients of alpha modulo s^N from s*f(alpha) = 0 rewritten as
    alpha = alpha^3 - s(alpha^4 - 6 alpha^2 + 1): with alpha(0) = 0 the
    coefficient of s^n reads only earlier ones."""
    a, sq = [0] * N, [0] * N  # alpha and alpha^2
    for n in range(1, N):
        sq[n - 1] = sum(a[i] * a[n - 1 - i] for i in range(n))
        cube = sum(sq[i] * a[n - i] for i in range(n))
        quart = sum(sq[i] * sq[n - 1 - i] for i in range(n))
        a[n] = cube - quart + 6 * sq[n - 1] - (1 if n == 1 else 0)
    return a


def _moebius(a: list[int]) -> list[int]:
    """Coefficients of (1 + alpha)/(1 - alpha) for alpha(0) = 0, by the
    recurrence b = 1 + alpha + alpha b, over Z."""
    b = [a[0] + 1]
    for n in range(1, len(a)):
        b.append(sum((a[i] * b[n - i] for i in range(1, n + 1) if a[i]), a[n]))
    return b


def newton_alpha_series(N: int) -> Series:
    """The series alpha(s) with alpha(0) = 0 killing s*f, modulo s^N."""
    if N < 2:
        raise ValueError("need truncation order >= 2")
    return Series.from_ints((_alpha_ints(N), []), 1, N)


def alpha3_series(alpha: Series) -> Series:
    """-(alpha+1)/(alpha-1), the Moebius image giving the root near 1, for an
    integer, real series alpha vanishing at s=0 (as newton_alpha_series)."""
    if alpha.den != 1 or alpha.num[1] or not alpha.valuation():
        raise ValueError("expected an integer, real series vanishing at s=0")
    return Series.from_ints((_moebius(zpoly.pad(alpha.num[0], alpha.trunc)), []), 1, alpha.trunc)


# each root series' truncation order, which rouche.HIGH_ORDER reads as its radius exponent
ROOT_TRUNC = {0: 31, 3: 30}


@lru_cache(maxsize=None)
def root_series(type_index: int) -> Series:
    """The root series a descent chain and a high-order certificate expand:
    type 0 is alpha, type 3 its Moebius image, modulo s^ROOT_TRUNC[type_index].
    Built once per process; every caller shares it and must not mutate it."""
    if type_index not in ROOT_TRUNC:
        raise ValueError("type_index must be 0 or 3")
    alpha = newton_alpha_series(ROOT_TRUNC[type_index])
    return alpha if type_index == 0 else alpha3_series(alpha)


# ---------------------------------------------------------------------------
# Pade approximants, over Z


# U and V: integer coefficients, ascending
PadePair = namedtuple("PadePair", "U V contact_order")


def _real(num) -> list[int]:
    """The real part of a Z[i] numerator that must be real."""
    if any(num[1]):
        raise ValueError("expected real coefficients")
    return num[0]


def _bareiss_solve(M: list[list[int]]) -> tuple[int, list[int]]:
    """Fraction-free elimination (Bareiss, Math. Comp. 1968) of an integer
    n x (n+1) augmented system, in place: (det, y) with solution y/det."""
    n, prev = len(M), 1
    for k in range(n):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            raise ChainError("singular linear system")
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                q, rem = divmod(M[k][k] * M[i][j] - M[i][k] * M[k][j], prev)
                if rem:
                    raise ChainError("inexact Bareiss step")
                M[i][j] = q
        prev = M[k][k]
    y = [0] * n
    for i in reversed(range(n)):
        q, rem = divmod(prev * M[i][n] - sum(M[i][j] * y[j] for j in range(i + 1, n)),
                        M[i][i])
        if rem:
            raise ChainError("inexact back substitution")
        y[i] = q
    return prev, y


def pade(B: Series, deg_num: int, deg_den: int) -> PadePair:
    """U/V with U - B*V = O(s^(deg_num+deg_den+1)) for a real series B, as
    the primitive integer pair with V(0) > 0: solved over Z by Bareiss
    elimination on B's numerator."""
    order = deg_num + deg_den + 1
    if B.trunc < order:
        raise ChainError(f"series known only modulo s^{B.trunc}, need {order}")
    b, den, n = zpoly.pad(_real(B.num), B.trunc), B.den, deg_den
    # unknowns v_1..v_n from sum_j v_j b_{k-j} = -b_k, k = deg_num+1..deg_num+n
    det, y = _bareiss_solve([[b[k - j] if k >= j else 0 for j in range(1, n + 1)] + [-b[k]]
                             for k in range(deg_num + 1, deg_num + n + 1)])
    v = [det] + y
    bv = zpoly.mul(b, v)
    u = bv[:deg_num + 1]
    contact = _contact(zpoly.sub(u, bv)[:len(b)], order)
    # U = u/(det den) and V = v/det, cleared by det den and made primitive
    v = zpoly.scale(den, v)
    g = math.gcd(*u, *v) * (1 if det > 0 else -1)
    return PadePair(tuple(c // g for c in u), tuple(c // g for c in v), contact)


def _contact(resid: list[int], required: int) -> int:
    val = next((k for k, c in enumerate(resid) if c), len(resid))
    if val < required:
        raise ChainError(f"contact order {val} below required {required}")
    return val


def pade_residual(B: Series, pair: PadePair) -> Series:
    """U - B*V as a series (valuation >= contact order), computed over Z."""
    resid = zpoly.sub(zpoly.scale(B.den, pair.U), zpoly.mul(_real(B.num), pair.V))
    return Series.from_ints((resid, []), B.den, B.trunc)


# ---------------------------------------------------------------------------
# tail bounds

def horner(a, p: int, q: int) -> tuple[int, int]:
    """(n, d) with n/d = sum_j a_j (q/p)^j for integers a_j, p > 0 and q > 0:
    n by horner_sum, d = p^top for top the last index."""
    return horner_sum(a, p, q), p ** max(len(a) - 1, 0)


def horner_sum(a, p: int, q: int) -> int:
    """sum_j a_j q^j p^(top - j) by Horner's rule over Z: one product a term
    when q = 1, as at every integer tmin, and three otherwise."""
    acc, qk = 0, 1
    if q == 1:
        for c in a:
            acc = acc * p + c
        return acc
    for c in a:
        acc, qk = acc * p + c * qk, qk * q
    return acc


def tail_ints(expr: Series, lead_exp: int) -> list[int]:
    """|n_j| for j >= lead_exp over the numerator n_j of a real series with no
    term below s^lead_exp."""
    n = _real(expr.num)
    j = next((j for j, c in enumerate(n) if c), lead_exp)
    if j < lead_exp:
        raise ValueError(f"term s^{j} below claimed leading exponent {lead_exp}")
    return [abs(c) for c in n[lead_exp:]]


def tail_bound(expr: Series, lead_exp: int, tmin: Rat) -> Rat:
    """c with |expr(1/t)| <= c / |t|^lead_exp for all |t| >= tmin (exact), for
    a real series: c = sum_j |n_j| / tmin^(j - lead_exp) / den over the
    numerator n_j."""
    tmin = Fraction(tmin)
    if tmin < 1:
        raise ValueError("tmin must be >= 1")
    n, d = horner(tail_ints(expr, lead_exp), tmin.numerator, tmin.denominator)
    return Fraction(n, d * expr.den)


# ---------------------------------------------------------------------------
# the quartic form and its identities, over Z[i] on the ``zpoly`` kernel

# f_t(X) = A(X) + t B(X): the rows are keyed by the power of t and padded to
# degree 4, so each is also a homogeneous coefficient list of F_t(X, Y)
QUARTIC = ((1, 0, -6, 0, 1), (0, 1, 0, -1, 0))
_U_T, _Z_T = ((4,), (0, 1)), ((-4,), (0, 1))  # u = it + 4 and z = it - 4, in t


def _in_t(f) -> list:
    """A polynomial in t over Z[i] as a form free of X."""
    return [((a,), (b,)) for a, b in zip_longest(*f, fillvalue=0)]


# ---------------------------------------------------------------------------
# quotient-ring root identity: y^4 = w = (it-4)/(it+4)


# the closed-form fourth-root expressions x(y) = num/den, by root type, as
# forms in y over Z[i]: i(y - 1)/(y + 1) for type 0, (y - i)/(1 - iy) for type 3
QUOTIENT_ROOTS = {0: (((), (-1, 1)), ((1, 1), ())), 3: (((0, 1), (-1,)), ((1,), (0, -1)))}


def quotient_root_check(type_index: int) -> bool:
    """Confirm that the closed-form fourth-root expression of the root type is
    a root of the quartic form: substitute x(y) = num/den with y^4 = z/u into
    f_t(X) = X^4 - tX^3 - 6X^2 + tX + 1 and reduce to zero.

    N(y, t) = sum_m f_m(t) num^m den^(4-m) has y-degree at most 4, so one
    reduction y^4 -> z/u settles it: N vanishes iff u N_{<4} + z N_4 = 0.
    Over Z[i]: each row of ``QUARTIC`` homogenised at (num, den) is the
    coefficient of one power of t in N."""
    num, den = QUOTIENT_ROOTS[type_index]  # the fourth root y takes the X slot
    N = [zpoly.homogenise(row, num, den) for row in QUARTIC]
    low = [(re[:4], im[:4]) for re, im in N]
    top = [(re[4:], im[4:]) for re, im in N]  # the y^4 coefficient, as a constant
    return zpoly.same(zpoly.fadd(zpoly.fmul(_in_t(_U_T), low), zpoly.fmul(_in_t(_Z_T), top)), ())


# the names of ``concrete`` that callers still read from this module
__getattr__ = _forward(globals(), "concrete", ("thue_polys_at", "TPoly"))
