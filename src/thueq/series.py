"""Exact integer algebra for the quartic family: the root series in s = 1/t,
their Pade approximants and tail bounds, and the polynomial identities behind
the proof (the fourth-root closed form), over Z or Z[i] on the ``zpoly`` kernel.

A series known modulo s^trunc is the plain record ``IntSeries``: a Z[i]
numerator (re, im) of two integer lists over one positive integer den, in
lowest terms (``IntSeries.of``).  ``root_series`` builds the root series from
integer recurrences and ``pade_residual`` returns U - B*V as one; ``pade``,
``tail_ints`` and ``tail_bound`` read num, den and trunc only.  The Q(i) types
(``GaussRat``, ``Series``, ``TPoly``) and the Q(i) series builders are in
``concrete``; the names callers still read here resolve on first access
(``__getattr__``).  The quartic is the integer table ``QUARTIC``,
f_t = A(X) + t B(X).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from . import _forward, zpoly
from .exactnum import ChainError, Rat

# ---------------------------------------------------------------------------
# the root series, over Z: alpha lies in Z[[s]] because f'(0) is a unit


class IntSeries(namedtuple("IntSeries", "num den trunc")):
    """A power series in s known modulo s^trunc: coefficient k is
    (re[k] + i im[k]) / den for the Z[i] numerator num = (re, im)."""

    __slots__ = ()

    @classmethod
    def of(cls, num, den: int, trunc: int | None) -> "IntSeries":
        """num/den modulo s^trunc (None cuts nothing), den > 0, in lowest terms: lists without
        trailing zeros, and num and den divided by their gcd, so that den is the least
        common denominator and equal values have equal storage."""
        re, im = (list(xs[:trunc]) for xs in num)
        for xs in (re, im):
            while xs and not xs[-1]:
                xs.pop()
        g = math.gcd(den, *re, *im)
        if g != 1:
            re, im, den = [x // g for x in re], [x // g for x in im], den // g
        return cls((re, im), den, trunc)

    def valuation(self) -> int:
        return min(next((k for k, c in enumerate(xs) if c), self.trunc) for xs in self.num)


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


# each root series' truncation order, which rouche.HIGH_ORDER reads as its radius exponent
ROOT_TRUNC = {0: 31, 3: 30}


@lru_cache(maxsize=None)
def root_series(type_index: int) -> IntSeries:
    """The root series a descent chain and a high-order certificate expand:
    type 0 is alpha, type 3 its Moebius image, modulo s^ROOT_TRUNC[type_index],
    from the integer recurrences.  Built once per process; every caller shares
    it and must not mutate it."""
    if type_index not in ROOT_TRUNC:
        raise ValueError("type_index must be 0 or 3")
    alpha = _alpha_ints(ROOT_TRUNC[type_index])
    return IntSeries.of((alpha if type_index == 0 else _moebius(alpha), []), 1,
                        ROOT_TRUNC[type_index])


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


def pade(B: IntSeries, deg_num: int, deg_den: int) -> PadePair:
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
    resid = zpoly.sub(u, bv)[:len(b)]
    if (contact := next((k for k, c in enumerate(resid) if c), len(resid))) < order:
        raise ChainError(f"contact order {contact} below required {order}")
    # U = u/(det den) and V = v/det, cleared by det den and made primitive
    v = zpoly.scale(den, v)
    g = math.gcd(*u, *v) * (1 if det > 0 else -1)
    return PadePair(tuple(c // g for c in u), tuple(c // g for c in v), contact)


def pade_residual(B: IntSeries, pair: PadePair) -> IntSeries:
    """U - B*V modulo s^B.trunc (valuation >= contact order), computed over Z."""
    resid = zpoly.sub(zpoly.scale(B.den, pair.U), zpoly.mul(_real(B.num), pair.V))
    return IntSeries.of((resid, []), B.den, B.trunc)


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


def tail_ints(expr: IntSeries, lead_exp: int) -> list[int]:
    """|n_j| for j >= lead_exp over the numerator n_j of a real series with no
    term below s^lead_exp."""
    n = _real(expr.num)
    j = next((j for j, c in enumerate(n) if c), lead_exp)
    if j < lead_exp:
        raise ValueError(f"term s^{j} below claimed leading exponent {lead_exp}")
    return [abs(c) for c in n[lead_exp:]]


def tail_bound(expr: IntSeries, lead_exp: int, tmin: Rat) -> Rat:
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
__getattr__ = _forward(globals(), "concrete", ("thue_polys_at", "TPoly", "GaussRat", "Series",
                                               "newton_alpha_series", "alpha3_series"))
