"""The concrete-t path: what a query at one parameter t runs, and the verdict
never does.  The Q(i) types: ``GaussRat``, and ``Series`` (modulo s^trunc, built
by ``newton_alpha_series`` and ``alpha3_series``) and ``TPoly`` on one storage
(``_GaussDense``).  Complex balls (``ComplexBall``), the Thue polynomials A_r,
B_r at a concrete Gaussian t (``_thue_ints`` as Z[i] integer lists,
``thue_polys_at`` as ``TPoly``s), the certified enclosures of the roots of f_t
(``root_ball``, ``all_root_balls``), the type of a solution (``classify_type``)
and the divisibility check of alpha A_r - B_r at the small root m, through the
scaling X = mY and a Taylor shift by one (``divisibility_ball_check``).
``thueq verify-all`` imports none of it; the names that callers still read
from ``dioph`` and ``series`` resolve there on first access."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul

from . import zpoly
from .exactnum import GRID_BITS, ChainError, DomainError, Frozen, Rat, sqrt_grid
from .hyperchi import chi_ints
from .quadfield import QuadInt, ring
from .series import _U_T, _Z_T, QUARTIC, IntSeries, _alpha_ints, _in_t, _moebius, horner


class TieError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# complex balls


def round_up_grid(x: Rat, bits: int = GRID_BITS) -> Rat:
    """Smallest multiple of 2**-bits that is >= x."""
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def gauss_over(re: Rat, im: Rat) -> tuple[int, int, int]:
    """(a, b, n) with re + i im = (a + bi)/n over the least common denominator n."""
    n = math.lcm(re.denominator, im.denominator)
    return re.numerator * (n // re.denominator), im.numerator * (n // im.denominator), n


class ComplexBall(Frozen):
    __slots__ = ("re_mid", "im_mid", "radius")

    def __init__(self, re_mid: Rat, im_mid: Rat, radius: Rat):
        if radius < 0:
            raise DomainError("negative ball radius")
        object.__setattr__(self, "re_mid", re_mid)
        object.__setattr__(self, "im_mid", im_mid)
        object.__setattr__(self, "radius", radius)

    @staticmethod
    def exact(re: Rat, im: Rat = Fraction(0)) -> "ComplexBall":
        return ComplexBall(Fraction(re), Fraction(im), Fraction(0))

    def abs_bounds(self) -> tuple[Rat, Rat]:
        """Certified [lo, hi] for |z| over the ball; |mid|^2 is not normalised."""
        a, b, n = gauss_over(self.re_mid, self.im_mid)
        lo, hi = (Fraction(e, 1 << GRID_BITS) for e in sqrt_grid(a * a + b * b, n * n))
        return max(lo - self.radius, Fraction(0)), hi + self.radius

    def abs_upper(self) -> Rat:
        return self.abs_bounds()[1]

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
        rad = self.radius * other.radius
        for a, b in ((self, other), (other, self)):
            if b.radius:  # a modulus only where it meets a nonzero radius
                rad += a.abs_upper() * b.radius
        return ComplexBall(re, im, round_up_grid(rad))


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
# over one denominator, and Horner's rule for a polynomial at a concrete t


def _cleared(coeffs) -> tuple[tuple[list[int], list[int]], int]:
    """Q(i) scalars (int, ``Fraction`` or ``GaussRat``) as a Z[i] numerator
    (re, im) over their least common denominator."""
    cs = [GaussRat.of(c) for c in coeffs]
    den = math.lcm(*(x.denominator for c in cs for x in (c.re, c.im)))
    return tuple([x.numerator * (den // x.denominator) for x in xs]
                 for xs in ([c.re for c in cs], [c.im for c in cs])), den


class _GaussDense:
    """The storage ``TPoly`` and ``Series`` share: coefficient k is
    (re[k] + i im[k]) / den for the Z[i] numerator num = (re, im), two integer
    lists in the ``zpoly`` format without trailing zeros, and the positive
    integer den, in lowest terms (``series.IntSeries.of``).  Arithmetic runs on
    ``zpoly``; values are not mutated once built."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        self._set(*_cleared(coeffs))

    def _set(self, num, den: int, n: int | None = None):
        self.num, self.den, _ = IntSeries.of(num, den, n)
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
    """Power series known modulo s^trunc, over Q(i): the arithmetic on the
    storage that ``series.IntSeries`` holds as a plain record."""

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

    valuation = IntSeries.valuation

    def truncated(self, n: int) -> "Series":
        return Series.from_ints(self.num, self.den, min(n, self.trunc))

    def __repr__(self):
        terms = [f"({c})*s^{k}" for k, c in enumerate(self.coeffs) if c]
        return (" + ".join(terms) or "0") + f"  (mod s^{self.trunc})"


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


def evaluate(coeffs, x, zero):
    """Horner's rule in the arithmetic of the coefficients and x."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TPoly(_GaussDense):
    """Dense univariate polynomial over Q(i) (used for both t and X)."""

    __slots__ = ()

    @classmethod
    def from_ints(cls, num, den: int = 1) -> "TPoly":
        """The polynomial num/den, for a Z[i] numerator num and a positive
        integer den, reduced to lowest terms."""
        return cls.__new__(cls)._set(num, den)

    def _like(self, num, den, other=None):
        return TPoly.from_ints(num, den)

    def degree(self) -> int:
        return self._width() - 1

    def __pow__(self, n: int):
        out, base = TPoly([1]), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._lift(other)
        return self.num == other.num and self.den == other.den

    def deriv(self) -> "TPoly":
        return TPoly.from_ints(tuple(zpoly.deriv(xs) for xs in self.num), self.den)

    def eval_ball(self, z: ComplexBall) -> ComplexBall:
        den = self.den
        return evaluate([ComplexBall.exact(Fraction(a, den), Fraction(b, den))
                         for a, b in self._num_pairs()], z, ComplexBall.exact(Fraction(0)))

    def __repr__(self):
        return " + ".join(f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if c) or "0"


# ---------------------------------------------------------------------------
# the Thue polynomials at a concrete t, over Z[i]

# a, b, c, d of ``_thue_data``, held without their common prefactor 5/2
_ABCD = (((-2,), (0, 2)), ((2,), (0, 2)), ((0, -2), (-2,)), ((0, 2), (-2,)))
# (X - i)^4 and (X + i)^4
_X_MINUS_I_4, _X_PLUS_I_4 = (zpoly.gmul(sq, sq) for sq in (
    zpoly.gmul(f, f) for f in (((0, 1), (-1,)), ((0, 1), (1,)))))


def _i_pow(k: int, c: int = 1):
    """c i^k, a constant over Z[i]."""
    return (((c,), ()), ((), (c,)), ((-c,), ()), ((), (-c,)))[k % 4]


@lru_cache(maxsize=None)
def _thue_data() -> dict:
    """The polynomials attached to P = X^4 - tX^3 - 6X^2 + tX + 1 and
    U = X^2 + 1: the second-order identity U P'' - 3 U' P' + 6 U'' P = 0
    holds, the discriminant constant is lambda = -1, and the record carries
    Y = 2UP' - 4U'P plus the auxiliary linear and quartic factors, as
    ``zpoly`` forms over Z[i]: a, b, c, d without their prefactor 5/2, and
    u, z times 16.  Built and checked once per process, and shared."""
    U = (1, 0, 1)
    dU = zpoly.deriv(U)
    ode, Y = [], []
    for p in QUARTIC:  # U is free of t, so each power of t stands alone
        dp = zpoly.deriv(p)
        ode.append(zpoly.add(zpoly.sub(zpoly.mul(U, zpoly.deriv(dp)),
                                       zpoly.scale(3, zpoly.mul(dU, dp))),
                             zpoly.scale(6, zpoly.mul(zpoly.deriv(dU), p))))
        Y.append(zpoly.sub(zpoly.scale(2, zpoly.mul(U, dp)), zpoly.scale(4, zpoly.mul(dU, p))))
    if any(c for row in ode for c in row):
        raise ChainError("differential identity failed")
    # sqrt(lambda) = i with lambda = -1; prefactor (n^2-1)/6 = 5/2 held apart
    w = zpoly.sub(zpoly.mul(dU, (0, 1)), zpoly.scale(2, U))  # U'X - 2U
    a, b, c, d = ((-2,), dU), ((2,), dU), ((0, -2), w), ((0, 2), w)
    # 16u = -iY - 8P and 16z = -iY + 8P, from Y/(2n sqrt(lambda)) = -iY/8
    data = {"P": [(p, ()) for p in QUARTIC], "U": [(U, ())], "Y": [(y, ()) for y in Y],
            "a": [a], "b": [b], "c": [c], "d": [d],
            "u": [(zpoly.scale(-8, p), zpoly.scale(-1, y)) for p, y in zip(QUARTIC, Y)],
            "z": [(zpoly.scale(8, p), zpoly.scale(-1, y)) for p, y in zip(QUARTIC, Y)],
            "lambda": -1}
    _check_thue_data(data)
    return data


def _check_thue_data(data: dict) -> None:
    (A, B), U = QUARTIC, data["U"]
    U4 = zpoly.fmul(zpoly.fmul(U, U), zpoly.fmul(U, U))
    u_lin, z_lin = (zpoly.gmul(((-2,), ()), f) for f in (_U_T, _Z_T))
    fmul = zpoly.fmul
    identities = {  # name: (left side, right side)
        "Y": (data["Y"], [(zpoly.scale(-32, B), ()), (zpoly.scale(2, A), ())]),
        **{k: (data[k], [f]) for k, f in zip("abcd", _ABCD)},
        "u": (data["u"], fmul(_in_t(u_lin), [_X_PLUS_I_4])),
        "z": (data["z"], fmul(_in_t(z_lin), [_X_MINUS_I_4])),
        # a d - b c is a multiple of U, and u z one of U^4
        "ad-bc": (fmul(data["a"], data["d"]),
                  zpoly.fadd(fmul(data["b"], data["c"]), fmul([((), (8,))], U))),
        "uz": (fmul(data["u"], data["z"]), fmul(_in_t(zpoly.gmul(u_lin, z_lin)), U4)),
    }
    failed = [name for name, (lhs, rhs) in identities.items() if not zpoly.same(lhs, rhs)]
    if failed:
        raise ChainError(f"thue_data identities failed: {', '.join(failed)}")


def thue_polys_at(r: int, t_val: GaussRat) -> tuple[TPoly, TPoly]:
    """(A_r, B_r) as polynomials in X for a fixed Gaussian t: ``_thue_ints``
    in lowest terms."""
    *polys, den = _thue_ints(r, t_val)
    return tuple(TPoly.from_ints(num, den) for num in polys)


def _gauss_mul(x: tuple, y: tuple) -> tuple[int, int]:
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _thue_ints(r: int, t_val: GaussRat) -> tuple:
    """(A, B, den): the Z[i] numerators of A_r and B_r, each a pair (re, im) of
    integer lists of length 4r + 2, over den = 2 (8D)^r delta, not reduced.  They
    come from the closed forms ``_check_thue_data`` certifies.  With t = T/D,
    z = -P/(8D) and u = -Q/(8D) for P = p(X - i)^4, Q = q(X + i)^4, p = iT - 4D,
    q = iT + 4D, and chi_r = sum_k n_k X^k / delta: A_r = i^r (a S1 - b S2)/den
    and B_r = i^r (c S1 - d S2)/den, where S1 = chi*(P, Q), S2 = chi*(Q, P) and
    the factor 2 of den is the prefactor 5/2 of a..d.  Only the weights
    p^k q^(r-k), integer pairs, depend on t (``_thue_x_polys``)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    _thue_data()  # the closed forms below hold once it has passed
    rows, delta = _thue_x_polys(r)
    tr, ti, D = gauss_over(t_val.re, t_val.im)
    pk, qk = (list(accumulate([(c, tr)] * r, _gauss_mul, initial=(1, 0)))
              for c in (-ti - 4 * D, -ti + 4 * D))
    ws = list(map(_gauss_mul, pk, reversed(qk)))
    w = [x for x, _ in ws] + [y for _, y in ws]
    return (*(tuple([sum(map(mul, w, c)) for c in cols] for cols in row) for row in rows),
            2 * (8 * D) ** r * delta)


@lru_cache(maxsize=16)
def _thue_x_polys(r: int) -> tuple:
    """(rows, delta): per Thue polynomial, the columns whose products with the
    weights p^k q^(r-k), then i p^k q^(r-k), give its real and its imaginary
    X^j coefficient: the X-parts 5 i^r (n_k a - n_(r-k) b) e_k of A_r, with c
    and d for B_r, where e_k = (X - i)^(4k) (X + i)^(4(r-k)), k = 0..r."""
    n, delta = chi_ints(r)
    em, ep = (list(accumulate([f] * r, zpoly.gmul, initial=((1,), ())))
              for f in (_X_MINUS_I_4, _X_PLUS_I_4))
    rows = []
    for f, g in (_ABCD[:2], _ABCD[2:]):
        re, im = zip(*(zpoly.gmul(zpoly.gmul(_i_pow(r, 5), zpoly.gmul(em[k], ep[r - k])),
                                  zpoly.gsub(zpoly.gscale(n[k], f), zpoly.gscale(n[r - k], g)))
                       for k in range(r + 1)))
        re, im = ([zpoly.pad(x, 4 * r + 2) for x in part] for part in (re, im))
        rows.append((tuple(zip(*re, *(zpoly.scale(-1, x) for x in im))), tuple(zip(*im, *re))))
    return tuple(rows), delta


# ---------------------------------------------------------------------------
# certified root enclosures and type classification
# A ball is the record (a, b, n, p, q, h): midpoint (a + bi)/n, radius p/q and
# h = ceil(2^GRID_BITS |mid|), with n and q not reduced.  Every reader of a
# record is homogeneous in a numerator and its denominator, so a scaled record
# reads the same integers; a ComplexBall is built only where one is handed out.


def _record(a: int, b: int, n: int, p: int, q: int) -> tuple:
    return a, b, n, p, q, sqrt_grid(a * a + b * b, n * n)[1]


def _ball(rec: tuple) -> ComplexBall:
    a, b, n, p, q, _ = rec
    return ComplexBall(Fraction(a, n), Fraction(b, n), Fraction(p, q))


def _embed(x: QuadInt, bits: int = GRID_BITS) -> tuple:
    """Certified complex embedding (Im sqrt(-d) > 0) as a record, sqrt(d) in [lo, hi]
    2^-bits: x = (2a + sb)/2 + b/(1 + s) sqrt(-d) for x = a + b w, s = ring(d)[0]."""
    if x.b == 0:
        return _record(x.a, 0, 1, 0, 1)
    s, (lo, hi) = ring(x.d)[0], sqrt_grid(x.d, 1, bits)
    return _record((2 * x.a + s * x.b) * (1 + s) << bits, x.b * (lo + hi), (1 + s) << bits + 1,
                   abs(x.b) * (hi - lo), (1 + s) << bits)


# f_t, f_t' and f_t'' as the rows (A, B) of f = A + tB, read from QUARTIC
_DF = tuple(tuple(zpoly.deriv(p)) for p in QUARTIC)
_D2F = tuple(tuple(zpoly.deriv(p)) for p in _DF)


def _coeffs_at(t: tuple) -> tuple:
    """(rows, T, m2, td) for the parameter's record t: f_t and f_t' at its midpoint as Z[i]
    coefficients over T, each with its coefficient radii in units of 2^-GRID_BITS as
    ComplexBall lifts A_k + B_k t; the majorant |A_k| + |B_k| |t| of f_t'' as integers over
    td, from |t| <= h 2^-GRID_BITS + p/q, once per Newton run."""
    tr, ti, T, p, q, h = t
    rows = [(tuple((a * T + b * tr, b * ti) for a, b in zip(*f)),
             tuple(-(-(abs(b) * p << GRID_BITS) // q) for b in f[1])) for f in (QUARTIC, _DF)]
    tn, td = h * q + (p << GRID_BITS), q << GRID_BITS
    return rows, T, [abs(a) * td + abs(b) * tn for a, b in zip(*_D2F)], td


def _evaluate(at: tuple, zr: int, zi: int, bits: int) -> tuple:
    """(zr, zi, bits, xu, f, f'): the one evaluation at x = (zr + zi i)/2^bits, |x| <= xu
    2^-GRID_BITS, on at = _coeffs_at(t), that the certificate of x and the Newton step from
    x share.  Each value is (V, K, r): V/K is exact at the ball's midpoint (homogenised
    Horner over Z[i]), and r 2^-GRID_BITS is the radius that ComplexBall Horner gives it."""
    rows, T, _, _ = at
    n = 1 << bits
    xu = sqrt_grid(zr * zr + zi * zi, n * n)[1]
    out = [zr, zi, bits, xu]
    for coeffs, radii in rows:
        (vr, vi), npow, r = coeffs[-1], 1, radii[-1]
        for (cr, ci), c in zip(reversed(coeffs[:-1]), reversed(radii[:-1])):
            npow *= n
            vr, vi = vr * zr - vi * zi + cr * npow, vr * zi + vi * zr + ci * npow
            r = -(-xu * r >> GRID_BITS) + c
        out.append(((vr, vi), T * npow, r))
    return tuple(out)


def root_ball(t: GaussRat | None, seed: complex, target_radius: Rat,
              t_irrational: QuadInt | None = None) -> ComplexBall:
    """Certified enclosure of the root of f_t nearest the float seed (_root_record)."""
    return _ball(_root_record(_param_coeffs(t, t_irrational), seed, target_radius))


def _param_coeffs(t: GaussRat | None, t_irrational: QuadInt | None = None) -> tuple:
    """_coeffs_at of the parameter's record: an irrational parameter comes as
    (None, t_irrational) from _t_exact, with sqrt(d) on the 2^-200 grid."""
    return _coeffs_at(_record(*gauss_over(t.re, t.im), 0, 1) if t_irrational is None
                      else _embed(t_irrational, 200))


def _root_record(at: tuple, seed: complex, target_radius: Rat) -> tuple:
    """root_ball's record, on the parameter's coefficients at = _param_coeffs(...).  Newton
    steps at the parameter's midpoint and Newton-Kantorovich certificates over its ball, from
    one integer evaluation per iterate: it certifies the iterate, then takes the step from it.
    The seed and every step are rounded to the nearest multiple of 2^-bits, bits = k + 64,
    where 2^-k is the largest power of two <= target_radius: the certificate holds for any x.
    The seed is evaluated for its step only."""
    tp, tq = Fraction(target_radius).as_integer_ratio()
    bits = ((tq - 1) // tp).bit_length() + 64
    ev = _evaluate(at, *(_nearest(*c.as_integer_ratio(), bits) for c in (seed.real, seed.imag)),
                   bits)
    last = None  # the previous certified radius, (p, q)
    for _ in range(14):
        zr, zi, _, _, (F, _, _), (D, _, _) = ev
        dn = D[0] ** 2 + D[1] ** 2
        if not dn:
            break
        # x - f/f' = (z D - F) / (2^bits D) = (z D - F) conj(D) / (2^bits |D|^2)
        wr, wi = zr * D[0] - zi * D[1] - F[0], zr * D[1] + zi * D[0] - F[1]
        ev = _evaluate(at, _nearest(wr * D[0] + wi * D[1], dn << bits, bits),
                       _nearest(wi * D[0] - wr * D[1], dn << bits, bits), bits)
        rec = _certify_root(at, ev)
        if rec is not None:
            p, q = rec[3:5]
            if p * tq <= tp * q:
                return rec
            if last is not None and p * last[1] >= last[0] * q:
                break  # stalled at the grid or at the parameter's own enclosure
            last = p, q
    raise TieError("root enclosure did not reach the requested radius")


def _certify_root(at: tuple, ev: tuple) -> tuple | None:
    """Newton-Kantorovich: a simple root lies within 2|f(x)/f'(x)| of x, for
    ev = _evaluate(at, ...): the record (zr, zi, 2^bits, 2 en, ed, xu) of that
    ball.  |f| and |f'| are bounded as ComplexBall Horner bounds them, over Z."""
    zr, zi, bits, xu, (F, kf, rf), (D, kd, rd) = ev
    # |f'| >= ed 2^-GRID_BITS, and eta = en / ed bounds |f/f'|
    ed = sqrt_grid(D[0] ** 2 + D[1] ** 2, kd * kd)[0] - rd
    if ed <= 0:
        return None
    en = sqrt_grid(F[0] ** 2 + F[1] ** 2, kf * kf)[1] + rf
    # |f''| <= m / (td xd^2) on the disc |z - x| <= 2 eta, where |z| <= xn / xd
    _, _, m2, td = at
    xn, xd = xu * ed + (2 * en << GRID_BITS), ed << GRID_BITS
    m, xd_top = horner(m2, xd, xn)
    if 2 * en * m << GRID_BITS > ed * ed * td * xd_top:  # h < 1/2 fails
        return None
    return zr, zi, 1 << bits, 2 * en, ed, xu


def all_root_balls(t_complex: complex, t_gauss, t_irrational,
                   target_radius: Rat) -> list[ComplexBall]:
    """The four roots of f_t, ordered by the cyclic structure starting from
    the root of smallest modulus: alpha0, alpha1 (near -1), alpha2 (large),
    alpha3 (near 1).  The parameter is the pair that _t_exact returns.

    The certified, pairwise disjoint set, or the reason of a tie, is built
    once per process for each (t, radius) and shared by every caller (at most
    64 are kept).  Each call returns a fresh list."""
    got = _root_balls(t_complex, t_gauss, t_irrational, target_radius)
    if isinstance(got, str):
        raise TieError(got)
    return list(map(_ball, got))


@lru_cache(maxsize=64)
def _root_balls(t_complex, t_gauss, t_irrational, target_radius) -> tuple | str:
    """The set as the certificates' records, or the TieError message of a tie,
    returned so that the cache keeps it."""
    at = _param_coeffs(t_gauss, t_irrational)  # one coefficient table for the four runs
    try:
        recs = tuple(_root_record(at, s, target_radius) for s in _root_seeds(t_complex))
    except TieError as exc:
        return str(exc)
    # pairwise disjointness makes the correspondence certified: ComplexBall's
    # lower end of |u - v|, on the integers, must be positive
    for (a, b, n, p, q, _), (c, e, m, p2, q2, _) in itertools.combinations(recs, 2):
        if (sqrt_grid((a * m - c * n) ** 2 + (b * m - e * n) ** 2, (n * m) ** 2)[0]
                <= -(-((p * q2 + p2 * q) << GRID_BITS) // (q * q2))):
            return "root enclosures overlap"
    return recs


def _root_seeds(t: complex) -> list[complex]:
    """Float seeds in closed form, ordered as (smallest, near -1, large, near 1).

    f_t(tan psi) = 0 exactly when tan 4psi = -4/t, so tau = tan(atan(-4/t)/4)
    is a root, and X -> (X - 1)/(X + 1), tan psi -> tan(psi - pi/4), takes it
    through the other three; the cycle starts at the root of least modulus.
    At t = 0, tau = tan(pi/8); at t = +-4i, f_t = (X -+ i)^4 has the one root t/4."""
    import cmath

    if t in (4j, -4j):
        return [t / 4] * 4
    tau = cmath.tan(cmath.atan(-4 / t) / 4) if t else complex(math.sqrt(2) - 1)
    orbit = [tau, (tau - 1) / (tau + 1), -1 / tau, (1 + tau) / (1 - tau)]
    k = min(range(4), key=lambda i: abs(orbit[i]))
    return orbit[k:] + orbit[:k]


MID_BITS = 192  # the root ball's midpoint is rounded to a multiple of 2^-MID_BITS
W = GRID_BITS + 128  # the divisibility check's fixed point: integers over den 2^W


def _nearest(num: int, den: int, bits: int) -> int:
    """floor(num/den 2^bits + 1/2) for den > 0: num/den rounded to the nearest
    multiple of 2^-bits, in units of 2^-bits."""
    return (2 * (num << bits) + den) // (2 * den)


def _dyadic_ball(rec: tuple) -> tuple[tuple[int, int], int]:
    """(M, R) with the record's ball inside |z - M/2^MID_BITS| <= R/2^MID_BITS: M is the
    midpoint rounded to nearest (off by < 2^-MID_BITS), R >= radius 2^MID_BITS + 1."""
    a, b, n, p, q, _ = rec
    return (_nearest(a, n, MID_BITS), _nearest(b, n, MID_BITS)), -(-(p << MID_BITS) // q) + 1


def _shift_one(c: list) -> list:
    """c(X + 1) for integers c_j, by additions only: pass i replaces each c_j,
    j >= i, by the suffix sum c_j + ... + c_n (on the reversed list, a prefix sum)."""
    c = c[::-1]
    for k in range(len(c), 1, -1):
        c[:k] = accumulate(c[:k])
    return c[::-1]


def _shift_up(c: list, s: int, bits: int, rounds: int) -> list:
    """c(X + s/2^bits) in place for integers c_j, s >= 0, each product rounded up;
    after `rounds` rounds the coefficients below it are final."""
    for i in range(rounds):
        acc = c[-1]
        for j in range(len(c) - 2, i - 1, -1):
            acc = c[j] = c[j] - (-s * acc >> bits)
    return c


def _derivative_balls(r: int, a, b, M: tuple[int, int], R: int) -> tuple[int, list]:
    """(Wp, balls): for k = 0..2r, integers (x, y, rad) with alpha A^(k)(alpha) -
    B^(k)(alpha) within k! rad/(2^Wp den |m|^k) of k! (x + iy)/(2^Wp den m^k) on the disc
    |alpha - m| <= rho, m = M/2^MID_BITS, rho = R/2^MID_BITS, for A and B with the Z[i]
    numerators a, b (pairs re, im) over den.  The coefficients 2^Wp c_i m^i of A(mY) and
    B(mY), each part off by < 2, shifted by one with additions only, are those of A and B
    at m scaled by 2^Wp m^j, off by < beta_j = 2 C(n + 1, j + 1); then e~_j = m a~_j - b~_j
    (off by < eps_j) and w~_j = |e~_j| + rho |a~_j|, shifted by rho/|m|, give rad_k =
    T~_k - |e~_k| + 2 eps_k.  Wp keeps the unscaled balls to 2^-W, from 1/|m| <= 2^g and
    rho/|m| <= 2^grho.  For M = 0 nothing is scaled or shifted, and rho/|m| reads rho."""
    n = max(*map(len, (*a, *b)), 2 * r + 1) - 1
    (mr, mi), S = M, MID_BITS
    lists = [zpoly.pad(xs, n + 1) for xs in (*a, *b)]
    mod2 = mr * mr + mi * mi
    if mod2:
        h = (mod2.bit_length() - 1) // 2  # |M| >= 2^h
        g, grho = max(S - h, 0), max(R.bit_length() - h, 0)
        wp = W + g * (2 * r + 1) + (n - 2 * r - 1) * grho + n + 2
        mu = abs(mr) + abs(mi)  # each part of m z is at most mu/2^S times |parts of z|
        cmax = 2 * max(map(abs, itertools.chain(*lists)))  # |re| + |im| <= cmax
        # a power's parts are off by < i u^i for mu <= u 2^S, and so C_i's, before the
        # guard bits go, by < cmax n u^n < 2^guard
        guard = (cmax * n * max(1, -(-mu >> S)) ** n).bit_length()
        pows, (pr, pi) = [], (1 << wp + guard, 0)
        for _ in range(n + 1):
            pows.append((pr, pi))
            pr, pi = pr * mr - pi * mi >> S, pr * mi + pi * mr >> S
        for j in (0, 2):
            re, im = lists[j], lists[j + 1]
            lists[j], lists[j + 1] = (
                [x * p - y * q >> guard for x, y, (p, q) in zip(re, im, pows)],
                [x * q + y * p >> guard for x, y, (p, q) in zip(re, im, pows)])
        ar, ai, br, bi = map(_shift_one, lists)
        beta = [2 * math.comb(n + 1, j + 1) for j in range(n + 1)]
    else:  # nothing to scale or shift
        mu, wp = 0, W
        ar, ai, br, bi = ([x << W for x in xs] for xs in lists)
        beta = [0] * (n + 1)
    # e~_j and the bound eps_j on the error of its parts; |e~_j| and |a~_j| rounded up
    es = [((mr * x - mi * y >> S) - u, (mr * y + mi * x >> S) - v, -(-mu * bj >> S) + bj + 1)
          for x, y, u, v, bj in zip(ar, ai, br, bi, beta)]
    abs_e = [math.isqrt((abs(x) + eps) ** 2 + (abs(y) + eps) ** 2) + 1 for x, y, eps in es]
    w = [u - (-R * (math.isqrt((abs(x) + bj) ** 2 + (abs(y) + bj) ** 2) + 1) >> S)
         for u, x, y, bj in zip(abs_e, ar, ai, beta)]
    bits = max(w).bit_length() + 8  # rho/|m| <= s/2^bits, read as rho = R/2^S for M = 0
    s, bits = (sqrt_grid(R * R, mod2, bits)[1], bits) if mod2 else (R, S)
    w = _shift_up(w, s, bits, 2 * r + 1)
    # the midpoint's error, at most 2 eps_k, joins the radius T~_k - |e~_k|
    return wp, [(x, y, w[k] - abs_e[k] + 2 * eps)
                for k, (x, y, eps) in enumerate(es[:2 * r + 1])]


def divisibility_ball_check(r: int, t: GaussRat) -> dict:
    """Certify numerically that alpha*A_r - B_r vanishes to order 2r+1 at the small
    root alpha: the balls of _derivative_balls over a root ball, for the value and its
    first 2r X-derivatives, must all contain zero, |x + iy| <= rad (their factor
    k!/(2^Wp den m^k) cancels); max_radius is the largest, rounded up to the grid."""
    if r < 0:
        raise ValueError("r must be >= 0")
    tc = complex(float(t.re), float(t.im))
    alpha = _root_record(_param_coeffs(t), _root_seeds(tc)[0], Fraction(1, 1 << 120))
    a, b, den = _thue_ints(r, t)
    M, R = _dyadic_ball(alpha)
    wp, balls = _derivative_balls(r, a, b, M, R)
    # the largest (2^GRID_BITS radius)^2, rounded up, with |m|^2 = mod2/2^(2 MID_BITS),
    # read as 1 for M = 0, where nothing is scaled
    mod2 = M[0] ** 2 + M[1] ** 2 or 1 << 2 * MID_BITS
    top = max(-(-((math.factorial(k) * rad) ** 2 << 2 * (MID_BITS * k + GRID_BITS))
                // (den * den * mod2 ** k << 2 * wp)) for k, (_, _, rad) in enumerate(balls))
    return {"order": 2 * r + 1,
            "all_contain_zero": all(x * x + y * y <= rad * rad for x, y, rad in balls),
            "max_radius": Fraction(sqrt_grid(top, 1, 0)[1], 1 << GRID_BITS)}


def classify_type(t: QuadInt, x: QuadInt, y: QuadInt) -> int:
    """Index j minimizing |x - alpha_j y| with certified strictness."""
    if x.abs_sq() == 0 and y.abs_sq() == 0:
        raise ValueError("(0, 0) has no type")
    tc = _t_complex(t)
    t_gauss, t_irrational = _t_exact(t)
    xs, ys = _embed(x), _embed(y)
    for bits in (64, 128, 256):
        got = _root_balls(tc, t_gauss, t_irrational, Fraction(1, 1 << bits))
        if isinstance(got, str):  # this rung ties
            continue
        bounds = [_beta_bounds(xs, ys, ab) for ab in got]
        best = min(range(4), key=lambda i: bounds[i][1])
        if all(bounds[best][1] < bounds[j][0] for j in range(4) if j != best):
            return best
    raise TieError(f"no strict minimal root distance for t={t}, x={x}, y={y}")


def _beta_bounds(x: tuple, y: tuple, alpha: tuple) -> tuple[int, int]:
    """ComplexBall's (x - alpha y).abs_bounds() times 2^GRID_BITS on records:
    the product adds rho_a rho_y + (h_a 2^-GRID_BITS + rho_a) rho_y + (h_y 2^-GRID_BITS
    + rho_y) rho_a, and the difference rho_x, each rounded up to the grid."""
    (xr, xi, xn, xp, xq, _), (yr, yi, yn, yp, yq, yh), (a, b, n, p, q, h) = x, y, alpha
    rad = -(-(3 * (p * yp << GRID_BITS) + h * q * yp + yh * yq * p) // (q * yq))
    rad -= -(xp << GRID_BITS) // xq
    den = n * yn
    re, im = xr * den - xn * (a * yr - b * yi), xi * den - xn * (a * yi + b * yr)
    lo, hi = sqrt_grid(re * re + im * im, (xn * den) ** 2)
    return max(lo - rad, 0), hi + rad


def _t_complex(t: QuadInt) -> complex:
    re, im = t.re_im()
    return complex(float(re), float(im) * math.sqrt(t.d))


def _t_exact(t: QuadInt):
    """(t_gauss, t_irrational): t as a GaussRat when it lies in Q(i), else
    (None, t)."""
    re, im = t.re_im()
    return (GaussRat(re, im), None) if im == 0 or t.d == 1 else (None, t)
