"""Exact algebra over Q(i) for the quartic family: truncated power series in
s = 1/t, Newton root iteration, Pade approximants, and the polynomial
identities behind the proof (differential-equation data, the fourth-root
closed form, integral approximant pairs).

Four types, one job each:

* ``GaussRat`` -- an element of Q(i), the scalar of everything below.
* ``Series`` -- a power series in s = 1/t known modulo s^trunc; it carries
  the root series, their Pade approximants and tail bounds.
* ``Poly2`` -- a sparse polynomial in (X, t); it carries every identity
  (the quartic ``QUARTIC``, the Rouche expansions about root centers,
  which may hold negative powers of t, and the quotient-ring root check).
* ``TPoly`` -- a dense univariate polynomial (in t or in X); it carries
  evaluation: Horner at a ``GaussRat``, ``eval_ball`` and ``deriv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exactnum import ComplexBall, Rat, sqrt_upper

# ---------------------------------------------------------------------------
# Gaussian rationals


@dataclass(frozen=True)
class GaussRat:
    re: Rat
    im: Rat

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

    def __rsub__(self, other):
        return GaussRat.of(other) - self

    def __mul__(self, other):
        if not isinstance(other, (GaussRat, int, Fraction)):
            return NotImplemented
        other = GaussRat.of(other)
        return GaussRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self):
        return GaussRat(self.re, -self.im)

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

    def abs_upper(self) -> Rat:
        if self.im == 0:
            return abs(self.re)
        return sqrt_upper(self.abs_sq())

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"


G0 = GaussRat(Fraction(0), Fraction(0))
G1 = GaussRat(Fraction(1), Fraction(0))
GI = GaussRat(Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# truncated power series


class ValuationError(ArithmeticError):
    pass


class Series:
    """Power series known modulo s^trunc, dense Gaussian-rational coeffs."""

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc: int):
        cs = [GaussRat.of(c) for c in coeffs[:trunc]]
        while len(cs) < trunc:
            cs.append(G0)
        self.coeffs = cs
        self.trunc = trunc

    def __getitem__(self, k: int) -> GaussRat:
        if k >= self.trunc:
            raise IndexError(f"coefficient of s^{k} unknown (trunc {self.trunc})")
        return self.coeffs[k]

    def __eq__(self, other):
        n = min(self.trunc, other.trunc)
        return self.coeffs[:n] == other.coeffs[:n]

    def __add__(self, other):
        other = _as_series(other, self.trunc)
        n = min(self.trunc, other.trunc)
        return Series([self.coeffs[k] + other.coeffs[k] for k in range(n)], n)

    __radd__ = __add__

    def __neg__(self):
        return Series([-c for c in self.coeffs], self.trunc)

    def __sub__(self, other):
        return self + (-_as_series(other, self.trunc))

    def __rsub__(self, other):
        return _as_series(other, self.trunc) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            g = GaussRat.of(other)
            return Series([c * g for c in self.coeffs], self.trunc)
        n = min(self.trunc, other.trunc)
        out = [G0] * n
        for j, cj in enumerate(self.coeffs[:n]):
            if not cj:
                continue
            for k, dk in enumerate(other.coeffs[: n - j]):
                if dk:
                    out[j + k] = out[j + k] + cj * dk
        return Series(out, n)

    __rmul__ = __mul__

    def inverse(self) -> "Series":
        c0 = self.coeffs[0]
        if not c0:
            raise ValuationError("series not invertible: zero constant term")
        inv0 = c0.inv()
        out = [inv0]
        for k in range(1, self.trunc):
            acc = G0
            for j in range(k):
                acc = acc + out[j] * self.coeffs[k - j]
            out.append(-acc * inv0)
        return Series(out, self.trunc)

    def __truediv__(self, other):
        return self * other.inverse()

    def valuation(self) -> int:
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.trunc

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def shift(self, k: int) -> "Series":
        """Multiply by s^k."""
        return Series([G0] * k + self.coeffs, self.trunc + k)

    def truncated(self, n: int) -> "Series":
        return Series(self.coeffs[:n], min(n, self.trunc))

    def __repr__(self):
        terms = [f"({c})*s^{k}" for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) or "0" + f"  (mod s^{self.trunc})"


def _as_series(x, trunc: int) -> Series:
    if isinstance(x, Series):
        return x
    return Series([GaussRat.of(x)], trunc)


# ---------------------------------------------------------------------------
# the root series

def _defining_poly(x: Series) -> Series:
    """s*f applied to a series: s x^4 - x^3 - 6 s x^2 + x + s."""
    s = Series([0, 1], x.trunc)
    x2 = x * x
    return s * x2 * x2 - x2 * x - 6 * s * x2 + x + s


def _defining_poly_deriv(x: Series) -> Series:
    s = Series([0, 1], x.trunc)
    x2 = x * x
    return 4 * s * x2 * x - 3 * x2 - 12 * s * x + 1


def newton_alpha_series(N: int) -> Series:
    """The series alpha(s) with alpha(0) = 0 killing s*f, modulo s^N."""
    if N < 2:
        raise ValueError("need truncation order >= 2")
    x = Series([0], N)
    steps = math.ceil(math.log2(N)) + 1
    for _ in range(steps):
        x = x - _defining_poly(x) / _defining_poly_deriv(x)
    return x


def alpha3_series(alpha: Series) -> Series:
    """-(alpha+1)/(alpha-1), the Moebius image giving the root near 1."""
    if alpha.coeffs[0]:
        raise ValuationError("expected a series vanishing at s=0")
    return -(alpha + 1) / (alpha - 1)


@lru_cache(maxsize=None)
def root_series(type_index: int) -> Series:
    """The root series a descent chain and a high-order certificate expand:
    type 0 is alpha modulo s^31, type 3 its Moebius image modulo s^30.
    Built once per process; every caller shares it and must not mutate it."""
    if type_index == 0:
        return newton_alpha_series(31)
    if type_index == 3:
        return alpha3_series(root_series(0)).truncated(30)
    raise ValueError("type_index must be 0 or 3")


# ---------------------------------------------------------------------------
# Pade approximants


class DegeneratePadeError(ArithmeticError):
    pass


@dataclass(frozen=True)
class PadePair:
    U: tuple  # GaussRat coefficients, ascending
    V: tuple
    contact_order: int


def _solve_linear(A, rhs):
    """Exact Gaussian elimination over Q(i); A is a list of rows."""
    n = len(rhs)
    M = [list(row) + [rhs[k]] for k, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise DegeneratePadeError("singular linear system")
        M[col], M[piv] = M[piv], M[col]
        pinv = M[col][col].inv()
        M[col] = [e * pinv for e in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [er - f * ec for er, ec in zip(M[r], M[col])]
    return [M[k][n] for k in range(n)]


def pade(B: Series, deg_num: int, deg_den: int) -> PadePair:
    """U/V with U - B*V = O(s^(deg_num+deg_den+1)), V(0) = 1."""
    order = deg_num + deg_den + 1
    if B.trunc < order:
        raise ValuationError(f"series known only modulo s^{B.trunc}, need {order}")
    n = deg_den
    if n == 0:
        U = tuple(B.coeffs[: deg_num + 1])
        return PadePair(U, (G1,), _contact(B, U, (G1,), order))
    # unknowns v_1..v_n from sum_j v_j B_{k-j} = -B_k, k = deg_num+1..deg_num+n
    rows = []
    rhs = []
    for k in range(deg_num + 1, deg_num + n + 1):
        rows.append([B.coeffs[k - j] if k - j >= 0 else G0 for j in range(1, n + 1)])
        rhs.append(-B.coeffs[k])
    v = [G1] + _solve_linear(rows, rhs)
    U = tuple(
        sum((v[j] * B.coeffs[k - j] for j in range(min(k, n) + 1)), G0)
        for k in range(deg_num + 1)
    )
    V = tuple(v)
    return PadePair(U, V, _contact(B, U, V, order))


def _contact(B: Series, U, V, required: int) -> int:
    prod = B * Series(list(V), B.trunc)
    resid = Series(list(U), B.trunc) - prod
    val = resid.valuation()
    if val < required:
        raise DegeneratePadeError(f"contact order {val} below required {required}")
    return val


def pade_residual(B: Series, pair: PadePair) -> Series:
    """U - B*V as a series (valuation >= contact order)."""
    return Series(list(pair.U), B.trunc) - B * Series(list(pair.V), B.trunc)


# ---------------------------------------------------------------------------
# tail bounds

def tail_bound(expr: Series, lead_exp: int, tmin: Rat) -> Rat:
    """c with |expr(1/t)| <= c / |t|^lead_exp for all |t| >= tmin (exact)."""
    tmin = Fraction(tmin)
    if tmin < 1:
        raise ValueError("tmin must be >= 1")
    c = Fraction(0)
    for j, coeff in enumerate(expr.coeffs):
        if not coeff:
            continue
        if j < lead_exp:
            raise ValueError(f"term s^{j} below claimed leading exponent {lead_exp}")
        c += coeff.abs_upper() * tmin ** (lead_exp - j)
    return c


# ---------------------------------------------------------------------------
# bivariate polynomials in (X, t) over Q(i)


class Poly2:
    """Sparse polynomial in X and t with Gaussian-rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple[int, int], GaussRat] = {}
        if terms:
            for k, v in terms.items():
                v = GaussRat.of(v)
                if v:
                    self.terms[k] = v

    @staticmethod
    def X(n: int = 1) -> "Poly2":
        return Poly2({(n, 0): G1})

    @staticmethod
    def t(n: int = 1) -> "Poly2":
        return Poly2({(0, n): G1})

    @staticmethod
    def const(c) -> "Poly2":
        return Poly2({(0, 0): GaussRat.of(c)})

    def __add__(self, other):
        other = _as_poly2(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, G0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        p = Poly2()
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = Poly2()
        p.terms = {k: -v for k, v in self.terms.items()}
        return p

    def __sub__(self, other):
        return self + (-_as_poly2(other))

    def __rsub__(self, other):
        return _as_poly2(other) - self

    def __mul__(self, other):
        other = _as_poly2(other)
        out: dict[tuple[int, int], GaussRat] = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                w = out.get(k, G0) + v1 * v2
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        p = Poly2()
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = Poly2.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def dX(self) -> "Poly2":
        p = Poly2()
        for (i, j), v in self.terms.items():
            if i:
                p.terms[(i - 1, j)] = v * Fraction(i)
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (self - _as_poly2(other)).is_zero()

    def eval_X(self, x) -> "TPoly":
        """Substitute a Gaussian-rational for X, leaving a polynomial in t."""
        return self._eval(1, x)

    def eval_t(self, tval) -> "TPoly":
        """Substitute for t, leaving a polynomial in X."""
        return self._eval(0, tval)

    def _eval(self, keep: int, val) -> "TPoly":
        val = GaussRat.of(val)
        out: dict[int, GaussRat] = {}
        for key, v in self.terms.items():
            k = key[keep]
            w = out.get(k, G0) + v * _gpow(val, key[1 - keep])
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        if min(out, default=0) < 0:
            raise ValueError("negative exponent left after substitution")
        return TPoly([out.get(k, G0) for k in range(max(out, default=0) + 1)])


def _as_poly2(x) -> Poly2:
    if isinstance(x, Poly2):
        return x
    return Poly2.const(x)


def _gpow(x: GaussRat, n: int) -> GaussRat:
    if n < 0:
        raise ValueError("negative exponent: only polynomials can be evaluated")
    out = G1
    for _ in range(n):
        out = out * x
    return out


class TPoly:
    """Dense univariate polynomial over Q(i) (used for both t and X)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [GaussRat.of(c) for c in coeffs]
        while len(cs) > 1 and not cs[-1]:
            cs.pop()
        self.coeffs = cs or [G0]

    def degree(self) -> int:
        return len(self.coeffs) - 1 if any(map(bool, self.coeffs)) else -1

    def __add__(self, other):
        other = _as_tpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [G0] * (n - len(self.coeffs))
        b = other.coeffs + [G0] * (n - len(other.coeffs))
        return TPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_tpoly(other))

    def __rsub__(self, other):
        return _as_tpoly(other) - self

    def __mul__(self, other):
        other = _as_tpoly(other)
        out = [G0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = TPoly([G1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __eq__(self, other):
        return (self - _as_tpoly(other)).is_zero()

    def deriv(self) -> "TPoly":
        return TPoly([c * Fraction(k) for k, c in enumerate(self.coeffs)][1:] or [G0])

    def __call__(self, x: GaussRat) -> GaussRat:
        acc = G0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_ball(self, z: ComplexBall) -> ComplexBall:
        acc = ComplexBall.exact(Fraction(0))
        for c in reversed(self.coeffs):
            acc = acc * z + ComplexBall.exact(c.re, c.im)
        return acc

    def __repr__(self):
        return " + ".join(f"({c})*x^{k}" for k, c in enumerate(self.coeffs) if c) or "0"


def _as_tpoly(x) -> TPoly:
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, Fraction, GaussRat)):
        return TPoly([GaussRat.of(x)])
    raise TypeError


# ---------------------------------------------------------------------------
# the quartic form's differential-equation data

_X, _T = Poly2.X(), Poly2.t()
QUARTIC = _X ** 4 - _T * _X ** 3 - 6 * _X ** 2 + _T * _X + 1  # f_t(X)
_U = GI * _T + 4  # u = it + 4
_Z = GI * _T - 4  # z = it - 4


def thue_data() -> dict:
    """The polynomials attached to P = X^4 - tX^3 - 6X^2 + tX + 1 and
    U = X^2 + 1: the second-order identity U P'' - 3 U' P' + 6 U'' P = 0
    holds, the discriminant constant is lambda = -1, and the record carries
    Y = 2UP' - 4U'P plus the auxiliary linear and quartic factors."""
    X, P = _X, QUARTIC
    U = X ** 2 + 1
    ode = U * P.dX().dX() - 3 * U.dX() * P.dX() + 6 * U.dX().dX() * P
    if not ode.is_zero():
        raise ArithmeticError("differential identity failed")
    Y = 2 * U * P.dX() - 4 * U.dX() * P
    i = GI
    # sqrt(lambda) = i with lambda = -1; prefactor (n^2-1)/6 = 5/2
    half5 = Fraction(5, 2)
    a = half5 * (i * U.dX() + Poly2.const(-2))
    b = half5 * (i * U.dX() - Poly2.const(-2))
    c = half5 * (i * (U.dX() * X - 2 * U) + (-2) * X)
    d = half5 * (i * (U.dX() * X - 2 * U) - (-2) * X)
    u = Fraction(1, 2) * (Fraction(1, 8) * (-i) * Y - P)  # Y/(2n sqrt(l)) = -iY/8
    z = Fraction(1, 2) * (Fraction(1, 8) * (-i) * Y + P)
    data = {"P": P, "U": U, "Y": Y, "a": a, "b": b, "c": c, "d": d,
            "u": u, "z": z, "lambda": GaussRat.of(-1)}
    _check_thue_data(data)
    return data


def _check_thue_data(data: dict) -> None:
    X, t, i = _X, _T, GI
    identities = {
        "Y": data["Y"] == 2 * t * X ** 4 + 32 * X ** 3 - 12 * t * X ** 2 - 32 * X + 2 * t,
        "a": data["a"] == 5 * i * X - 5,
        "b": data["b"] == 5 * i * X + 5,
        "c": data["c"] == -5 * X - 5 * i,
        "d": data["d"] == 5 * X - 5 * i,
        "u": data["u"] == Fraction(-1, 8) * _U * (X + i) ** 4,
        "z": data["z"] == Fraction(-1, 8) * _Z * (X - i) ** 4,
        # a d - b c is a scalar multiple of U, and u z a multiple of U^4
        "ad-bc": data["a"] * data["d"] - data["b"] * data["c"] == 50 * i * data["U"],
        "uz": data["u"] * data["z"] == Fraction(-1, 64) * (t * t + 16) * data["U"] ** 4,
    }
    failed = [name for name, ok in identities.items() if not ok]
    if failed:
        raise ArithmeticError(f"thue_data identities failed: {', '.join(failed)}")


# ---------------------------------------------------------------------------
# quotient-ring root identity: y^4 = w = (it-4)/(it+4)


def quotient_root_check(which: str, perturb: bool = False) -> bool:
    """Confirm that the closed-form fourth-root expression is a root of the
    quartic form: substitute x(y) = num/den with y^4 = z/u into
    f_t(X) = X^4 - tX^3 - 6X^2 + tX + 1 and reduce to zero.

    N(y, t) = sum_m f_m(t) num^m den^(4-m) has y-degree at most 4, so one
    reduction y^4 -> z/u settles it: N vanishes iff u N_{<4} + z N_4 = 0."""
    y = _X  # the fourth root takes the X slot
    coef = GaussRat(Fraction(0), Fraction(2)) if perturb else GI
    if which == "type0":
        num, den = coef * (y - 1), y + 1
    elif which == "type3":
        num, den = y - coef, 1 - coef * y
    else:
        raise ValueError("which must be 'type0' or 'type3'")
    N = sum(f * Poly2.t(e) * num ** m * den ** (4 - m)
            for (m, e), f in QUARTIC.terms.items())
    low = Poly2({k: v for k, v in N.terms.items() if k[0] < 4})
    top = Poly2({(0, e): v for (m, e), v in N.terms.items() if m == 4})
    return (_U * low + _Z * top).is_zero()


# ---------------------------------------------------------------------------
# integral approximant pairs p_r, q_r


class IntegralityError(ArithmeticError):
    pass


def _chi_star(r: int, p, q):
    """chi*(p, q) = sum_k a_k p^k q^(r-k) for the coefficients a_k of chi_r,
    over any polynomial type."""
    from .hyperchi import chi_coeffs

    ps, qs = [p ** 0], [q ** 0]
    for _ in range(r):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    return sum(ak * ps[k] * qs[r - k] for k, ak in enumerate(chi_coeffs(r)))


def approximants(xi: int, r: int) -> tuple[TPoly, TPoly]:
    """(p_r, q_r) at the anchor xi in {0, 1}: exact polynomials in t over
    Q(i) whose coefficients are Gaussian integers."""
    from .hyperchi import denom_data

    if r < 1:
        raise ValueError("r must be >= 1")
    dd = denom_data(r)
    ratio = Fraction(dd.delta, dd.n_gcd)
    # u^r chi(1-8/u) and z^r chi(1+8/z), using u-8 = z and z+8 = u
    u, z = _U.eval_X(0), _Z.eval_X(0)
    first, second = _chi_star(r, z, u), _chi_star(r, u, z)
    i_r = _gpow(GI, r % 4)
    if xi == 0:
        p = -(i_r * GI) * ratio * (first - second)
        q = -i_r * ratio * (first + second)
    elif xi == 1:
        mi_r = _gpow(-GI, r % 4)
        p = (-(GI + 1)) * mi_r * ratio * (first - GI * second)
        q = (GI - 1) * mi_r * ratio * (first + GI * second)
    else:
        raise ValueError("xi must be 0 or 1")
    for poly in (p, q):
        for c in poly.coeffs:
            if not c.is_gaussian_integer():
                raise IntegralityError(f"non-integral coefficient {c} (xi={xi}, r={r})")
    return p, q


def cross_product(xi: int, r: int) -> TPoly:
    """p_r q_{r+1} - p_{r+1} q_r as a polynomial in t."""
    p1, q1 = approximants(xi, r)
    p2, q2 = approximants(xi, r + 1)
    return p1 * q2 - p2 * q1


def thue_polys_at(r: int, t_val: GaussRat) -> tuple[TPoly, TPoly]:
    """(A_r, B_r) as polynomials in X for a fixed Gaussian t."""
    data = thue_data()
    a, b, c, d, u, z = (data[k].eval_t(t_val) for k in "abcduz")
    chi_zu, chi_uz = _chi_star(r, z, u), _chi_star(r, u, z)
    mi_r = _gpow(-GI, r % 4)  # (1/sqrt(lambda))^r = (1/i)^r = (-i)^r
    A = mi_r * (a * chi_zu - b * chi_uz)
    B = mi_r * (c * chi_zu - d * chi_uz)
    return A, B
