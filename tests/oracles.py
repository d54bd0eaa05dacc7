"""Reference oracles: the sparse (X, t) polynomial type over Q(i) and the
constructions that ran on it before the integer kernel replaced them, the
Fraction logarithms that ran before ``exactnum.LnArg`` with the interval
arithmetic they use, the two square roots that ``exactnum.sqrt_grid``
replaced, and the concrete-t root balls as they were computed in
``GaussRat``/``ComplexBall`` arithmetic before the integer Newton steps and
certificates of ``thueq.dioph``, with the ``ComplexBall`` embedding and its
integer record as they ran before ``dioph`` held every ball as a record, the
``ComplexBall`` modulus and product and the Durand-Kerner seeds they ran on,
the ``ComplexBall`` bounds on |x - alpha y| and overlap test of the type
classification, the Thue polynomials at a concrete t by homogeneous Horner at
each t, the
corollary-eps gates at a grid value in ``Fraction`` arithmetic, the search
for its least passing grid value as it ran before the float seed, and an
independent floor(2^bits ln x), the atanh term count as a linear scan, the
divisibility check's exact kernel with the exact Taylor shift it ran on, the
chi_r(1 - 8X) composition whose gcd
``denom_data`` took for N_r before it read N_r = 8^r, the Lettl bounds with
the ``Fraction`` gamma ratios as ``verify_lettl`` compared them before it
cleared denominators, the branchy Z[omega] formulas that ran
before the one ``quadfield.ring`` table, the integral approximant pairs, which
no command runs, and the tmin certificates (descent steps, the descent's first c0,
root enclosures, the root separation, measure chains and the significant-digit
rounding) as they ran in ``Fraction``
arithmetic at each tmin before their tmin-free parts were built once over Z,
the root enclosures' Taylor expansion of f(C + z) on ``Poly2`` and the split
that scanned its monomials before ``rouche`` built both in one pass over Z,
with the descent's non-vanishing polynomial as it was built over Z[i], the
rounding up as it ran with two powers of ten, the rounding to nearest and
``sig_str`` as they ran in ``Fraction`` arithmetic, the named lines as
``exactnum.lines`` checked them before it indexed each line, and the reducible
parameters as ``QuadInt``/``div_exact`` found them over ``enumerate_bounded(4)``.
It also holds what only the tests call, so that ``src/`` keeps none of it: the
``GaussRat`` constants ``G0``, ``G1`` and ``GI``, ``QuadInt``'s conjugate and
exact division, ``sqrt_bounds`` as ``Fraction``s from ``exactnum.sqrt_grid`` and
a fresh copy of the ``concrete._thue_data`` record.
The tests check ``thueq.zpoly``, ``thueq.exactnum``, ``thueq.quadfield`` and
their callers against these."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest

from thueq import concrete, corollary, descent, dioph, exactnum, hyperchi, measure, rouche, zpoly
from thueq.concrete import (_ABCD, _X_MINUS_I_4, _X_PLUS_I_4, ComplexBall, TPoly, _i_pow,
                            thue_polys_at)
from thueq.descent import (ALPHA0_MODULUS, BETA_COEFF, STEP1_COEFF, STEP1_DIVISOR,
                           STEP2_DIVISOR)
from thueq.exactnum import DomainError, RatInterval, UndefinedKappaError, floor_line, lines
from thueq.hyperchi import LETTL_E_BASE, LETTL_L0, LETTL_Q_BASE, chi_ints, denom_data
from thueq.measure import (ABSORB_BASE, C_COEFF, C_PREFACTOR, E_DIV, ERR_BASE, ERR_FLOOR,
                           ERR_PREFACTOR, I_DIST_CAP, K0, KAPPA_WIDTH, L0, Q_BASE, QMIN,
                           T4_FLOOR, T12_FLOOR, UZ_CAP, ChainError, GateResult,
                           MeasureConstants)
from thueq.quadfield import QuadInt, _common, enumerate_bounded, ring
from thueq.rouche import (ALPHA0_RADIUS, ALPHA2_RADIUS, ALPHA13_RADIUS, HIGH_ORDER,
                          EnclosureCert, require)
from thueq.series import (_U_T, _Z_T, GaussRat, Series, _cleared, pade, pade_residual,
                          root_series, tail_bound)

G0 = GaussRat(Fraction(0), Fraction(0))
G1 = GaussRat(Fraction(1), Fraction(0))
GI = GaussRat(Fraction(0), Fraction(1))


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

    def eval_X(self, x) -> TPoly:
        """Substitute a Gaussian-rational for X, leaving a polynomial in t."""
        return self._eval(1, x)

    def eval_t(self, tval) -> TPoly:
        """Substitute for t, leaving a polynomial in X."""
        return self._eval(0, tval)

    def _eval(self, keep: int, val) -> TPoly:
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


def series_inverse(s: Series) -> Series:
    """1/s modulo s^trunc by the Q(i) recurrence on its coefficients, for a
    series with a nonzero constant term."""
    c = s.coeffs
    if not c[0]:
        raise ChainError("series not invertible: zero constant term")
    inv0 = c[0].inv()
    out = [inv0]
    for k in range(1, s.trunc):
        out.append(-sum((out[j] * c[k - j] for j in range(k)), G0) * inv0)
    return Series(out, s.trunc)


def from_pair(f, t_power: int = 0) -> Poly2:
    """A polynomial in X over Z[i], as ``zpoly`` holds it, times t^t_power."""
    return Poly2({(k, t_power): GaussRat(Fraction(a), Fraction(b))
                  for k, (a, b) in enumerate(zip_longest(*f, fillvalue=0))})


def from_form(F) -> Poly2:
    """A ``zpoly`` form in (X, t) as a Poly2."""
    return sum((from_pair(f, e) for e, f in enumerate(F)), Poly2())


# ---------------------------------------------------------------------------
# the quartic and the constructions that ran on Poly2

X, T = Poly2.X(), Poly2.t()
QUARTIC = X ** 4 - T * X ** 3 - 6 * X ** 2 + T * X + 1  # f_t(X)
U_T, Z_T = GI * T + 4, GI * T - 4  # u = it + 4, z = it - 4


def thue_data() -> dict:
    """A fresh copy of ``concrete._thue_data``'s record, free to perturb."""
    return dict(concrete._thue_data())


def thue_data_oracle() -> dict:
    """The thue_data record by the Poly2 derivation, unchecked."""
    P = QUARTIC
    U = X ** 2 + 1
    Y = 2 * U * P.dX() - 4 * U.dX() * P
    half5 = Fraction(5, 2)
    i = GI
    return {"P": P, "U": U, "Y": Y,
            "a": half5 * (i * U.dX() + Poly2.const(-2)),
            "b": half5 * (i * U.dX() - Poly2.const(-2)),
            "c": half5 * (i * (U.dX() * X - 2 * U) + (-2) * X),
            "d": half5 * (i * (U.dX() * X - 2 * U) - (-2) * X),
            "u": Fraction(1, 2) * (Fraction(1, 8) * (-i) * Y - P),
            "z": Fraction(1, 2) * (Fraction(1, 8) * (-i) * Y + P)}


def chi_coeffs_oracle(r: int) -> tuple:
    """Coefficient of X^k is (-r)_k (-r-1/4)_k / ((3/4)_k k!), from integer
    running products of the term ratio (k-r)(4k-4r-1) / ((4k+3)(k+1))."""
    out = [Fraction(1)]
    num = den = 1
    for k in range(r):
        num *= (k - r) * (4 * k - 4 * r - 1)
        den *= (4 * k + 3) * (k + 1)
        out.append(Fraction(num, den))
    return tuple(out)


def compose_1_minus_8x(coeffs) -> list:
    """p(1 - 8X) by Horner in the shifted variable, over Z or Q."""
    acc = []
    for c in reversed(coeffs):
        # acc = acc * (1 - 8X) + c
        acc = [a - 8 * b for a, b in zip(acc + [0], [0] + acc)]
        acc[0] += c
    return acc


@lru_cache(maxsize=None)
def cleared_chi_oracle(r: int) -> tuple[int, int, tuple]:
    """(delta, N, cleared) by the Fraction composition: delta the lcm of the
    denominators of chi_r, N the gcd of the numerators of delta chi_r(1 - 8X)
    and cleared its coefficients over N, as Fractions."""
    cs = chi_coeffs_oracle(r)
    delta = math.lcm(*(c.denominator for c in cs))
    nums = [c * delta for c in compose_1_minus_8x(cs)]
    n = math.gcd(*(c.numerator for c in nums))
    return delta, n, tuple(c / n for c in nums)


def gamma_ratio_g1(r: int) -> Fraction:
    """Gamma(3/4) r! / Gamma(r+3/4) = r! / prod_{k=0}^{r-1} (k + 3/4)."""
    return Fraction(math.factorial(r) * 4 ** r, math.prod(4 * k + 3 for k in range(r)))


def gamma_ratio_g2(r: int) -> Fraction:
    """Gamma(r+5/4) / (Gamma(1/4) r!) = (1/4) prod_{k=1}^{r} (k + 1/4) / r!."""
    return Fraction(math.prod(4 * k + 1 for k in range(1, r + 1)),
                    4 ** (r + 1) * math.factorial(r))


# the names of the lines of verify_lettl(60), in order
LETTL_NAMES = [f"Lettl bound {bound} at r={r}" for r in range(1, 61)
               for bound in ("3.32*1.35^r", "1.6*10.7^r")]


def verify_lettl_oracle(rmax: int) -> tuple:
    """``hyperchi.verify_lettl`` as it compared Fraction powers of 1.35 and
    10.7 with the gamma ratios: the (name, margin) pairs of its lines, or
    ChainError naming the first that fails."""
    margins = ()
    for r in range(1, rmax + 1):
        ratio = Fraction(*hyperchi.denom_data(r))
        margins += exactnum.lines(
            (f"Lettl bound 3.32*1.35^r at r={r}", 2 ** (r + 2) * ratio * gamma_ratio_g1(r),
             hyperchi.LETTL_K0 * hyperchi.LETTL_Q_BASE ** r, "<"),
            (f"Lettl bound 1.6*10.7^r at r={r}", 2 ** (4 * r + 3) * ratio * gamma_ratio_g2(r),
             hyperchi.LETTL_L0 * hyperchi.LETTL_E_BASE ** r, "<"))
    return margins


def chi_star_oracle(r: int, p, q):
    """chi*(p, q) = sum_k a_k p^k q^(r-k) for the coefficients a_k of chi_r,
    over any polynomial type."""
    ps, qs = [p ** 0], [q ** 0]
    for _ in range(r):
        ps.append(ps[-1] * p)
        qs.append(qs[-1] * q)
    return sum(ak * ps[k] * qs[r - k] for k, ak in enumerate(chi_coeffs_oracle(r)))


def approximants_oracle(xi: int, r: int) -> tuple[TPoly, TPoly]:
    """(p_r, q_r) by the GaussRat chi-star construction."""
    ratio = Fraction(*denom_data(r))
    u, z = U_T.eval_X(0), Z_T.eval_X(0)
    first, second = chi_star_oracle(r, z, u), chi_star_oracle(r, u, z)
    i_r = _gpow(GI, r % 4)
    if xi == 0:
        return (-(i_r * GI) * ratio * (first - second), -i_r * ratio * (first + second))
    mi_r = _gpow(-GI, r % 4)
    return ((-(GI + 1)) * mi_r * ratio * (first - GI * second),
            (GI - 1) * mi_r * ratio * (first + GI * second))


# the integral approximant pairs p_r, q_r over Z[i] on the ``zpoly`` kernel:
# no command runs them, so they are checked here against approximants_oracle


class IntegralityError(ArithmeticError):
    pass


def approximants(xi: int, r: int) -> tuple[TPoly, TPoly]:
    """(p_r, q_r) at the anchor xi in {0, 1}: exact polynomials in t with
    Gaussian-integer coefficients.  With S1 = chi*(z, u) and S2 = chi*(u, z)
    on the cleared chi_r, p = -i^(r+1) (S1 - S2)/N and q = -i^r (S1 + S2)/N
    at xi = 0, p = -(1+i)(-i)^r (S1 - iS2)/N and q = (i-1)(-i)^r (S1 + iS2)/N
    at xi = 1, for N = ``denom_data(r).n`` = 8^r."""
    if r < 1:
        raise ValueError("r must be >= 1")
    (n, _), n_r = chi_ints(r), denom_data(r).n
    s1, s2 = zpoly.homogenise(n, _Z_T, _U_T), zpoly.homogenise(n, _U_T, _Z_T)
    if xi == 0:
        units = _i_pow(r + 1, -1), _i_pow(r, -1)
    elif xi == 1:
        units = (zpoly.gmul(((-1,), (-1,)), _i_pow(-r)), zpoly.gmul(((-1,), (1,)), _i_pow(-r)))
        s2 = zpoly.gmul(_i_pow(1), s2)
    else:
        raise ValueError("xi must be 0 or 1")
    p, q = (TPoly.from_ints(zpoly.gmul(unit, f), n_r)
            for unit, f in zip(units, (zpoly.gsub(s1, s2), zpoly.gadd(s1, s2))))
    if p.den != 1 or q.den != 1:
        raise IntegralityError(f"non-integral coefficients (xi={xi}, r={r})")
    return p, q


def cross_product(xi: int, r: int) -> TPoly:
    """p_r q_{r+1} - p_{r+1} q_r as a polynomial in t."""
    p1, q1 = approximants(xi, r)
    p2, q2 = approximants(xi, r + 1)
    return p1 * q2 - p2 * q1


# ---------------------------------------------------------------------------
# the |t|-uniform margins as they were summed before one integer Horner
# replaced the per-term Fraction powers


@lru_cache(maxsize=None)
def _taylor_terms(items: tuple) -> frozenset:
    C = Poly2({(0, p): c for p, c in items})
    cpow = [Poly2.const(1)]
    for _ in range(4):
        cpow.append(cpow[-1] * C)
    out, deriv, fact = set(), QUARTIC, 1
    for j in range(5):
        h = sum((Poly2({(0, e): v / fact}) * cpow[i]
                 for (i, e), v in deriv.terms.items()), Poly2())
        out |= {(j, p, c) for (_, p), c in h.terms.items()}
        deriv, fact = deriv.dX(), fact * (j + 1)
    return frozenset(out)


def taylor_terms_oracle(center: dict) -> frozenset:
    """The monomials c t^p z^j of h(z) = f(C + z), c != 0 in Q(i), as (j, p, c): the
    expansion h_j = f^(j)(C)/j! on Poly2 that ran before ``rouche`` built the h_j over Z."""
    return _taylor_terms(tuple(sorted(center.items())))


def integer_terms_oracle(center: dict) -> list:
    """taylor_terms_oracle's monomials for a center of ints, their coefficients as ints."""
    terms = taylor_terms_oracle(center)
    if any(c.im or c.re.denominator != 1 for _, _, c in terms):
        raise AssertionError(f"non-integral Taylor coefficients at {center}")
    return [(j, p, c.re.numerator) for j, p, c in terms]


def enclosure_split_oracle(center: dict, radius_c: Fraction, radius_exp: int) -> tuple:
    """``rouche._enclosure_split`` as it scanned a monomial list, here the Poly2 expansion's
    for a center of ints: the dominant linear term is the one of least decay e = radius_exp
    - p, and must be unique; every other term adds |c| radius_c^j w^(e - e0), cleared by rd^4."""
    if not all(isinstance(c, int) for c in center.values()):
        raise ChainError("center coefficients must be rational integers")
    terms = integer_terms_oracle(center)
    lin = [(radius_exp - p, p, c) for j, p, c in terms if j == 1]
    if not lin:
        raise ChainError("no linear term at the center (degenerate)")
    e0 = min(e for e, _, _ in lin)
    dominants = [(e, p, c) for e, p, c in lin if e == e0]
    if len(dominants) != 1:
        raise ChainError("dominant linear term not unique")
    _, p0, c0 = dominants[0]
    rn, rd = radius_c.numerator, radius_c.denominator
    cleared = [rn ** j * rd ** (4 - j) for j in range(5)]
    rest: list[int] = []
    for j, p, c in terms:
        if j == 1 and p == p0:
            continue
        d = j * radius_exp - p - e0
        if d < 0:
            return -1, (), 1
        rest += [0] * (d + 1 - len(rest))
        rest[d] += abs(c) * cleared[j]
    return abs(c0) * cleared[1], tuple(rest), cleared[0]


def enclosure_margin_oracle(center: dict, radius_c: Fraction, radius_exp: int,
                            tmin: Fraction) -> Fraction:
    """The margin of ``rouche.certify_enclosure`` on the Taylor monomials
    (j, p, c) of the Poly2 expansion: |c0| radius_c minus sum |c| radius_c^j
    w^(e - e0) over the other monomials, e = j radius_exp - p and w = 1/tmin,
    or -1 when one of them decays slower than the dominant linear term (p0, c0)."""
    terms = integer_terms_oracle(center)
    lin = [(radius_exp - p, p, c) for j, p, c in terms if j == 1]
    e0 = min(e for e, _, _ in lin)
    (_, p0, c0), = [x for x in lin if x[0] == e0]
    w, rest = 1 / tmin, Fraction(0)
    for j, p, c in terms:
        if j == 1 and p == p0:
            continue
        e = j * radius_exp - p
        if e < e0:
            return Fraction(-1)
        rest += abs(c) * radius_c ** j * w ** (e - e0)
    return abs(c0) * radius_c - rest


def nonvanish_margin_oracle(P, c0: Fraction, c3: Fraction, tmin: Fraction) -> Fraction:
    """The non-vanishing margin of ``descent.run_step``: L tmin^deg / (c0^4 c3^4)
    - 1 with L = |P_deg| - sum_j |P_j| tmin^(j - deg), term by term."""
    deg = len(P) - 1
    L = Fraction(abs(P[deg]))
    for j in range(deg):
        if P[j]:
            L -= abs(P[j]) * tmin ** (j - deg)
    return L * tmin ** deg / (c0 ** 4 * c3 ** 4) - 1


# ---------------------------------------------------------------------------
# the tmin certificates as they were evaluated in Fraction arithmetic at each
# tmin before their tmin-free parts were built once over Z


def outcome(fn, *args):
    """fn(*args), or the exception it raised as its type and message (the
    type alone for a division by zero, whose message Python writes)."""
    try:
        return fn(*args)
    except ZeroDivisionError:
        return ZeroDivisionError, None
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def inverse_horner(a, tmin: Fraction) -> Fraction:
    """sum_d a_d / tmin^d, term by term."""
    return sum((Fraction(c) / tmin ** d for d, c in enumerate(a)), Fraction(0))


def dec_exponent_oracle(x: Fraction) -> int:
    """e such that 10**e <= x < 10**(e+1), for x > 0."""
    if x <= 0:
        raise DomainError("positive value required")
    n, d = x.numerator, x.denominator

    def at_least(e: int) -> bool:  # x >= 10**e
        return n >= d * 10 ** e if e >= 0 else n * 10 ** -e >= d

    # crude estimate from bit lengths: log10(x) ~ 0.30103 * log2(x)
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    # correct the crude estimate
    while at_least(e + 1):
        e += 1
    while not at_least(e):
        e -= 1
    return e


def round_up_sig_oracle(x: Fraction, digits: int = 4) -> Fraction:
    """Round a positive rational up to `digits` significant decimal digits."""
    if x == 0:
        return Fraction(0)
    e = dec_exponent_oracle(x)
    q = Fraction(10) ** (e - digits + 1)
    return Fraction(-((-x.numerator * q.denominator) // (x.denominator * q.numerator))) * q


def round_nearest_sig_oracle(x: Fraction, digits: int = 4) -> Fraction:
    """``exactnum.round_nearest_sig`` as it ran in Fraction arithmetic, before
    the integer rounding that ``round_up_sig`` and ``sig_str`` share."""
    if x == 0:
        return Fraction(0)
    e = dec_exponent_oracle(x)
    q = Fraction(10) ** (e - digits + 1)
    n = x / q
    m = (2 * n.numerator + n.denominator) // (2 * n.denominator)  # round half up
    return m * q


def sig_str_oracle(x: Fraction, digits: int = 4) -> str:
    """``exactnum.sig_str`` as it ran in Fraction arithmetic."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    r = round_nearest_sig_oracle(abs(x), digits)
    e = dec_exponent_oracle(r)
    m = r / Fraction(10) ** (e - digits + 1)
    ms = str(m.numerator).rstrip()
    mant = ms[0] + "." + ms[1:]
    mant = mant.rstrip("0").rstrip(".")
    return f"{sign}{mant}e{e}" if (e < -1 or e >= digits + 2) else sign + plain_decimal_oracle(r)


def plain_decimal_oracle(r: Fraction) -> str:
    scaled, shift = r, 0
    while scaled.denominator != 1:
        scaled *= 10
        shift += 1
    s = str(scaled.numerator).rjust(shift + 1, "0")  # a leading 0 below 1
    return s if shift == 0 else s[:-shift] + "." + s[-shift:]


def round_up_sig_two_powers(x: Fraction, digits: int = 4) -> Fraction:
    """``exactnum.round_up_sig`` as it ran when the exponent search and the
    rounding each built their own power of ten."""
    if x == 0:
        return Fraction(0)
    if x <= 0:
        raise DomainError("positive value required")
    n, d = x.numerator, x.denominator
    e = (n.bit_length() - d.bit_length()) * 30103 // 100000
    n, d = (n, d * 10 ** e) if e >= 0 else (n * 10 ** -e, d)
    while n >= 10 * d:
        d, e = 10 * d, e + 1
    while n < d:
        n, e = 10 * n, e - 1
    s = e - digits + 1
    n, d, z = x.numerator, x.denominator, 10 ** abs(s)
    return Fraction(-(-n // (d * z)) * z) if s >= 0 else Fraction(-(-n * z // d), z)


def lines_oracle(*reqs) -> tuple:
    """``exactnum.lines`` as it ran with each line unpacked with a ``*strict``
    list, its sides by a generator, and every margin reduced by a gcd."""
    margins = []
    for name, lhs, rhs, *strict in reqs:
        (ln, ld), (rn, rd) = (x if type(x) is tuple else x.as_integer_ratio() for x in (lhs, rhs))
        if (gap := rn * ld - ln * rd) < 0 or strict and not gap:
            raise ChainError(f"{name}: {exactnum._side(Fraction(ln, ld))} "
                             f"{'>=' if strict else '>'} {exactnum._side(Fraction(rn, rd))}")
        margins.append((name, Fraction(gap, ld * rd)))
    return tuple(margins)


def nonvanish_poly_oracle(pair, k: int) -> tuple[int, ...]:
    """``descent._nonvanish_poly`` as it ran over Z[i]: each row of the
    quartic homogenised by ``zpoly.homogenise`` at real (X, Y), whose
    imaginary parts stay empty."""
    X = descent._reversed_ints(pair.U, k - 1)
    Y = descent._reversed_ints(pair.V, k - 1)
    if Y[-1] == 0:
        raise ChainError("denominator polynomial degree dropped")
    FA, FB = (zpoly.homogenise(row, (X, ()), (Y, ()))[0] for row in descent.QUARTIC)
    P = zpoly.add(FA, [0] + FB)
    while P and P[-1] == 0:
        P.pop()
    if len(P) - 1 != 2 * k - 2:
        raise ChainError(f"P has degree {len(P) - 1}, expected {2 * k - 2}")
    return tuple(P)


@lru_cache(maxsize=None)
def step_algebra_oracle(type_index: int, k: int) -> tuple:
    """The Pade pair of step k, its residual U - BV, V as a series and the
    non-vanishing polynomial P."""
    B = root_series(type_index)
    pair = pade(B, k - 1, k - 1)
    V = Series.from_ints((pair.V, ()), 1, B.trunc)
    return pair, pade_residual(B, pair), V, nonvanish_poly_oracle(pair, k)


def nonvanish_gate_oracle(P, c0: Fraction, c3: Fraction, tmin: Fraction) -> Fraction:
    """L * tmin^deg / (c0^4 c3^4) - 1, with L the leading coefficient of P
    minus the absolute lower-order contribution at tmin."""
    tmin = Fraction(tmin)
    lead, *lower = (abs(c) for c in reversed(P))
    L = inverse_horner([lead] + [-c for c in lower], tmin)
    if L <= 0:
        raise ChainError("no positive lower bound for |P(t)|")
    return L * tmin ** len(lower) / (Fraction(c0) ** 4 * Fraction(c3) ** 4) - 1


def run_step_oracle(type_index: int, k: int, c0, tmin) -> descent.StepRecord:
    """One Pade step of ``descent.run_step``, in Fraction arithmetic at tmin."""
    c0, tmin = Fraction(c0), Fraction(tmin)
    if type_index not in descent.KSTART:
        raise ValueError("type_index must be 0 or 3")
    if k < descent.KSTART[type_index]:
        raise ValueError("step index too small for this chain")
    pair, resid, V, P = step_algebra_oracle(type_index, k)
    c1 = tail_bound(resid, 2 * k - 1, tmin)
    c2 = descent.BETA_COEFF * c0 ** 4
    c3 = tail_bound(V, 0, tmin)
    hi_c, hi_exp = HIGH_ORDER[type_index]
    c_exact = (c1 + c2 * c3 * tmin ** (-(2 * k - 2))
               + hi_c * c3 * tmin ** (-(hi_exp + 1 - 2 * k)))
    c_out = round_up_sig_oracle(c_exact, 4)
    margin = nonvanish_gate_oracle(P, c0, c3, tmin)
    return descent.StepRecord(
        type_index=type_index, k=k,
        c1=c1, c2=c2, c3=c3, c_exact=c_exact, c_out=c_out,
        nonvanish_margin=margin, nonvanish_ok=margin > 0, pade=pair,
    )


def certify_enclosure_oracle(center: dict, radius_c, radius_exp: int,
                             tmin) -> EnclosureCert:
    """``rouche.certify_enclosure`` on the oracle split, its margin summed term by term
    in ``Fraction`` arithmetic at each tmin."""
    radius_c, tmin = Fraction(radius_c), Fraction(tmin)
    if tmin < 1:
        raise ValueError("tmin must be >= 1")
    lead, rest, den = enclosure_split_oracle(center, radius_c, radius_exp)
    margin = (lead - inverse_horner(rest, tmin)) / den
    return EnclosureCert(center, radius_c, radius_exp, tmin, margin > 0, margin)


class _Recorder:
    """The lines lhs <= rhs of one chain and their margins, one at a time."""

    def __init__(self):
        self.lines = []

    def require(self, name: str, lhs, rhs) -> None:
        if lhs > rhs:
            raise ChainError(f"{name}: {lhs} > {rhs}")
        self.lines.append((name, rhs - lhs))


def measure_constants_oracle(type_index: int, tmin) -> MeasureConstants:
    """``measure.measure_constants`` with every line, its name and kappa
    re-derived at tmin, and the enclosure it needs from the oracle above."""
    F = Fraction
    tmin = F(tmin)
    if type_index not in (0, 3):
        raise ValueError("type_index must be 0 or 3")
    _Recorder().require("tmin floor 100", F(100), tmin)
    for name, center, c, k in rouche.BASE_CERT_PARAMS:
        # the small-root cap reads alpha0's radius, type 3's distance to i alpha3's
        verified = certify_enclosure_oracle(center, c, k, tmin).verified
        if name in ("alpha0", f"alpha{type_index}") and not verified:
            raise ChainError(f"root enclosure {name} unverified at tmin={tmin}")
    measure._tmin_free_checks()

    ch = _Recorder()
    ch.require("w-circle gate |1-w| < 1", F(8) / (tmin - 4), F(1))
    ch.require("|w|, |1/w| cap 1.09", 1 + F(8) / (tmin - 4), F("1.09"))
    ch.require("|u|, |z| cap 1.04|t|", tmin + 4, UZ_CAP * tmin)
    ch.require("numerator base 2.94", LETTL_Q_BASE * UZ_CAP * F("2.09"), Q_BASE)
    ch.require("|t|-4 floor 0.96|t|", T4_FLOOR * tmin, tmin - 4)
    ch.require("|t|-12 floor 0.88|t|", T12_FLOOR * tmin, tmin - 12)
    ch.require("small-root cap 0.02", 1 / tmin + ALPHA0_RADIUS / tmin ** 3, F("0.02"))
    ch.require("error prefactor 1.14",
               ERR_FLOOR ** 4, ERR_PREFACTOR ** 4 * T4_FLOOR * T12_FLOOR ** 3)
    ch.require("error base 1.24", UZ_CAP, ERR_BASE * T4_FLOOR * T12_FLOOR)
    ch.require("error coefficient 1.83", LETTL_L0 * ERR_PREFACTOR, L0[0])
    ch.require("error base 13.27", LETTL_E_BASE * ERR_BASE, E_DIV)
    ch.require("kappa at least 1", F(1), exactnum.kappa(tmin, KAPPA_WIDTH).lo)

    k0, l0c = K0[type_index], L0[type_index]
    if type_index == 3:
        ch.require("unit factor 4.7", 2 * K0[0] ** 2, k0 ** 2)
        ch.require("distance to i cap 1.44",
                   F(2), (I_DIST_CAP - ALPHA13_RADIUS / tmin) ** 2)
        ch.require("error coefficient 3.66",
                   2 * (L0[0] * I_DIST_CAP / ERR_FLOOR) ** 2, l0c ** 2)
    prefactor, absorb = C_PREFACTOR[type_index], ABSORB_BASE[type_index]
    c, qmin = C_COEFF[type_index], QMIN[type_index]
    ch.require(f"c prefactor {exactnum.sig_str(prefactor)}", 2 * k0 * Q_BASE, prefactor)
    ch.require(f"absorption base {exactnum.sig_str(absorb)}", 2 * l0c / E_DIV, absorb)
    ch.require(f"c coefficient {exactnum.sig_str(c)}", prefactor * absorb, c)
    ch.require(f"q gate {exactnum.sig_str(qmin)}", 1 / (2 * l0c), qmin)
    return MeasureConstants(type_index=type_index, k0=k0, Q_coeff=Q_BASE,
                            l0_coeff=l0c, E_div=E_DIV, qmin_coeff=qmin,
                            c_coeff=c, lines=tuple(ch.lines))


def first_c0_oracle(type_index: int, tmin=exactnum.TMIN_FLOOR) -> Fraction:
    """``descent.first_c0`` as it ran in ``Fraction`` arithmetic at each tmin."""
    tmin = Fraction(tmin)
    lines(floor_line(tmin))
    require(tmin, "alpha3" if type_index == 3 else "alpha0")
    descent._first_fixed(type_index)
    if type_index == 3:
        return STEP1_DIVISOR
    # |alpha0| <= (1 + 5.01/tmin^2)/|t| <= 1.01/|t|
    lines(("root modulus 1.01", 1 + ALPHA0_RADIUS / tmin ** 2, ALPHA0_MODULUS),
          # 2 <= 5 tmin^2 - 1 suffices, as |x|^4 >= 81: |x^4 (1 - 5t^2)| >= 162 > 1 >= |mu|
          ("side case x^4 (1 - 5t^2) = mu", 2, 5 * tmin ** 2 - 1),
          ("step-2 divisor 5.02",
           ALPHA0_RADIUS + BETA_COEFF / (STEP1_COEFF * tmin) ** 4 * tmin ** 2, STEP2_DIVISOR))
    return STEP2_DIVISOR


def root_separation_oracle(tmin=exactnum.TMIN_FLOOR) -> dict:
    """``rouche.root_separation`` as it ran in ``Fraction`` arithmetic at each tmin."""
    tmin = Fraction(tmin)
    require(tmin, "alpha0", "alpha1", "alpha2", "alpha3")
    r0 = ALPHA0_RADIUS / tmin ** 3
    r1 = ALPHA13_RADIUS / tmin
    # |alpha0| >= |1/t| - r0, so scaled by |t|: >= 1 - 5.01/tmin^2
    alpha0_lower_coeff = 1 - ALPHA0_RADIUS / tmin ** 2
    # centers -1/t, -1, +1: pairwise distances minus radii, at |t| = tmin;
    # alpha0 is as far (>= 1 - 1/tmin) from alpha1 as from alpha3
    min_pairwise = min(1 - 1 / tmin - r0 - r1, 2 - 2 * r1)
    # distance from alpha2 (center t) to the small centers, in units of |t|:
    # |t - c| >= |t|(1 - (1 + r)/tmin) for |c| <= 1 + small
    worst_small = 1 + 1 / tmin + max(r0, r1)
    min_to_alpha2 = 1 - worst_small / tmin - ALPHA2_RADIUS / tmin ** 2
    return {
        "min_pairwise": min_pairwise,
        "min_to_alpha2_coeff": min_to_alpha2,
        "alpha0_lower_coeff": alpha0_lower_coeff,
    }


# ---------------------------------------------------------------------------
# rational square roots and interval arithmetic


def sqrt_bounds(q: Fraction, bits: int = exactnum.GRID_BITS) -> tuple[Fraction, Fraction]:
    """(lo, hi) on the 2**-bits grid with lo <= sqrt(q) <= hi, q >= 0, from
    ``exactnum.sqrt_grid``."""
    if q < 0:
        raise DomainError("sqrt of negative rational")
    return tuple(Fraction(e, 1 << bits)
                 for e in exactnum.sqrt_grid(q.numerator, q.denominator, bits))


def sqrt_lower(q: Fraction, bits: int = exactnum.GRID_BITS) -> Fraction:
    """Rational lower bound for sqrt(q), q >= 0."""
    if q < 0:
        raise DomainError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = (q.numerator * scale * scale) // q.denominator
    return Fraction(math.isqrt(n), scale)


def sqrt_upper(q: Fraction, bits: int = exactnum.GRID_BITS) -> Fraction:
    if q < 0:
        raise DomainError("sqrt of negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = -((-q.numerator * scale * scale) // q.denominator)
    return Fraction(math.isqrt(n - 1) + 1, scale)


def round_down_grid(x: Fraction, bits: int = exactnum.GRID_BITS) -> Fraction:
    scale = 1 << bits
    return Fraction((x.numerator * scale) // x.denominator, scale)


def iv_width(a: RatInterval) -> Fraction:
    return a.hi - a.lo


def iv_contains(a: RatInterval, x: Fraction) -> bool:
    return a.lo <= x <= a.hi


def iv_add(a: RatInterval, b: RatInterval) -> RatInterval:
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def iv_shift(a: RatInterval, c: Fraction) -> RatInterval:
    return RatInterval(a.lo + c, a.hi + c)


def iv_scale(a: RatInterval, c: Fraction) -> RatInterval:
    if c >= 0:
        return RatInterval(a.lo * c, a.hi * c)
    return RatInterval(a.hi * c, a.lo * c)


def iv_div_pos(a: RatInterval, b: RatInterval) -> RatInterval:
    """Division assuming both intervals are strictly positive."""
    if b.lo <= 0:
        raise DomainError("divisor interval not strictly positive")
    return RatInterval(a.lo / b.hi, a.hi / b.lo)


# ---------------------------------------------------------------------------
# the logarithms as they were summed in Fraction arithmetic before the
# integer kernel


def atanh_enclosure_oracle(u: Fraction, tail_budget: Fraction) -> RatInterval:
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


def atanh_count_oracle(series: exactnum._AtanhSeries, bn: int, bd: int) -> int:
    """``_AtanhSeries.count`` as it walked n up from 1."""
    a, b, c = series.a, series.b, series._c
    n = 1
    while (abs(a) * series._pow(series._a2, n) * bd
           > bn * b * series._pow(series._b2, n - 1) * (2 * n + 1) * c):
        n += 1
    return n


def ln2_oracle(tail_budget: Fraction) -> RatInterval:
    return iv_scale(atanh_enclosure_oracle(Fraction(1, 3), tail_budget / 2), 2)


def ln_enclosure_oracle(x, target_width: Fraction) -> RatInterval:
    x = Fraction(x)
    if x <= 0:
        raise DomainError("ln of non-positive value")
    if target_width <= 0:
        raise DomainError("target_width must be positive")
    if x == 1:
        return RatInterval(Fraction(0), Fraction(0))
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    m = Fraction(n, d << k) if k >= 0 else Fraction(n << -k, d)
    if m >= Fraction(3, 2):
        m /= 2
        k += 1
    elif m < Fraction(3, 4):
        m *= 2
        k -= 1
    budget = target_width / 4
    total = iv_scale(atanh_enclosure_oracle((m - 1) / (m + 1), budget / 2), 2)
    if k != 0:
        total = iv_add(total, iv_scale(ln2_oracle(budget / (2 * abs(k))), k))
    bits = max(8, (4 * target_width.denominator.bit_length() // 4) + 8)
    while Fraction(2, 1 << bits) > target_width / 4:
        bits += 8
    return RatInterval(round_down_grid(total.lo, bits),
                       concrete.round_up_grid(total.hi, bits))


def kappa_oracle(t_abs, target_width: Fraction) -> RatInterval:
    t_abs = Fraction(t_abs)
    if t_abs <= 0:
        raise DomainError("t_abs must be positive")
    w = min(Fraction(target_width), Fraction(1, 16))
    for _ in range(64):
        ln_t = ln_enclosure_oracle(t_abs, w)
        den_lo = ln_t.lo - exactnum.KAPPA_DEN_SHIFT
        if ln_t.hi - exactnum.KAPPA_DEN_SHIFT <= 0:
            raise UndefinedKappaError(f"log({t_abs}) <= 2.59")
        if den_lo <= 0:
            w /= 4
            continue
        num = iv_shift(ln_t, exactnum.KAPPA_NUM_SHIFT)
        den = iv_shift(ln_t, -exactnum.KAPPA_DEN_SHIFT)
        result = iv_div_pos(num, den)
        if iv_width(result) <= target_width:
            return result
        w /= 4
    raise UndefinedKappaError(f"kappa enclosure did not converge for t={t_abs}")


# ---------------------------------------------------------------------------
# complex balls: the modulus bounds and the product as they were computed
# before the integer ends of |mid|^2


def ball_abs_bounds_oracle(z: ComplexBall) -> tuple[Fraction, Fraction]:
    """|z| bounds from the normalised Fraction |mid|^2."""
    lo, hi = sqrt_bounds(z.re_mid * z.re_mid + z.im_mid * z.im_mid)
    return (max(lo - z.radius, Fraction(0)), hi + z.radius)


def ball_mul_oracle(a: ComplexBall, b: ComplexBall) -> ComplexBall:
    """The product with both moduli taken, whatever the radii."""
    re = a.re_mid * b.re_mid - a.im_mid * b.im_mid
    im = a.re_mid * b.im_mid + a.im_mid * b.re_mid
    rad = (ball_abs_bounds_oracle(a)[1] * b.radius + ball_abs_bounds_oracle(b)[1] * a.radius
           + a.radius * b.radius)
    return ComplexBall(re, im, concrete.round_up_grid(rad))


def ball_contains_zero(z: ComplexBall) -> bool:
    return z.abs_bounds()[0] <= 0


# ---------------------------------------------------------------------------
# the concrete-t root balls in GaussRat/ComplexBall arithmetic


def embed_oracle(x: QuadInt, bits: int = exactnum.GRID_BITS) -> ComplexBall:
    """Certified complex embedding (Im sqrt(-d) > 0), sqrt(d) on the 2^-bits grid."""
    re, im_coeff = x.re_im()
    if im_coeff == 0:
        return ComplexBall.exact(re)
    lo, hi = sqrt_bounds(Fraction(x.d), bits)
    mid = (lo + hi) / 2
    return ComplexBall(re, im_coeff * mid, abs(im_coeff) * (hi - lo))


def ball_record(ball: ComplexBall) -> tuple:
    """(a, b, n, p, q, h): mid = (a + bi)/n, radius p/q, h = ceil(2^GRID_BITS |mid|)."""
    a, b, n = concrete.gauss_over(ball.re_mid, ball.im_mid)
    return (a, b, n, *ball.radius.as_integer_ratio(),
            exactnum.sqrt_grid(a * a + b * b, n * n)[1])


def coeffs_at_oracle(rows, t, lift) -> tuple:
    """The coefficients A_k + B_k t of rows (A, B), their integers lifted."""
    return tuple(lift(a) + lift(b) * t for a, b in zip(*rows))


def certify_root_oracle(t_ball: ComplexBall, x: GaussRat) -> ComplexBall | None:
    """Newton-Kantorovich by ComplexBall Horner on the lifted coefficients."""
    xb, zero = ComplexBall.exact(x.re, x.im), ComplexBall.exact(Fraction(0))
    f, df = (concrete.evaluate(coeffs_at_oracle(rows, t_ball, ComplexBall.exact), xb, zero)
             for rows in (concrete.QUARTIC, concrete._DF))
    df_lo, _ = df.abs_bounds()
    if df_lo <= 0:
        return None
    eta = f.abs_upper() / df_lo
    # |f''| on the disc of radius 2*eta, majorized coefficient by coefficient
    xr, t_abs = xb.abs_upper() + 2 * eta, t_ball.abs_upper()
    m2 = sum((abs(a) + abs(b) * t_abs) * xr ** k for k, (a, b) in enumerate(zip(*concrete._D2F)))
    if 2 * eta * m2 > df_lo:  # h = eta * m2 / |f'| must be < 1/2
        return None
    return ComplexBall(x.re, x.im, 2 * eta)


def _round_dyadic(q: Fraction, bits: int) -> Fraction:
    """q rounded to the nearest multiple of 2^-bits, ties up: floor(q 2^bits + 1/2)/2^bits."""
    return Fraction(math.floor(q * 2 ** bits + Fraction(1, 2)), 2 ** bits)


def root_ball_oracle(t, seed: complex, target_radius, t_irrational=None) -> ComplexBall:
    """``concrete.root_ball`` with GaussRat Newton steps and the ball certificate,
    each step rounded to 2^-(k+64) for the least k with 2^-k <= target_radius."""
    target_radius = Fraction(target_radius)
    t_ball = (ComplexBall.exact(t.re, t.im) if t_irrational is None
              else embed_oracle(t_irrational, 200))
    t_mid = GaussRat(t_ball.re_mid, t_ball.im_mid)
    f, df = (coeffs_at_oracle(rows, t_mid, GaussRat.of)
             for rows in (concrete.QUARTIC, concrete._DF))
    k = 0
    while Fraction(1, 2 ** k) > target_radius:
        k += 1

    def on_grid(z: GaussRat) -> GaussRat:
        return GaussRat(_round_dyadic(z.re, k + 64), _round_dyadic(z.im, k + 64))

    x = on_grid(GaussRat(Fraction(seed.real), Fraction(seed.imag)))
    last = None
    for _ in range(14):
        dfx = concrete.evaluate(df, x, G0)
        if not dfx:
            break
        x = on_grid(x - concrete.evaluate(f, x, G0) / dfx)
        ball = certify_root_oracle(t_ball, x)
        if ball is not None:
            if ball.radius <= target_radius:
                return ball
            if last is not None and ball.radius >= last:
                break
            last = ball.radius
    raise dioph.TieError("root enclosure did not reach the requested radius")


def root_seeds_oracle(t: complex) -> list[complex]:
    """Durand-Kerner seeds with no float check and no asymptotic fallback."""
    import cmath
    coeffs = [1.0, -t, -6.0, t, 1.0]

    def f(z):
        acc = 0j
        for c in coeffs:
            acc = acc * z + c
        return acc

    zs = [0.4 * cmath.exp(2j * cmath.pi * (k + 0.25) / 4) * (1 + abs(t))
          for k in range(4)]
    for _ in range(200):
        new = []
        for i, z in enumerate(zs):
            num = f(z)
            den = 1.0
            for j, w in enumerate(zs):
                if i != j:
                    den *= (z - w)
            new.append(z - num / den)
        if max(abs(a - b) for a, b in zip(new, zs)) < 1e-13:
            zs = new
            break
        zs = new
    large = max(zs, key=abs)
    small = min(zs, key=abs)
    rest = [z for z in zs if z not in (large, small)]
    near_m1 = min(rest, key=lambda z: abs(z + 1))
    near_p1 = [z for z in rest if z is not near_m1][0]
    return [small, near_m1, large, near_p1]


# ---------------------------------------------------------------------------
# the concrete-t queries as they ran before the integer beta bounds, the integer
# overlap test and the per-r X-polynomials of the Thue polynomials


def beta_bounds_oracle(x: QuadInt, y: QuadInt, alpha: ComplexBall) -> tuple[Fraction, Fraction]:
    """The bounds on |x - alpha y| in ComplexBall arithmetic."""
    return (embed_oracle(x) - alpha * embed_oracle(y)).abs_bounds()


def balls_overlap_oracle(balls) -> bool:
    """Whether some pair of balls has a zero lower end of |a - b|."""
    return any((a - b).abs_bounds()[0] <= 0 for a, b in combinations(balls, 2))


@lru_cache(maxsize=64)
def root_balls_oracle(t: QuadInt, target_radius: Fraction) -> tuple[ComplexBall, ...]:
    """The four root balls from ``concrete.root_ball``, disjoint by the ComplexBall test."""
    t_gauss, t_irrational = concrete._t_exact(t)
    balls = tuple(concrete.root_ball(t_gauss, s, target_radius, t_irrational)
                  for s in concrete._root_seeds(concrete._t_complex(t)))
    if balls_overlap_oracle(balls):
        raise dioph.TieError("root enclosures overlap")
    return balls


def classify_type_oracle(t: QuadInt, x: QuadInt, y: QuadInt) -> int:
    """``concrete.classify_type`` with the bounds on |x - alpha_j y| in ComplexBall
    arithmetic (root balls cached by ``root_balls_oracle``)."""
    if x.abs_sq() == 0 and y.abs_sq() == 0:
        raise ValueError("(0, 0) has no type")
    for bits in (64, 128, 256):
        try:
            roots = root_balls_oracle(t, Fraction(1, 1 << bits))
        except dioph.TieError:
            continue
        bounds = [beta_bounds_oracle(x, y, ab) for ab in roots]
        order = sorted(range(4), key=lambda i: bounds[i][1])
        best = order[0]
        if all(bounds[best][1] < bounds[j][0] for j in order[1:]):
            return best
    raise dioph.TieError(f"no strict minimal root distance for t={t}, x={x}, y={y}")


def thue_polys_at_oracle(r: int, t_val: GaussRat) -> tuple[TPoly, TPoly]:
    """``concrete.thue_polys_at`` by homogeneous Horner on P = (iT - 4D)(X - i)^4
    and Q = (iT + 4D)(X + i)^4 at each t."""
    if r < 0:
        raise ValueError("r must be >= 0")
    n, delta = chi_ints(r)
    ((tr,), (ti,)), D = _cleared([t_val])
    P = zpoly.gmul(((-ti - 4 * D,), (tr,)), _X_MINUS_I_4)
    Q = zpoly.gmul(((-ti + 4 * D,), (tr,)), _X_PLUS_I_4)
    s1, s2 = zpoly.homogenise(n, P, Q), zpoly.homogenise(n, Q, P)
    unit, den = _i_pow(r, 5), 2 * (8 * D) ** r * delta  # the prefactor 5/2 of a..d
    return tuple(TPoly.from_ints(zpoly.gmul(unit, zpoly.gsub(zpoly.gmul(f, s1),
                                                             zpoly.gmul(g, s2))), den)
                 for f, g in (_ABCD[:2], _ABCD[2:]))


# ---------------------------------------------------------------------------
# the divisibility check in exact integers, before its fixed point: each
# coefficient scaled by 2^(MID_BITS (n - j)) so that the Taylor shift stays exact


def gshift(f, m: tuple[int, int]):
    """f(X + m) for a Gaussian integer m = (re, im), by repeated synthetic
    division: its X^j coefficient is f^(j)(m)/j!."""
    n, (mr, mi) = max(len(f[0]), len(f[1])), m
    re, im = (zpoly.pad(p, n) for p in f)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            a, b = re[j + 1], im[j + 1]
            re[j] += mr * a - mi * b
            im[j] += mr * b + mi * a
    return re, im


def derivative_balls_oracle(r: int, A, B, alpha: ComplexBall, below: bool = False) -> list:
    """For k = 0..2r, (x, y, s, scale): alpha A^(k)(alpha) - B^(k)(alpha) lies
    within s/scale of (x + iy)/scale = k! (m a_k - b_k), exactly, for every
    alpha in the dyadic disc |alpha - m| <= rho of ``concrete._dyadic_ball``.
    With ``below``, s/scale is a lower bound for that radius sum instead: the
    moduli are rounded down, on a grid 2^-64 finer."""
    den = math.lcm(A.den, B.den)
    n, sh, extra = max(A.degree(), B.degree(), 2 * r), concrete.MID_BITS, 64 if below else 0
    M, R = concrete._dyadic_ball(ball_record(alpha))  # m = M/2^sh, rho = R/2^sh

    def cleared(p):  # 2^(sh n) den p(X/2^sh) over Z[i], of degree n
        return tuple([(x * (den // p.den)) << sh * (n - j) + extra
                      for j, x in enumerate(zpoly.pad(xs, n + 1))] for xs in p.num)

    # shifted to M, the H^j coefficient is 2^(sh(n-j)) den p^(j)(m)/j!
    ga, gb = (list(zip(*gshift(cleared(p), M))) for p in (A, B))
    # 2^(sh(n+1-j)) den (m a_j - b_j), exactly
    e = [(M[0] * a - M[1] * b - (c << sh), M[0] * b + M[1] * a - (d << sh))
         for (a, b), (c, d) in zip(ga, gb)]
    abs_a, abs_e = ([exactnum.sqrt_grid(a * a + b * b, 1, 0)[0 if below else 1] for a, b in zs]
                    for zs in (ga, e))
    out = []
    for k in range(2 * r + 1):
        # 2^(sh(n+1-k)) den times the radius bound, with rho^l = R^l/2^(sh l)
        kf = ff = math.factorial(k)
        s, rl = ff * abs_a[k] * R, 1
        for j in range(k + 1, n + 1):
            ff, rl = ff * j // (j - k), rl * R
            s += ff * rl * (abs_e[j] + R * abs_a[j])
        out.append((kf * e[k][0], kf * e[k][1], s, den << sh * (n + 1 - k) + extra))
    return out


def divisibility_ball_check_oracle(r: int, t: GaussRat) -> dict:
    """``concrete.divisibility_ball_check`` on the exact balls."""
    alpha = concrete.root_ball(t, concrete._root_seeds(complex(float(t.re), float(t.im)))[0],
                            Fraction(1, 1 << 120))
    max_num, contains = 0, True
    for x, y, s, scale in derivative_balls_oracle(r, *thue_polys_at(r, t), alpha):
        num = -(-(s << exactnum.GRID_BITS) // scale)
        contains = contains and (x * x + y * y) << 2 * exactnum.GRID_BITS <= (num * scale) ** 2
        max_num = max(max_num, num)
    return {"order": 2 * r + 1, "all_contain_zero": contains,
            "max_radius": Fraction(max_num, 1 << exactnum.GRID_BITS)}


# ---------------------------------------------------------------------------
# the corollary-eps gates at a grid value in Fraction arithmetic, and
# floor(2^bits ln x) from an independent enclosure


def eps_gate_fn_oracle(eps: Fraction):
    """The three threshold conditions of corollary._eps_gates at one eps, as a
    function of the grid value g, in Fractions: ln t >= l = g / 2^28, each
    constant's log in [f, f + 1) / 2^28 for its grid floor f, and kappa's
    upper end (l + 1.08)/(l - 2.59)."""
    grid = Fraction(1, 1 << corollary.LN_GRID_BITS)
    ln = {c: f for c, f in corollary._log_constants().items() if type(c) is Fraction}
    lo = {c: f * grid for c, f in ln.items()}
    hi = {c: (f + 1) * grid for c, f in ln.items()}
    # (i) type threshold: ln 4 + (1-eps) ln 20.14 <= ln t
    type_log = hi[Fraction(4)] + (1 - eps) * hi[descent.TYPE_THRESHOLD]
    # (ii) cubic-term absorption: ln 8.86 <= ln 0.33 + (1/2 + eps/4) ln t
    beta_log, absorb_log = hi[descent.BETA_COEFF], lo[corollary.CUBIC_ABSORB]
    cubic_slope = Fraction(1, 2) + eps / 4
    # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa))
    #       < (t^(2-eps) / 4)^(1/4), compared in the log domain
    ln_b_hi = hi[measure.CONTRADICTION_COEFF] - (2 - eps) * lo[corollary.C2_DIVISOR]

    def gates(g: int) -> list[GateResult]:
        ln_t_lo = g * grid
        out = [GateResult("type threshold", type_log <= ln_t_lo,
                          "4 * 20.14^(1-eps) <= |t|"),
               GateResult("cubic absorption",
                          beta_log <= absorb_log + cubic_slope * ln_t_lo,
                          "8.86 / |t|^(1/2 + eps/4) <= 0.33")]
        if ln_t_lo <= exactnum.KAPPA_DEN_SHIFT:
            return out + [GateResult("measure contradiction", False, "kappa undefined")]
        k_hi = (ln_t_lo + exactnum.KAPPA_NUM_SHIFT) / (ln_t_lo - exactnum.KAPPA_DEN_SHIFT)
        g_lo = 1 + eps - k_hi
        if g_lo <= 0:
            return out + [GateResult("measure contradiction", False,
                                     "1 + eps - kappa not positive")]
        rhs_log = ((2 - eps) * ln_t_lo - hi[Fraction(4)]) / 4
        return out + [GateResult("measure contradiction", ln_b_hi / g_lo < rhs_log,
                                 "log comparison with kappa upper end")]

    return gates


def least_g_oracle(eps: Fraction) -> tuple[int, int]:
    """(g*, t0) of corollary.corollary_eps as its search ran before the float seed: g* by
    doubling and bisection from g_lo + 1, then t0, the least t with L(t) >= g*.
    OutputLimitError past MAX_DIGITS digits, as corollary_eps."""
    _least, _cut, _ln_grid = corollary._least, corollary._cut, corollary._ln_grid
    LN_GRID_BITS, EPS_CUT_BITS = corollary.LN_GRID_BITS, corollary.EPS_CUT_BITS
    MAX_DIGITS, ln_floor = exactnum.MAX_DIGITS, exactnum.ln_floor
    gates_at = corollary._eps_gate_fn(eps)
    (p, q), (nn, nd), (dn, dd) = (c.as_integer_ratio() for c in (
        eps, exactnum.KAPPA_NUM_SHIFT, exactnum.KAPPA_DEN_SHIFT))
    g_lo = ((q + p) * nd * dn + q * dd * nn << LN_GRID_BITS) // (p * nd * dd)
    limit = MAX_DIGITS * (corollary._log_constants()[Fraction(10)] + 1)
    if g_lo >= limit or (g := _least(lambda g: all(gates_at(g)[:3]), g_lo + 1)) >= limit:
        raise exactnum.OutputLimitError(f"t0 for eps = {exactnum._side(eps)} has more than "
                                        f"{MAX_DIGITS:,} digits")
    grid = lru_cache(maxsize=None)(_ln_grid)  # each L(t) once
    y = g / ((1 << LN_GRID_BITS) * math.log(2))  # log2 of t0, about
    s = max(0, int(y) - EPS_CUT_BITS + 1)
    t = max(1, _cut(int(2 ** (y - s)) << s))
    # one Newton step on ln t = g / 2^28, from floor(2^96 ln t), lands next to t0
    t = max(1, _cut(t + (t * ((g << 96 - LN_GRID_BITS) - ln_floor(t, 96)) >> 96)))
    return g, _least(lambda t: grid(t) >= g, t, 1 << s, _cut)


def ln_floor_oracle(x: Fraction, bits: int) -> int:
    """floor(2^bits ln x) for a rational x > 0 other than 1, from
    ln x = k ln 2 + ln m, m = x / 2^k in [1, 2): ln 2 = sum_j 1/(j 2^j) and
    ln m = 2 atanh((m-1)/(m+1)), each summed in Fractions with a geometric
    tail bound, to 64 bits past the grid and 64 more until both ends of the
    enclosure floor alike."""
    x = Fraction(x)
    k = x.numerator.bit_length() - x.denominator.bit_length()
    if Fraction(2) ** k > x:
        k -= 1
    m = x / Fraction(2) ** k
    u = (m - 1) / (m + 1)
    prec = bits + 64
    while True:
        eps = Fraction(1, 1 << prec)
        ln2, j, term = Fraction(0), 1, Fraction(1, 2)
        while term / j > eps / (abs(k) + 1):  # tail <= 2 term / (j + 1) after term j
            ln2, j, term = ln2 + term / j, j + 1, term / 2
        ln2_lo, ln2_hi = (ln2, ln2 + 2 * term / j)[::1 if k >= 0 else -1]
        atanh, j, power = Fraction(0), 0, u
        while power > eps * (1 - u * u):  # tail <= power / (1 - u^2) after term j
            atanh, j, power = atanh + power / (2 * j + 1), j + 1, power * u * u
        lo = k * ln2_lo + 2 * atanh
        hi = k * ln2_hi + 2 * (atanh + power / (1 - u * u))
        f_lo, f_hi = math.floor(lo * (1 << bits)), math.floor(hi * (1 << bits))
        if f_lo == f_hi:
            return f_lo
        prec += 64


# ---------------------------------------------------------------------------
# the Z[omega] formulas as they branched on the half-integral basis before
# ``quadfield.ring`` held one table


def is_half_integral(d: int) -> bool:
    """True when the ring is Z[(1+sqrt(-d))/2], i.e. -d = 1 (mod 4)."""
    return d % 4 == 3


def mul_oracle(d: int, x: tuple, y: tuple) -> tuple:
    """The (a, b) pair of the product of a + b*omega pairs x and y in field d."""
    (xa, xb), (ya, yb) = x, y
    if is_half_integral(d):
        # omega^2 = omega - (1+d)/4
        m = (1 + d) // 4
        return (xa * ya - m * xb * yb, xa * yb + xb * ya + xb * yb)
    return (xa * ya - d * xb * yb, xa * yb + xb * ya)


def conj(x: QuadInt) -> QuadInt:
    """The complex conjugate, read from the ``ring`` table."""
    return QuadInt(x.d, x.a + ring(x.d)[0] * x.b, -x.b)


def div_exact(x: QuadInt, y: QuadInt) -> QuadInt:
    """x / y, raising ValueError when y does not divide x in the ring."""
    d, x, y = _common(x, y)
    n = y.abs_sq()
    if n == 0:
        raise ZeroDivisionError("division by zero element")
    num = x * conj(y)
    if num.a % n or num.b % n:
        raise ValueError(f"{y} does not divide {x}")
    return QuadInt(d, num.a // n, num.b // n)


def conj_oracle(d: int, a: int, b: int) -> tuple:
    if is_half_integral(d):
        return (a + b, -b)
    return (a, -b)


def re_im_oracle(d: int, a: int, b: int) -> tuple[Fraction, Fraction]:
    """(rational part, coefficient of sqrt(d) in the imaginary part)."""
    if is_half_integral(d):
        return (Fraction(2 * a + b, 2), Fraction(b, 2))
    return (Fraction(a), Fraction(b))


def squarefree(n: int) -> bool:
    """n has no square factor above 1, by trial division."""
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


def eligible_fields_oracle(m) -> list[int]:
    m2 = Fraction(m) ** 2
    out = []
    for d in range(1, int(4 * m2) + 2):
        if not squarefree(d):
            continue
        if is_half_integral(d):
            if Fraction(1 + d, 4) <= m2:
                out.append(d)
        elif d <= m2:
            out.append(d)
    return out


def norm_oracle(d: int, a: int, b: int) -> int:
    """N(a + b*omega) = |a + b*omega|^2 in Q(sqrt(-d))."""
    if is_half_integral(d):
        return a * a + a * b + b * b * (1 + d) // 4
    return a * a + d * b * b


def field_pairs_oracle(d: int, m2, normalize: bool = False):
    # N = ((2a + b)^2 + d b^2)/4 in the half-integral case, a^2 + d b^2 otherwise
    half = is_half_integral(d)
    lim = Fraction(m2) * (4 if half else 1)
    bmax = math.isqrt(int(lim / d))
    for b in range(1 if normalize else -bmax, bmax + 1):
        if b == 0:
            continue
        r = math.isqrt(int(lim - d * b * b))  # |2a + b| <= r, resp. |a| <= r
        lo, hi = (-((r + b) // 2), (r - b) // 2) if half else (-r, r)
        for a in range(lo, hi + 1):
            yield a, b


def pairs_with_norm_in_oracle(d: int, m2, norms):
    half = is_half_integral(d)
    scaled = [(4 if half else 1) * n for n in norms if 0 < n <= m2]
    for b in range(1, math.isqrt(max(scaled, default=0) // d) + 1):
        # s = a, resp. s = 2a + b with s = b (mod 2) as s^2 = b^2 (mod 4)
        db2 = d * b * b
        row = {s for n in scaled if n >= db2 for r in [math.isqrt(n - db2)]
               if r * r == n - db2 for s in (-r, r)}
        for s in sorted(row):
            yield ((s - b) // 2 if half else s), b


def eval_form(t: QuadInt, x: QuadInt, y: QuadInt) -> QuadInt:
    """F_t(x, y) in QuadInt arithmetic."""
    return (x ** 4 - t * x ** 3 * y - 6 * (x * y) ** 2 + t * x * y ** 3 + y ** 4)


def orbit(x: QuadInt, y: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """The equivalence class of (x, y) under (x,y) -> (-y, x)."""
    out = [(x, y)]
    for _ in range(3):
        x, y = -y, x
        out.append((x, y))
    return out


def divides(y: QuadInt, x: QuadInt) -> bool:
    """y | x in the ring."""
    try:
        div_exact(x, y)
        return True
    except ValueError:
        return False


def irreducibility_exceptions_oracle() -> tuple[list[QuadInt], list[QuadInt]]:
    """Parameters t for which the quartic form factors over its field,
    found by the quadratic-factor search (a + c = -t, ac = -4, |a|^2 | 16),
    together with the sublist where the quartic actually has a field root
    (the two fourth-power cases)."""
    ts = {}
    for a in enumerate_bounded(4, normalize=True):
        if 16 % a.abs_sq() != 0:
            continue
        try:
            c = div_exact(QuadInt(a.d, -4, 0), a)
        except ValueError:
            continue
        t = -(a + c)
        for cand in (t, -t):
            ts[(cand.d, cand.a, cand.b)] = cand
    # the fourth-power parameters: f_t = (X -+ i)^4 at t = +-4i
    root_cases = [QuadInt(1, 0, 4), QuadInt(1, 0, -4)]
    for rc in root_cases:
        ts[(rc.d, rc.a, rc.b)] = rc
    ordered = sorted(ts.values(), key=lambda q: (q.d, q.abs_sq(), q.b, q.a))
    return ordered, root_cases
