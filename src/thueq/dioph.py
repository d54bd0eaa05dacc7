"""Finite Diophantine computations for the quartic family
F_t(X,Y) = X^4 - tX^3Y - 6X^2Y^2 + tXY^3 + Y^4 over imaginary quadratic
integer rings: reducibility exceptions, the zero equation, trivial
solutions, the exhaustive small-solution search, and solution-type
classification via certified root enclosures."""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce

from . import zpoly
from .exactnum import GRID_BITS, ChainError, ComplexBall, Rat, gauss_over, sqrt_grid
from .quadfield import (QuadInt, eligible_fields, enumerate_bounded, norm, pairs_with_norm_in,
                        ring, roots_of_unity)
from .series import QUARTIC, GaussRat, horner


class TieError(ArithmeticError):
    pass


Solution = namedtuple("Solution", "d t x y mu")  # QuadInt t, x, y and mu in field d


def irreducibility_exceptions() -> tuple[list[QuadInt], list[QuadInt]]:
    """Parameters t for which the quartic form factors over its field,
    found by the quadratic-factor search (a + c = -t, ac = -4, |a|^2 | 16),
    together with the sublist where the quartic actually has a field root
    (the two fourth-power cases, from a = c = -+2i).

    Each a = x + y w with y > 0 and N(a) | 16 comes from the search's pair
    kernel, the rational a in {1, 2, 4} from d = 1 (up to sign, as t -> -t
    covers -a); a is kept when c = -4 conj(a)/N(a) is integral."""
    ts = set()
    for d in eligible_fields(4):
        s, rational = ring(d)[0], [(1, 0), (2, 0), (4, 0)] if d == 1 else []
        for x, y in [*pairs_with_norm_in(d, 16, {1, 2, 4, 8, 16}), *rational]:
            n, cx, cy = norm(d, x, y), -4 * (x + s * y), 4 * y  # c N(a), conj(a) = x + sy - yw
            if cx % n == 0 and cy % n == 0:
                tx, ty = -x - cx // n, -y - cy // n
                # ty = -y(1 + 4/n) is 0 only for a rational a, whose d is 1 as QuadInt's
                ts |= {(d, tx, ty), (d, -tx, -ty)}
    ordered = sorted(ts, key=lambda k: (k[0], norm(*k), k[2], k[1]))
    return [QuadInt(*k) for k in ordered], [QuadInt(1, 0, 4), QuadInt(1, 0, -4)]


# ---------------------------------------------------------------------------
# small-solution search

# the |y|^2 box for a unit x.  When x^4 = mu, y' = y/x is integral and
# F_t(1, y') = 1, i.e. t(y'^2 - 1) = -y'(y'^2 - 1) + 5y'; as y' y' - (y'^2 - 1) = 1,
# (y') and (y'^2 - 1) are coprime, so (y'^2 - 1) | 5 (y'^2 = 1 leaves 5y' = 0):
# |y|^2 = |y'^2| <= 1 + 5.  When x^4 != mu, N(y) | N(x^4 - mu) <= 4.
Y_UNIT_X_MAX_SQ = 1 + 5
_SEARCH_CACHE: list | None = None


def y_box_sq(xn: int) -> int:
    """The bound on |y|^2 of a small solution with |x|^2 = xn.  F_t(x, y) = x^4
    (mod y), so F_t(x, y) = mu forces N(y) | N(x^4 - mu) <= (1 + |x|^4)^2;
    x^4 = mu, of norm 0, needs a unit x, whose box is Y_UNIT_X_MAX_SQ."""
    return Y_UNIT_X_MAX_SQ if xn == 1 else (1 + xn * xn) ** 2


def _t_sq_cap(xn: int, yn: int) -> Fraction:
    """g = (X^2 + 6XY + Y^2 + 1)^2 / (XY max(1, Y - X)^2) at X = xn, Y = yn."""
    return Fraction((xn * xn + 1 + yn * (6 * xn + yn)) ** 2, xn * yn * max(1, yn - xn) ** 2)


def small_solution_t_sq_bound() -> Fraction:
    """The largest |t|^2 of a small solution: 83521/18 at (8, 9), so |t| <= 68.12.

    As F_t(y, -x) = F_t(x, y), take X = |x|^2 <= 8 and X <= Y = |y|^2 <= y_box_sq(X).
    From t xy(x^2 - y^2) = x^4 - 6x^2y^2 + y^4 - mu, with |x^2 - y^2| >= Y - X
    and |x^2 - y^2| >= 1 (x^2 = y^2 gives F_t(x, y) = -4x^4, no unit),
    |t|^2 <= g(X, Y) of _t_sq_cap.  For Y > X, d ln g/dY has the sign of
    phi(Y) = Y^3 - 9XY^2 - (9X^2 + 3)Y + X^3 + X, whose coefficients change sign
    twice, so phi has at most two positive roots; phi(0) > 0 > phi(X + 1) =
    -16X^3 - 24X^2 - 8X - 2 puts one below X + 1, so exactly one lies above it.
    So g falls and then rises on Y >= X + 1, and its maximum over the box is at
    Y in {X, X + 1, y_box_sq(X)}: 24 pairs."""
    return max(_t_sq_cap(xn, yn) for xn in range(1, 9) for yn in (xn, xn + 1, y_box_sq(xn)))


def small_solution_search(tmin_abs: Rat = Fraction(0)) -> list[Solution]:
    """All non-trivial solutions with min{|x|, |y|} < 3 and |t| >= tmin_abs,
    up to equivalence and the sign normalizations on x, y and t."""
    global _SEARCH_CACHE
    if tmin_abs < 0:
        raise ValueError("tmin_abs must be nonnegative")
    if _SEARCH_CACHE is None:
        _SEARCH_CACHE = _search_all()
    tmin_sq = Fraction(tmin_abs) ** 2
    return [s for s in _SEARCH_CACHE if s.t.abs_sq() >= tmin_sq]


def _search_all() -> list[Solution]:
    found, divisor_sets = [], {}
    # |x| < 3 means |x|^2 <= 8; the orbit symmetry lets us take |x| <= |y|
    for x in enumerate_bounded(3, normalize=True):
        xn, xp = x.abs_sq(), (x.a, x.b)
        if xn >= 9:
            continue
        ybound_sq = y_box_sq(xn)
        bound = 1 + math.isqrt(ybound_sq - 1)  # ceil(sqrt), ybound_sq >= 1
        # rational y (dy = None) first, then x's own field or, for rational
        # x, every field; a rational pair lives in d = 1 and in d = 3, whose
        # units i and zeta_6 can still make t integral
        groups = [([1, 3] if x.is_rational() else [x.d], None)]
        groups += [([d], d) for d in (eligible_fields(bound) if x.is_rational() else [x.d])]
        for ambients, dy in groups:
            norms = frozenset().union(*(_x_part(d, *xp)[-1] for d in ambients))
            # the divisors n <= ybound_sq of each norm, by trial division, once
            # per norm set and box; norm 0 is divisible by every N(y)
            if (norms, ybound_sq) not in divisor_sets:
                divisor_sets[norms, ybound_sq] = set(range(1, ybound_sq + 1)) if 0 in norms else {
                    n for k in norms for i in range(1, math.isqrt(k) + 1) if k % i == 0
                    for n in (i, k // i) if n <= ybound_sq}
            allowed = divisor_sets[norms, ybound_sq]
            pairs = (pairs_with_norm_in(dy, ybound_sq, allowed) if dy else
                     [(a, 0) for a in range(1, math.isqrt(ybound_sq) + 1) if a * a in allowed])
            found.extend(_solve_for_t(xp, pairs, ambients))
    found.sort(key=lambda s: (s.d, s.t.abs_sq(), s.t.b, s.t.a,
                              s.x.abs_sq(), s.y.abs_sq()))
    return found


def _mul(s: int, m: int, p: tuple, q: tuple) -> tuple:
    """(a, b) pairs of a + b w multiplied, with w^2 = s w - m for (s, m) = ring(d)."""
    return (p[0] * q[0] - m * p[1] * q[1], p[0] * q[1] + p[1] * q[0] + s * p[1] * q[1])


@lru_cache(maxsize=None)
def _x_part(d: int, a: int, b: int) -> tuple:
    """The part of the t-solve fixed by the field and x = a + b w: (s, m) =
    ring(d), x^2 and x^4, the units mu of d with their pairs, and the norms N(x^4 - mu)."""
    s, m = ring(d)
    x2 = _mul(s, m, (a, b), (a, b))
    x4 = _mul(s, m, x2, x2)
    units = tuple((mu, mu.a, mu.b) for mu in roots_of_unity(d))
    return s, m, x2, x4, units, frozenset(norm(d, x4[0] - u, x4[1] - v) for _, u, v in units)


def _solve_for_t(x: tuple, ys, ambients: list[int]) -> list[Solution]:
    """Every (t, mu) with F_t(x, y) = mu for a unit mu of an ambient field d,
    for x and each y of ys given as (a, b) pairs of a + b w in each ambient:
    t = (x^4 - 6x^2y^2 + y^4 - mu) / (xy(x^2 - y^2)), solved on local integer
    pairs; QuadInt and Solution are built for hits only."""
    sols, xa, xb = [], *x
    # +-1 of a second ambient field were already tried in the first
    parts = [(d, s, m, x2, x4, [u for u in units if u[2] or d == ambients[0]])
             for d in ambients for s, m, x2, x4, units, _ in [_x_part(d, xa, xb)]]
    for y in ys:
        ya, yb = y
        for d, s, m, (x2a, x2b), (x4a, x4b), units in parts:
            # products (a + b w)(c + e w) = ac - m be + (ae + bc + s be) w
            y2a, y2b = ya * ya - m * yb * yb, 2 * ya * yb + s * yb * yb
            pa, pb = xa * ya - m * xb * yb, xa * yb + xb * ya + s * xb * yb  # xy
            ea, eb = x2a - y2a, x2b - y2b
            da, db = pa * ea - m * pb * eb, pa * eb + pb * ea + s * pb * eb  # den
            nsq = da * da + s * da * db + m * db * db
            if nsq == 0:
                continue
            ca, cb = da + s * db, -db  # conjugate of den
            # x^4 - 6 (xy)^2 + y^4
            na = x4a - 6 * (pa * pa - m * pb * pb) + y2a * y2a - m * y2b * y2b
            nb = x4b - 6 * (2 * pa * pb + s * pb * pb) + 2 * y2a * y2b + s * y2b * y2b
            for mu, ua, ub in units:
                ra, rb = na - ua, nb - ub
                ta, tb = ra * ca - m * rb * cb, ra * cb + rb * ca + s * rb * cb
                if ta % nsq == 0 and tb % nsq == 0:
                    sols.append(_checked_solution(d, (ta // nsq, tb // nsq), x, y, mu))
    return sols


def _checked_solution(d: int, t: tuple, x: tuple, y: tuple, mu: QuadInt) -> Solution:
    """A search hit as a Solution, after rechecking F_t(x, y) = mu monomial
    by monomial, on (a, b) pairs, rather than through the identity t was
    solved from."""
    s, m = ring(d)
    terms = [reduce(lambda u, v: _mul(s, m, u, v), factors) for factors in
             ((x, x, x, x), (t, x, x, x, y), (x, x, y, y), (t, x, y, y, y), (y, y, y, y))]
    value = tuple(sum(c * p[i] for c, p in zip((1, -1, -6, 1, 1), terms)) for i in (0, 1))
    if value != (mu.a, mu.b):
        raise ChainError(f"F_t(x, y) != mu at t={t}, x={x}, y={y} in d={d}")
    return Solution(d, QuadInt(d, *t), QuadInt(d, *x), QuadInt(d, *y), mu)


def t_value_set(solutions) -> set:
    """The +- closed set of t parameters occurring in a solution list."""
    out = set()
    for s in solutions:
        out.add((s.t.d, s.t.a, s.t.b))
        n = -s.t
        out.add((n.d, n.a, n.b))
    return out


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
    return _ball(_root_record(t, seed, target_radius, t_irrational))


def _root_record(t: GaussRat | None, seed: complex, target_radius: Rat,
                 t_irrational: QuadInt | None = None) -> tuple:
    """root_ball's record.  Newton steps at the parameter's midpoint and Newton-Kantorovich
    certificates over its ball, from one integer evaluation per iterate: it certifies the
    iterate, then takes the step from it.  The seed and every step are rounded to the nearest
    multiple of 2^-bits, bits = k + 64, where 2^-k is the largest power of two <= target_radius:
    the certificate holds for any x.  The seed is evaluated for its step only.  An irrational
    parameter comes as (None, t_irrational) from _t_exact, with sqrt(d) on the 2^-200 grid."""
    tp, tq = Fraction(target_radius).as_integer_ratio()
    bits = ((tq - 1) // tp).bit_length() + 64
    at = _coeffs_at(_record(*gauss_over(t.re, t.im), 0, 1) if t_irrational is None
                    else _embed(t_irrational, 200))
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
    return list(got[0])


@lru_cache(maxsize=64)
def _root_balls(t_complex, t_gauss, t_irrational, target_radius) -> tuple | str:
    """(balls, records): the set as ComplexBalls and as the certificates' records;
    or the TieError message of a tie, returned so that the cache keeps it."""
    try:
        recs = tuple(_root_record(t_gauss, s, target_radius, t_irrational)
                     for s in _root_seeds(t_complex))
    except TieError as exc:
        return str(exc)
    # pairwise disjointness makes the correspondence certified: ComplexBall's
    # lower end of |u - v|, on the integers, must be positive
    for (a, b, n, p, q, _), (c, e, m, p2, q2, _) in itertools.combinations(recs, 2):
        if (sqrt_grid((a * m - c * n) ** 2 + (b * m - e * n) ** 2, (n * m) ** 2)[0]
                <= -(-((p * q2 + p2 * q) << GRID_BITS) // (q * q2))):
            return "root enclosures overlap"
    return tuple(map(_ball, recs)), recs


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


def _dyadic_ball(ball: ComplexBall) -> tuple[tuple[int, int], int]:
    """(M, R) with the ball inside |z - M/2^MID_BITS| <= R/2^MID_BITS: M is the
    midpoint rounded to nearest (off by < 2^-MID_BITS), R >= radius 2^MID_BITS + 1."""
    M = tuple(_nearest(*x.as_integer_ratio(), MID_BITS) for x in (ball.re_mid, ball.im_mid))
    return M, -(-(ball.radius.numerator << MID_BITS) // ball.radius.denominator) + 1


def _shift_up(c: list, s: int, rounds: int, step: int) -> list:
    """c(X + s/2^MID_BITS) in place for integers c_j, s >= 0, each product rounded
    up and step added to it; after `rounds` rounds the coefficients below it are final."""
    for i in range(rounds):
        acc = c[-1]
        for j in range(len(c) - 2, i - 1, -1):
            acc = c[j] = c[j] - (-s * acc >> MID_BITS) + step
    return c


def _derivative_balls(r: int, A, B, alpha: ComplexBall) -> tuple[int, list]:
    """(den 2^W, balls): for k = 0..2r, integers (x, y, rad) over den 2^W with alpha A^(k)(alpha)
    - B^(k)(alpha) within rad of x + iy on the dyadic disc |alpha - m| <= rho.  With a_j, b_j
    the Taylor coefficients at m (each part within E_j, as the shift rounds down), e_j =
    m a_j - b_j and w_j = |e_j| + rho |a_j|, the value at m is k! e_k and the radius
    k! (T_k - |e_k|) for T = w(X + rho) rounded up, plus the midpoint's error."""
    den, n = math.lcm(A.den, B.den), max(A.degree(), B.degree(), 2 * r)
    (mr, mi), R = _dyadic_ball(alpha)  # m = M/2^MID_BITS, rho = R/2^MID_BITS
    ga, gb = ([[x * (den // p.den) << W for x in zpoly.pad(xs, n + 1)] for xs in p.num]
              for p in (A, B))
    for re, im in ga, gb:  # den p(X) 2^W, shifted to m with each product rounded down
        for i in range(n):
            a, b = re[n], im[n]
            for j in range(n - 1, i - 1, -1):
                a, b = re[j] + (mr * a - mi * b >> MID_BITS), im[j] + (mr * b + mi * a >> MID_BITS)
                re[j], im[j] = a, b
    mu = abs(mr) + abs(mi)  # m times an error of parts <= E has parts <= mu E/2^MID_BITS
    E = _shift_up([0] * (n + 1), mu, n, 1)  # so a step rounded down adds that, and 1
    (ar, ai), (br, bi), mids, w = ga, gb, [], []
    for j in range(n + 1):
        x = (mr * ar[j] - mi * ai[j] >> MID_BITS) - br[j]
        y = (mr * ai[j] + mi * ar[j] >> MID_BITS) - bi[j]
        ee = E[j] - (-mu * E[j] >> MID_BITS) + 1  # from m a_j's rounding, and from b_j
        abs_a = sqrt_grid((abs(ar[j]) + E[j]) ** 2 + (abs(ai[j]) + E[j]) ** 2, 1, 0)[1]
        abs_e = sqrt_grid((abs(x) + ee) ** 2 + (abs(y) + ee) ** 2, 1, 0)[1]
        mids.append((x, y, 2 * ee - abs_e))  # |error| <= 2 ee, less the |e_j| in T_j
        w.append(abs_e - (-R * abs_a >> MID_BITS))
    w = _shift_up(w, R, 2 * r + 1, 0)
    return den << W, [(f * x, f * y, f * (c + w[k])) for k, (x, y, c) in
                      enumerate(mids[:2 * r + 1]) for f in [math.factorial(k)]]


def divisibility_ball_check(r: int, t: GaussRat) -> dict:
    """Certify numerically that alpha*A_r - B_r vanishes to order 2r+1 at the small
    root alpha: the balls of _derivative_balls over a root ball, for the value and its
    first 2r X-derivatives, rounded up to the ball grid, must all contain zero."""
    from .series import thue_polys_at

    if r < 0:
        raise ValueError("r must be >= 0")
    tc = complex(float(t.re), float(t.im))
    alpha = root_ball(t, _root_seeds(tc)[0], Fraction(1, 1 << 120))
    scale, balls = _derivative_balls(r, *thue_polys_at(r, t), alpha)
    nums = [-(-(rad << GRID_BITS) // scale) for _, _, rad in balls]  # 2^GRID_BITS radius, up
    return {"order": 2 * r + 1,
            "all_contain_zero": all(x * x + y * y << 2 * GRID_BITS <= (num * scale) ** 2
                                    for (x, y, _), num in zip(balls, nums)),
            "max_radius": Fraction(max(nums), 1 << GRID_BITS)}


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
        bounds = [_beta_bounds(xs, ys, ab) for ab in got[1]]
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
