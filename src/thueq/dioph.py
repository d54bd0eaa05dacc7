"""Finite Diophantine computations for the quartic family
F_t(X,Y) = X^4 - tX^3Y - 6X^2Y^2 + tXY^3 + Y^4 over imaginary quadratic
integer rings: reducibility exceptions, the zero equation, trivial
solutions and the exhaustive small-solution search.  Solution-type
classification via certified root enclosures is in ``concrete``; the names of
it that callers still read here resolve on first access (``__getattr__``)."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, reduce

from . import _forward
from .exactnum import ChainError, Rat
from .quadfield import (QuadInt, eligible_fields, enumerate_bounded, norm, pairs_with_norm_in,
                        ring, roots_of_unity)


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


# the names of ``concrete`` that callers still read from this module
__getattr__ = _forward(globals(), "concrete", ("classify_type", "all_root_balls", "root_ball",
                                               "divisibility_ball_check", "_t_exact",
                                               "_root_seeds", "TieError"))
