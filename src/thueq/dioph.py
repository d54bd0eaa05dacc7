"""Finite Diophantine computations for the quartic family
F_t(X,Y) = X^4 - tX^3Y - 6X^2Y^2 + tXY^3 + Y^4 over imaginary quadratic
integer rings: reducibility exceptions, the zero equation, trivial
solutions, the exhaustive small-solution search, and solution-type
classification via certified root enclosures."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import ComplexBall, Rat, sqrt_lower, sqrt_upper
from .quadfield import QuadInt, div_exact, enumerate_bounded, roots_of_unity
from .series import GaussRat, TPoly


class TieError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Solution:
    d: int
    t: QuadInt
    x: QuadInt
    y: QuadInt
    mu: QuadInt


def eval_form(t: QuadInt, x: QuadInt, y: QuadInt) -> QuadInt:
    return (x ** 4 - t * x ** 3 * y - 6 * (x * y) ** 2 + t * x * y ** 3 + y ** 4)


def orbit(x: QuadInt, y: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """The equivalence class of (x, y) under (x,y) -> (-y, x)."""
    out = [(x, y)]
    for _ in range(3):
        x, y = -y, x
        out.append((x, y))
    return out


def trivial_solutions(d: int, mu: QuadInt) -> list[Solution]:
    """Solution classes of the shape (xi, 0), one representative each."""
    units = roots_of_unity(d)
    if not any(u == mu for u in units):
        raise ValueError(f"{mu} is not a unit in d={d}")
    zero = QuadInt(d, 0, 0)
    out = []
    seen = set()
    for xi in units:
        if eval_form(zero, xi, zero) == mu:
            # one representative per +- pair
            key = frozenset([(xi.a, xi.b), ((-xi).a, (-xi).b)])
            if key not in seen:
                seen.add(key)
                out.append(Solution(d, zero, xi, zero, mu))
    return out


def irreducibility_exceptions() -> tuple[list[QuadInt], list[QuadInt]]:
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


def solve_zero(t: QuadInt) -> dict:
    """Solution set of F_t(X,Y) = 0: trivial only, except t = +-4i where a
    one-parameter family x = (+-i) y appears."""
    if t.d == 1 and t.a == 0 and t.b in (4, -4):
        root = QuadInt(1, 0, 1 if t.b == 4 else -1)
        return {"trivial_only": False, "family_root": root}
    return {"trivial_only": True, "family_root": None}


# ---------------------------------------------------------------------------
# small-solution search

Y_CASE2_MAX_SQ = 47  # |y| < 6.86  =>  |y|^2 <= 47


def _enum_by_field(bound: int) -> dict:
    """Normalized ring elements with |y| <= bound, grouped by field."""
    out: dict = {}
    for y in enumerate_bounded(bound, normalize=True):
        out.setdefault(0 if y.is_rational() else y.d, []).append(y)
    return out


_ENUM_CACHE: dict = {}
_SEARCH_CACHE: list | None = None


def small_solution_search(tmin_abs: Rat = Fraction(0)) -> list[Solution]:
    """All non-trivial solutions with min{|x|, |y|} < 3 and |t| >= tmin_abs,
    up to equivalence and the sign normalizations on x, y and t."""
    global _SEARCH_CACHE
    if _SEARCH_CACHE is None:
        _SEARCH_CACHE = _search_all()
    tmin_sq = Fraction(tmin_abs) ** 2
    return [s for s in _SEARCH_CACHE if s.t.abs_sq() >= tmin_sq]


def _search_all() -> list[Solution]:
    found = []
    # |x| < 3 means |x|^2 <= 8; the orbit symmetry lets us take |x| <= |y|
    xs = [x for x in enumerate_bounded(3, normalize=True) if x.abs_sq() < 9]
    for x in xs:
        xa4 = x.abs_sq() ** 2
        ybound_sq = max((1 + xa4) ** 2,
                        Y_CASE2_MAX_SQ if x.abs_sq() == 1 else 0)
        bound = 1 + math.isqrt(ybound_sq - 1)  # ceil(sqrt), ybound_sq >= 1
        if bound not in _ENUM_CACHE:
            _ENUM_CACHE[bound] = _enum_by_field(bound)
        groups = _ENUM_CACHE[bound]
        if x.is_rational():
            fields = sorted(groups)
        else:
            fields = [0, x.d] if x.d in groups else [0]
        for dy in fields:
            for y in groups[dy]:
                if y.abs_sq() > ybound_sq:
                    continue
                found.extend(_solve_for_t(x, y))
    found.sort(key=lambda s: (s.d, s.t.abs_sq(), s.t.b, s.t.a,
                              s.x.abs_sq(), s.y.abs_sq()))
    return found


def _solve_for_t(x: QuadInt, y: QuadInt) -> list[Solution]:
    both_rational = x.is_rational() and y.is_rational()
    if both_rational:
        ambients = [1, 3]  # units i and zeta_6 can still make t integral
    else:
        ambients = [x.d if not x.is_rational() else y.d]
    sols = []
    for d in ambients:
        xl = QuadInt(d, x.a, x.b) if x.is_rational() else x
        yl = QuadInt(d, y.a, y.b) if y.is_rational() else y
        x2, y2, xy = xl * xl, yl * yl, xl * yl
        den = xy * (x2 - y2)
        nsq = den.abs_sq()
        if nsq == 0:
            continue
        dc = den.conj()
        num0 = x2 * x2 - 6 * xy * xy + y2 * y2
        for mu in roots_of_unity(d):
            if both_rational and d == 3 and mu.is_rational():
                continue  # +-1 already handled in the d = 1 pass
            p = (num0 - mu) * dc
            if p.a % nsq or p.b % nsq:
                continue
            t = QuadInt(d, p.a // nsq, p.b // nsq)
            # t is exact, so F_t(x, y) = mu holds identically; recheck cheaply
            if eval_form(t, xl, yl) != mu:
                raise ArithmeticError(f"F_t(x, y) != mu at t={t}, x={xl}, y={yl}")
            sols.append(Solution(d, t, xl, yl, mu))
    return sols


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


def _embed(x: QuadInt) -> ComplexBall:
    """Complex embedding with Im(sqrt(-d)) > 0, certified enclosure."""
    re, im_coeff = x.re_im()
    if im_coeff == 0:
        return ComplexBall.exact(re)
    lo = sqrt_lower(Fraction(x.d))
    hi = sqrt_upper(Fraction(x.d))
    mid = (lo + hi) / 2
    return ComplexBall(re, im_coeff * mid, abs(im_coeff) * (hi - lo))


def _f_poly(t: ComplexBall) -> list[ComplexBall]:
    one = ComplexBall.exact(Fraction(1))
    return [one, t, ComplexBall.exact(Fraction(-6)), -t, one]
    # ascending: 1 + tX - 6X^2 - tX^3 + X^4


def _poly_eval(coeffs: list[ComplexBall], z: ComplexBall) -> ComplexBall:
    acc = ComplexBall.exact(Fraction(0))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def root_ball(t: GaussRat, seed: complex, target_radius: Rat,
              extra_sqrt=None) -> ComplexBall:
    """Certified enclosure of the root of f_t nearest the float seed.

    Newton iteration in exact rational complex arithmetic (denominators
    pruned), followed by a Newton-Kantorovich radius certificate.  When the
    parameter itself is irrational (t = g + h*sqrt(d)), pass extra_sqrt =
    (d, g, h) with rational g, h and the iteration uses a ball for t.
    """
    target_radius = Fraction(target_radius)
    if extra_sqrt is None:
        t_ball = ComplexBall.exact(t.re, t.im)
        t_exact = t
    else:
        d, g, h = extra_sqrt
        lo, hi = sqrt_lower(Fraction(d), 200), sqrt_upper(Fraction(d), 200)
        t_ball = ComplexBall(g.re + h.re * (lo + hi) / 2,
                             g.im + h.im * (lo + hi) / 2,
                             (abs(h.re) + abs(h.im)) * (hi - lo))
        t_exact = None
    x = _approx_gauss(seed)
    cap = 1 << 2400
    for _ in range(14):
        if t_exact is not None:
            fx = _gauss_f(t_exact, x)
            dfx = _gauss_df(t_exact, x)
            if not dfx:
                break
            x = x - fx / dfx
            x = GaussRat(_limit(x.re, cap), _limit(x.im, cap))
        else:
            xb = ComplexBall.exact(x.re, x.im)
            fb = _poly_eval(_f_poly(t_ball), xb)
            db = _poly_eval(_df_poly(t_ball), xb)
            step = fb / db
            x = GaussRat(_limit(x.re - step.re_mid, cap),
                         _limit(x.im - step.im_mid, cap))
        ball = _certify_root(t_ball, x)
        if ball is not None and ball.radius <= target_radius:
            return ball
    raise TieError("root enclosure did not reach the requested radius")


def _df_poly(t: ComplexBall) -> list[ComplexBall]:
    four = ComplexBall.exact(Fraction(4))
    three = ComplexBall.exact(Fraction(3))
    twelve = ComplexBall.exact(Fraction(-12))
    return [t, twelve, -three * t, four]
    # f' = t - 12X - 3tX^2 + 4X^3


def _gauss_f(t: GaussRat, x: GaussRat) -> GaussRat:
    x2 = x * x
    return x2 * x2 - t * x2 * x - 6 * x2 + t * x + 1


def _gauss_df(t: GaussRat, x: GaussRat) -> GaussRat:
    return 4 * x * x * x - 3 * t * x * x - 12 * x + t


def _approx_gauss(z: complex, cap: int = 1 << 200) -> GaussRat:
    return GaussRat(Fraction(z.real).limit_denominator(cap),
                    Fraction(z.imag).limit_denominator(cap))


def _limit(q: Fraction, cap: int) -> Fraction:
    return q if q.denominator <= cap else q.limit_denominator(cap)


def _certify_root(t_ball: ComplexBall, x: GaussRat) -> ComplexBall | None:
    """Newton-Kantorovich: a simple root lies within 2|f(x)/f'(x)| of x."""
    xb = ComplexBall.exact(x.re, x.im)
    f = _poly_eval(_f_poly(t_ball), xb)
    df = _poly_eval(_df_poly(t_ball), xb)
    df_lo, _ = df.abs_bounds()
    if df_lo <= 0:
        return None
    eta = f.abs_upper() / df_lo
    # |f''| on the disc of radius 2*eta: f'' = -12 - 6tX + 12X^2
    xr = xb.abs_upper() + 2 * eta
    m2 = 12 + 6 * t_ball.abs_upper() * xr + 12 * xr * xr
    if 2 * eta * m2 > df_lo:  # h = eta * m2 / |f'| must be < 1/2
        return None
    return ComplexBall(x.re, x.im, 2 * eta)


def all_root_balls(t_complex: complex, t_gauss, extra_sqrt,
                   target_radius: Rat) -> list[ComplexBall]:
    """The four roots of f_t, ordered by the cyclic structure starting from
    the root of smallest modulus: alpha0, alpha1 (near -1), alpha2 (large),
    alpha3 (near 1)."""
    seeds = _root_seeds(t_complex)
    balls = [root_ball(t_gauss, s, target_radius, extra_sqrt) for s in seeds]
    # pairwise disjointness makes the correspondence certified
    for i in range(4):
        for j in range(i + 1, 4):
            diff = balls[i] - balls[j]
            if diff.abs_bounds()[0] <= 0:
                raise TieError("root enclosures overlap")
    return balls


def _root_seeds(t: complex) -> list[complex]:
    """Float seeds: crude Durand-Kerner on f_t, then ordered as
    (smallest, near -1, large, near 1)."""
    import cmath
    coeffs = [1.0, -t, -6.0, t, 1.0]  # descending in X

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


def divisibility_ball_check(r: int, t: GaussRat) -> dict:
    """Certify numerically that alpha*A_r - B_r vanishes to order 2r+1 at
    the small root alpha: the value and its first 2r X-derivatives are
    evaluated on a tight root enclosure and must all contain zero."""
    from .series import thue_polys_at

    tc = complex(float(t.re), float(t.im))
    alpha = root_ball(t, _root_seeds(tc)[0], Fraction(1, 1 << 120))
    A, B = thue_polys_at(r, t)
    max_radius = Fraction(0)
    contains = True
    for _ in range(2 * r + 1):
        val = alpha * A.eval_ball(alpha) - B.eval_ball(alpha)
        contains = contains and val.contains_zero()
        max_radius = max(max_radius, val.radius)
        A, B = A.deriv(), B.deriv()
    return {"order": 2 * r + 1, "all_contain_zero": contains,
            "max_radius": max_radius}


def classify_type(t: QuadInt, x: QuadInt, y: QuadInt) -> int:
    """Index j minimizing |x - alpha_j y| with certified strictness."""
    if x.abs_sq() == 0 and y.abs_sq() == 0:
        raise ValueError("(0, 0) has no type")
    tc = _t_complex(t)
    t_gauss, extra = _t_exact(t)
    xb, yb = _embed(x), _embed(y)
    for bits in (64, 128, 256):
        radius = Fraction(1, 1 << bits)
        try:
            roots = all_root_balls(tc, t_gauss, extra, radius)
        except TieError:
            continue
        bounds = []
        for ab in roots:
            beta = xb - ab * yb
            bounds.append(beta.abs_bounds())
        order = sorted(range(4), key=lambda i: bounds[i][1])
        best = order[0]
        if all(bounds[best][1] < bounds[j][0] for j in order[1:]):
            return best
    raise TieError(f"no strict minimal root distance for t={t}, x={x}, y={y}")


def _t_complex(t: QuadInt) -> complex:
    re, im = t.re_im()
    return complex(float(re), float(im) * math.sqrt(t.d))


def _t_exact(t: QuadInt):
    re, im = t.re_im()
    if im == 0:
        return GaussRat(re, Fraction(0)), None
    if t.d == 1:
        return GaussRat(re, im), None
    return None, (t.d, GaussRat(re, Fraction(0)), GaussRat(Fraction(0), im))
