"""The two corollary calculators for the weighted inequalities |F_t| <= C|t|
and |F_t| <= |t|^(2-eps): thresholds t0 and solution bounds, resting on both
measure chains.  ``thueq verify-all`` imports none of it."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import descent, exactnum
from .exactnum import (MAX_DIGITS, TMIN_FLOOR, OutputLimitError, Rat, iroot, lines, ln_floor,
                       round_up_sig, sig_str)
from .measure import C_COEFF, CONTRADICTION_COEFF, GateResult, kappa_hi, measure_constants

F = Fraction

C2_DIVISOR = F("0.31")    # 443 >= 8.86 * 15.48 / 0.31; base 137.16 / 0.31^(2-eps)
CUBIC_ABSORB = F("0.33")  # 8.86 / |t|^(1/2 + eps/4) <= 0.33
# the corollary-eps gates read logs on the 2^-28 grid, and ln t of the top
# 64 bits of t; gate (iii)'s threshold is seeded from the top 128 bits of eps
LN_GRID_BITS, EPS_CUT_BITS, EPS_SEED_BITS = 28, 64, 128
POW_ROOT_BITS = 80  # rat_pow_upper rounds its root up onto the 2^-80 grid


# ---------------------------------------------------------------------------
# certified rational powers

def rat_pow_upper(x: Rat, e: Rat) -> Rat:
    """Rational upper bound for x**e, x > 0, e >= 0."""
    x, e = F(x), F(e)
    if x <= 0 or e < 0:
        raise ValueError("need x > 0 and e >= 0")
    n, rem = divmod(e.numerator, e.denominator)
    out = x ** n
    if rem:
        p, q = rem, e.denominator
        scale = 1 << POW_ROOT_BITS
        num = x ** p
        target = -((-num.numerator * scale ** q) // num.denominator)
        out *= F(iroot(target - 1, q) + 1, scale)
    return out


# ---------------------------------------------------------------------------
# corollary calculators

LIN_T0_FLOOR = 524  # kappa < 2 iff ln t > 2 * 2.59 + 1.08 = 6.26: kappa(523) ~ 2.0001
LIN_COEFF = F(443)


@lru_cache(maxsize=None)
def _log_constants() -> dict:
    """Run once per process: floor(2^LN_GRID_BITS ln c) for each constant c
    the corollary-eps gates use, and for 10, which bounds the digits of a
    threshold; under "gates", the grid ends the gates read per query; under
    "lin", the margin of corollary-lin's line on 443, which reads neither C
    nor t0.  The corollaries rest on both measure chains (c = 15.48 through
    137.16, and the Lettl bounds behind kappa), so these run first, at
    |t| = TMIN_FLOOR: every corollary threshold lies above it, and the chains
    are monotone in |t|.  A failure raises, and is not cached."""
    measure_constants(0, TMIN_FLOOR)
    measure_constants(3, TMIN_FLOOR)
    (line,) = lines(  # 443 C > (8.86 * 15.48 / 0.31) C, exactly, whatever C and t0
        ("lin coefficient 443", descent.BETA_COEFF * C_COEFF[3] / C2_DIVISOR, LIN_COEFF, "<"))
    ln = {c: ln_floor(c, LN_GRID_BITS) for c in (F(4), descent.TYPE_THRESHOLD,
          descent.BETA_COEFF, CUBIC_ABSORB, C2_DIVISOR, CONTRADICTION_COEFF, F(10))}
    # the upper ends of ln 4, ln 20.14, ln 8.86 - ln 0.33 and ln 137.16, the lower one of ln 0.31
    return ln | {"lin": line, "gates": (
        ln[F(4)] + 1, ln[descent.TYPE_THRESHOLD] + 1, ln[descent.BETA_COEFF] + 1 - ln[CUBIC_ABSORB],
        ln[CONTRADICTION_COEFF] + 1, ln[C2_DIVISOR])}


def corollary_lin(C: Rat, t0: Rat | None = None) -> dict:
    """Solution bound package for |F_t| <= C|t|: a threshold t0 with
    kappa(t0) < 2 and the size bound C0 outside the (x, +-x) family."""
    C = F(C)
    if C <= 0:
        raise ValueError("C must be positive")
    (_, consistency) = _log_constants()["lin"]
    t0 = F(LIN_T0_FLOOR if t0 is None else t0)
    if t0 < LIN_T0_FLOOR:
        raise ValueError("user t0 must be at least 524 with kappa(t0) < 2")
    lines(("kappa below 2 at t0", kappa_hi(t0), 2, "<"))
    term1 = rat_pow_upper(descent.TYPE_THRESHOLD * C, F(1, 4))
    term2 = 3 * rat_pow_upper(C, F(1, 3))
    kc = round_up_sig(kappa_hi(t0), 5)  # four decimals, as 1 < kappa(t0) < 2
    if LIN_COEFF * C >= 1:
        n_up = -((-1) // (2 - kc))  # ceil of 1/(2 - kappa), integer exponent
        term3 = exactnum.pow_up_sig(LIN_COEFF * C, n_up)
    else:
        term3 = F(1)  # |y| < 1 forces y = 0; any positive bound works
    return {
        "t0": t0,
        "C0": max(term1, term2, term3),
        "consistency_margin": consistency,
        "terms": (term1, term2, term3),
        "exceptional_family_coeff": rat_pow_upper(C / 4, F(1, 4)),
    }


def _eps_thresholds(eps: Fraction, limit: float = math.inf) -> tuple:
    """(g_kd, g_lo, g_i, g_ii, g_iii): the least grid values g at which the parts of the three
    gates at one eps hold, for every |t| with g <= 2^28 ln|t|; g_iii, which only a g >= g_lo
    reads, is None and not sought once g_lo >= limit.  ln c lies in [f, f + 1) / 2^28 for the
    grid floor f of each constant, and as kappa falls while ln|t| grows, kappa <= kn / kd =
    (l + 1.08)/(l - 2.59) at l = g / 2^28 once kd > 0 (g_kd), and 1 + eps - kappa >= gap /
    (q kd) > 0 from g_lo on.  Gates (i) and (ii) are linear in g.  From g_lo on, gate (iii)
    compares ln_b / (1 + eps - kappa), which falls (ln_b > 0), with ((2 - eps) l - ln 4) / 4,
    which rises: _least finds g_iii from the larger root of its quadratic in g, solved on eps
    cut to its top EPS_SEED_BITS bits."""
    ln4_hi, threshold, cubic, contra, c2 = _log_constants()["gates"]
    big = 1 << LN_GRID_BITS
    (p, q), (nn, nd), (dn, dd) = (c.as_integer_ratio() for c in (
        eps, exactnum.KAPPA_NUM_SHIFT, exactnum.KAPPA_DEN_SHIFT))

    def gap(p: int, q: int) -> tuple:  # (u, v): gap = u g - v at eps = p / q
        return p * nd * dd, ((q + p) * nd * dn + q * dd * nn) * big

    def quadratic(p: int, q: int) -> tuple:
        # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa)) < (t^(2-eps)/4)^(1/4)
        #       as ln_b < (1 + eps - kappa) ((2-eps) l - ln 4) / 4, with q 2^28 ln_b <= lb:
        #       4 q lb kd = w (dd g - dn 2^28) < gap ((2q - p) g - q ln 4), gap = u g - v,
        #       that is a g^2 - b g + c > 0 at eps = p / q, false at gap = 0: two real roots
        (u, v), r = gap(p, q), 2 * q - p
        w = 4 * q * nd * (q * contra - r * c2)  # lb = q contra - r c2
        return u * r, u * q * ln4_hi + v * r + w * dd, v * q * ln4_hi + w * dn * big

    (u, v), g_iii = gap(p, q), None
    if (g_lo := v // u + 1) < limit:
        a, b, c = quadratic(p, q)
        s = max(0, p.bit_length() - EPS_SEED_BITS)
        sa, sb, sc = quadratic(p >> s, q >> s) if s else (a, b, c)
        seed = (math.isqrt(sb * sb - 4 * sa * sc) + sb) // (2 * sa) + 1
        g_iii = _least(lambda g: g >= g_lo and (a * g - b) * g + c > 0, seed)
    # (i) type threshold: ln 4 + (1-eps) ln 20.14 <= l, times q 2^28
    # (ii) cubic-term absorption: ln 8.86 <= ln 0.33 + (1/2 + eps/4) l, times 4 q 2^28
    return ((dn << LN_GRID_BITS) // dd + 1, g_lo, -(-(q * ln4_hi + (q - p) * threshold) // q),
            -(-4 * q * cubic // (2 * q + p)), g_iii)


# the gate texts that read no eps: rendered once per process
_TYPE_TEXT = f"4 * {sig_str(descent.TYPE_THRESHOLD, 7)}^(1-eps) <= |t|"
_CUBIC_TEXT = f"{sig_str(descent.BETA_COEFF, 7)} / |t|^(1/2 + eps/4) <= {sig_str(CUBIC_ABSORB, 7)}"


def _gate_results(ths: tuple, g: int) -> tuple[GateResult, ...]:
    """The three gates at grid value g, as comparisons with the thresholds of _eps_thresholds."""
    g_kd, g_lo, g_i, g_ii, g_iii = ths
    iii = ((False, "kappa undefined") if g < g_kd else (False, "1 + eps - kappa not positive")
           if g < g_lo else (g >= g_iii, "log comparison with kappa upper end"))
    return (GateResult("type threshold", g >= g_i, _TYPE_TEXT),
            GateResult("cubic absorption", g >= g_ii, _CUBIC_TEXT),
            GateResult("measure contradiction", *iii))


def _cut(t: int) -> int:
    """t with all but its top EPS_CUT_BITS bits cleared."""
    s = max(0, t.bit_length() - EPS_CUT_BITS)
    return t >> s << s


def _ln_grid(t: Rat) -> int:
    """L(t) = floor(2^28 ln t'), t' = _cut(floor(t)): a lower bound for
    2^28 ln t that never falls as t grows, and reads only the top 64 bits of
    t, so that deciding it at t0 - 1 needs no more precision than at t0."""
    return ln_floor(_cut(math.floor(t)), LN_GRID_BITS)


def _eps_gates(t: Rat, eps: Rat) -> list[GateResult]:
    """The three threshold conditions at modulus t, decided at L(t) (g_iii only if read)."""
    return list(_gate_results(_eps_thresholds(F(eps), (g := _ln_grid(t)) + 1), g))


def _least(holds, t: int, step: int = 1, cut=int) -> int:
    """The least value v >= 1 of cut where holds, monotone and false at 1, is
    true: doubling steps from t until holds changes, then bisection until the
    midpoint of lo (false) and hi (true) cuts to lo, as no value lies between."""
    lo, hi = (None, t) if holds(t) else (t, None)
    while lo is None or hi is None:
        t = cut(lo + step) if hi is None else cut(max(1, hi - step))
        lo, hi = (lo, t) if holds(t) else (t, hi)
        step *= 2
    while (mid := cut((lo + hi) // 2)) != lo:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


# _NearLn encloses ln t to width 1 / NEAR_WIDTH, on the 2^-NEAR_BITS grid that
# LnArg._grid rounds such an enclosure onto, 8 bits past the width's
NEAR_WIDTH = 1 << 72
NEAR_BITS = NEAR_WIDTH.bit_length() + 8
LN2_FLOOR = ln_floor(2, NEAR_BITS)  # floor(2^NEAR_BITS ln 2), read once per process


class _NearLn:
    """L(c) for cut values c near one cut value t, from one LnArg enclosure of ln t,
    [lo, hi] / 2^NEAR_BITS of width 2^-72: ln c = ln t + ln(1 + x), x = (c - t)/t, and
    x - x^2 <= ln(1 + x) <= x for |x| <= 1/2.  ln_floor decides c when |x| > 1/2 or
    the enclosure leaves its floor open; "reads" counts the log enclosures read."""

    __slots__ = ("t", "lo", "hi", "reads")

    def __init__(self, t: int):
        self.t, self.reads = t, 1
        self.lo, self.hi, _ = exactnum.LnArg(t)._grid(1, NEAR_WIDTH)

    def grid(self, c: int, k: int = 0) -> int:
        """floor(2^28 ln(2^k c')) = L(2^k c) for an integer c >= 1 and k in {0, 1}, c' = _cut(c):
        2^k c' is a cut value too, and ln 2 is read as its floor on the enclosure's grid."""
        t, c = self.t, _cut(c)
        s = max(0, min(c.bit_length(), t.bit_length()) - EPS_CUT_BITS)
        a, m = (c - t) >> s, t >> s  # x = a / m, c and t are multiples of 2^s
        if 2 * abs(a) <= m:
            # 2^NEAR_BITS m^2 ln(2^k c) lies in [lo_c, hi_c]
            m2 = m * m
            lo_c = self.lo * m2 + (a * m - a * a << NEAR_BITS)
            hi_c = self.hi * m2 + (a * m << NEAR_BITS)
            if k:  # ln 2 lies in (LN2_FLOOR, LN2_FLOOR + 1) / 2^NEAR_BITS
                lo_c, hi_c = lo_c + LN2_FLOOR * m2, hi_c + (LN2_FLOOR + 1) * m2
            unit = m2 << NEAR_BITS - LN_GRID_BITS
            if (f := lo_c // unit) == hi_c // unit:
                return f
        self.reads += 1
        return ln_floor(c << k, LN_GRID_BITS)


def corollary_eps(eps: Rat) -> dict:
    """The least threshold t0 for |F_t| <= |t|^(2-eps) that the gates
    certify: they fail at t0 - 1 and hold at every t >= t0, as they are
    monotone in L(t), and L(t) in t.  Every eps in (0, 1) has one, as kappa
    falls to 1 like 3.67 / ln t.  First the least passing grid value g*, the
    largest of the gates' thresholds (_eps_thresholds), then the least cut
    value t0 with L(t0) >= g*, from one enclosure of ln t at a float seed t
    (_NearLn): one Newton step from its lower end lands next to t0, and L at
    t0, at the cut values the search reads and at 2 t0 follow from it, each
    floor by integer comparisons; "evaluations" counts the log enclosures
    read.  A t0 of more than MAX_DIGITS digits raises OutputLimitError before
    it is built, and before gate (iii)'s threshold is sought when g_lo, the
    floor below it, is past it."""
    eps = F(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    # t0 >= e^(g / 2^28) has more than MAX_DIGITS digits once g / 2^28 >= MAX_DIGITS ln 10
    limit = MAX_DIGITS * (_log_constants()[F(10)] + 1)
    if (ths := _eps_thresholds(eps, limit))[4] is None or (g := max(ths[2:])) >= limit:
        raise OutputLimitError(f"t0 for eps = {exactnum._side(eps)} has more than "
                               f"{MAX_DIGITS:,} digits")
    y = g / ((1 << LN_GRID_BITS) * math.log(2))  # log2 of t0, about
    s = max(0, int(y) - EPS_CUT_BITS + 1)
    near = _NearLn(t := max(1, _cut(int(2 ** (y - s)) << s)))
    # one Newton step on ln t = g / 2^28 lands next to t0
    t = max(1, _cut(t + (t * ((g << NEAR_BITS - LN_GRID_BITS) - near.lo) >> NEAR_BITS)))
    t0 = _least(lambda c: near.grid(c) >= g, t, 1 << s, _cut)
    return {"t0": F(t0), "gates": _gate_results(ths, near.grid(t0)),
            "gates_at_double": _gate_results(ths, near.grid(t0, 1)),
            "evaluations": near.reads}
