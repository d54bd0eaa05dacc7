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
# 64 bits of t
LN_GRID_BITS, EPS_CUT_BITS = 28, 64
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


def _eps_gate_fn(eps: Rat):
    """The three gates at one eps as integer comparisons on a grid value g:
    (ok_i, ok_ii, ok_iii, detail_iii) for every |t| with g <= 2^28 ln|t|.
    ln c lies in [f, f + 1) / 2^28 for the grid floor f of each constant, and
    as kappa falls while ln|t| grows, kappa <= (l + 1.08)/(l - 2.59) at
    l = g / 2^28 > 2.59.  Each gate is monotone in g."""
    ln4_hi, threshold, cubic, contra, c2 = _log_constants()["gates"]
    big, p, q = 1 << LN_GRID_BITS, eps.numerator, eps.denominator
    # (i) type threshold: ln 4 + (1-eps) ln 20.14 <= l, times q 2^28
    type_log = q * ln4_hi + (q - p) * threshold
    # (ii) cubic-term absorption: ln 8.86 <= ln 0.33 + (1/2 + eps/4) l, times 4 q 2^28
    cubic_log = 4 * q * cubic
    # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa)) < (t^(2-eps)/4)^(1/4)
    #       as ln_b < (1 + eps - kappa) ((2-eps) l - ln 4) / 4, with q 2^28 ln_b <= b
    b = q * contra - (2 * q - p) * c2
    (nn, nd), (dn, dd) = (c.as_integer_ratio() for c in (exactnum.KAPPA_NUM_SHIFT,
                                                        exactnum.KAPPA_DEN_SHIFT))

    def gates(g: int) -> tuple:
        oks = (type_log <= q * g, cubic_log <= (2 * q + p) * g)
        kd = nd * (dd * g - dn * big)  # kappa <= kn / kd
        if kd <= 0:
            return (*oks, False, "kappa undefined")
        gap = (q + p) * kd - q * dd * (nd * g + nn * big)  # 1 + eps - kappa >= gap / (q kd)
        if gap <= 0:
            return (*oks, False, "1 + eps - kappa not positive")
        return (*oks, 4 * q * b * kd < gap * ((2 * q - p) * g - q * ln4_hi),
                "log comparison with kappa upper end")

    return gates


def _g_seed(eps: Fraction, g_lo: int) -> int:
    """The least g > g_lo at which the three gates of _eps_gate_fn hold, solved in floats:
    the largest of the gates' own least g, one or two off the exact g* that _least then
    finds from it.  g_lo + 1 on a float overflow or when gate (iii) has no real root."""
    ln4, threshold, cubic, contra, c2 = _log_constants()["gates"]
    big = 1 << LN_GRID_BITS
    try:
        e = float(eps)
        g_i = ln4 + (1 - e) * threshold
        g_ii = 4 * cubic / (2 + e)
        # (iii) divided by q^2 nd dd, with D = 2.59 2^28 and M = (1 + eps) D + 1.08 2^28:
        # 4 (b / q) (g - D) < (eps g - M) ((2 - eps) g - ln4), a quadratic in g
        bq = contra - (2 - e) * c2
        d = float(exactnum.KAPPA_DEN_SHIFT) * big
        m = (1 + e) * d + float(exactnum.KAPPA_NUM_SHIFT) * big
        a2, a1, a0 = e * (2 - e), -(e * ln4 + (2 - e) * m + 4 * bq), m * ln4 + 4 * bq * d
        disc = a1 * a1 - 4 * a2 * a0
        if disc < 0:
            return g_lo + 1
        g_iii = (math.sqrt(disc) - a1) / (2 * a2)  # the larger root, as a1 < 0
        return max(g_lo + 1, math.ceil(g_i), math.ceil(g_ii), math.floor(g_iii) + 1)
    except (OverflowError, ZeroDivisionError):
        return g_lo + 1


# the gate texts that read no eps: rendered once per process
_TYPE_TEXT = f"4 * {sig_str(descent.TYPE_THRESHOLD, 7)}^(1-eps) <= |t|"
_CUBIC_TEXT = f"{sig_str(descent.BETA_COEFF, 7)} / |t|^(1/2 + eps/4) <= {sig_str(CUBIC_ABSORB, 7)}"


def _gate_results(oks: tuple) -> tuple[GateResult, ...]:
    return (GateResult("type threshold", oks[0], _TYPE_TEXT),
            GateResult("cubic absorption", oks[1], _CUBIC_TEXT),
            GateResult("measure contradiction", oks[2], oks[3]))


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
    """The three threshold conditions at modulus t, decided at L(t)."""
    return list(_gate_results(_eps_gate_fn(F(eps))(_ln_grid(t))))


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


@lru_cache(maxsize=8)
def _ln2_floor(bits: int) -> int:
    """floor(2^bits ln 2), on the grid of a _NearLn enclosure."""
    return ln_floor(2, bits)


class _NearLn:
    """L(c) for cut values c near one cut value t, from one LnArg enclosure of ln t,
    [lo, hi] / 2^bits of width 2^-72: ln c = ln t + ln(1 + x), x = (c - t)/t, and
    x - x^2 <= ln(1 + x) <= x for |x| <= 1/2.  ln_floor decides c when |x| > 1/2 or
    the enclosure leaves its floor open; "reads" counts the log enclosures read."""

    __slots__ = ("t", "lo", "hi", "bits", "reads")

    def __init__(self, t: int):
        self.t, self.reads = t, 1
        self.lo, self.hi, self.bits = exactnum.LnArg(t)._grid(1, 1 << 72)

    def grid(self, c: int, k: int = 0) -> int:
        """floor(2^28 ln(2^k c')) = L(2^k c) for an integer c >= 1 and k in {0, 1}, c' = _cut(c):
        2^k c' is a cut value too, and ln 2 is read as its floor on the enclosure's grid."""
        t, c = self.t, _cut(c)
        s = max(0, min(c.bit_length(), t.bit_length()) - EPS_CUT_BITS)
        a, m = (c - t) >> s, t >> s  # x = a / m, c and t are multiples of 2^s
        if 2 * abs(a) <= m:
            # 2^bits m^2 ln(2^k c) lies in [lo_c, hi_c]
            bits, m2 = self.bits, m * m
            lo_c, hi_c = self.lo * m2 + (a * m - a * a << bits), self.hi * m2 + (a * m << bits)
            if k:  # ln 2 lies in (l2, l2 + 1) / 2^bits
                l2 = _ln2_floor(bits)
                lo_c, hi_c = lo_c + l2 * m2, hi_c + (l2 + 1) * m2
            unit = m2 << bits - LN_GRID_BITS
            if (f := lo_c // unit) == hi_c // unit:
                return f
        self.reads += 1
        return ln_floor(c << k, LN_GRID_BITS)


def corollary_eps(eps: Rat) -> dict:
    """The least threshold t0 for |F_t| <= |t|^(2-eps) that the gates
    certify: they fail at t0 - 1 and hold at every t >= t0, as they are
    monotone in L(t), and L(t) in t.  Every eps in (0, 1) has one, as kappa
    falls to 1 like 3.67 / ln t.  First the least passing grid value g*, above
    the floor that gate (iii) sets, from the gates' float solution (_g_seed),
    then the least cut value t0 with L(t0) >= g*, from one enclosure of ln t
    at a float seed t (_NearLn): one Newton step from its lower end lands next
    to t0, and L at t0, at the cut values the search reads and at 2 t0 follow
    from it, each floor by integer comparisons; "evaluations" counts the log
    enclosures read.  A t0 of more than MAX_DIGITS digits raises
    OutputLimitError before it is built, and before the g search when that
    floor is past it."""
    eps = F(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    gates_at = _eps_gate_fn(eps)
    # gate (iii) fails while gap <= 0, and for eps = p/q, 1.08 = nn/nd and 2.59 = dn/dd, gap =
    # p nd dd g - ((q + p) nd dn + q dd nn) 2^28 rises with g: the least passing g is > g_lo
    (p, q), (nn, nd), (dn, dd) = (c.as_integer_ratio() for c in (
        eps, exactnum.KAPPA_NUM_SHIFT, exactnum.KAPPA_DEN_SHIFT))
    g_lo = ((q + p) * nd * dn + q * dd * nn << LN_GRID_BITS) // (p * nd * dd)
    # t0 >= e^(g / 2^28) has more than MAX_DIGITS digits once g / 2^28 >= MAX_DIGITS ln 10
    limit = MAX_DIGITS * (_log_constants()[F(10)] + 1)
    if g_lo >= limit or (g := _least(lambda g: all(gates_at(g)[:3]),
                                      _g_seed(eps, g_lo))) >= limit:
        raise OutputLimitError(f"t0 for eps = {exactnum._side(eps)} has more than "
                               f"{MAX_DIGITS:,} digits")
    y = g / ((1 << LN_GRID_BITS) * math.log(2))  # log2 of t0, about
    s = max(0, int(y) - EPS_CUT_BITS + 1)
    near = _NearLn(max(1, _cut(int(2 ** (y - s)) << s)))
    # one Newton step on ln t = g / 2^28 lands next to t0
    t, bits = near.t, near.bits
    t = max(1, _cut(t + (t * ((g << bits - LN_GRID_BITS) - near.lo) >> bits)))
    t0 = _least(lambda c: near.grid(c) >= g, t, 1 << s, _cut)
    return {"t0": F(t0), "gates": _gate_results(gates_at(near.grid(t0))),
            "gates_at_double": _gate_results(gates_at(near.grid(t0, 1))),
            "evaluations": near.reads}
