"""Irrationality-measure constants, the final contradiction argument, and
the two corollary calculators for the weighted inequalities.

Every published constant is re-derived as a chain of named one-line
inequalities over exact rationals.  Each line is evaluated once at the
minimal parameter modulus tmin; all majorants are monotone in |t|, so a
check at tmin certifies the whole range |t| >= tmin.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import descent, exactnum
from .exactnum import (MAX_DIGITS, TMIN_FLOOR, ChainError, OutputLimitError, Rat, floor_line,
                       iroot, kappa, lines, ln_enclosure, ln_floor, round_up_sig, sig_str)
from .hyperchi import LETTL_E_BASE, LETTL_K0, LETTL_L0, LETTL_Q_BASE
from .rouche import ALPHA0_RADIUS, ALPHA2_RADIUS, ALPHA13_RADIUS, require, root_separation

F = Fraction

KAPPA_WIDTH = F(1, 10 ** 7)
RMAX = 60  # the Lettl growth bounds are checked for 1 <= r <= RMAX

# The published constants of the measure chains, each certified at tmin by a
# line of measure_constants: Q = 2.94|t|, E = |t|/13.27 and, per root type,
# k0, l0, the c prefactor 2 k0 Q, the absorption base 2 l0/E, c and the q gate
# 1/(2 l0).  ABSORB_BASE[0] and QMIN[0] are different constants, both 0.28.
Q_BASE = F("2.94")
E_DIV = F("13.27")
K0 = {0: LETTL_K0, 3: F("4.7")}
L0 = {0: F("1.83"), 3: F("3.66")}
C_PREFACTOR = {0: F("19.53"), 3: F("27.64")}
ABSORB_BASE = {0: F("0.28"), 3: F("0.56")}
C_COEFF = {0: F("5.47"), 3: F("15.48")}
QMIN = {0: F("0.28"), 3: F("0.14")}
# |u|, |z| <= 1.04|t|, |t|-4 >= 0.96|t|, |t|-12 >= 0.88|t|, |alpha3 - i| <= 1.44
UZ_CAP, T4_FLOOR, T12_FLOOR, I_DIST_CAP = F("1.04"), F("0.96"), F("0.88"), F("1.44")
ERR_FLOOR, ERR_PREFACTOR, ERR_BASE = F("1.02"), F("1.14"), F("1.24")
# |w|, |1/w| <= 1.09; Q_BASE >= 1.35 * 1.04 * (1 + 1.09); |alpha0| <= 0.02
W_CAP, SMALL_ROOT_CAP = F("1.09"), F("0.02")
Q_FACTOR = 1 + W_CAP
# type reduction: each root within 0.06 of its center, the small roots 0.5 apart
DRIFT_CAP, SEPARATION_FLOOR = F("0.06"), F("0.5")
KAPPA_CAP = 3  # the contradiction bound X^(3 - kappa) >= 137.16 needs kappa < 3
CONTRADICTION_COEFF = F("137.16")  # >= 8.86 * 15.48 = 137.1528
C2_DIVISOR = F("0.31")    # 443 >= 8.86 * 15.48 / 0.31; base 137.16 / 0.31^(2-eps)
CUBIC_ABSORB = F("0.33")  # 8.86 / |t|^(1/2 + eps/4) <= 0.33
LN_WIDTH = F(1, 10 ** 6)
# the corollary-eps gates read logs on the 2^-28 grid, and ln t of the top
# 64 bits of t
LN_GRID_BITS, EPS_CUT_BITS = 28, 64


# lines: (name, margin) pairs, all margins >= 0
MeasureConstants = namedtuple("MeasureConstants", "type_index k0 Q_coeff l0_coeff E_div "
                                                   "qmin_coeff c_coeff lines")
GateResult = namedtuple("GateResult", "name ok detail")
# kappa_hi, contradiction_upper and the descent lower bounds may be None;
# verdict is "proven" or "inconclusive"
ProofReport = namedtuple("ProofReport", "tmin kappa_hi contradiction_upper descent_lower_0 "
                                        "descent_lower_3 all_gates verdict")


@lru_cache(maxsize=64)
def _kappa(t_abs: Rat):
    """kappa(t_abs, KAPPA_WIDTH) once per t; the enclosure depends on t alone."""
    return kappa(t_abs, KAPPA_WIDTH)


def kappa_hi(t_abs: Rat) -> Rat:
    return _kappa(t_abs).hi


def kappa_lo(t_abs: Rat) -> Rat:
    return _kappa(t_abs).lo


@lru_cache(maxsize=None)
def _tmin_free_checks() -> bool:
    """The checks behind every constant chain that do not depend on tmin,
    run once per process: the Lettl growth bounds for 1 <= r <= RMAX, the
    fourth-root identity of both root types, and the constants of beta,
    kappa and the contradiction bound, at |t| = TMIN_FLOOR where a bound
    reads the root separations, which are monotone in |t|.
    |F_t| = prod |x - alpha_k y| <= 1 with |x - alpha_k y| >= |alpha_j -
    alpha_k||y|/2 for the closest root alpha_j needs beta >= 8/(min_pairwise^2
    min_to_alpha2).  kappa = (ln|t| + 1.08)/(ln|t| - 2.59) bounds the
    Lettl-Petho-Voutier exponent 1 + ln Q/ln E with Q = 2.94|t|, E =
    |t|/13.27 only if 1.08 >= ln 2.94 and 2.59 >= ln 13.27; the
    contradiction coefficient must dominate 8.86 * 15.48.  A failure
    raises, and is not cached."""
    from .hyperchi import verify_lettl
    from .series import quotient_root_check

    verify_lettl(RMAX)
    for ti in (0, 3):
        if not quotient_root_check(ti):
            raise ChainError(f"type{ti} fourth-root expression is not a root of the quartic")
    sep = root_separation(TMIN_FLOOR)
    beta = descent.BETA_COEFF
    lines(("beta 8.86", 8 / (sep["min_pairwise"] ** 2 * sep["min_to_alpha2_coeff"]), beta),
          ("kappa shift 1.08", ln_enclosure(Q_BASE, LN_WIDTH).hi, exactnum.KAPPA_NUM_SHIFT),
          ("kappa shift 2.59", ln_enclosure(E_DIV, LN_WIDTH).hi, exactnum.KAPPA_DEN_SHIFT),
          ("contradiction coefficient 137.16", beta * C_COEFF[3], CONTRADICTION_COEFF))
    return True


@lru_cache(maxsize=None)
def _fixed_lines(type_index: int) -> tuple:
    """The lines of one type's chain free of tmin, checked and named once per
    process: the four runs of them between the tmin lines of
    measure_constants.  A failure raises, and is not cached."""
    k0, l0c = K0[type_index], L0[type_index]
    prefactor, absorb = C_PREFACTOR[type_index], ABSORB_BASE[type_index]
    c, qmin = C_COEFF[type_index], QMIN[type_index]
    return tuple(lines(*run) for run in (
        [("numerator base 2.94", LETTL_Q_BASE * UZ_CAP * Q_FACTOR, Q_BASE)],
        # constant-order absorption: 1.02 <= 1.14 * 0.96^(1/4) * 0.88^(3/4)
        [("error prefactor 1.14",
          ERR_FLOOR ** 4, ERR_PREFACTOR ** 4 * T4_FLOOR * T12_FLOOR ** 3),
         ("error base 1.24", UZ_CAP, ERR_BASE * T4_FLOOR * T12_FLOOR),
         ("error coefficient 1.83", LETTL_L0 * ERR_PREFACTOR, L0[0]),
         ("error base 13.27", LETTL_E_BASE * ERR_BASE, E_DIV)],
        # the sqrt(2) unit factor: 2 * 3.32^2 <= 4.7^2
        [("unit factor 4.7", 2 * K0[0] ** 2, k0 ** 2)] if type_index == 3 else [],
        # 1.83 * sqrt(2) * 1.44 / 1.02 <= 3.66, squared
        ([("error coefficient 3.66", 2 * (L0[0] * I_DIST_CAP / ERR_FLOOR) ** 2, l0c ** 2)]
         if type_index == 3 else [])
        + [(f"c prefactor {sig_str(prefactor)}", 2 * k0 * Q_BASE, prefactor),
           (f"absorption base {sig_str(absorb)}", 2 * l0c / E_DIV, absorb),
           (f"c coefficient {sig_str(c)}", prefactor * absorb, c),
           (f"q gate {sig_str(qmin)}", 1 / (2 * l0c), qmin)]))


def measure_constants(type_index: int, tmin: Rat = TMIN_FLOOR) -> MeasureConstants:
    """Certify the approximation-constant package for one root family.

    The emitted numbers weakly dominate the exact chain values; the chain
    replays the derivation of |q_r| < k0 Q^r, |alpha q_r - p_r| < l0 E^-r
    and c = 2 k0 Q (2 l0 E)^kappa at |t| = tmin.
    """
    tmin = F(tmin)
    if type_index not in (0, 3):
        raise ValueError("type_index must be 0 or 3")
    lines(floor_line(tmin))
    # the small-root cap reads alpha0's radius, type 3's distance to i alpha3's
    require(tmin, *(("alpha0",) if type_index == 0 else ("alpha0", "alpha3")))
    _tmin_free_checks()
    numerator, errors, unit, tail = _fixed_lines(type_index)
    (p, q), (un, ud), (fn, fd), (gn, gd), (a, b), (cn, cd), (dn, dd) = (c.as_integer_ratio()
        for c in (tmin, UZ_CAP, T4_FLOOR, T12_FLOOR, ALPHA0_RADIUS, I_DIST_CAP, ALPHA13_RADIUS))
    chain = (
        # shared geometric facts about u = it+4, z = it-4, w = z/u
        *lines(("w-circle gate |1-w| < 1", (8 * q, p - 4 * q), 1),
               ("|w|, |1/w| cap 1.09", (p + 4 * q, p - 4 * q), W_CAP),
               ("|u|, |z| cap 1.04|t|", (p + 4 * q, q), (un * p, ud * q))),
        *numerator,
        *lines(("|t|-4 floor 0.96|t|", (fn * p, fd * q), (p - 4 * q, q)),
               ("|t|-12 floor 0.88|t|", (gn * p, gd * q), (p - 12 * q, q)),
               ("small-root cap 0.02", ((b * p * p + a * q * q) * q, b * p ** 3), SMALL_ROOT_CAP)),
        *errors,
        *lines(("kappa at least 1", 1, kappa_lo(tmin))),
        *unit,
        # |alpha3 - i| <= sqrt(2) + 2.16/|t| <= 1.44, squared
        *(lines(("distance to i cap 1.44", 2, ((cn * dd * p - dn * cd * q) ** 2,
                                                (cd * dd * p) ** 2))) if type_index == 3 else ()),
        *tail)
    return MeasureConstants(type_index=type_index, k0=K0[type_index], Q_coeff=Q_BASE,
                            l0_coeff=L0[type_index], E_div=E_DIV, qmin_coeff=QMIN[type_index],
                            c_coeff=C_COEFF[type_index], lines=chain)


# ---------------------------------------------------------------------------
# certified rational powers

def rat_pow_upper(x: Rat, e: Rat, bits: int = 80) -> Rat:
    """Rational upper bound for x**e, x > 0, e >= 0."""
    x, e = F(x), F(e)
    if x <= 0 or e < 0:
        raise ValueError("need x > 0 and e >= 0")
    n, rem = divmod(e.numerator, e.denominator)
    out = x ** n
    if rem:
        p, q = rem, e.denominator
        scale = 1 << bits
        num = x ** p
        target = -((-num.numerator * scale ** q) // num.denominator)
        out *= F(iroot(target - 1, q) + 1, scale)
    return out


# ---------------------------------------------------------------------------
# theorem assembly

@lru_cache(maxsize=64)
def _least_x(coeff: Rat, p: int) -> int:
    """Least integer X with X^(p/100) >= coeff, i.e. X^p >= ceil(coeff^100), once per p."""
    return iroot(math.ceil(coeff ** 100) - 1, p) + 1


def contradiction_upper_bound(tmin: Rat) -> Rat | None:
    """Least integer X with X^(3 - kappa) >= 137.16, kappa rounded up to
    two decimals; any solution would satisfy |y| < X."""
    tmin = F(tmin)
    kc = round_up_sig(kappa_hi(tmin), 3)  # kappa > 1: two decimals up to 10, p <= 0 from 3
    p = int(100 * (KAPPA_CAP - kc))
    return F(_least_x(CONTRADICTION_COEFF, p)) if p > 0 else None


def theorem_assembly(tmin: Rat = TMIN_FLOOR, kmax: int = descent.KMAX) -> ProofReport:
    """Join every certificate into a verdict for |t| >= tmin: proven when all
    six gates hold, the kappa gate checking X < both descent bounds on |y| too.

    A failed sub-certificate never raises: it shows up as a failed gate and
    an inconclusive verdict with a diagnostic string.
    """
    from .dioph import irreducibility_exceptions, small_solution_search, small_solution_t_sq_bound

    tmin = F(tmin)
    gates = []

    def gate(name, fn):
        try:
            ok, detail = fn()
        except (ArithmeticError, ValueError) as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        gates.append(GateResult(name, ok, detail))
        return ok

    def g_irred():
        ts, _ = irreducibility_exceptions()
        bad = [t for t in ts if tmin < 0 or F(t.abs_sq()) >= tmin ** 2]
        return not bad, (f"{len(ts)} reducible parameters, "
                         + (f"{len(bad)} at or above tmin" if bad else "all below tmin"))

    def g_small():
        # no small solution has |t|^2 above the derived bound, so past it the
        # line stands in for the search; |t| >= tmin gives |t|^2 >= max(tmin, 0)^2
        try:
            lines(("small-solution bound below tmin^2", small_solution_t_sq_bound(),
                   max(tmin, 0) ** 2, "<"))
            sols = []
        except ChainError:
            sols = small_solution_search(tmin)
        return sols == [], f"{len(sols)} non-trivial small solutions"

    def g_types():
        sep = root_separation(tmin)
        drift = max(1 / tmin + ALPHA0_RADIUS / tmin ** 3,
                    ALPHA13_RADIUS / tmin, ALPHA2_RADIUS / tmin)
        lines(("root drift cap 0.06", drift, DRIFT_CAP, "<"),
              ("separation floor 0.5", SEPARATION_FLOOR, sep["min_pairwise"]))
        return True, f"root drift <= {float(drift):.4f}, separation certified"

    descent_lower = {0: None, 3: None}

    def g_descent():
        for ti in (0, 3):
            recs = descent.run_descent(ti, kmax=kmax, tmin=tmin)
            descent_lower[ti] = tmin ** recs[-1].k / recs[-1].c_out
        return True, "both descent chains completed"

    def g_measure():
        measure_constants(0, tmin)
        measure_constants(3, tmin)
        return True, "both constant chains verified"

    k_hi = upper = None

    def g_kappa():
        nonlocal k_hi, upper
        k_hi = kappa_hi(tmin)
        lines(("kappa below 3", k_hi, KAPPA_CAP, "<"))
        upper = contradiction_upper_bound(tmin)
        if None not in descent_lower.values():
            if upper is None:  # an undefined X bounds nothing
                raise ChainError("contradiction bound below the descent bounds: X undefined")
            lines(("contradiction bound below the descent bounds", upper,
                   min(descent_lower.values()), "<"))
        return True, f"kappa <= {float(k_hi):.4f}"

    gate("irreducibility exceptions below tmin", g_irred)
    gate("no small solutions at tmin", g_small)
    gate("type reduction certified", g_types)
    gate("descent lower bounds", g_descent)
    gate("measure constant chains", g_measure)
    gate("kappa below 3", g_kappa)

    proven = all(g.ok for g in gates)
    return ProofReport(
        tmin=tmin, kappa_hi=k_hi, contradiction_upper=upper,
        descent_lower_0=descent_lower[0], descent_lower_3=descent_lower[3],
        all_gates=tuple(gates), verdict="proven" if proven else "inconclusive",
    )


# ---------------------------------------------------------------------------
# corollary calculators

LIN_T0_FLOOR = 524  # kappa < 2 iff ln t > 2 * 2.59 + 1.08 = 6.26: kappa(523) ~ 2.0001
LIN_COEFF = F(443)


@lru_cache(maxsize=None)
def _log_constants() -> dict:
    """Run once per process: floor(2^LN_GRID_BITS ln c) for each constant c
    the corollary-eps gates use, and for 10, which bounds the digits of a
    threshold.  The corollaries rest on both measure chains (c = 15.48
    through 137.16, and the Lettl bounds behind kappa), so these run first,
    at |t| = TMIN_FLOOR: every corollary threshold lies above it, and the
    chains are monotone in |t|.  A failure raises, and is not cached."""
    measure_constants(0, TMIN_FLOOR)
    measure_constants(3, TMIN_FLOOR)
    return {c: ln_floor(c, LN_GRID_BITS) for c in (F(4), descent.TYPE_THRESHOLD,
            descent.BETA_COEFF, CUBIC_ABSORB, C2_DIVISOR, CONTRADICTION_COEFF, F(10))}


def corollary_lin(C: Rat, t0: Rat | None = None) -> dict:
    """Solution bound package for |F_t| <= C|t|: a threshold t0 with
    kappa(t0) < 2 and the size bound C0 outside the (x, +-x) family."""
    C = F(C)
    if C <= 0:
        raise ValueError("C must be positive")
    _log_constants()
    t0 = F(LIN_T0_FLOOR if t0 is None else t0)
    if t0 < LIN_T0_FLOOR:
        raise ValueError("user t0 must be at least 524 with kappa(t0) < 2")
    (_, consistency), _ = lines(  # 443 C > (8.86 * 15.48 / 0.31) C, exactly
        ("lin coefficient 443", descent.BETA_COEFF * C_COEFF[3] / C2_DIVISOR, LIN_COEFF, "<"),
        ("kappa below 2 at t0", kappa_hi(t0), 2, "<"))
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
    ln, big = _log_constants(), 1 << LN_GRID_BITS
    p, q = eps.numerator, eps.denominator
    ln4_hi = ln[F(4)] + 1
    # (i) type threshold: ln 4 + (1-eps) ln 20.14 <= l, times q 2^28
    type_log = q * ln4_hi + (q - p) * (ln[descent.TYPE_THRESHOLD] + 1)
    # (ii) cubic-term absorption: ln 8.86 <= ln 0.33 + (1/2 + eps/4) l, times 4 q 2^28
    cubic_log = 4 * q * (ln[descent.BETA_COEFF] + 1 - ln[CUBIC_ABSORB])
    # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa)) < (t^(2-eps)/4)^(1/4)
    #       as ln_b < (1 + eps - kappa) ((2-eps) l - ln 4) / 4, with q 2^28 ln_b <= b
    b = q * (ln[CONTRADICTION_COEFF] + 1) - (2 * q - p) * ln[C2_DIVISOR]
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


def _gate_results(oks: tuple) -> tuple[GateResult, ...]:
    threshold, beta, cubic = (sig_str(x, 7) for x in (
        descent.TYPE_THRESHOLD, descent.BETA_COEFF, CUBIC_ABSORB))
    return (GateResult("type threshold", oks[0], f"4 * {threshold}^(1-eps) <= |t|"),
            GateResult("cubic absorption", oks[1], f"{beta} / |t|^(1/2 + eps/4) <= {cubic}"),
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


def corollary_eps(eps: Rat) -> dict:
    """The least threshold t0 for |F_t| <= |t|^(2-eps) that the gates
    certify: they fail at t0 - 1 and hold at every t >= t0, as they are
    monotone in L(t), and L(t) in t.  Every eps in (0, 1) has one, as kappa
    falls to 1 like 3.67 / ln t.  First the least passing grid value g, above
    the floor that gate (iii) sets, then the least t with L(t) >= g, a cut value,
    from a float seed; "evaluations" counts the L(t) read, the one at 2 t0
    included.  A t0 of more than MAX_DIGITS digits raises OutputLimitError
    before it is built, and before the g search when that floor is past it."""
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
    if g_lo >= limit or (g := _least(lambda g: all(gates_at(g)[:3]), g_lo + 1)) >= limit:
        raise OutputLimitError(f"t0 for eps = {exactnum._side(eps)} has more than "
                               f"{MAX_DIGITS:,} digits")
    grid = lru_cache(maxsize=None)(_ln_grid)  # each L(t) once
    y = g / ((1 << LN_GRID_BITS) * math.log(2))  # log2 of t0, about
    s = max(0, int(y) - EPS_CUT_BITS + 1)
    t = max(1, _cut(int(2 ** (y - s)) << s))
    # one Newton step on ln t = g / 2^28, from floor(2^96 ln t), lands next to t0
    t = max(1, _cut(t + (t * ((g << 96 - LN_GRID_BITS) - ln_floor(t, 96)) >> 96)))
    t0 = _least(lambda t: grid(t) >= g, t, 1 << s, _cut)
    return {"t0": F(t0), "gates": _gate_results(gates_at(grid(t0))),
            "gates_at_double": _gate_results(gates_at(_ln_grid(2 * t0))),
            "evaluations": grid.cache_info().currsize + 1}
