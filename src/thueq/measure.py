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
from .exactnum import (TMIN_FLOOR, ChainError, Rat, UndefinedKappaError, floor_line, iroot,
                       kappa, lines, ln_enclosure, round_up_sig, sig_str)
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
    """kappa(t_abs, KAPPA_WIDTH) once per t; a repeat would read the same ln 2 entries."""
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
    chain = (
        # shared geometric facts about u = it+4, z = it-4, w = z/u
        *lines(("w-circle gate |1-w| < 1", F(8) / (tmin - 4), F(1)),
               ("|w|, |1/w| cap 1.09", 1 + F(8) / (tmin - 4), W_CAP),
               ("|u|, |z| cap 1.04|t|", tmin + 4, UZ_CAP * tmin)),
        *numerator,
        *lines(("|t|-4 floor 0.96|t|", T4_FLOOR * tmin, tmin - 4),
               ("|t|-12 floor 0.88|t|", T12_FLOOR * tmin, tmin - 12),
               ("small-root cap 0.02", 1 / tmin + ALPHA0_RADIUS / tmin ** 3, SMALL_ROOT_CAP)),
        *errors,
        *lines(("kappa at least 1", F(1), kappa_lo(tmin))),
        *unit,
        # |alpha3 - i| <= sqrt(2) + 2.16/|t| <= 1.44, squared
        *(lines(("distance to i cap 1.44", F(2), (I_DIST_CAP - ALPHA13_RADIUS / tmin) ** 2))
          if type_index == 3 else ()),
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


def _kappa_coarse(t_abs: Rat, decimals: int = 2) -> Rat:
    """kappa upper end rounded up to a short decimal, so that exponent
    comparisons reduce to integer powers."""
    hi = kappa_hi(t_abs)
    q = 10 ** decimals
    return F(-((-hi.numerator * q) // hi.denominator), q)


# ---------------------------------------------------------------------------
# theorem assembly

def contradiction_upper_bound(tmin: Rat) -> Rat | None:
    """Least integer X with X^(3 - kappa) >= 137.16, kappa rounded up to
    two decimals; any solution would satisfy |y| < X."""
    tmin = F(tmin)
    kc = _kappa_coarse(tmin, 2)
    p = int(100 * (KAPPA_CAP - kc))
    if p <= 0:
        return None
    # X^(p/100) >= 137.16 iff the integer X^p is >= ceil(137.16^100)
    return F(iroot(math.ceil(CONTRADICTION_COEFF ** 100) - 1, p) + 1)


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
        if None not in descent_lower.values():  # an undefined X bounds nothing
            lines(("contradiction bound below the descent bounds",
                   math.inf if upper is None else upper, min(descent_lower.values()), "<"))
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

LIN_T0_FLOOR = 524
LIN_COEFF = F(443)


@lru_cache(maxsize=None)
def _log_constants() -> dict:
    """Run once per process: enclose (width LN_WIDTH) the logs of the
    constants the corollary-eps gates use, keyed by the constant.  The
    corollaries rest on both measure chains (c = 15.48 through 137.16, and
    the Lettl bounds behind kappa), so these run first, at |t| = TMIN_FLOOR:
    every corollary threshold lies above it, and the chains are monotone in
    |t|.  A failure raises, and is not cached."""
    measure_constants(0, TMIN_FLOOR)
    measure_constants(3, TMIN_FLOOR)
    return {c: ln_enclosure(c, LN_WIDTH) for c in (F(4), descent.TYPE_THRESHOLD,
            descent.BETA_COEFF, CUBIC_ABSORB, C2_DIVISOR, CONTRADICTION_COEFF)}


def corollary_lin(C: Rat, t0: Rat | None = None) -> dict:
    """Solution bound package for |F_t| <= C|t|: a threshold t0 with
    kappa(t0) < 2 and the size bound C0 outside the (x, +-x) family."""
    C = F(C)
    if C <= 0:
        raise ValueError("C must be positive")
    _log_constants()
    (_, consistency), = lines(  # 443 C > (8.86 * 15.48 / 0.31) C, exactly
        ("lin coefficient 443", descent.BETA_COEFF * C_COEFF[3] / C2_DIVISOR, LIN_COEFF, "<"))
    if t0 is None:
        t0 = F(LIN_T0_FLOOR)
        while kappa_hi(t0) >= 2:
            t0 += 1
    else:
        t0 = F(t0)
        if t0 < LIN_T0_FLOOR or kappa_hi(t0) >= 2:
            raise ValueError("user t0 must be at least 524 with kappa(t0) < 2")
    term1 = rat_pow_upper(descent.TYPE_THRESHOLD * C, F(1, 4))
    term2 = 3 * rat_pow_upper(C, F(1, 3))
    kc = _kappa_coarse(t0, 4)
    if LIN_COEFF * C >= 1:
        n_up = -((-1) // (2 - kc))  # ceil of 1/(2 - kappa), integer exponent
        term3 = round_up_sig((LIN_COEFF * C) ** n_up, 4)
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
    """_eps_gates at one eps on the integers of one LnArg: (ok_i, ok_ii, ok_iii,
    detail_iii) and the state the gates read, or None without kappa: the piece
    (k, atanh argument's sign, grid widths, bits and term counts) and grid ends."""
    ln = _log_constants()
    p, q = eps.numerator, eps.denominator
    ln4_hi, wn, wd = ln[F(4)].hi, LN_WIDTH.numerator, LN_WIDTH.denominator
    # (i) type threshold: ln 4 + (1-eps) ln 20.14 <= ln t
    # (ii) cubic-term absorption: ln 8.86 <= ln 0.33 + (1/2 + eps/4) ln t
    floors = [(x.numerator, x.denominator) for x in (
        ln4_hi + (1 - eps) * ln[descent.TYPE_THRESHOLD].hi,
        (ln[descent.BETA_COEFF].hi - ln[CUBIC_ABSORB].lo) / (F(1, 2) + eps / 4))]
    # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa)) < (t^(2-eps)/4)^(1/4)
    #       as ln_b < g R: g = 1 + eps - num_hi/den_lo = gq/(q den_lo), and at ln t = lo/2^bits
    #       R = ((2-eps) ln t - ln 4)/4 = (r_slope lo - (r_shift << bits))/(4 q 2^bits den(ln 4))
    ln_b = ln[CONTRADICTION_COEFF].hi - (2 - eps) * ln[C2_DIVISOR].lo
    r_slope, r_shift = (2 * q - p) * ln4_hi.denominator, q * ln4_hi.numerator
    b_num, b_den = ln_b.numerator * 4 * q * q * ln4_hi.denominator, ln_b.denominator

    def gates(arg) -> tuple[tuple, tuple | None]:
        # one reduction of t serves ln t at LN_WIDTH and kappa at KAPPA_WIDTH
        lo, hi, bits, n = arg._grid(wn, wd)
        oks = tuple(fn << bits <= lo * fd for fn, fd in floors)
        try:
            *_, num_hi, den_lo, rungs = arg.kappa(KAPPA_WIDTH.numerator, KAPPA_WIDTH.denominator)
        except UndefinedKappaError:
            return (*oks, False, "kappa undefined"), None
        gq = (q + p) * den_lo - q * num_hi
        oks += ((False, "1 + eps - kappa not positive") if gq <= 0 else
                ((b_num << bits) * den_lo < b_den * gq * (r_slope * lo - (r_shift << bits)),
                 "log comparison with kappa upper end"))
        grids = [((wn, wd, bits, n), lo, hi)] + rungs
        return oks, ((arg.k, arg._atanh.a > 0, *(w for w, _, _ in grids)),
                     tuple(e for _, g_lo, g_hi in grids for e in (g_lo, g_hi)))

    return gates


def _gate_results(oks: tuple) -> tuple[GateResult, ...]:
    threshold, beta, cubic = (sig_str(x, 7) for x in (
        descent.TYPE_THRESHOLD, descent.BETA_COEFF, CUBIC_ABSORB))
    return (GateResult("type threshold", oks[0], f"4 * {threshold}^(1-eps) <= |t|"),
            GateResult("cubic absorption", oks[1], f"{beta} / |t|^(1/2 + eps/4) <= {cubic}"),
            GateResult("measure contradiction", oks[2], oks[3]))


def _eps_gates(t: Rat, eps: Rat) -> list[GateResult]:
    """The three threshold conditions at modulus t, decided by _eps_gate_fn."""
    return list(_gate_results(_eps_gate_fn(F(eps))(exactnum.LnArg(t))[0]))


def _crossing(lo: int, hi: int, s_lo: tuple, s_hi: tuple, arg_of) -> tuple[int | None, int]:
    """If the states at lo and hi share their piece and differ only by 1 in one
    lower grid end (a step of an upper end only raises kappa's), each t between
    has one of them, as the end rounds a bound of ln t growing with t in the
    piece: the least t with hi's, by Newton and secant steps, and the steps."""
    diff = [i for i, (a, b) in enumerate(zip(s_lo[1], s_hi[1])) if a != b]
    i = diff[0] if len(diff) == 1 and s_lo[0] == s_hi[0] else 1
    if i % 2 or s_hi[1][i] != s_lo[1][i] + 1:
        return None, 0
    (wn, wd, bits, _), g = s_lo[0][2 + i // 2], s_lo[1][i] + 1

    def side(t: int) -> tuple[bool, int]:
        # floor(2^bits lo) >= g, and about 2^16 t (lo - g / 2^bits)
        lo_num, lo_den = arg_of(t)._unrounded(wn, wd)[:2]
        e = (lo_num << bits) - g * lo_den
        return e >= 0, (e * t << 16) // (lo_den << bits)

    y = side(hi)[1]
    t, prev, steps = hi - (y >> 16), (hi, y), 1  # the bound's slope is about 1/t
    while hi - lo > 1:
        t = min(max(t, lo + 1), hi - 1)
        up, y = side(t)
        lo, hi = (lo, t) if up else (t, hi)
        (t1, y1), prev, steps = prev, (t, y), steps + 1
        t = t - y * (t - t1) // (y - y1) if y != y1 else (lo + hi) // 2
    return hi, steps


def corollary_eps(eps: Rat) -> dict:
    """The threshold t0 for |F_t| <= |t|^(2-eps) at which an integer bisection
    ends: the gates fail at t0 - 1 and hold at t0 and 2 t0.  Every eps in
    (0, 1) has one, as kappa falls to 1 like 3.67 / ln t.  The bracket
    [50 * 2^j, 100 * 2^j] is found by exponential, then binary search over
    j, and t0 by bisection in it until _crossing fixes where it ends.  The
    gates are not monotone near t0 (kappa's upper end rises where ln t's
    upper grid end steps up), so soundness rests on the exact conditions
    being monotone.  Each t skipped has the k and widths of the bracket's
    ends, so the ln 2 cache fills as under the bisection."""
    eps = F(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    gates_at, arg_of, evals = _eps_gate_fn(eps), lru_cache(maxsize=None)(exactnum.LnArg), {}

    def holds(t: int) -> bool:
        evals[t] = gates_at(arg_of(t))
        return all(evals[t][0][:3])

    # least j with holds(100 * 2^j); j = lo is known (or taken) to fail
    lo, hi = -1, 0
    while not holds(100 << hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(100 << mid):
            hi = mid
        else:
            lo = mid
    lo, hi, cross, steps = 50 << hi, 100 << hi, None, 0
    while hi - lo > 1:
        if cross is None and lo in evals and evals[lo][1] and evals[hi][1]:
            cross, steps = _crossing(lo, hi, evals[lo][1], evals[hi][1], arg_of)
        mid = (lo + hi) // 2 if cross is None or not lo < cross <= hi else min(cross, hi - 1)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    recheck = gates_at(exactnum.LnArg(2 * hi))[0]
    if not all(recheck[:3]):
        raise ChainError("gates do not re-verify at 2 * t0")
    return {"t0": F(hi), "gates": _gate_results(evals[hi][0]),
            "gates_at_double": _gate_results(recheck), "evaluations": len(evals) + 1 + steps}
