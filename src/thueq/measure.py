"""Irrationality-measure constants and the final contradiction argument.  The
corollary calculators are in ``corollary``; the names of it that callers still
read here resolve on first access (``__getattr__``).

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

from . import _forward, descent, exactnum
from .exactnum import (TMIN_FLOOR, ChainError, Rat, floor_line, iroot, kappa, lines,
                       ln_enclosure, round_up_sig, sig_str)
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
    """kappa(t_abs, KAPPA_WIDTH) once per t; the enclosure depends on t alone."""
    return kappa(t_abs, KAPPA_WIDTH)


def kappa_hi(t_abs: Rat) -> Rat:
    return _kappa(t_abs).hi


def kappa_lo(t_abs: Rat) -> Rat:
    return _kappa(t_abs).lo


@lru_cache(maxsize=None)
def _tmin_free_checks() -> tuple:
    """The checks behind every constant chain that do not depend on tmin, run once per
    process: the Lettl growth bounds for 1 <= r <= RMAX, the fourth-root identity of both
    root types, and the constants of beta, kappa and the contradiction bound, at |t| =
    TMIN_FLOOR where a bound reads the root separations, which are monotone in |t|.
    |F_t| = prod |x - alpha_k y| <= 1 with |x - alpha_k y| >= |alpha_j - alpha_k||y|/2 for
    the closest root alpha_j needs beta >= 8/(min_pairwise^2 min_to_alpha2).  kappa =
    (ln|t| + 1.08)/(ln|t| - 2.59) bounds the Lettl-Petho-Voutier exponent 1 + ln Q/ln E
    with Q = 2.94|t|, E = |t|/13.27 only if 1.08 >= ln 2.94 and 2.59 >= ln 13.27; the
    contradiction coefficient must dominate 8.86 * 15.48.  Returns the (name, margin) pairs
    of the Lettl lines, then of beta, the kappa shifts and the contradiction coefficient;
    a failure raises, and is not cached."""
    from .hyperchi import verify_lettl
    from .series import quotient_root_check

    lettl = verify_lettl(RMAX)
    for ti in (0, 3):
        if not quotient_root_check(ti):
            raise ChainError(f"type{ti} fourth-root expression is not a root of the quartic")
    sep = root_separation(TMIN_FLOOR)
    beta = descent.BETA_COEFF
    return lettl + lines(
        ("beta 8.86", 8 / (sep["min_pairwise"] ** 2 * sep["min_to_alpha2_coeff"]), beta),
        ("kappa shift 1.08", ln_enclosure(Q_BASE, LN_WIDTH).hi, exactnum.KAPPA_NUM_SHIFT),
        ("kappa shift 2.59", ln_enclosure(E_DIV, LN_WIDTH).hi, exactnum.KAPPA_DEN_SHIFT),
        ("contradiction coefficient 137.16", beta * C_COEFF[3], CONTRADICTION_COEFF))


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


# the names of ``corollary`` that callers still read from this module
__getattr__ = _forward(globals(), "corollary", ("corollary_eps", "corollary_lin", "_eps_gates",
                                                "LIN_T0_FLOOR"))
