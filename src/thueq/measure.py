"""Irrationality-measure constants, the final contradiction argument, and
the two corollary calculators for the weighted inequalities.

Every published constant is re-derived as a chain of named one-line
inequalities over exact rationals.  Each line is evaluated once at the
minimal parameter modulus tmin; all majorants are monotone in |t|, so a
check at tmin certifies the whole range |t| >= tmin.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (Rat, UndefinedKappaError, iroot, kappa, ln_enclosure,
                       pow_cmp, round_up_sig)

F = Fraction

KAPPA_WIDTH = F(1, 10 ** 7)


class ChainError(ArithmeticError):
    """A named inequality line failed; the message identifies the line."""


@dataclass(frozen=True)
class MeasureConstants:
    type_index: int
    k0: Rat
    Q_coeff: Rat
    l0_coeff: Rat
    E_div: Rat
    qmin_coeff: Rat
    c_coeff: Rat
    lines: tuple  # (name, margin) pairs, all margins >= 0


@dataclass(frozen=True)
class GateResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ProofReport:
    tmin: Rat
    kappa_hi: Rat | None
    contradiction_upper: Rat | None
    descent_lower_0: Rat | None
    descent_lower_3: Rat | None
    all_gates: tuple
    verdict: str  # "proven" | "inconclusive"


def kappa_hi(t_abs: Rat) -> Rat:
    return kappa(t_abs, KAPPA_WIDTH).hi


def kappa_lo(t_abs: Rat) -> Rat:
    return kappa(t_abs, KAPPA_WIDTH).lo


class _Chain:
    def __init__(self):
        self.lines = []

    def require(self, name: str, lhs: Rat, rhs: Rat) -> None:
        """Record the line lhs <= rhs or fail with its name."""
        if lhs > rhs:
            raise ChainError(f"{name}: {lhs} > {rhs}")
        self.lines.append((name, rhs - lhs))


def measure_constants(type_index: int, tmin: Rat = F(100),
                      rmax: int = 60) -> MeasureConstants:
    """Certify the approximation-constant package for one root family.

    The emitted numbers weakly dominate the exact chain values; the chain
    replays the derivation of |q_r| < k0 Q^r, |alpha q_r - p_r| < l0 E^-r
    and c = 2 k0 Q (2 l0 E)^kappa at |t| = tmin.
    """
    from .hyperchi import verify_lettl
    from .rouche import base_certificates
    from .series import quotient_root_check

    tmin = F(tmin)
    if type_index not in (0, 3):
        raise ValueError("type_index must be 0 or 3")
    if tmin < 100:
        raise ChainError("chain is only certified for tmin >= 100")
    verify_lettl(rmax)
    if not quotient_root_check("type0" if type_index == 0 else "type3"):
        raise ChainError("fourth-root expression is not a root of the quartic")
    certs = base_certificates(tmin)
    needed = "alpha0" if type_index == 0 else "alpha3"
    if not certs[needed].verified:
        raise ChainError(f"root enclosure {needed} unavailable at tmin={tmin}")

    ch = _Chain()
    # shared geometric facts about u = it+4, z = it-4, w = z/u
    ch.require("w-circle gate |1-w| < 1", F(8) / (tmin - 4), F(1))
    ch.require("|w|, |1/w| cap 1.09", 1 + F(8) / (tmin - 4), F("1.09"))
    ch.require("|u|, |z| cap 1.04|t|", tmin + 4, F("1.04") * tmin)
    ch.require("numerator base 2.94", F("1.35") * F("1.04") * F("2.09"), F("2.94"))
    ch.require("|t|-4 floor 0.96|t|", F("0.96") * tmin, tmin - 4)
    ch.require("|t|-12 floor 0.88|t|", F("0.88") * tmin, tmin - 12)
    ch.require("small-root cap 0.02", 1 / tmin + F("5.01") / tmin ** 3, F("0.02"))
    # constant-order absorption: 1.02 <= 1.14 * 0.96^(1/4) * 0.88^(3/4)
    ch.require("error prefactor 1.14",
               F("1.02") ** 4, F("1.14") ** 4 * F("0.96") * F("0.88") ** 3)
    ch.require("error base 1.24", F("1.04"), F("1.24") * F("0.96") * F("0.88"))
    ch.require("error coefficient 1.83", F("1.6") * F("1.14"), F("1.83"))
    ch.require("error base 13.27", F("10.7") * F("1.24"), F("13.27"))
    klo = kappa_lo(tmin)
    ch.require("kappa at least 1", F(1), klo)

    if type_index == 0:
        k0, l0c, qmin = F("3.32"), F("1.83"), F("0.28")
        ch.require("c prefactor 19.53", 2 * k0 * F("2.94"), F("19.53"))
        ch.require("absorption base 0.28", 2 * l0c / F("13.27"), F("0.28"))
        ch.require("c coefficient 5.47", F("19.53") * F("0.28"), F("5.47"))
        ch.require("q gate 0.28", 1 / (2 * l0c), F("0.28"))
        c = F("5.47")
    else:
        # the sqrt(2) unit factor: 2 * 3.32^2 <= 4.7^2
        ch.require("unit factor 4.7", 2 * F("3.32") ** 2, F("4.7") ** 2)
        k0 = F("4.7")
        # |alpha3 - i| <= sqrt(2) + 2.16/|t| <= 1.44, squared
        ch.require("distance to i cap 1.44",
                   F(2), (F("1.44") - F("2.16") / tmin) ** 2)
        # 1.83 * sqrt(2) * 1.44 / 1.02 <= 3.66, squared
        ch.require("error coefficient 3.66",
                   2 * (F("1.83") * F("1.44") / F("1.02")) ** 2, F("3.66") ** 2)
        l0c, qmin = F("3.66"), F("0.14")
        ch.require("c prefactor 27.64", 2 * k0 * F("2.94"), F("27.64"))
        ch.require("absorption base 0.56", 2 * l0c / F("13.27"), F("0.56"))
        ch.require("c coefficient 15.48", F("27.64") * F("0.56"), F("15.48"))
        ch.require("q gate 0.14", 1 / (2 * l0c), F("0.14"))
        c = F("15.48")
    return MeasureConstants(type_index=type_index, k0=k0, Q_coeff=F("2.94"),
                            l0_coeff=l0c, E_div=F("13.27"), qmin_coeff=qmin,
                            c_coeff=c, lines=tuple(ch.lines))


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
        r = iroot(target, q)
        if r ** q < target:
            r += 1
        out *= F(r, scale)
    return out


def rat_pow_lower(x: Rat, e: Rat, bits: int = 80) -> Rat:
    """Rational lower bound for x**e, x > 0, e >= 0."""
    x, e = F(x), F(e)
    if x <= 0 or e < 0:
        raise ValueError("need x > 0 and e >= 0")
    n, rem = divmod(e.numerator, e.denominator)
    out = x ** n
    if rem:
        p, q = rem, e.denominator
        scale = 1 << bits
        num = x ** p
        target = (num.numerator * scale ** q) // num.denominator
        out *= F(iroot(target, q), scale)
    return out


def _kappa_coarse(t_abs: Rat, decimals: int = 2) -> Rat:
    """kappa upper end rounded up to a short decimal, so that exponent
    comparisons reduce to integer powers."""
    hi = kappa_hi(t_abs)
    q = 10 ** decimals
    return F(-((-hi.numerator * q) // hi.denominator), q)


def irrationality_lower(t_abs: Rat, q_abs: Rat, type_index: int) -> Rat:
    """Certified lower bound for |alpha - p/q|: 1 / (c |t| |q|^(kappa+1))."""
    t_abs, q_abs = F(t_abs), F(q_abs)
    if t_abs < 100:
        raise ValueError("requires t_abs >= 100")
    if q_abs < F("0.28") * t_abs:
        raise ValueError("requires q_abs >= 0.28 * t_abs")
    c = F("5.47") if type_index == 0 else F("15.48")
    # a 2-decimal ceiling keeps the power's denominator at 100, which keeps
    # the integer root extraction cheap; coarsening kappa upward only
    # weakens (never invalidates) the returned lower bound
    exp_hi = _kappa_coarse(t_abs, 2) + 1
    q_up = round_up_sig(q_abs, 6)
    return 1 / (c * t_abs * rat_pow_upper(q_up, exp_hi))


# ---------------------------------------------------------------------------
# theorem assembly

CONTRADICTION_COEFF = F("137.16")  # 8.86 * 15.48 = 137.1528


def contradiction_upper_bound(tmin: Rat) -> Rat | None:
    """Least integer X with X^(3 - kappa) >= 137.16, kappa rounded up to
    two decimals; any solution would satisfy |y| < X."""
    tmin = F(tmin)
    kc = _kappa_coarse(tmin, 2)
    p = int(100 * (3 - kc))
    if p <= 0:
        return None
    lo, hi = 1, 10
    while pow_cmp(F(hi), 100, CONTRADICTION_COEFF, p) < 0:
        hi *= 10
    while lo < hi:
        mid = (lo + hi) // 2
        if pow_cmp(F(mid), 100, CONTRADICTION_COEFF, p) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return F(lo)


def theorem_assembly(tmin: Rat = F(100), kmax: int = 11,
                     rmax: int = 60) -> ProofReport:
    """Join every certificate into a verdict for |t| >= tmin.

    A failed sub-certificate never raises: it shows up as a failed gate and
    an inconclusive verdict with a diagnostic string.
    """
    from .descent import run_descent
    from .dioph import irreducibility_exceptions, small_solution_search
    from .rouche import base_certificates, root_separation

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
        bad = [t for t in ts if F(t.abs_sq()) >= tmin ** 2]
        return not bad, f"{len(ts)} reducible parameters, all below tmin"

    def g_small():
        sols = small_solution_search(tmin)
        return sols == [], f"{len(sols)} non-trivial small solutions"

    def g_types():
        certs = base_certificates(tmin)
        if not all(c.verified for c in certs.values()):
            return False, "root enclosures unavailable"
        sep = root_separation(tmin)
        drift = max(1 / tmin + F("5.01") / tmin ** 3,
                    F("2.16") / tmin, F("5.02") / tmin)
        ok = drift < F("0.06") and sep["min_pairwise"] >= F("0.5")
        return ok, f"root drift <= {float(drift):.4f}, separation certified"

    descent_lower = {0: None, 3: None}

    def g_descent():
        for ti in (0, 3):
            recs = run_descent(ti, kmax=kmax, tmin=tmin)
            descent_lower[ti] = recs[-1].y_lower_at_100 if tmin == 100 else (
                tmin ** recs[-1].k / recs[-1].c_out)
        return True, "both descent chains completed"

    def g_measure():
        measure_constants(0, tmin, rmax)
        measure_constants(3, tmin, rmax)
        return True, "both constant chains verified"

    k_hi = None

    def g_kappa():
        nonlocal k_hi
        k_hi = kappa_hi(tmin)
        return k_hi < 3, f"kappa <= {float(k_hi):.4f}"

    gate("irreducibility exceptions below tmin", g_irred)
    gate("no small solutions at tmin", g_small)
    gate("type reduction certified", g_types)
    gate("descent lower bounds", g_descent)
    gate("measure constant chains", g_measure)
    gate("kappa below 3", g_kappa)

    upper = None
    if k_hi is not None and k_hi < 3:
        upper = contradiction_upper_bound(tmin)
    lowers = [v for v in descent_lower.values() if v is not None]
    proven = (all(g.ok for g in gates) and upper is not None and len(lowers) == 2
              and upper < min(lowers))
    return ProofReport(
        tmin=tmin, kappa_hi=k_hi, contradiction_upper=upper,
        descent_lower_0=descent_lower[0], descent_lower_3=descent_lower[3],
        all_gates=tuple(gates), verdict="proven" if proven else "inconclusive",
    )


# ---------------------------------------------------------------------------
# corollary calculators

LIN_T0_FLOOR = 524
LIN_COEFF = F(443)


def corollary_lin(C: Rat, t0: Rat | None = None) -> dict:
    """Solution bound package for |F_t| <= C|t|: a threshold t0 with
    kappa(t0) < 2 and the size bound C0 outside the (x, +-x) family."""
    C = F(C)
    if C <= 0:
        raise ValueError("C must be positive")
    # constant consistency: 443 C > (8.86 * 15.48 / 0.31) C, exactly
    consistency = LIN_COEFF - F("8.86") * F("15.48") / F("0.31")
    if consistency <= 0:
        raise ChainError("443 C does not dominate C_2 / 0.31")
    if t0 is None:
        t0 = F(LIN_T0_FLOOR)
        while kappa_hi(t0) >= 2:
            t0 += 1
    else:
        t0 = F(t0)
        if t0 <= LIN_T0_FLOOR or kappa_hi(t0) >= 2:
            raise ValueError("user t0 must exceed 524 with kappa(t0) < 2")
    term1 = rat_pow_upper(F("20.14") * C, F(1, 4))
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


EPS_SEARCH_CAP = F(2) ** 200


class SearchCapError(ArithmeticError):
    pass


def _eps_gates(t: Rat, eps: Rat) -> list[GateResult]:
    """The three threshold conditions at modulus t, certified."""
    p, q = eps.numerator, eps.denominator
    out = []
    # (i) type threshold: 4 * 20.14^(1-eps) <= t, cleared to integer powers
    lhs = F(4) ** q * F("20.14") ** (q - p)
    out.append(GateResult("type threshold", lhs <= t ** q,
                          "4 * 20.14^(1-eps) <= |t|"))
    # (ii) cubic-term absorption: 8.86 / t^(1/2 + eps/4) <= 0.33
    lhs = F("8.86") ** (4 * q)
    rhs = F("0.33") ** (4 * q) * t ** (2 * q + p)
    out.append(GateResult("cubic absorption", lhs <= rhs,
                          "8.86 / |t|^(1/2 + eps/4) <= 0.33"))
    # (iii) contradiction: (137.16 / 0.31^(2-eps))^(1/(1+eps-kappa))
    #       < (t^(2-eps) / 4)^(1/4), compared in the log domain
    w = F(1, 10 ** 6)
    try:
        k_hi = kappa_hi(t)
    except UndefinedKappaError:
        out.append(GateResult("measure contradiction", False, "kappa undefined"))
        return out
    g_lo = 1 + eps - k_hi
    if g_lo <= 0:
        out.append(GateResult("measure contradiction", False,
                              "1 + eps - kappa not positive"))
        return out
    ln_b_hi = (ln_enclosure(CONTRADICTION_COEFF, w).hi
               - (2 - eps) * ln_enclosure(F("0.31"), w).lo)
    lhs_log = ln_b_hi / g_lo
    rhs_log = ((2 - eps) * ln_enclosure(t, w).lo
               - ln_enclosure(F(4), w).hi) / 4
    out.append(GateResult("measure contradiction", lhs_log < rhs_log,
                          "log comparison with kappa upper end"))
    return out


def corollary_eps(eps: Rat) -> dict:
    """Smallest certified threshold t0 for |F_t| <= |t|^(2-eps)."""
    eps = F(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")

    def holds(t: Rat) -> bool:
        return all(g.ok for g in _eps_gates(t, eps))

    t = F(100)
    while not holds(t):
        t *= 2
        if t > EPS_SEARCH_CAP:
            raise SearchCapError(f"no certified threshold below {EPS_SEARCH_CAP}")
    lo, hi = t / 2, t
    while hi - lo > 1:
        mid = F(int((lo + hi) // 2))
        if holds(mid):
            hi = mid
        else:
            lo = mid
    t0 = hi
    recheck = _eps_gates(2 * t0, eps)
    if not all(g.ok for g in recheck):
        raise ChainError("gates do not re-verify at 2 * t0")
    return {"t0": t0, "gates": tuple(_eps_gates(t0, eps)),
            "gates_at_double": tuple(recheck)}
