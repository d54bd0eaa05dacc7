"""The iterative lower-bound engine for |y|: closed-form first steps, then
Pade-based steps k = 3..11 for both solution types, with every inequality
replayed in exact rational arithmetic and every side condition certified."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Rat, round_up_sig, sqrt_lower, sqrt_upper
from .rouche import HIGH_ORDER
from .series import (GaussRat, PadePair, Series, TPoly, pade, pade_residual,
                     root_series, tail_bound)

BETA_COEFF = Fraction("8.86")          # |x - alpha y| < 8.86/(|t| |y|^3)
KSTART = {0: 3, 3: 2}  # first Pade step of each chain
KMAX = 11              # the root series support steps up to k = 11


class DerivationError(ArithmeticError):
    pass


class NonVanishingError(ArithmeticError):
    pass


@dataclass(frozen=True)
class StepRecord:
    type_index: int
    k: int
    c0_in: Rat
    c1: Rat
    c2: Rat
    c3: Rat
    c_exact: Rat
    c_out: Rat
    y_lower_at_100: Rat
    nonvanish_margin: Rat
    nonvanish_ok: bool
    pade: PadePair


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DerivationError(msg)


def step1(type_index: int, tmin: Rat = Fraction(100)) -> Rat:
    """First relative bound |y| > coeff * |t| (type 0, coeff 2.67) or
    |y| > |t| / divisor (type 3, returns 1/2.27), with the derivation chain
    re-verified exactly at tmin and min{|x|,|y|} >= 3 assumed."""
    tmin = Fraction(tmin)
    _require(tmin >= 100, "tmin must be >= 100")
    absorb = BETA_COEFF / 3 ** 4  # 8.86/|y|^4 <= 8.86/81 for |y| >= 3
    _require(absorb <= Fraction("0.11"), "absorption constant exceeds 0.11")
    if type_index == 0:
        # |alpha| <= (1 + 5.01/tmin^2)/|t| <= 1.01/|t|
        _require(1 + Fraction("5.01") / tmin ** 2 <= Fraction("1.01"),
                 "root-modulus bound exceeds 1.01")
        slope = Fraction("1.01") + Fraction("0.11")
        coeff = Fraction("2.67")
        _require(3 / slope >= coeff, "type-0 step-1 coefficient not dominated")
        return coeff
    if type_index == 3:
        # side case x = y gives |F| = 4|x|^4 >= 4*81 > 1: impossible
        _require(4 * Fraction(3) ** 4 > 1, "side case not excluded")
        slope = Fraction("2.16") + Fraction("0.11")
        _require(slope <= Fraction("2.27"), "type-3 slope exceeds 2.27")
        _require(1 / Fraction("2.27") > Fraction("0.44"), "relative bound below 0.44")
        return 1 / Fraction("2.27")
    raise ValueError("type_index must be 0 or 3")


def step2_type0(tmin: Rat = Fraction(100)) -> Rat:
    """Second type-0 bound |y| > |t|^2 / 5.02, with the vanishing case
    tx + y = 0 excluded via x^4 (1 - 5t^2) = mu."""
    tmin = Fraction(tmin)
    _require(tmin >= 100, "tmin must be >= 100")
    c_prev = step1(0, tmin)
    # |1 - 5 t^2| >= 5 tmin^2 - 1 > 1 excludes the vanishing side case
    _require(5 * tmin ** 2 - 1 > 1, "side case x^4(1-5t^2)=mu not excluded")
    extra = BETA_COEFF / (c_prev * tmin) ** 4 * tmin ** 2
    _require(Fraction("5.01") + extra <= Fraction("5.02"),
             "step-2 divisor exceeds 5.02")
    return Fraction("5.02")


def _poly_reverse(coeffs, degree: int) -> TPoly:
    """t^degree * p(1/t) for an ascending coefficient list of length <= degree+1."""
    out = [GaussRat.of(0)] * (degree + 1)
    for j, c in enumerate(coeffs):
        out[degree - j] = GaussRat.of(c)
    return TPoly(out)


def _nonvanish_gate(pair: PadePair, k: int, c0: Rat, c3: Rat, tmin: Rat) -> Rat:
    """Certified margin of |F_t(A(1/t) y, y)| > 1 under |y| > |t|^(k-1)/c0.

    P(t) = F_t(t^(k-1) U(1/t), t^(k-1) V(1/t)) must have degree 2k-2; the
    margin is L * tmin^(2k-2) / (c0^4 c3^4) - 1 with L the leading
    coefficient minus the absolute lower-order contribution at tmin.
    """
    X = _poly_reverse(pair.U, k - 1)
    Y = _poly_reverse(pair.V, k - 1)
    t = TPoly([0, 1])
    P = X ** 4 - t * X ** 3 * Y - 6 * X ** 2 * Y ** 2 + t * X * Y ** 3 + Y ** 4
    deg = P.degree()
    if deg != 2 * k - 2:
        raise NonVanishingError(f"P has degree {deg}, expected {2 * k - 2}")
    if Y.degree() != k - 1:
        raise NonVanishingError("denominator polynomial degree dropped")
    # leading coefficient is Gaussian rational; use |lead| >= lower bound
    L = sqrt_lower(P.coeffs[deg].abs_sq())
    for j in range(deg):
        cj = P.coeffs[j]
        if cj:
            L -= sqrt_upper(cj.abs_sq()) * Fraction(tmin) ** (j - deg)
    if L <= 0:
        raise NonVanishingError("no positive lower bound for |P(t)|")
    gate = L * Fraction(tmin) ** deg / (Fraction(c0) ** 4 * Fraction(c3) ** 4)
    return gate - 1


def _integral_pair(pair: PadePair) -> PadePair:
    """Scale (U, V) to primitive integer coefficients: the linear form
    t^(k-1)(Vx - Uy) must be a quadratic integer, so rational coefficients
    are cleared by the lcm of denominators (then reduced to content 1)."""
    import math

    vals = [c for c in pair.U + pair.V if c]
    if any(c.im for c in vals):
        raise DerivationError("expected real Pade coefficients")
    lam = Fraction(
        math.lcm(*(c.re.denominator for c in vals)),
        math.gcd(*(c.re.numerator for c in vals)),
    )
    scale = GaussRat.of(lam)
    return PadePair(tuple(c * scale for c in pair.U),
                    tuple(c * scale for c in pair.V), pair.contact_order)


def run_step(type_index: int, k: int, c0: Rat, tmin: Rat = Fraction(100)) -> StepRecord:
    """One Pade step: from |y| > |t|^(k-1)/c0 to |y| > |t|^k/c_out."""
    c0, tmin = Fraction(c0), Fraction(tmin)
    if type_index not in KSTART:
        raise ValueError("type_index must be 0 or 3")
    if k < KSTART[type_index]:
        raise ValueError("step index too small for this chain")
    B = root_series(type_index)
    pair = _integral_pair(pade(B, k - 1, k - 1))
    resid = pade_residual(B, pair)
    c1 = tail_bound(resid, 2 * k - 1, tmin)
    c2 = BETA_COEFF * c0 ** 4
    c3 = tail_bound(Series(list(pair.V), B.trunc), 0, tmin)
    hi_c, hi_exp = HIGH_ORDER[type_index]
    c_exact = (c1 + c2 * c3 * tmin ** (-(2 * k - 2))
               + hi_c * c3 * tmin ** (-(hi_exp + 1 - 2 * k)))
    c_out = round_up_sig(c_exact, 4)
    margin = _nonvanish_gate(pair, k, c0, c3, tmin)
    return StepRecord(
        type_index=type_index, k=k, c0_in=c0,
        c1=c1, c2=c2, c3=c3, c_exact=c_exact, c_out=c_out,
        y_lower_at_100=Fraction(100) ** k / c_out,
        nonvanish_margin=margin, nonvanish_ok=margin > 0, pade=pair,
    )


def run_descent(type_index: int, kmax: int = KMAX,
                tmin: Rat = Fraction(100)) -> list[StepRecord]:
    """Chain the steps, feeding each c_out into the next step's c0."""
    if type_index not in KSTART:
        raise ValueError("type_index must be 0 or 3")
    kstart = KSTART[type_index]
    if not kstart <= kmax <= KMAX:
        raise ValueError(f"kmax must be in [{kstart}, {KMAX}] for type {type_index}")
    if type_index == 0:
        c0 = step2_type0(tmin)
    else:
        c0 = 1 / step1(3, tmin)  # |y| > |t|/2.27 i.e. divisor 2.27
    records = []
    for k in range(kstart, kmax + 1):
        rec = run_step(type_index, k, c0, tmin)
        if not rec.nonvanish_ok:
            raise NonVanishingError(f"chain halted at k={k}")
        records.append(rec)
        c0 = rec.c_out
    return records


def star_bounds(Q: Rat, t_abs: Rat) -> dict:
    """The generalized bounds for |F_t(x,y)| <= Q: the root-distance
    coefficient, the type-classification threshold (20.14 Q / |t|)^(1/4)
    as an exact fourth-power value, and the linear-form bound pieces."""
    Q, t_abs = Fraction(Q), Fraction(t_abs)
    if t_abs < 100 or Q <= 0:
        raise ValueError("need t_abs >= 100 and Q > 0")
    return {
        "beta_bound_coeff": BETA_COEFF * Q,
        "type_threshold_fourth_power": Fraction("20.14") * Q / t_abs,
        "lb_linear_coeff": Fraction("2.16") / t_abs,
        "lb_cubic_coeff": BETA_COEFF * Q / t_abs,
    }
