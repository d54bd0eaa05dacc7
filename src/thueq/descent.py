"""The iterative lower-bound engine for |y|: closed-form first steps, then
Pade-based steps k = 3..11 for both solution types, with every inequality
replayed in exact rational arithmetic and every side condition certified."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import zpoly
from .exactnum import Rat, round_up_sig
from .rouche import ALPHA0_RADIUS, ALPHA13_RADIUS, HIGH_ORDER
from .series import (QUARTIC, PadePair, Series, inverse_horner, pade, pade_residual,
                     root_series, tail_bound)

BETA_COEFF = Fraction("8.86")          # |x - alpha y| < 8.86/(|t| |y|^3)
TYPE_THRESHOLD = Fraction("20.14")     # type threshold: min{|x|, |y|}^4 >= 20.14 Q/|t|
STEP1_COEFF = Fraction("2.67")         # type 0 step 1: |y| > 2.67|t|
STEP1_DIVISOR = Fraction("2.27")       # type 3 step 1: |y| > |t|/2.27 > 0.44|t|
STEP1_RELATIVE_FLOOR = Fraction("0.44")
# type 0 step 2: |y| > |t|^2/5.02; equal to rouche.ALPHA2_RADIUS in value only
STEP2_DIVISOR = Fraction("5.02")
ABSORB_CAP = Fraction("0.11")          # 8.86/|y|^4 <= 0.11 for |y| >= 3
ALPHA0_MODULUS = Fraction("1.01")      # |alpha0| <= 1.01/|t|
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
    c1: Rat
    c2: Rat
    c3: Rat
    c_exact: Rat
    c_out: Rat
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
    _require(absorb <= ABSORB_CAP, "absorption constant exceeds 0.11")
    if type_index == 0:
        # |alpha| <= (1 + 5.01/tmin^2)/|t| <= 1.01/|t|
        _require(1 + ALPHA0_RADIUS / tmin ** 2 <= ALPHA0_MODULUS,
                 "root-modulus bound exceeds 1.01")
        _require(3 / (ALPHA0_MODULUS + ABSORB_CAP) >= STEP1_COEFF,
                 "type-0 step-1 coefficient not dominated")
        return STEP1_COEFF
    if type_index == 3:
        # side case x = y gives |F| = 4|x|^4 >= 4*81 > 1: impossible
        _require(4 * Fraction(3) ** 4 > 1, "side case not excluded")
        _require(ALPHA13_RADIUS + ABSORB_CAP <= STEP1_DIVISOR, "type-3 slope exceeds 2.27")
        _require(1 / STEP1_DIVISOR > STEP1_RELATIVE_FLOOR, "relative bound below 0.44")
        return 1 / STEP1_DIVISOR
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
    _require(ALPHA0_RADIUS + extra <= STEP2_DIVISOR, "step-2 divisor exceeds 5.02")
    return STEP2_DIVISOR


def _reversed_ints(coeffs, degree: int) -> list[int]:
    """Ascending integer coefficients of t^degree * p(1/t), where coeffs are
    the ascending integer coefficients of p, of degree <= degree."""
    return [0] * (degree + 1 - len(coeffs)) + list(reversed(coeffs))


def _nonvanish_poly(pair: PadePair, k: int) -> tuple[int, ...]:
    """P(t) = F_t(t^(k-1) U(1/t), t^(k-1) V(1/t)) over Z, ascending, of
    degree exactly 2k-2: with F_t = F_A + t F_B for the rows A, B of
    ``QUARTIC`` homogenised at (X, Y), P = F_A(X, Y) + t F_B(X, Y)."""
    X = _reversed_ints(pair.U, k - 1)
    Y = _reversed_ints(pair.V, k - 1)
    if Y[-1] == 0:
        raise NonVanishingError("denominator polynomial degree dropped")
    FA, FB = (zpoly.homogenise(row, (X, ()), (Y, ()))[0] for row in QUARTIC)
    P = zpoly.add(FA, [0] + FB)
    while P and P[-1] == 0:
        P.pop()
    if len(P) - 1 != 2 * k - 2:
        raise NonVanishingError(f"P has degree {len(P) - 1}, expected {2 * k - 2}")
    return tuple(P)


@lru_cache(maxsize=None)
def _step_algebra(type_index: int, k: int) -> tuple[PadePair, Series, Series, tuple[int, ...]]:
    """The tmin-free part of step k, built once per process: the integer
    Pade pair of the root series, its residual U - BV, V as a series and the
    non-vanishing polynomial P.  The series are shared by every caller and
    must not be mutated."""
    B = root_series(type_index)
    pair = pade(B, k - 1, k - 1)
    V = Series.from_ints((pair.V, ()), 1, B.trunc)
    return pair, pade_residual(B, pair), V, _nonvanish_poly(pair, k)


def _nonvanish_gate(P: tuple[int, ...], c0: Rat, c3: Rat, tmin: Rat) -> Rat:
    """Certified margin of |F_t(A(1/t) y, y)| > 1 under |y| > |t|^(k-1)/c0:
    L * tmin^deg / (c0^4 c3^4) - 1, with L the leading coefficient of P
    minus the absolute lower-order contribution at tmin."""
    tmin = Fraction(tmin)
    lead, *lower = (abs(c) for c in reversed(P))
    L = inverse_horner([lead] + [-c for c in lower], tmin)
    if L <= 0:
        raise NonVanishingError("no positive lower bound for |P(t)|")
    return L * tmin ** len(lower) / (Fraction(c0) ** 4 * Fraction(c3) ** 4) - 1


def run_step(type_index: int, k: int, c0: Rat, tmin: Rat = Fraction(100)) -> StepRecord:
    """One Pade step: from |y| > |t|^(k-1)/c0 to |y| > |t|^k/c_out."""
    c0, tmin = Fraction(c0), Fraction(tmin)
    if type_index not in KSTART:
        raise ValueError("type_index must be 0 or 3")
    if k < KSTART[type_index]:
        raise ValueError("step index too small for this chain")
    pair, resid, V, P = _step_algebra(type_index, k)
    c1 = tail_bound(resid, 2 * k - 1, tmin)
    c2 = BETA_COEFF * c0 ** 4
    c3 = tail_bound(V, 0, tmin)
    hi_c, hi_exp = HIGH_ORDER[type_index]
    c_exact = (c1 + c2 * c3 * tmin ** (-(2 * k - 2))
               + hi_c * c3 * tmin ** (-(hi_exp + 1 - 2 * k)))
    c_out = round_up_sig(c_exact, 4)
    margin = _nonvanish_gate(P, c0, c3, tmin)
    return StepRecord(
        type_index=type_index, k=k,
        c1=c1, c2=c2, c3=c3, c_exact=c_exact, c_out=c_out,
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

