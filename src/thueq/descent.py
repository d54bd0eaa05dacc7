"""The iterative lower-bound engine for |y|: closed-form first steps, then
Pade-based steps k = 3..11 for both solution types, with every inequality
replayed in exact rational arithmetic and every side condition certified."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from . import zpoly
from .exactnum import TMIN_FLOOR, ChainError, Rat, floor_line, lines, pair_record, round_up_sig
from .rouche import ALPHA0_RADIUS, ALPHA13_RADIUS, HIGH_ORDER, require
from .series import QUARTIC, PadePair, horner_sum, pade, pade_residual, root_series, tail_ints

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


# c1, c2, c3, c_exact and the margin are unreduced pairs: the chain reads only k and c_out
StepRecord = pair_record("StepRecord", "type_index k c1 c2 c3 c_exact c_out nonvanish_margin "
                         "nonvanish_ok pade", "c1 c2 c3 c_exact nonvanish_margin")


@lru_cache(maxsize=2)
def _first_fixed(type_index: int) -> tuple:
    """The tmin-free lines of one chain's first steps, checked once per
    process for each type.  A failure raises, and is not cached."""
    absorb = ("absorption cap 0.11", BETA_COEFF / 3 ** 4, ABSORB_CAP)  # 8.86/|y|^4, |y| >= 3
    if type_index == 0:
        return lines(absorb, ("step-1 coefficient 2.67",
                              STEP1_COEFF, 3 / (ALPHA0_MODULUS + ABSORB_CAP)))
    if type_index != 3:
        raise ValueError("type_index must be 0 or 3")
    # side case x = y gives |F| = 4|x|^4 >= 4*81 > 1: on integers 1 < n is 2 <= n
    return lines(absorb, ("side case x = y", 2, 4 * 3 ** 4),
                 ("step-1 divisor 2.27", ALPHA13_RADIUS + ABSORB_CAP, STEP1_DIVISOR),
                 # |y| > |t|/2.27 is strict, so 0.44 <= 1/2.27 gives |y| > 0.44|t|
                 ("relative floor 0.44", STEP1_RELATIVE_FLOOR, 1 / STEP1_DIVISOR))


def first_c0(type_index: int, tmin: Rat = TMIN_FLOOR) -> Rat:
    """The c0 of |y| > |t|^(k-1)/c0 that each chain's first Pade step starts
    from: |t|^2/5.02 after the type-0 steps |y| > 2.67|t| and |y| > |t|^2/5.02
    (the vanishing case tx + y = 0 excluded via x^4 (1 - 5t^2) = mu), or
    |t|/2.27 after the type-3 step.  Every line is checked at tmin (the
    tmin-free ones once per process), with min{|x|,|y|} >= 3 assumed, on the
    enclosure of the root the chain starts from: alpha0's or alpha3's."""
    tmin = Fraction(tmin)
    lines(floor_line(tmin))
    require(tmin, "alpha3" if type_index == 3 else "alpha0")
    _first_fixed(type_index)
    if type_index == 3:
        return STEP1_DIVISOR
    (p, q), (rn, rd), (bn, bd), (cn, cd) = (x.as_integer_ratio() for x in (
        tmin, ALPHA0_RADIUS, BETA_COEFF, STEP1_COEFF))  # 5.01 = rn/rd, 8.86 = bn/bd, 2.67 = cn/cd
    # |alpha0| <= (1 + 5.01/tmin^2)/|t| <= 1.01/|t|: 1 + 5.01/tmin^2 = (rd p^2 + rn q^2)/(rd p^2)
    lines(("root modulus 1.01", (rd * p * p + rn * q * q, rd * p * p), ALPHA0_MODULUS),
          # 2 <= 5 tmin^2 - 1 = (5p^2 - q^2)/q^2: |x^4 (1 - 5t^2)| >= 81 * 2 > 1 >= |mu|
          ("side case x^4 (1 - 5t^2) = mu", 2, (5 * p * p - q * q, q * q)),
          # 5.01 + 8.86/(2.67 tmin)^4 tmin^2 = (rn bd cn^4 p^2 + rd bn cd^4 q^2)/(rd bd cn^4 p^2)
          ("step-2 divisor 5.02", (rn * bd * cn ** 4 * p * p + rd * bn * cd ** 4 * q * q,
                                   rd * bd * cn ** 4 * p * p), STEP2_DIVISOR))
    return STEP2_DIVISOR


def _reversed_ints(coeffs, degree: int) -> list[int]:
    """Ascending integer coefficients of t^degree * p(1/t), where coeffs are
    the ascending integer coefficients of p, of degree <= degree."""
    return [0] * (degree + 1 - len(coeffs)) + list(reversed(coeffs))


def _nonvanish_poly(pair: PadePair, k: int) -> tuple[int, ...]:
    """P(t) = F_t(t^(k-1) U(1/t), t^(k-1) V(1/t)) over Z, ascending, of
    degree exactly 2k-2: with F_t = F_A + t F_B for the rows A, B of
    ``QUARTIC`` homogenised at (X, Y), P = F_A(X, Y) + t F_B(X, Y), by one
    homogeneous Horner in X whose coefficients A_j + t B_j are linear in t."""
    X = _reversed_ints(pair.U, k - 1)
    Y = _reversed_ints(pair.V, k - 1)
    if Y[-1] == 0:
        raise ChainError("denominator polynomial degree dropped")
    cols = list(zip(*QUARTIC))  # (A_j, B_j): the coefficient of X^j, in t
    ypow = list(accumulate([Y] * (len(cols) - 1), zpoly.mul, initial=[1]))
    P = list(cols[-1])
    for j in range(1, len(cols)):  # P <- P X + (A_(4-j) + t B_(4-j)) Y^j
        P = zpoly.add(zpoly.mul(P, X), zpoly.mul(cols[-1 - j], ypow[j]))
    while P and P[-1] == 0:
        P.pop()
    if len(P) - 1 != 2 * k - 2:
        raise ChainError(f"P has degree {len(P) - 1}, expected {2 * k - 2}")
    return tuple(P)


@lru_cache(maxsize=4)
def _powers(p: int, q: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """p^i and q^i for 0 <= i <= top, the one power table of tmin = p/q: a chain to
    KMAX asks for top = 4 KMAX - 4, past every index its steps read, so builds it once."""
    return (tuple(accumulate(repeat(p, top), mul, initial=1)),
            tuple(accumulate(repeat(q, top), mul, initial=1)) if q > 1 else (1,) * (top + 1))


@lru_cache(maxsize=None)
def _step_algebra(type_index: int, k: int) -> tuple:
    """The tmin-free part of step k, built once per process over Z: the Pade
    pair of the root series, the majorant lists |U - BV| from s^(2k-1) (none
    below it) with its denominator and |V|, and the lower-bound list
    (|P_deg|, -|P_deg-1|, ..., -|P_0|) of the non-vanishing polynomial P; then
    the exponents m1, m2, m of run_step, t1 and t3 the last indices of the two
    majorant lists (t1 = -1 when the residual has no term left), and e."""
    B = root_series(type_index)
    pair = pade(B, k - 1, k - 1)
    resid = pade_residual(B, pair)
    lead, *lower = (abs(c) for c in reversed(_nonvanish_poly(pair, k)))
    tail, hi_exp = tuple(tail_ints(resid, 2 * k - 1)), HIGH_ORDER[type_index][1]
    m1, m2, t1, t3 = 2 * k - 2, hi_exp + 1 - 2 * k, len(tail) - 1, len(pair.V) - 1
    return (pair, tail, resid.den, tuple(abs(c) for c in pair.V), (lead, *(-c for c in lower)),
            m1, m2, max(m1, m2), t1, t3, max(t1, t3 + max(m1, m2)))


def run_step(type_index: int, k: int, c0: Rat, tmin: Rat = TMIN_FLOOR) -> StepRecord:
    """One Pade step: from |y| > |t|^(k-1)/c0 to |y| > |t|^k/c_out, c_out >=
    c_exact = c1 + c2 c3 tmin^-m1 + hi_c c3 tmin^-m2 for m1 = 2k-2, m2 =
    hi_exp+1-2k >= 0 (hi_exp is the series' truncation), and the margin of
    |F_t(A(1/t) y, y)| > 1: each an integer pair (sum, denominator) in tmin = p/q."""
    if type_index not in KSTART:
        raise ValueError("type_index must be 0 or 3")
    if k < KSTART[type_index]:
        raise ValueError("step index too small for this chain")
    pair, resid, resid_den, V, low, m1, m2, m, t1, t3, e = _step_algebra(type_index, k)
    p, q = tmin.numerator, tmin.denominator
    if p < q:
        raise ValueError("tmin must be >= 1")
    hn, hd = HIGH_ORDER[type_index][0].as_integer_ratio()
    P, Q = _powers(p, q, max(e - min(t1, 0), 4 * t3, 4 * KMAX - 4))  # to P[e - t1], P[4 t3]
    n1, n3, nl = horner_sum(resid, p, q), horner_sum(V, p, q), horner_sum(low, p, q)
    d1, d3 = P[max(t1, 0)], P[t3]
    a0, b0 = c0.numerator ** 4, c0.denominator ** 4
    n2, d2 = BETA_COEFF.numerator * a0, BETA_COEFF.denominator * b0
    # c2 tmin^-m1 + hi_c tmin^-m2 = x / (d2 hd p^m)
    x = n2 * hd * Q[m1] * P[m - m1] + hn * d2 * Q[m2] * P[m - m2]
    # c1 + c3 x/(d2 hd p^m) over resid_den d2 hd p^e, least e: c1 = n1/(resid_den p^t1), d3 = p^t3
    c_exact = (n1 * d2 * hd * P[e - t1] + resid_den * n3 * x * P[e - t3 - m],
               resid_den * d2 * hd * P[e])
    # L tmin^m1 / (c0^4 c3^4) - 1 for the lower bound L = nl / p^m1 of |P(t)| / t^m1
    den = Q[m1] * a0 * n3 ** 4
    if nl <= 0:
        raise ChainError("no positive lower bound for |P(t)|")
    if not den:
        raise ZeroDivisionError("c0 = 0: the margin divides by c0^4")
    margin = (nl * b0 * P[4 * t3] - den, den)
    return StepRecord(type_index, k, (n1, d1 * resid_den), (n2, d2), (n3, d3), c_exact,
                      round_up_sig(c_exact, 4), margin, margin[0] > 0, pair)


def run_descent(type_index: int, kmax: int = KMAX,
                tmin: Rat = TMIN_FLOOR) -> list[StepRecord]:
    """Chain the steps from first_c0, feeding each c_out into the next step's
    c0, each past the strict line of its non-vanishing margin; every step
    reads the high-order enclosure of its type, B or B3."""
    c0, kstart, records = first_c0(type_index, tmin), KSTART[type_index], []
    require(tmin, "B3" if type_index == 3 else "B")
    if not kstart <= kmax <= KMAX:
        raise ValueError(f"kmax must be in [{kstart}, {KMAX}] for type {type_index}")
    for k in range(kstart, kmax + 1):
        rec = run_step(type_index, k, c0, tmin)
        # decided by run_step's integer sign: the margin is reduced only to name a failure
        lines((f"type {type_index} step k={k} non-vanishing numerator",
               0, 1 if rec.nonvanish_ok else rec.nonvanish_margin.numerator, "<"))
        records.append(rec)
        c0 = rec.c_out
    return records

