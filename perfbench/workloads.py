"""Seeded inputs, operations and output checks for the three workloads.

Input generation is pure Python and imports nothing from ``thueq``, so the
parent process can build the inputs; the operations and their checks import
``thueq`` lazily and run inside the worker process.

Workloads (one client, closed loop):

* ``verify_all``: one fresh interpreter running ``thueq verify-all`` per
  operation.  The input is the theorem itself, so the seed does not change it.
* ``certify_sweep``: one warm process certifying seeded ``tmin`` points,
  log-uniform in [100, 10^6], with the certificate path and no search.
* ``concrete_t``: one warm process answering a fixed mix of queries about
  seeded concrete parameters ``t`` with ``|t|`` in [100, 10^4].
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

WORKLOADS = {
    "verify_all": "the user-facing verdict: search-dominated (dioph, quadfield), "
                  "descent and series second; cold process per operation",
    "certify_sweep": "the certificate path across tmin without the search: "
                     "descent and series dominate, dioph does no work",
    "concrete_t": "concrete-t queries: ComplexBall, TPoly.eval_ball, root_ball "
                  "and the corollary calculators, none of which run in verify-all",
}

SWEEP_LOG10 = (2.0, 6.0)
SWEEP_STRATA = 4  # one per decade; a run certifies whole blocks of them
SWEEP_POINTS = 512

T_LOG10 = (2.0, 4.0)
FIELDS = (1, 1, 2, 3, 7, 11)  # one block of rounds: two Gaussian in six
EPS_PERCENT = (20, 90)  # eps = k/100: its denominator sets the gates' integer powers
DIV_ORDERS = (3, 4, 5)
CLASSIFY_PER_T = 3
CONCRETE_ROUNDS = 1020  # whole blocks of len(FIELDS) rounds
MIN_GAP = 1e-3  # classify inputs keep the float runner-up this far behind


def _block_strata(rng: random.Random, count: int, strata: int):
    """Stratum indices in blocks: each block of ``strata`` draws is a fresh
    permutation.  Runs stop only at block ends, so every run holds the same
    mix of strata."""
    out = []
    while len(out) < count:
        block = list(range(strata))
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# ---------------------------------------------------------------------------
# certify_sweep

def sweep_inputs(seed: int) -> list[int]:
    """Distinct integer tmin values, log-uniform in [100, 10^6], in the order
    the worker certifies them, in blocks of one per stratum."""
    rng = random.Random(f"certify_sweep:{seed}")
    lo, hi = SWEEP_LOG10
    width = (hi - lo) / SWEEP_STRATA
    seen, out = set(), []
    for s in _block_strata(rng, SWEEP_POINTS, SWEEP_STRATA):
        tmin = None
        while tmin is None or tmin in seen:
            tmin = min(max(round(10 ** (lo + width * (s + rng.random()))), 100), 10 ** 6)
        seen.add(tmin)
        out.append(tmin)
    return out


def certify_point(tmin: int) -> dict:
    """One sweep operation: every certificate of the proof except the search,
    at one tmin."""
    from thueq import descent, measure, rouche

    t = Fraction(tmin)
    certs = dict(rouche.base_certificates(t))
    certs["B"] = rouche.certify_high_order("B", t)
    certs["B3"] = rouche.certify_high_order("B3", t)
    return {
        "certs": certs,
        "separation": rouche.root_separation(t),
        "descent": {ti: descent.run_descent(ti, tmin=t) for ti in (0, 3)},
        "constants": [measure.measure_constants(ti, t) for ti in (0, 3)],
        "kappa_hi": measure.kappa_hi(t),
        "upper": measure.contradiction_upper_bound(t),
    }


def check_point(tmin: int, res: dict) -> tuple[list[str], dict]:
    """Problems found in one sweep result, and the bounds the cross-point
    monotonicity check needs (as exact rational strings)."""
    t = Fraction(tmin)
    bad = []
    for name, c in res["certs"].items():
        if not (c.verified and c.margin > 0):
            bad.append(f"certificate {name} not verified (margin {c.margin})")
    if not res["separation"]["min_pairwise"] > 0:
        bad.append("root separation not positive")
    lowers = {}
    for ti, recs in res["descent"].items():
        for r in recs:
            if not (r.nonvanish_ok and r.nonvanish_margin > 0):
                bad.append(f"type {ti} step {r.k}: nonvanish margin {r.nonvanish_margin}")
        lowers[ti] = t ** recs[-1].k / recs[-1].c_out
    for mc in res["constants"]:
        if any(m < 0 for _, m in mc.lines):
            bad.append(f"type {mc.type_index} constant chain has a negative margin")
    if not res["kappa_hi"] < 3:
        bad.append(f"kappa_hi {res['kappa_hi']} not below 3")
    upper = res["upper"]
    if upper is None or not upper < min(lowers.values()):
        bad.append(f"contradiction_upper {upper} not below descent bounds")
    bounds = {"lower0": str(lowers[0]), "lower3": str(lowers[3]),
              "upper": None if upper is None else str(upper)}
    return bad, bounds


def monotone_violations(points: list[tuple[int, dict]]) -> list[int]:
    """tmin values whose bounds break the sweep's monotonicity: sorted by tmin,
    both descent lower bounds must rise and contradiction_upper must not."""
    bad = []
    ordered = sorted(points)
    for (_, a), (t1, b) in zip(ordered, ordered[1:]):
        if None in (a["upper"], b["upper"]):
            continue
        rises = all(Fraction(b[k]) > Fraction(a[k]) for k in ("lower0", "lower3"))
        if not rises or Fraction(b["upper"]) > Fraction(a["upper"]):
            bad.append(t1)
    return bad


# ---------------------------------------------------------------------------
# concrete_t: ring elements, a float root oracle and the query mix

def embed(d: int, a: int, b: int) -> complex:
    """a + b*omega in C, omega = (1 + sqrt(-d))/2 for d = 3 (mod 4), else
    sqrt(-d), with Im(sqrt(-d)) > 0."""
    r = math.sqrt(d)
    if d % 4 == 3:
        return complex(a + b / 2, b * r / 2)
    return complex(a, b * r)


def nearest(d: int, z: complex) -> tuple[int, int]:
    """Coordinates (a, b) of a ring element close to z."""
    r = math.sqrt(d)
    if d % 4 == 3:
        b = round(2 * z.imag / r)
        return round(z.real - b / 2), b
    return round(z.real), round(z.imag / r)


def float_roots(t: complex) -> list[complex]:
    """The roots of X^4 - tX^3 - 6X^2 + tX + 1 for |t| >= 100, in the order
    (near 0, near -1, near t, near 1), by Newton's method from their
    asymptotic positions."""
    out = []
    for z in (-1 / t, -1.0 + 0j, t, 1.0 + 0j):
        for _ in range(60):
            f = (((z - t) * z - 6) * z + t) * z + 1
            df = ((4 * z - 3 * t) * z - 12) * z + t
            step = f / df
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
        out.append(z)
    return out


def float_type(roots: list[complex], x: complex, y: complex) -> tuple[int, float]:
    """Index of the root minimising |x - alpha y|, and the relative gap to
    the runner-up."""
    dist = [abs(x - a * y) for a in roots]
    order = sorted(range(4), key=dist.__getitem__)
    best, second = dist[order[0]], dist[order[1]]
    return order[0], (second - best) / max(second, 1e-300)


def _random_t(rng: random.Random, d: int, stratum: int) -> tuple[int, int]:
    lo, hi = T_LOG10
    while True:
        modulus = 10 ** (lo + (hi - lo) * (stratum + rng.random()) / len(FIELDS)) + 1
        a, b = nearest(d, cmath.rect(modulus, rng.uniform(0, 2 * math.pi)))
        if (d == 1 or b != 0) and abs(embed(d, a, b)) >= 100:
            return a, b


def _classify_pair(rng: random.Random, d: int, roots: list[complex]):
    """(x, y) near the line x = alpha_j y for a random root j, with a wide
    float gap so that the exact classifier and the oracle must agree."""
    while True:
        y = (rng.randint(-9, 9), rng.randint(-9, 9))
        if y == (0, 0):
            continue
        j = rng.randrange(4)
        xa, xb = nearest(d, roots[j] * embed(d, *y))
        x = (xa + rng.randint(-2, 2), xb + rng.randint(-2, 2))
        if x == (0, 0):
            continue
        want, gap = float_type(roots, embed(d, *x), embed(d, *y))
        if gap > MIN_GAP:
            return x, y, want


def concrete_inputs(seed: int) -> list[dict]:
    """Rounds of queries; each round shares one concrete parameter t.  Every
    block of len(FIELDS) rounds holds each field, |t| stratum, eps stratum
    and divisibility order equally often."""
    rng = random.Random(f"concrete_t:{seed}")
    fields, t_strata, eps_strata = (_block_strata(rng, CONCRETE_ROUNDS, len(FIELDS))
                                    for _ in range(3))
    rounds = []
    for i in range(CONCRETE_ROUNDS):
        d = FIELDS[fields[i]]
        a, b = _random_t(rng, d, t_strata[i])
        tc = embed(d, a, b)
        roots = float_roots(tc)
        pairs = [_classify_pair(rng, d, roots) for _ in range(CLASSIFY_PER_T)]
        lo, hi = EPS_PERCENT
        eps = Fraction(lo + int((hi - lo) * (eps_strata[i] + rng.random()) / len(FIELDS)), 100)
        rounds.append({
            "d": d, "t": [a, b],
            "gauss_t": list(nearest(1, tc)) if d != 1 else [a, b],
            "pairs": [[list(x), list(y), want] for x, y, want in pairs],
            "r": DIV_ORDERS[i % len(DIV_ORDERS)],
            "eps": str(eps),
            "C": str(Fraction(rng.randint(1, 4000), rng.randint(1, 40))),
        })
    return rounds


def concrete_queries(rnd: dict) -> list[tuple]:
    """The fixed query mix of one round, as (kind, argument) pairs."""
    qs = [("classify_type", p) for p in rnd["pairs"]]
    qs += [("all_root_balls", None), ("divisibility_ball_check", rnd["r"]),
           ("corollary_eps", rnd["eps"]), ("corollary_lin", rnd["C"])]
    return qs


ROOT_RADIUS = Fraction(1, 1 << 64)


def run_query(rnd: dict, kind: str, arg):
    from thueq import dioph, measure
    from thueq.quadfield import QuadInt
    from thueq.series import GaussRat

    d = rnd["d"]
    t = QuadInt(d, *rnd["t"])
    if kind == "classify_type":
        x, y, _ = arg
        return dioph.classify_type(t, QuadInt(d, *x), QuadInt(d, *y))
    if kind == "all_root_balls":
        t_gauss, extra = dioph._t_exact(t)
        return dioph.all_root_balls(embed(d, *rnd["t"]), t_gauss, extra, ROOT_RADIUS)
    if kind == "divisibility_ball_check":
        g = rnd["gauss_t"]
        return dioph.divisibility_ball_check(arg, GaussRat(Fraction(g[0]), Fraction(g[1])))
    if kind == "corollary_eps":
        return measure.corollary_eps(Fraction(arg))
    if kind == "corollary_lin":
        return measure.corollary_lin(Fraction(arg))
    raise ValueError(f"unknown query {kind}")


def check_query(rnd: dict, kind: str, arg, res) -> list[str]:
    from thueq import measure

    if kind == "classify_type":
        want = arg[2]
        return [] if res == want else [f"classify_type gave {res}, float oracle {want}"]
    if kind == "all_root_balls":
        bad = []
        for ball, z in zip(res, float_roots(embed(rnd["d"], *rnd["t"]))):
            mid = complex(float(ball.re_mid), float(ball.im_mid))
            if ball.radius > ROOT_RADIUS or abs(mid - z) > 1e-9 * max(1.0, abs(z)):
                bad.append(f"root ball {mid} r={float(ball.radius)} misses float root {z}")
        return bad
    if kind == "divisibility_ball_check":
        ok = res["all_contain_zero"] and res["order"] == 2 * arg + 1
        return [] if ok else [f"divisibility check at r={arg} failed: {res}"]
    if kind == "corollary_eps":
        eps, t0 = Fraction(arg), res["t0"]
        bad = []
        if not all(g.ok for g in res["gates"]):
            bad.append(f"eps={arg}: a gate fails at t0={t0}")
        if not all(g.ok for g in res["gates_at_double"]):
            bad.append(f"eps={arg}: a gate fails at 2*t0")
        if all(g.ok for g in measure._eps_gates(t0 - 1, eps)):
            bad.append(f"eps={arg}: t0={t0} is not minimal, all gates pass at t0-1")
        return bad
    if kind == "corollary_lin":
        t0 = res["t0"]
        ok = (res["C0"] == max(res["terms"]) and res["consistency_margin"] > 0
              and measure.kappa_hi(t0) < 2
              and (t0 == measure.LIN_T0_FLOOR or measure.kappa_hi(t0 - 1) >= 2))
        return [] if ok else [f"corollary_lin C={arg} gave inconsistent t0={t0}"]
    raise ValueError(f"unknown query {kind}")
