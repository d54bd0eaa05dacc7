import hashlib
import importlib
import json
import random
import re
from fractions import Fraction as F
from functools import lru_cache
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (LETTL_NAMES, first_c0_oracle, measure_constants_oracle, outcome,
                     root_separation_oracle, sqrt_bounds, verify_lettl_oracle)

from thueq import corollary, descent, dioph, exactnum, hyperchi, measure, rouche, series
from thueq.cli import main
from thueq.concrete import root_ball
from thueq.exactnum import iroot, round_up_sig
from thueq.corollary import corollary_eps, corollary_lin, rat_pow_upper
from thueq.measure import (
    CONTRADICTION_COEFF,
    ChainError,
    contradiction_upper_bound,
    kappa_hi,
    kappa_lo,
    measure_constants,
    theorem_assembly,
)
from thueq.series import GaussRat


def test_measure_constants_type0():
    mc = measure_constants(0)
    assert (mc.k0, mc.Q_coeff, mc.l0_coeff) == (F("3.32"), F("2.94"), F("1.83"))
    assert (mc.E_div, mc.qmin_coeff, mc.c_coeff) == (F("13.27"), F("0.28"), F("5.47"))
    assert all(margin >= 0 for _, margin in mc.lines)


def test_measure_constants_type3():
    mc = measure_constants(3)
    assert (mc.k0, mc.Q_coeff, mc.l0_coeff) == (F("4.7"), F("2.94"), F("3.66"))
    assert (mc.E_div, mc.qmin_coeff, mc.c_coeff) == (F("13.27"), F("0.14"), F("15.48"))
    assert all(margin >= 0 for _, margin in mc.lines)


def test_kappa_certified_values():
    assert kappa_hi(F(100)) < F("2.83")
    assert kappa_hi(F(84)) < 3
    assert kappa_lo(F(80)) > 3
    assert kappa_hi(F(100)) > kappa_lo(F(100)) - F(1, 10**6)


def rat_pow_lower(x, e, bits=80):
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


def test_rat_pow_bounds():
    x = F(2)
    lo = rat_pow_lower(x, F(1, 2))
    hi = rat_pow_upper(x, F(1, 2))
    assert lo <= hi
    assert lo**2 <= 2 <= hi**2
    assert rat_pow_upper(F(8), F(1, 3)) >= 2 >= rat_pow_lower(F(8), F(1, 3))


def test_contradiction_upper_bound():
    upper = contradiction_upper_bound(F(100))
    assert upper == 3731868499357
    assert upper <= F("3.74e12")
    # upper is the least integer X with X^p >= 137.16^100 for p = 100(3 -
    # kappa), kappa rounded up to two decimals (any solution has |y| < X)
    pins = {F(100): (17, 3731868499357), F(101): (18, 747284510192), F(150): (48, 28351),
            F(999): (114, 75), F(12345): (146, 30), F(10**6): (167, 20),
            F(1234567, 3): (164, 21), F(10**30): (194, 13)}
    for tmin, (p, pin) in pins.items():
        upper = contradiction_upper_bound(tmin)
        assert upper == pin, tmin
        assert (upper - 1) ** p < CONTRADICTION_COEFF**100 <= upper**p


def test_the_cached_contradiction_x_is_the_least_x_for_every_p():
    # X is free of tmin and cached by (coefficient, p): p = 100(3 - kappa) takes
    # the values 1..199 for kappa rounded up to two decimals in (1, 3)
    n = -(-CONTRADICTION_COEFF.numerator ** 100 // CONTRADICTION_COEFF.denominator ** 100)
    for p in range(1, 200):
        x = measure._least_x(CONTRADICTION_COEFF, p)
        assert (x - 1) ** p < n <= x**p, p
    assert measure._least_x(F(2), 100) == 2 and measure._least_x(F(2), 50) == 4
    assert measure._least_x.cache_info().maxsize is not None


def _ceil_decimals(x, decimals):
    """x rounded up to a multiple of 10^-decimals."""
    q = 10 ** decimals
    return F(-((-x.numerator * q) // x.denominator), q)


def test_significant_rounding_is_the_decimal_ceiling_on_kappa_range():
    # measure rounds kappa up to d + 1 significant digits: for 1 <= kappa < 10
    # that is the ceiling to d decimals
    rng = random.Random(33)
    qs = [10**k for k in range(12) for _ in range(20)]  # values with k decimals
    qs += [rng.randint(2, 10**30) for _ in range(400)]
    xs = [F(rng.randint(q, 10 * q - 1), q) for q in qs]
    xs += [F(1), F(283, 100), F(9995, 1000), F(99995, 10000), 10 - F(1, 10**40)]
    for d in (2, 4):
        for x in xs:
            assert round_up_sig(x, d + 1) == _ceil_decimals(x, d), (x, d)


def irrationality_lower(t_abs, q_abs, type_index):
    """Certified lower bound for |alpha - p/q|: 1 / (c |t| |q|^(kappa+1))."""
    t_abs, q_abs = F(t_abs), F(q_abs)
    if t_abs < 100:
        raise ValueError("requires t_abs >= 100")
    qmin = measure.QMIN[type_index]
    if q_abs < qmin * t_abs:
        raise ValueError(f"requires q_abs >= QMIN[{type_index}] * t_abs "
                         f"= {float(qmin)} * t_abs")
    # a 2-decimal ceiling keeps the power's denominator at 100, which keeps
    # the integer root extraction cheap; coarsening kappa upward only
    # weakens (never invalidates) the returned lower bound
    exp_hi = _ceil_decimals(kappa_hi(t_abs), 2) + 1
    q_up = round_up_sig(q_abs, 6)
    return 1 / (measure.C_COEFF[type_index] * t_abs * rat_pow_upper(q_up, exp_hi))


def test_irrationality_lower_positive():
    for ti in (0, 3):
        lb = irrationality_lower(F(100), F(1000), ti)
        assert lb > 0
        # larger |q| weakens the bound
        assert irrationality_lower(F(100), F(10**6), ti) < lb


def test_irrationality_lower_reads_the_q_gate_of_its_root_type():
    # the type-3 chain certifies the q gate 0.14, the type-0 chain 0.28
    assert irrationality_lower(F(100), F(20), 3) > 0
    with pytest.raises(ValueError, match=r"QMIN\[3\]"):
        irrationality_lower(F(100), F(13), 3)
    with pytest.raises(ValueError, match=r"QMIN\[0\]"):
        irrationality_lower(F(100), F(20), 0)


def test_irrationality_bound_against_certified_root():
    # sample rational points p/q and confirm the certified root enclosure
    # never comes closer than the claimed lower bound
    t = GaussRat(F(0), F(100))
    alpha = root_ball(t, 0.01j, F(1, 2**120))
    rng = random.Random(7)
    for _ in range(50):
        qa, qb = rng.randint(28, 200), rng.randint(28, 200)
        pa, pb = rng.randint(-3, 3), rng.randint(-3, 3)
        q_sq = qa * qa + qb * qb
        # distance from alpha to p/q, from below
        pr = F(pa * qa + pb * qb, q_sq)
        pi = F(pb * qa - pa * qb, q_sq)
        dr = alpha.re_mid - pr
        di = alpha.im_mid - pi
        dist_lo = max(F(0), sqrt_bounds(dr * dr + di * di)[0] - alpha.radius)
        lb = irrationality_lower(F(100), sqrt_bounds(F(q_sq))[1], 0)
        assert dist_lo > lb


def test_theorem_assembly_proven(assembly_100):
    rep = assembly_100
    assert rep.verdict == "proven"
    assert all(g.ok for g in rep.all_gates)
    assert rep.contradiction_upper == 3731868499357
    assert rep.descent_lower_0 > F("2.115e13")
    assert rep.descent_lower_3 > F("1.047e13")
    assert rep.contradiction_upper < min(rep.descent_lower_0, rep.descent_lower_3)


def test_theorem_assembly_inconclusive_below_domain(assembly_80):
    rep = assembly_80
    assert rep.verdict == "inconclusive"
    failed = {g.name for g in rep.all_gates if not g.ok}
    assert "kappa below 3" in failed


def test_theorem_assembly_below_zero_fails_the_first_gates():
    # every t has |t| >= -200; squaring tmin once passed the irreducibility gate
    rep = theorem_assembly(F(-200))
    assert rep.verdict == "inconclusive"
    irred, small = rep.all_gates[:2]
    assert not irred.ok and irred.detail == "27 reducible parameters, 27 at or above tmin"
    assert not small.ok and small.detail.startswith("ValueError")


VERIFY_ALL_REFERENCE = Path(__file__).parents[1] / "perfbench/reference/verify_all.json"


def test_verify_all_at_100_never_runs_the_search(monkeypatch, capsys):
    # 83521/18 < 100^2: the derived bound on |t|^2 decides the gate
    def refuse(tmin_abs=F(0)):
        raise AssertionError("small_solution_search ran")

    monkeypatch.setattr(dioph, "small_solution_search", refuse)
    assert theorem_assembly(F(100)).verdict == "proven"
    assert main(["verify-all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_REFERENCE.read_text()


def test_verify_all_does_not_depend_on_an_earlier_log(monkeypatch, capsys):
    # ln 2 is a function of its budget: an earlier enclosure at k = 122 once
    # left an ln 2 entry that kappa read for the report, and kappa_hi moved
    monkeypatch.setattr(exactnum, "_LN2_CACHE", {})
    monkeypatch.setattr(measure, "_kappa", lru_cache(maxsize=64)(measure._kappa.__wrapped__))
    exactnum.ln_enclosure(F(5, 4) * 2 ** 122, F(1, 10**6))
    assert main(["verify-all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_REFERENCE.read_text()


# every line that a proven report at tmin 100 rests on, by name
ASSEMBLY_LINE_NAMES = {
    "small-solution bound below tmin^2", "root drift cap 0.06", "separation floor 0.5",
    "tmin floor 100", "absorption cap 0.11", "step-1 coefficient 2.67", "root modulus 1.01",
    "side case x^4 (1 - 5t^2) = mu", "step-2 divisor 5.02", "side case x = y",
    "step-1 divisor 2.27", "relative floor 0.44", "beta 8.86", "kappa shift 1.08",
    "kappa shift 2.59", "contradiction coefficient 137.16", "numerator base 2.94",
    "error prefactor 1.14", "error base 1.24", "error coefficient 1.83", "error base 13.27",
    "c prefactor 19.53", "absorption base 0.28", "c coefficient 5.47", "q gate 0.28",
    "w-circle gate |1-w| < 1", "|w|, |1/w| cap 1.09", "|u|, |z| cap 1.04|t|",
    "|t|-4 floor 0.96|t|", "|t|-12 floor 0.88|t|", "small-root cap 0.02", "kappa at least 1",
    "unit factor 4.7", "error coefficient 3.66", "c prefactor 27.64", "absorption base 0.56",
    "c coefficient 15.48", "q gate 0.14", "distance to i cap 1.44", "kappa below 3",
    "contradiction bound below the descent bounds",
    *(f"type 0 step k={k} non-vanishing numerator" for k in range(3, 12)),
    *(f"type 3 step k={k} non-vanishing numerator" for k in range(2, 12)),
    *(f"Lettl bound {bound} at r={r}" for bound in ("3.32*1.35^r", "1.6*10.7^r")
      for r in range(1, 61)),
}


def test_theorem_assembly_checks_the_pinned_line_names(monkeypatch):
    # the once-per-process checks run anew, so that their lines are recorded too
    names, real = set(), exactnum.lines

    def record(*reqs):
        names.update(req[0] for req in reqs)
        return real(*reqs)

    for module in (measure, descent, hyperchi):
        monkeypatch.setattr(module, "lines", record)
    for module, name in ((measure, "_tmin_free_checks"), (measure, "_fixed_lines"),
                         (descent, "_first_fixed")):
        monkeypatch.setattr(module, name, lru_cache(maxsize=None)(
            getattr(module, name).__wrapped__))
    assert theorem_assembly(F(100)).verdict == "proven"
    assert names == ASSEMBLY_LINE_NAMES


# every decimal F("...") or Fraction("...") in src/thueq, by value: the named
# lines above that check it, the Rouche certificates whose radius it is, or
# "cited: <source>" for a published input that no run checks
DECIMALS = {
    "0.02": "small-root cap 0.02", "0.06": "root drift cap 0.06",
    "0.11": "absorption cap 0.11", "0.14": "q gate 0.14",
    "0.28": ("absorption base 0.28", "q gate 0.28"),
    "0.31": "cited: the paper's proof of the corollaries, 443 >= 8.86 * 15.48 / 0.31",
    "0.33": "cited: the paper's proof of the eps corollary, 8.86 / |t|^(1/2 + eps/4) <= 0.33",
    "0.44": "relative floor 0.44", "0.5": "separation floor 0.5",
    "0.56": "absorption base 0.56", "0.88": "|t|-12 floor 0.88|t|",
    "0.96": "|t|-4 floor 0.96|t|", "1.01": "root modulus 1.01",
    "1.02": "error prefactor 1.14", "1.04": "|u|, |z| cap 1.04|t|",
    "1.08": "kappa shift 1.08", "1.09": "|w|, |1/w| cap 1.09",
    "1.14": "error prefactor 1.14", "1.24": "error base 1.24",
    "1.35": "Lettl bound 3.32*1.35^r", "1.44": "distance to i cap 1.44",
    "1.6": "Lettl bound 1.6*10.7^r", "1.83": "error coefficient 1.83",
    "2.16": ("certificate alpha1", "certificate alpha3"), "2.27": "step-1 divisor 2.27",
    "2.59": "kappa shift 2.59", "2.67": "step-1 coefficient 2.67",
    "2.94": "numerator base 2.94", "3.32": "Lettl bound 3.32*1.35^r",
    "3.66": "error coefficient 3.66", "4.7": "unit factor 4.7",
    "5.01": "certificate alpha0", "5.02": ("step-2 divisor 5.02", "certificate alpha2"),
    "5.47": "c coefficient 5.47", "8.86": "beta 8.86", "10.7": "Lettl bound 1.6*10.7^r",
    "13.27": "error base 13.27", "15.48": "c coefficient 15.48",
    "19.53": "c prefactor 19.53",
    "20.14": "cited: the paper's type reduction, min{|x|, |y|}^4 >= 20.14 Q/|t|",
    "27.64": "c prefactor 27.64", "137.16": "contradiction coefficient 137.16",
}


def test_every_decimal_in_src_is_checked_or_cited():
    src = Path(__file__).parents[1] / "src/thueq"
    found = {m for path in src.glob("*.py")
             for m in re.findall(r'\b(?:F|Fraction)\("([^"]*)"\)', path.read_text())}
    assert not found - set(DECIMALS), "unregistered decimals"
    assert not set(DECIMALS) - found, "registered decimals gone from src/thueq"
    certs = rouche.base_certificates()
    for value, checks in DECIMALS.items():
        for check in (checks,) if isinstance(checks, str) else checks:
            if check.startswith("certificate "):
                cert = certs[check.split()[1]]
                assert cert.verified and cert.radius_c == F(value), (value, check)
            elif check.startswith("Lettl bound "):
                assert all(f"{check} at r={r}" in ASSEMBLY_LINE_NAMES
                           for r in range(1, measure.RMAX + 1)), (value, check)
            else:
                assert check.startswith("cited: ") or check in ASSEMBLY_LINE_NAMES, (value, check)


@pytest.mark.parametrize("tmin, searched", [
    (F(0), True), (F(68), True), (F(69), False), (F(100), False)])
def test_the_small_solution_gate_searches_below_the_derived_bound(monkeypatch, tmin, searched):
    # 68^2 < 83521/18 < 69^2; the gate's detail is the same on both routes
    calls, real = [], dioph.small_solution_search
    monkeypatch.setattr(dioph, "small_solution_search",
                        lambda tmin_abs: calls.append(tmin_abs) or real(tmin_abs))
    gate = theorem_assembly(tmin).all_gates[1]
    assert calls == ([tmin] if searched else [])
    assert gate == measure.GateResult("no small solutions at tmin", tmin > 0,
                                      f"{79 if tmin == 0 else 0} non-trivial small solutions")


def test_verify_all_at_tmin_60_runs_the_search_with_the_same_report(monkeypatch, capsys):
    calls, real = [], dioph.small_solution_search
    monkeypatch.setattr(dioph, "small_solution_search",
                        lambda tmin_abs: calls.append(tmin_abs) or real(tmin_abs))
    assert main(["verify-all", "--tmin", "60"]) == 1
    assert calls == [F(60)]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bdc46112501029fabc15232bff952f37df9e2229acf1f328b82a20952e16c6e1")


def test_theorem_assembly_gate_failure_is_reported_not_raised():
    # an unusable descent depth must surface as a failed gate: the
    # contradiction line of the kappa gate, and no other
    for kmax in (5, 10):
        rep = theorem_assembly(F(100), kmax=kmax)
        assert rep.verdict == "inconclusive"
        assert rep.contradiction_upper is not None
        assert rep.descent_lower_0 is not None
        assert rep.contradiction_upper > min(rep.descent_lower_0, rep.descent_lower_3)
        failed = {g.name: g.detail for g in rep.all_gates if not g.ok}
        assert list(failed) == ["kappa below 3"]
        assert failed["kappa below 3"] == (
            "ChainError: contradiction bound below the descent bounds: "
            f"{rep.contradiction_upper} >= {min(rep.descent_lower_0, rep.descent_lower_3)}")


def _bigger_delta_at(at, factor):
    real = hyperchi.denom_data
    return lambda monkeypatch: monkeypatch.setattr(hyperchi, "denom_data", lambda r: (
        real(r)._replace(delta=real(r).delta * factor) if r == at else real(r)))


def _zero_margin_at(type_index, k):
    real = descent.run_step

    def run_step(ti, kk, c0, tmin):
        rec = real(ti, kk, c0, tmin)
        if (ti, kk) != (type_index, k):
            return rec
        return rec._replace(nonvanish_margin=F(0), nonvanish_ok=False)

    return lambda monkeypatch: monkeypatch.setattr(descent, "run_step", run_step)


def _set(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


# each line under the verdict pushed just past it: (patch, gate, line)
VERDICT_LINE_FAILURES = [
    (_set(measure, "contradiction_upper_bound", lambda tmin: F(10 ** 20)),
     "kappa below 3", "contradiction bound below the descent bounds"),
    # an undefined X fails the line, as if it were infinite
    (_set(measure, "contradiction_upper_bound", lambda tmin: None),
     "kappa below 3", "contradiction bound below the descent bounds"),
    # kappa's upper end itself, read when the test runs: the strict line fails
    (lambda monkeypatch: monkeypatch.setattr(measure, "KAPPA_CAP", kappa_hi(F(100))),
     "kappa below 3", "kappa below 3"),
    # delta_r scaled at one r: both bounds read delta_r / N_r, and at r = 60
    # their left sides are 2.5% and 4.1% of the right, so 30 fails only the second
    (_bigger_delta_at(7, 10 ** 6), "measure constant chains", "Lettl bound 3.32*1.35^r at r=7"),
    (_bigger_delta_at(60, 30), "measure constant chains", "Lettl bound 1.6*10.7^r at r=60"),
    (_zero_margin_at(3, 6), "descent lower bounds", "type 3 step k=6 non-vanishing numerator"),
    (_zero_margin_at(0, 11), "descent lower bounds", "type 0 step k=11 non-vanishing numerator"),
    # the drift at |t| = 100 is 5.02/100, and the least separation 0.9681
    (_set(measure, "DRIFT_CAP", F("0.0502")), "type reduction certified", "root drift cap 0.06"),
    (_set(measure, "SEPARATION_FLOOR", F("0.97")), "type reduction certified",
     "separation floor 0.5"),
]


@pytest.mark.parametrize("patch, gate, line", VERDICT_LINE_FAILURES, ids=[
    "contradiction-1e20", "contradiction-undefined", "kappa-cap", "lettl-q-r7", "lettl-e-r60",
    "step-3-6", "step-0-11", "drift-cap", "separation-floor"])
def test_each_verdict_line_fails_alone_in_its_gate(monkeypatch, capsys, patch, gate, line):
    # the Lettl bounds run once per process: a fresh cache sees the patch
    monkeypatch.setattr(measure, "_tmin_free_checks",
                        lru_cache(maxsize=None)(measure._tmin_free_checks.__wrapped__))
    patch(monkeypatch)
    try:
        code = main(["verify-all"])
        out, err = capsys.readouterr()
    finally:
        monkeypatch.undo()
    assert (code, err) == (1, "")
    doc = json.loads(out)
    failed = {g["name"]: g["detail"] for g in doc["gates"] if not g["ok"]}
    assert list(failed) == [gate] and doc["verdict"] == "inconclusive"
    assert failed[gate].startswith(f"ChainError: {line}: ")
    assert theorem_assembly(F(100)).verdict == "proven"


def test_the_lin_coefficient_line_fails_alone(monkeypatch, capsys):
    # 443 set to 8.86 * 15.48 / 0.31 itself: the strict line fails on equality; it is
    # checked once per process, so a fresh cache sees the patch
    monkeypatch.setattr(corollary, "_log_constants",
                        lru_cache(maxsize=None)(corollary._log_constants.__wrapped__))
    monkeypatch.setattr(corollary, "LIN_COEFF",
                        descent.BETA_COEFF * measure.C_COEFF[3] / corollary.C2_DIVISOR)
    try:
        with pytest.raises(ChainError, match="^lin coefficient 443: "):
            corollary_lin(F(1))
        assert main(["corollary-lin", "--C", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("certification failure: ChainError: lin coefficient 443: ")
        assert theorem_assembly(F(100)).verdict == "proven"
    finally:
        monkeypatch.undo()
    assert corollary_lin(F(1))["consistency_margin"] == F(443) - F("137.1528") / F("0.31")


def test_corollary_lin():
    for C in (F(1, 2), F(1), F(10)):
        out = corollary_lin(C)
        assert out["t0"] == 524
        assert kappa_hi(out["t0"]) < 2
        assert out["C0"] >= max(out["terms"])
        assert out["consistency_margin"] > 0
    # a tiny C collapses the iteration term to 1
    small = corollary_lin(F(1, 1000))
    assert small["terms"][2] == 1


def test_corollary_lin_refuses_an_oversized_C0_before_building_it(monkeypatch):
    # (443 10^300)^2500 has 756,617 digits: its exponent is decided at the
    # starting precision, and no bracket grows past it
    precisions = []
    real = exactnum._pow_bracket

    def recording(a, n, p):
        precisions.append(p)
        return real(a, n, p)

    monkeypatch.setattr(exactnum, "_pow_bracket", recording)
    for C in (F(10**300), F(10**300, 443), F(10**78)):
        with pytest.raises(exactnum.OutputLimitError):
            corollary_lin(C)
    assert set(precisions) == {exactnum._POW_BITS}
    assert corollary_lin(F(10**77))["C0"] == round_up_sig((443 * F(10**77)) ** 2500)


def test_corollary_lin_rejects_bad_t0():
    with pytest.raises(ValueError):
        corollary_lin(F(1), t0=F(200))
    with pytest.raises(ValueError):
        corollary_lin(F(0))


def test_corollary_eps():
    expected_magnitude = {
        F(1, 4): (F("3.5e34"), F("3.6e34")),
        F(1, 2): (F("1.5e19"), F("1.6e19")),
        F(3, 4): (F("3.4e14"), F("3.5e14")),
    }
    for eps, (lo, hi) in expected_magnitude.items():
        out = corollary_eps(eps)
        assert lo <= out["t0"] <= hi
        assert all(g.ok for g in out["gates"])
        assert all(g.ok for g in out["gates_at_double"])


# t0 of corollary_eps(eps) for eps = k/100, 20 <= k < 90 (1/4, 1/2 and 3/4
# among them): the least t whose grid value L(t) passes the three gates
EPS_T0 = {
    "1/5": 2377964570065278384770955041337871603597312,
    "21/100": 32282590527426583137233744223339011899392,
    "11/50": 650059159089644007404572575839826214912,
    "23/100": 18443776677049639180163122146066825216,
    "6/25": 706429739138700275259001967015362560,
    "1/4": 35236673426547291915666829206355968,
    "13/50": 2220318038446621069573969097523200,
    "27/100": 172216717170739418640887419240448,
    "7/25": 16081591846356616528903471628288,
    "29/100": 1773622501532758108437645099008,
    "3/10": 227230060664270793158049136640,
    "31/100": 33332443446960885113378832384,
    "8/25": 5528083477009269056243499008,
    "33/100": 1025093456447236993982660608,
    "17/50": 210463711055295439983083520,
    "7/20": 47429256737843002782777344,
    "9/25": 11641810892983098752892928,
    "37/100": 3091095177687920266444800,
    "19/50": 882367106224765919821824,
    "39/100": 269298194502254085373952,
    "2/5": 87439403850711668080640,
    "41/100": 30069345966437526233088,
    "21/50": 10907448633807557214208,
    "43/100": 4158229282504659456768,
    "11/25": 1660462521448153982336,
    "9/20": 692410942578485068608,
    "23/50": 300681853615846240096,
    "47/100": 135630194855077317136,
    "12/25": 63401755740442682576,
    "49/100": 30648893848750155584,
    "1/2": 15291306026350941186,
    "51/100": 7859694684250880391,
    "13/25": 4155029692992974530,
    "53/100": 2255699399721385798,
    "27/50": 1255764982986250979,
    "11/20": 715949833788112735,
    "14/25": 417515375240021944,
    "57/100": 248762278096675819,
    "29/50": 151272484916786321,
    "59/100": 93793271174348465,
    "3/5": 59240928366224444,
    "61/100": 38083718305374054,
    "31/50": 24898757509406001,
    "63/100": 16542955040846600,
    "16/25": 11162019864330149,
    "13/20": 7643343214183079,
    "33/50": 5308469467530509,
    "67/100": 3737247198227176,
    "17/25": 2665615139750796,
    "69/100": 1925249938819529,
    "7/10": 1407392130706990,
    "71/100": 1040850061941086,
    "18/25": 778439047470156,
    "73/100": 588509704457159,
    "37/50": 449587844997304,
    "3/4": 346941506703866,
    "19/25": 270356305739680,
    "77/100": 212677453819541,
    "39/50": 168843813965467,
    "79/100": 135241222319153,
    "4/5": 109265167989473,
    "81/100": 89022176972981,
    "41/50": 73123989304412,
    "83/100": 60544408838558,
    "21/25": 50518872313857,
    "17/20": 42473395445878,
    "43/50": 35973892489753,
    "87/100": 30689742686585,
    "22/25": 26367400709945,
    "89/100": 22811139756601,
}


def test_corollary_eps_thresholds_are_pinned():
    got = {eps: corollary_eps(F(eps))["t0"] for eps in EPS_T0}
    assert got == {eps: F(t0) for eps, t0 in EPS_T0.items()}


@pytest.fixture
def fresh_log_caches(monkeypatch):
    """An empty ln 2 cache and uncached log constants, as in a new process;
    the process's own caches are back in place after the test."""
    monkeypatch.setattr(exactnum, "_LN2_CACHE", {})
    monkeypatch.setattr(corollary, "_log_constants",
                        lru_cache(maxsize=None)(corollary._log_constants.__wrapped__))


def test_corollary_eps_thresholds_hold_in_reverse_order(fresh_log_caches):
    # ln 2 is a function of its budget, so no threshold depends on the order
    # of the queries
    got = {eps: corollary_eps(F(eps))["t0"] for eps in reversed(EPS_T0)}
    assert got == {eps: F(t0) for eps, t0 in EPS_T0.items()}


def test_corollary_eps_thresholds_hold_on_a_cold_ln2_cache(fresh_log_caches):
    got = {}
    for eps in EPS_T0:
        exactnum._LN2_CACHE.clear()
        got[eps] = corollary_eps(F(eps))["t0"]
    assert got == {eps: F(t0) for eps, t0 in EPS_T0.items()}


def test_corollary_eps_reduces_each_modulus_once(monkeypatch):
    # one LnArg per query, at the float seed: L at the cut values the search
    # reads, at t0 for its gates and at 2 t0 all come from its enclosure
    seen = []
    real = exactnum.LnArg
    for eps in (F(1, 2), F(1, 100), F(1, 10000)):
        corollary_eps(eps)  # the ln 2 floors that 2 t0 reads are cached per process
        monkeypatch.setattr(exactnum, "LnArg", lambda x: seen.append(x) or real(x))
        out = corollary_eps(eps)
        monkeypatch.undo()
        assert len(seen) == out["evaluations"] == 1, eps
        assert abs(seen.pop() - out["t0"]) < out["t0"] / 2**30, eps


def test_corollary_eps_domain():
    with pytest.raises(ValueError):
        corollary_eps(F(0))
    with pytest.raises(ValueError):
        corollary_eps(F(1))


def test_tmin_free_checks_run_once_per_process(monkeypatch):
    calls = []
    real_lettl, real_root = hyperchi.verify_lettl, series.quotient_root_check
    monkeypatch.setattr(hyperchi, "verify_lettl",
                        lambda rmax: calls.append(rmax) or real_lettl(rmax))
    monkeypatch.setattr(series, "quotient_root_check",
                        lambda ti: calls.append(ti) or real_root(ti))
    measure._tmin_free_checks.cache_clear()
    try:
        measure_constants(0)
        measure_constants(3)
        measure_constants(0, F(1000))
    finally:
        measure._tmin_free_checks.cache_clear()
    assert calls == [measure.RMAX, 0, 3]


def test_tmin_free_checks_return_their_lines_on_every_call():
    measure._tmin_free_checks.cache_clear()
    try:
        cold = measure._tmin_free_checks()
        hit = measure._tmin_free_checks()
    finally:
        measure._tmin_free_checks.cache_clear()
    # the 120 Lettl lines, then the four constants read at the floor
    assert [name for name, _ in cold] == LETTL_NAMES + [
        "beta 8.86", "kappa shift 1.08", "kappa shift 2.59", "contradiction coefficient 137.16"]
    assert hit == cold
    assert cold[:120] == verify_lettl_oracle(60)
    assert all(margin > 0 for _, margin in cold)


def test_tmin_free_checks_fail_closed_on_every_call(monkeypatch):
    calls = []
    monkeypatch.setattr(series, "quotient_root_check",
                        lambda ti: calls.append(ti) or ti == 0)
    measure._tmin_free_checks.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(ChainError, match="type3"):
                measure_constants(0)
    finally:
        measure._tmin_free_checks.cache_clear()
    assert calls == [0, 3] * 2


def _unverified(monkeypatch, name, at=None):
    """Mark one root enclosure unverified at tmin = at (at every tmin for
    None), with the tmin-free checks, which read them at the floor, uncached."""
    real, i = rouche._certificates, rouche.CERT_NAMES.index(name)

    def certificates(tmin):
        certs = real(tmin)
        if at is not None and tmin != at:
            return certs
        return (*certs[:i], certs[i]._replace(verified=False), *certs[i + 1:])

    monkeypatch.setattr(rouche, "_certificates", certificates)
    monkeypatch.setattr(measure, "_tmin_free_checks",
                        lru_cache(maxsize=None)(measure._tmin_free_checks.__wrapped__))


def test_descent_gate_requires_the_high_order_enclosures(monkeypatch):
    _unverified(monkeypatch, "B")
    rep = theorem_assembly(F(100))
    assert rep.verdict == "inconclusive"
    failed = {g.name: g.detail for g in rep.all_gates if not g.ok}
    assert set(failed) == {"descent lower bounds"}
    assert "root enclosure B " in failed["descent lower bounds"]


TYPES, DESCENT, MEASURE = ("type reduction certified", "descent lower bounds",
                           "measure constant chains")
# the gates an unverified enclosure fails at tmin 100
ENCLOSURE_GATES = {"alpha0": {TYPES, DESCENT, MEASURE}, "alpha2": {TYPES, MEASURE},
                   "alpha1": {TYPES, MEASURE}, "alpha3": {TYPES, DESCENT, MEASURE},
                   "B": {DESCENT}, "B3": {DESCENT}}


@pytest.mark.parametrize("name", rouche.CERT_NAMES)
def test_an_unverified_enclosure_fails_the_gates_that_read_it(monkeypatch, name):
    _unverified(monkeypatch, name)
    rep = theorem_assembly(F(100))
    assert rep.verdict == "inconclusive"
    failed = {g.name: g.detail for g in rep.all_gates if not g.ok}
    assert set(failed) == ENCLOSURE_GATES[name]
    assert set(failed.values()) == {f"ChainError: root enclosure {name} unverified at tmin=100"}


# each consumer at tmin, and the enclosures it reads
ENCLOSURE_READERS = {
    "root_separation": (lambda t: rouche.root_separation(t),
                        {"alpha0", "alpha1", "alpha2", "alpha3"}),
    "first_c0(0)": (lambda t: descent.first_c0(0, t), {"alpha0"}),
    "first_c0(3)": (lambda t: descent.first_c0(3, t), {"alpha3"}),
    "run_descent(0)": (lambda t: descent.run_descent(0, tmin=t), {"alpha0", "B"}),
    "run_descent(3)": (lambda t: descent.run_descent(3, tmin=t), {"alpha3", "B3"}),
    "measure_constants(0)": (lambda t: measure_constants(0, t), {"alpha0"}),
    "measure_constants(3)": (lambda t: measure_constants(3, t), {"alpha0", "alpha3"}),
}


@pytest.mark.parametrize("name", rouche.CERT_NAMES)
def test_each_consumer_checks_exactly_the_enclosures_it_reads(monkeypatch, name):
    # above the floor, where the tmin-free checks read no enclosure
    t = F(1000)
    _unverified(monkeypatch, name, at=t)
    message = f"^root enclosure {name} unverified at tmin=1000$"
    for run, reads in ENCLOSURE_READERS.values():
        if name in reads:
            with pytest.raises(ChainError, match=message):
                run(t)
        else:
            run(t)


@pytest.mark.parametrize("argv", [["descent", "--type", "0"], ["constants", "--type", "3"]])
def test_the_chain_commands_refuse_an_unverified_alpha0(monkeypatch, capsys, argv):
    _unverified(monkeypatch, "alpha0")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("certification failure: ChainError: "
                            "root enclosure alpha0 unverified at tmin=100\n")


# the line of _tmin_free_checks that certifies each constant
LOG_CONSTANT_LINES = {"KAPPA_NUM_SHIFT": "kappa shift 1.08", "KAPPA_DEN_SHIFT": "kappa shift 2.59",
                      "CONTRADICTION_COEFF": "contradiction coefficient 137.16",
                      "BETA_COEFF": "beta 8.86"}


@pytest.mark.parametrize("module, name, wrong", [
    (exactnum, "KAPPA_NUM_SHIFT", F("1.07")),   # ln 2.94 = 1.0784...
    (exactnum, "KAPPA_DEN_SHIFT", F("2.58")),   # ln 13.27 = 2.5855...
    (measure, "CONTRADICTION_COEFF", F("137.15")),  # 8.86 * 15.48 = 137.1528
    (descent, "BETA_COEFF", F("8.6")),  # 8 / (min_pairwise^2 * min_to_alpha2) = 8.624
])
def test_kappa_shifts_and_contradiction_coeff_are_certified(monkeypatch, module, name, wrong):
    monkeypatch.setattr(module, name, wrong)
    caches = (measure._tmin_free_checks, corollary._log_constants)
    for cache in caches:
        cache.cache_clear()
    try:
        rep = theorem_assembly(F(100))
        with pytest.raises(ChainError):
            corollary_eps(F(1, 2))
        with pytest.raises(ChainError):
            corollary_lin(F(1))
    finally:
        for cache in caches:
            cache.cache_clear()
    assert rep.verdict == "inconclusive"
    failed = {g.name: g.detail for g in rep.all_gates if not g.ok}
    assert set(failed) == {"measure constant chains"}
    assert str(wrong) in failed["measure constant chains"]
    line = LOG_CONSTANT_LINES[name]
    assert failed["measure constant chains"].startswith(f"ChainError: {line}: ")


def test_log_constants_run_once_per_process(monkeypatch):
    calls = []
    real = measure.ln_enclosure
    monkeypatch.setattr(measure, "ln_enclosure", lambda x, w: calls.append(x) or real(x, w))
    real_floor = corollary.ln_floor
    monkeypatch.setattr(corollary, "ln_floor", lambda x, b: calls.append(x) or real_floor(x, b))
    caches = (measure._tmin_free_checks, corollary._log_constants)
    for cache in caches:
        cache.cache_clear()
    try:
        corollary_eps(F(1, 2))
        corollary_eps(F(3, 4))
        corollary_lin(F(1))
    finally:
        for cache in caches:
            cache.cache_clear()
    constants = {F("2.94"), F("13.27"), F(4), F("20.14"), F("8.86"), F("0.33"),
                 F("0.31"), CONTRADICTION_COEFF, F(10)}
    assert sorted(c for c in calls if c in constants) == sorted(constants)


def test_corollaries_fail_closed_without_the_lettl_bounds(monkeypatch, capsys):
    # the corollaries rest on the measure chains, whose Lettl growth bounds
    # are checked once per process; a failed check must stop both of them
    def failing(rmax):
        raise ChainError("Lettl growth bound fails at r = 7")

    monkeypatch.setattr(hyperchi, "verify_lettl", failing)
    for module, name in ((measure, "_tmin_free_checks"), (corollary, "_log_constants")):
        monkeypatch.setattr(module, name,
                            lru_cache(maxsize=None)(getattr(module, name).__wrapped__))
    with pytest.raises(ChainError, match="Lettl"):
        corollary_eps(F(1, 2))
    with pytest.raises(ChainError, match="Lettl"):
        corollary_lin(F(1))
    for argv in (["corollary-eps", "--eps", "1/2"], ["corollary-lin", "--C", "1"]):
        assert main(argv) == 2
        assert "Lettl growth bound fails" in capsys.readouterr().err


def test_corollary_lin_accepts_its_own_threshold():
    for C in (F(1), F(1, 1000), F(50)):
        r = corollary_lin(C)
        assert corollary_lin(C, r["t0"]) == r
    with pytest.raises(ValueError):
        corollary_lin(F(1), corollary.LIN_T0_FLOOR - 1)


def test_corollary_lin_checks_kappa_below_2_at_t0_on_one_line(monkeypatch):
    # 524 is the least integer with kappa < 2, so the default needs no search;
    # the strict line refuses kappa = 2 for the default and a user t0 alike
    assert kappa_hi(F(corollary.LIN_T0_FLOOR - 1)) >= 2 > kappa_hi(F(corollary.LIN_T0_FLOOR))
    monkeypatch.setattr(corollary, "kappa_hi", lambda t: F(2))
    for t0 in (None, F(10**6)):
        with pytest.raises(ChainError, match="^kappa below 2 at t0: 2 >= 2$"):
            corollary_lin(F(1), t0)


TMIN = st.one_of(
    st.integers(min_value=100, max_value=10**7).map(F),
    st.builds(F, st.integers(min_value=10**4, max_value=10**9),
              st.integers(min_value=2, max_value=100)),
    st.integers(min_value=10**299, max_value=10**300).map(F),
    st.builds(F, st.integers(min_value=0, max_value=10**4),
              st.integers(min_value=1, max_value=100)),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 3]), TMIN)
def test_measure_constants_equal_the_fraction_oracle(type_index, tmin):
    # tmin below 100 raises ChainError on both sides, with the same message
    got = outcome(measure_constants, type_index, tmin)
    assert got == outcome(measure_constants_oracle, type_index, tmin)


@pytest.mark.parametrize("args", [(1, F(100)), (0, F(99)), (3, F(12345, 1000)), (3, F(0))])
def test_measure_constants_refuse_alike(args):
    got = outcome(measure_constants, *args)
    assert isinstance(got, tuple) and got[0] in (ValueError, ChainError)
    assert got == outcome(measure_constants_oracle, *args)


def _tmin_sample(seed: int) -> list:
    """Fixed points, 50 integers in [100, 10^6], 50 fractions p/q with q <= 97 in that
    range, and four values below the floor."""
    rng = random.Random(seed)
    ints = [F(rng.randint(100, 10**6)) for _ in range(50)]
    fracs = [F(rng.randint(100 * q, 10**6 * q), q) for q in (rng.randint(2, 97) for _ in range(50))]
    return ([F(100), F(12345), F(123457, 3), F(10**300)] + ints + fracs
            + [F(99), F(19999, 200), F(0), F(1, 10**5)])


def test_first_c0_and_root_separation_equal_the_fraction_oracles(monkeypatch):
    # below the floor first_c0 raises ChainError on both sides, and below 1
    # root_separation raises ValueError, with the same messages; first_c0
    # drops its margins, so they are recorded on both sides
    margins = {}

    def recorder(side):
        def record(*reqs):
            out = exactnum.lines(*reqs)
            margins[side] += out
            return out
        return record

    for ti in (0, 3):  # the once-per-process lines, unrecorded
        descent._first_fixed(ti)
    monkeypatch.setattr(descent, "lines", recorder("src"))
    monkeypatch.setattr(oracles, "lines", recorder("oracle"))
    for tmin in _tmin_sample(37):
        for ti in (0, 3):
            margins.update(src=[], oracle=[])
            assert outcome(descent.first_c0, ti, tmin) == outcome(first_c0_oracle, ti, tmin)
            assert margins["src"] == margins["oracle"], (ti, tmin)
        assert outcome(rouche.root_separation, tmin) == outcome(root_separation_oracle, tmin)


def test_a_failing_tmin_free_line_raises_alike_on_every_call(monkeypatch):
    # 1.04 <= 1.1 * 0.96 * 0.88 is false
    for module in (measure, oracles):
        monkeypatch.setattr(module, "ERR_BASE", F("1.1"))
    measure._fixed_lines.cache_clear()
    try:
        for _ in range(2):
            got = outcome(measure_constants, 3, F(12345, 7))
            assert got == outcome(measure_constants_oracle, 3, F(12345, 7))
            assert got[0] is ChainError and got[1].startswith("error base 1.24: ")
        assert measure._fixed_lines.cache_info().currsize == 0
    finally:
        measure._fixed_lines.cache_clear()


def test_kappa_is_enclosed_once_per_modulus(monkeypatch):
    calls = []
    real = measure.kappa
    monkeypatch.setattr(measure, "kappa", lambda t, w: calls.append((t, w)) or real(t, w))
    monkeypatch.setattr(measure, "_kappa", lru_cache(maxsize=64)(measure._kappa.__wrapped__))
    t = F(123457, 3)
    measure_constants(0, t)
    measure_constants(3, t)
    contradiction_upper_bound(t)
    kappa_hi(t)
    assert calls == [(t, measure.KAPPA_WIDTH)]


# the caches free of tmin: each is keyed by a root type, a step, an order r, a
# field or nothing, and holds what every tmin shares
UNBOUNDED = {"descent._step_algebra", "dioph._x_part", "hyperchi.chi_coeffs",
             "hyperchi.denom_data", "measure._tmin_free_checks", "measure._fixed_lines",
             "corollary._log_constants", "quadfield.roots_of_unity", "rouche._cert_splits",
             "series.root_series", "concrete._thue_data"}


def test_every_cache_keyed_by_tmin_is_bounded():
    caches = {}
    for name in ("concrete", "corollary", "descent", "dioph", "exactnum", "hyperchi", "measure",
                 "quadfield", "rouche", "series", "zpoly"):
        module = importlib.import_module(f"thueq.{name}")
        caches.update({f"{name}.{attr}": fn for attr, fn in vars(module).items()
                       if hasattr(fn, "cache_info") and fn.__module__ == module.__name__})
    unbounded = {name for name, fn in caches.items() if fn.cache_info().maxsize is None}
    assert unbounded == UNBOUNDED
    for name in ("rouche._certificates", "measure._kappa", "concrete._root_balls"):
        assert caches[name].cache_info().maxsize is not None
