from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (nonvanish_margin_oracle, nonvanish_poly_oracle, outcome,
                     run_step_oracle)

from thueq import descent
from thueq.exactnum import ChainError, round_nearest_sig
from thueq.descent import (
    KMAX,
    KSTART,
    first_c0,
    run_descent,
    run_step,
)
from thueq.measure import theorem_assembly
from thueq.concrete import TPoly
from thueq.series import GaussRat

# rounded per-step constants of the two chains at |t| >= 100; each value may
# sit one unit in the 4th significant digit above the published rounding
TABLE_TYPE0 = [
    F("429.8"),
    F("2436"),
    F("4210"),
    F("1.863e5"),
    F("3.242e6"),
    F("5.915e6"),
    F("8.066e7"),
    F("4.726e8"),
]
TABLE_TYPE3 = [
    F("10.14"),
    F("42.48"),
    F("868.0"),
    F("4921"),
    F("8503"),
    F("3.762e5"),
    F("6.549e6"),
    F("1.195e7"),
    F("1.629e8"),
    F("9.547e8"),
]


def _ulp4(x: F) -> F:
    """One unit in the 4th significant digit of x."""
    p = F(1)
    while x >= 10:
        x /= 10
        p *= 10
    while x < 1:
        x *= 10
        p /= 10
    return p / 1000


def test_step1_coefficients():
    # |y| > 2.67|t| (type 0) and |y| > |t|/2.27 > 0.44|t| (type 3), as lines
    assert dict(descent._first_fixed(0))["step-1 coefficient 2.67"] == 3 / F("1.12") - F("2.67")
    assert first_c0(3) == F("2.27")
    assert 1 / first_c0(3) > F("0.44")
    assert dict(descent._first_fixed(3))["relative floor 0.44"] == 1 / F("2.27") - F("0.44")


def test_step2_type0():
    assert first_c0(0) == F("5.02")


def test_chain_type0_matches_table(descent_chain_0):
    # chain runs k = 3..11; the published column starts at k = 4
    assert [r.k for r in descent_chain_0] == list(range(3, 12))
    couts = [r.c_out for r in descent_chain_0][1:]
    assert len(couts) == len(TABLE_TYPE0)
    for got, ref in zip(couts, TABLE_TYPE0):
        assert abs(got - ref) <= _ulp4(ref)


def test_chain_type3_matches_table(descent_chain_3):
    assert [r.k for r in descent_chain_3] == list(range(2, 12))
    couts = [r.c_out for r in descent_chain_3]
    assert len(couts) == len(TABLE_TYPE3)
    for got, ref in zip(couts, TABLE_TYPE3):
        assert abs(got - ref) <= _ulp4(ref)


def test_final_lower_bounds(descent_chain_0, descent_chain_3):
    # the published figures are 4-significant-digit roundings: even the
    # published chain's own exact quotient 10^22 / 4.726e8 = 2.11595e13
    # sits below 2.116e13, so the floors hold at display precision
    final0, final3 = (F(100) ** chain[-1].k / chain[-1].c_out
                      for chain in (descent_chain_0, descent_chain_3))
    assert round_nearest_sig(final0) >= F("2.116e13")
    assert round_nearest_sig(final3) >= F("1.047e13")
    assert final0 > F("2.115e13")
    assert final3 > F("1.047e13")


def test_nonvanishing_gates(descent_chain_0, descent_chain_3):
    for rec in descent_chain_0 + descent_chain_3:
        assert rec.nonvanish_ok
        assert rec.nonvanish_margin > 0


def test_step_record_invariants(descent_chain_0, descent_chain_3):
    for rec in descent_chain_0 + descent_chain_3:
        assert rec.c_out >= rec.c_exact >= rec.c1 > 0
        assert rec.pade.contact_order >= 2 * rec.k - 1
    # each chain starts from its closed-form bound |y| > |t|^(k-1)/c0
    assert descent_chain_0[0].c2 == F("8.86") * F("5.02") ** 4
    assert descent_chain_3[0].c2 == F("8.86") * F("2.27") ** 4


def test_chaining_feeds_c_out(descent_chain_0, descent_chain_3):
    for chain in (descent_chain_0, descent_chain_3):
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt.c2 == F("8.86") * prev.c_out**4


def test_run_step_rejects_bad_indices():
    with pytest.raises(ValueError):
        run_step(0, 2, F(5))
    with pytest.raises(ValueError):
        run_step(1, 4, F(5))
    with pytest.raises(ValueError):
        run_descent(0, kmax=12)
    # below each chain's first step (3 for type 0, 2 for type 3)
    with pytest.raises(ValueError):
        run_descent(0, kmax=2)
    with pytest.raises(ValueError):
        run_descent(3, kmax=1)


def test_larger_tmin_gives_smaller_constants():
    a = run_step(3, 2, first_c0(3, F(100)), F(100))
    b = run_step(3, 2, first_c0(3, F(200)), F(200))
    assert b.c_exact < a.c_exact


def star_bounds(Q, t_abs):
    """The generalized bounds for |F_t(x,y)| <= Q: the root-distance
    coefficient, the type-classification threshold (20.14 Q / |t|)^(1/4)
    as an exact fourth-power value, and the linear-form bound pieces."""
    Q, t_abs = F(Q), F(t_abs)
    if t_abs < 100 or Q <= 0:
        raise ValueError("need t_abs >= 100 and Q > 0")
    return {
        "beta_bound_coeff": descent.BETA_COEFF * Q,
        "type_threshold_fourth_power": descent.TYPE_THRESHOLD * Q / t_abs,
        "lb_linear_coeff": descent.ALPHA13_RADIUS / t_abs,
        "lb_cubic_coeff": descent.BETA_COEFF * Q / t_abs,
    }


def test_star_bounds():
    sb = star_bounds(F(40), F(100))
    assert sb["type_threshold_fourth_power"] == F("20.14") * 40 / 100
    assert sb["beta_bound_coeff"] == F("8.86") * 40
    with pytest.raises(ValueError):
        star_bounds(F(1), F(50))


def test_first_fixed_checks_run_once_per_type(monkeypatch):
    descent._first_fixed.cache_clear()
    try:
        for tmin in (F(100), F(12345)):
            run_descent(0, tmin=tmin)
            run_descent(3, tmin=tmin)
        info = descent._first_fixed.cache_info()
        assert (info.misses, info.currsize) == (2, 2)
        # 0.45 <= 1/2.27 is false: the failure raises on every call, uncached
        descent._first_fixed.cache_clear()
        monkeypatch.setattr(descent, "STEP1_RELATIVE_FLOOR", F("0.45"))
        for _ in range(2):
            with pytest.raises(ChainError, match="relative floor 0.44"):
                run_descent(3, tmin=F(100))
        assert descent._first_fixed.cache_info().currsize == 0
        assert first_c0(0) == F("5.02")
    finally:
        descent._first_fixed.cache_clear()


# each first-step constant moved just past its line: (name, value, type, line)
FIRST_STEP_FAILURES = [
    ("ABSORB_CAP", F("0.1"), 3, "absorption cap 0.11"),  # 8.86/81 = 0.1094
    ("STEP1_COEFF", F("2.68"), 0, "step-1 coefficient 2.67"),  # 3/1.12 = 2.6786
    ("ALPHA0_MODULUS", F("1.0005"), 0, "root modulus 1.01"),  # 1 + 5.01/100^2
    ("STEP1_DIVISOR", F("2.26"), 3, "step-1 divisor 2.27"),  # 2.16 + 0.11
    ("STEP1_RELATIVE_FLOOR", F("0.45"), 3, "relative floor 0.44"),  # 1/2.27 = 0.4405
    ("STEP2_DIVISOR", F("5.01"), 0, "step-2 divisor 5.02"),  # 5.01 + 8.86/267^4 * 100^2
]


@pytest.mark.parametrize("name, wrong, type_index, line", FIRST_STEP_FAILURES)
def test_each_first_step_line_fails_alone(monkeypatch, name, wrong, type_index, line):
    fixed = line in dict(descent._first_fixed(type_index))
    descent._first_fixed.cache_clear()
    monkeypatch.setattr(descent, name, wrong)
    try:
        for _ in range(2):
            with pytest.raises(ChainError, match=f"^{line}: "):
                first_c0(type_index)
        # a failed tmin-free line leaves no entry; a tmin line fails after them
        assert descent._first_fixed.cache_info().currsize == (0 if fixed else 1)
        rep = theorem_assembly(F(100))
    finally:
        monkeypatch.undo()
        descent._first_fixed.cache_clear()
    assert rep.verdict == "inconclusive"
    failed = {g.name: g.detail for g in rep.all_gates if not g.ok}
    assert set(failed) == {"descent lower bounds"}
    assert failed["descent lower bounds"].startswith(f"ChainError: {line}: ")
    assert theorem_assembly(F(100)).verdict == "proven"


def test_the_floor_is_one_line_of_the_first_steps():
    for ti in KSTART:
        for tmin in (F(99), F(19999, 200), F(0)):
            with pytest.raises(ChainError, match=f"^tmin floor 100: 100 > {tmin}$"):
                first_c0(ti, tmin)
        assert first_c0(ti, F(100)) == first_c0(ti)
    with pytest.raises(ValueError):
        first_c0(1)


def test_step_algebra_built_once(monkeypatch):
    calls = []
    real_pade = descent.pade

    def counting_pade(*args):
        calls.append(args[1:])
        return real_pade(*args)

    monkeypatch.setattr(descent, "pade", counting_pade)
    descent._step_algebra.cache_clear()
    try:
        a = run_descent(0, tmin=F(100))
        b = run_descent(0, tmin=F(12345))
        info = descent._step_algebra.cache_info()
    finally:
        descent._step_algebra.cache_clear()
    # one Pade pair and one set of majorant integers per step k = 3..11,
    # shared by both tmin
    assert len(calls) == 9
    assert (info.misses, info.hits) == (9, 9)
    assert [r.pade for r in a] == [r.pade for r in b]
    assert b[-1].c_out < a[-1].c_out


def _reverse(coeffs, degree):
    out = [GaussRat.of(0)] * (degree + 1)
    for j, c in enumerate(coeffs):
        out[degree - j] = GaussRat.of(c)
    return TPoly(out)


def test_nonvanish_poly_matches_the_gaussian_rational_expression():
    t = TPoly([0, 1])
    for ti in KSTART:
        for k in range(KSTART[ti], KMAX + 1):
            pair = descent._step_algebra(ti, k)[0]
            P = descent._nonvanish_poly(pair, k)
            X, Y = _reverse(pair.U, k - 1), _reverse(pair.V, k - 1)
            oracle = (X**4 - t * X**3 * Y - 6 * X**2 * Y**2
                      + t * X * Y**3 + Y**4)
            assert oracle.coeffs == [GaussRat.of(c) for c in P], (ti, k)
            assert len(P) - 1 == 2 * k - 2


def test_nonvanish_margins_match_the_per_term_sum():
    for tmin in (F(100), F(101), F(12345, 7), F(10**6), F(10**30)):
        for ti, c0 in ((0, first_c0(0, tmin)), (3, first_c0(3, tmin))):
            for rec in run_descent(ti, tmin=tmin):
                P = descent._nonvanish_poly(rec.pade, rec.k)
                assert rec.nonvanish_margin == nonvanish_margin_oracle(P, c0, rec.c3, tmin)
                c0 = rec.c_out


# the steps the root series support: pade needs s^(2k-1), and the series
# are known modulo s^31 (type 0) and s^30 (type 3)
STEPS = [(ti, k) for ti, top in ((0, 16), (3, 15)) for k in range(KSTART[ti], top + 1)]
TMIN = st.one_of(
    st.integers(min_value=1, max_value=10**7).map(F),
    st.builds(F, st.integers(min_value=1, max_value=10**9),
              st.integers(min_value=2, max_value=10**4)),
    st.integers(min_value=10**299, max_value=10**300).map(F),
)


@pytest.mark.parametrize("step", STEPS)
def test_nonvanish_poly_equals_the_gaussian_integer_oracle(step):
    ti, k = step
    pair = descent._step_algebra(ti, k)[0]
    assert descent._nonvanish_poly(pair, k) == nonvanish_poly_oracle(pair, k)
    # V(0) = 0 drops the degree of Y; U = V leaves P = -4 Y^4 of degree 4k-4
    for bad in (pair._replace(V=(0,) + pair.V[1:]), pair._replace(U=pair.V)):
        got = outcome(descent._nonvanish_poly, bad, k)
        assert got == outcome(nonvanish_poly_oracle, bad, k)
        assert got[0] is ChainError


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STEPS), TMIN, st.builds(F, st.integers(min_value=1, max_value=10**12),
                                                st.integers(min_value=1, max_value=10**4)))
def test_run_step_equals_the_fraction_oracle(step, tmin, c0):
    assert outcome(run_step, *step, c0, tmin) == outcome(run_step_oracle, *step, c0, tmin)


# the last case runs three tmins in turn in one process: the steps read one power table
# per (p, q), so a table keyed on p alone, or one left from the tmin before, fails it
@pytest.mark.parametrize("tmin", [F(100), F(12345, 7), F(10**300), F(10**300 + 1, 3),
                                  (F(12345), F(12345, 7), F(12345))])
def test_every_chain_step_equals_the_fraction_oracle(tmin):
    for t in tmin if type(tmin) is tuple else (tmin,):
        for ti in KSTART:
            c0 = first_c0(ti, t)
            for rec in run_descent(ti, tmin=t):
                want = run_step_oracle(ti, rec.k, c0, t)
                for field in rec._fields:
                    assert getattr(rec, field) == getattr(want, field), (t, ti, rec.k, field)
                c0 = rec.c_out


@pytest.mark.parametrize("args", [
    (0, 3, F(5), F(1, 2)),      # tmin below 1
    (0, 3, F(5), F(0)),
    (1, 4, F(5), F(100)),       # no such type
    (3, 1, F(5), F(100)),       # below the chain's first step
    (0, 17, F(5), F(100)),      # past the series' truncation
    (0, 3, F(0), F(100)),       # c0 = 0: the margin divides by it
    (0, 11, F(5), F(1)),        # |P(t)| has no positive lower bound at t = 1
    (3, 11, F(5), F(2)),
])
def test_run_step_errors_equal_the_fraction_oracle(args):
    got = outcome(run_step, *args)
    assert got == outcome(run_step_oracle, *args)
    assert isinstance(got, tuple) and isinstance(got[0], type)
