from fractions import Fraction as F

import pytest

from thueq.exactnum import round_nearest_sig
from thueq.descent import (
    run_descent,
    run_step,
    star_bounds,
    step1,
    step2_type0,
)

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
    assert step1(0) == F("2.67")
    assert step1(3) == 1 / F("2.27")
    assert step1(3) > F("0.44")


def test_step2_type0():
    assert step2_type0() == F("5.02")


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
    final0 = descent_chain_0[-1].y_lower_at_100
    final3 = descent_chain_3[-1].y_lower_at_100
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
        assert rec.c2 == F("8.86") * rec.c0_in**4
        assert rec.y_lower_at_100 == F(100) ** rec.k / rec.c_out
        assert rec.pade.contact_order >= 2 * rec.k - 1


def test_chaining_feeds_c_out(descent_chain_0):
    for prev, nxt in zip(descent_chain_0, descent_chain_0[1:]):
        assert nxt.c0_in == prev.c_out


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
    a = run_step(3, 2, 1 / step1(3, F(100)), F(100))
    b = run_step(3, 2, 1 / step1(3, F(200)), F(200))
    assert b.c_exact < a.c_exact


def test_star_bounds():
    sb = star_bounds(F(40), F(100))
    assert sb["type_threshold_fourth_power"] == F("20.14") * 40 / 100
    assert sb["beta_bound_coeff"] == F("8.86") * 40
    with pytest.raises(ValueError):
        star_bounds(F(1), F(50))
