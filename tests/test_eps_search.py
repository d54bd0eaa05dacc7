"""corollary_eps against the bisection it cuts short: the same thresholds,
the same gates and the same ln 2 cache, on a cold cache and on a warm one;
the integer gates against the Fraction gates near every pinned threshold;
and the number of gate evaluations a threshold costs."""

import random
from fractions import Fraction as F

from thueq import exactnum, measure
from thueq.measure import _eps_gates, corollary_eps

from oracles import corollary_eps_oracle, eps_gate_fn_oracle
from test_measure import EPS_T0


def seeded_eps() -> list[F]:
    """The 70 pinned eps, k/100 for the other k in [10, 99], 60 seeded k/1000
    and 50 seeded eps with five-digit denominators, all in [0.03, 0.99]."""
    rng = random.Random(18)
    eps = [F(e) for e in EPS_T0]
    eps += [F(k, 100) for k in (*range(10, 20), *range(90, 100))]
    eps += [F(k, 1000) for k in rng.sample([k for k in range(30, 1000) if k % 10], 60)]
    for _ in range(50):
        q = rng.randrange(10000, 100000)
        eps.append(F(rng.randrange(q // 10, q - q // 100), q))
    assert len(set(eps)) == len(eps) >= 200
    return eps


def on_cache(cache: dict, fn, *args):
    """fn(*args) with exactnum._LN2_CACHE bound to cache, which it may fill."""
    saved = exactnum._LN2_CACHE
    exactnum._LN2_CACHE = cache
    try:
        return fn(*args)
    finally:
        exactnum._LN2_CACHE = saved


def same_search(eps: F, old_cache: dict, new_cache: dict) -> None:
    old = on_cache(old_cache, corollary_eps_oracle, eps)
    new = on_cache(new_cache, corollary_eps, eps)
    assert (new["t0"], new["gates"], new["gates_at_double"]) == (
        old["t0"], old["gates"], old["gates_at_double"]), eps
    assert new_cache == old_cache, eps


def test_corollary_eps_matches_the_bisection_on_a_cold_ln2_cache():
    measure._log_constants()  # fills the process cache once, not the ones below
    for eps in seeded_eps():
        same_search(eps, {}, {})


def test_corollary_eps_matches_the_bisection_on_a_warm_ln2_cache():
    # each search starts from the cache the previous searches of its own kind
    # left, so the two caches stay equal only if every search fills them alike
    measure._log_constants()
    old_cache, new_cache = dict(exactnum._LN2_CACHE), dict(exactnum._LN2_CACHE)
    for eps in seeded_eps():
        same_search(eps, old_cache, new_cache)


def test_integer_gates_match_the_fraction_gates_near_every_pin():
    rng = random.Random(1807)
    measure._log_constants()
    for eps, t0 in EPS_T0.items():
        eps, old_gates, new_gates = F(eps), eps_gate_fn_oracle(F(eps)), measure._eps_gate_fn(F(eps))
        near = [t0 + rng.randint(-t0 // 10**7, t0 // 10**7) for _ in range(3)]
        for t in (t0 - 1, t0, t0 + 1, *near, F(2 * t0 + 1, 2)):
            old_cache, new_cache = dict(exactnum._LN2_CACHE), dict(exactnum._LN2_CACHE)
            old = on_cache(old_cache, old_gates, F(t))
            assert on_cache(new_cache, _eps_gates, t, eps) == old, (eps, t)
            assert new_cache == old_cache
            assert on_cache(dict(exactnum._LN2_CACHE), new_gates, exactnum.LnArg(t))[0] == (
                *(g.ok for g in old), old[2].detail)


def test_eps_gates_are_not_monotone_near_t0():
    # t0 is where the bisection ends, not the least t at which the gates
    # hold: at eps = 1/4 they all hold below t0, and one fails above it.
    # All four points read one kappa rung; kappa's upper end is (hi + 1.08)
    # / (lo - 2.59) on ln t's grid ends, and it rises where hi steps up
    eps, t0 = F(1, 4), F(EPS_T0["1/4"])
    below, above = 35236738053923596148575926603097569, 35236738063972774094074707235024547
    assert below < t0 < above and corollary_eps(eps)["t0"] == t0
    gates_at = measure._eps_gate_fn(eps)
    assert len({gates_at(exactnum.LnArg(t))[1][0] for t in (below, t0 - 1, t0, above)}) == 1
    assert all(g.ok for g in _eps_gates(below, eps))
    assert [g.ok for g in _eps_gates(above, eps)] == [True, True, False]
    assert _eps_gates(below, eps) == eps_gate_fn_oracle(eps)(F(below))
    assert _eps_gates(above, eps) == eps_gate_fn_oracle(eps)(F(above))


def test_corollary_eps_counts_its_evaluations():
    # 70 at eps = 1/100 and 53 at eps = 1/2 with the crossing shortcut, the
    # recheck at 2 t0 counted; the bisection alone takes 2,659 and 77
    for eps, bound in ((F(1, 100), 90), (F(1, 2), 65)):
        assert corollary_eps(eps)["evaluations"] <= bound, eps
    assert corollary_eps_oracle(F(1, 2))["evaluations"] > 65


def test_crossing_takes_over_only_within_one_piece():
    # the shortcut needs both ends in one piece (k, the sign of the atanh
    # argument, the grids and their term counts) and one lower grid end one
    # apart; otherwise the bisection goes on
    gates_at = measure._eps_gate_fn(F(1, 2))
    lo, hi = 3 * 2**62 - 1, 3 * 2**62  # m crosses 3/2 here, so k steps up
    (piece_lo, ints_lo), (piece_hi, _) = (gates_at(exactnum.LnArg(t))[1] for t in (lo, hi))
    assert piece_lo[0] + 1 == piece_hi[0]

    def bumped(i: int) -> tuple:
        return ints_lo[:i] + (ints_lo[i] + 1,) + ints_lo[i + 1:]

    assert measure._crossing(lo, hi, (piece_lo, ints_lo), (piece_hi, bumped(0)), None) == (None, 0)
    for i in (1, 3):  # an upper end
        assert measure._crossing(lo, hi, (piece_lo, ints_lo), (piece_lo, bumped(i)), None) == (None, 0)
    two = bumped(0)[:2] + (ints_lo[2] + 1,) + ints_lo[3:]
    assert measure._crossing(lo, hi, (piece_lo, ints_lo), (piece_lo, two), None) == (None, 0)
