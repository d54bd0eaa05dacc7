"""corollary_eps on monotone gates: t0 is the least t at which they hold,
checked at t0 - 1, t0 and 2 t0 over the pinned and seeded eps; the gates
are monotone near every t0 and match a Fraction reference at grid values;
t0 does not depend on the ln 2 cache or on the order of the queries; the
float-seeded search finds the g* and t0 of the unseeded one in a few gate
evaluations; one log enclosure at the seed decides L at the cut values near
it; and exactnum.ln_floor matches an independent floor(2^bits ln x)."""

import math
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings, strategies as st

from thueq import corollary, exactnum, measure
from thueq.cli import main
from thueq.exactnum import OutputLimitError, ln_floor
from thueq.corollary import EPS_CUT_BITS, LN_GRID_BITS, _cut, _eps_gates, _ln_grid, corollary_eps
from thueq.measure import theorem_assembly

from oracles import eps_gate_fn_oracle, least_g_oracle, ln_floor_oracle
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


def holds(t, eps) -> bool:
    return all(g.ok for g in _eps_gates(t, eps))


def test_t0_is_the_least_threshold_the_gates_certify():
    for eps in seeded_eps():
        out = corollary_eps(eps)
        t0 = out["t0"]
        assert not holds(t0 - 1, eps), eps
        assert holds(t0, eps) and holds(2 * t0, eps), eps
        assert list(out["gates"]) == _eps_gates(t0, eps)
        assert list(out["gates_at_double"]) == _eps_gates(2 * t0, eps)


def test_the_gates_are_monotone_near_every_t0():
    rng = random.Random(2903)
    for eps in seeded_eps():
        t0 = int(corollary_eps(eps)["t0"])
        near = sorted({t0 + rng.randint(-t0 // 10**6, t0 // 10**6) for _ in range(6)}
                      | {t0 - 2, t0 - 1, t0, t0 + 1})
        oks = [[g.ok for g in _eps_gates(t, eps)] for t in near]
        for gate in range(3):
            column = [ok[gate] for ok in oks]
            assert column == sorted(column), (eps, gate)
        assert [all(ok) for ok in oks] == [t >= t0 for t in near], eps


def test_t0_does_not_depend_on_the_ln2_cache_or_the_query_order(monkeypatch):
    corollary._log_constants()
    for name in ("_kappa", "_tmin_free_checks"):  # so theorem_assembly fills the cache anew
        monkeypatch.setattr(measure, name, lru_cache(maxsize=None)(
            getattr(measure, name).__wrapped__))
    eps = seeded_eps()[::4]
    saved = dict(exactnum._LN2_CACHE)
    try:
        exactnum._LN2_CACHE.clear()
        cold = {e: corollary_eps(e)["t0"] for e in eps}
        theorem_assembly(F(100))
        assert exactnum._LN2_CACHE
        warm = {e: corollary_eps(e)["t0"] for e in eps}
    finally:
        exactnum._LN2_CACHE.clear()
        exactnum._LN2_CACHE.update(saved)
    shuffled = eps[:]
    random.Random(7).shuffle(shuffled)
    assert cold == warm == {e: corollary_eps(e)["t0"] for e in shuffled}


def test_integer_gates_match_the_fraction_gates_near_every_pin():
    # at the grid values on both sides of each pinned t0's, and at seeded ones
    rng = random.Random(1807)
    for eps, t0 in EPS_T0.items():
        eps = F(eps)
        integer, fraction = corollary._eps_gate_fn(eps), eps_gate_fn_oracle(eps)
        g0 = _ln_grid(t0)
        for g in {g0 - 1, g0, g0 + 1, _ln_grid(t0 - 1), rng.randrange(1, 2 * g0),
                  600_000_000, 697_000_000}:  # kappa undefined, 1 + eps - kappa <= 0
            assert list(corollary._gate_results(integer(g))) == fraction(g), (eps, g)


def test_eps_gates_are_monotone_near_t0():
    # the two moduli at which the gates of the former bisection disagreed with
    # their order: at eps = 1/4 all held at the lower and one failed at the
    # higher; on the grid value of the top 64 bits they order as t does
    eps, t0 = F(1, 4), F(EPS_T0["1/4"])
    below, above = 35236738053923596148575926603097569, 35236738063972774094074707235024547
    assert corollary_eps(eps)["t0"] == t0 < below < above
    assert _ln_grid(t0 - 1) < _ln_grid(t0) <= _ln_grid(below) <= _ln_grid(above)
    assert holds(below, eps) and holds(above, eps) and not holds(t0 - 1, eps)
    for t in (t0 - 1, t0, below, above):
        assert _eps_gates(t, eps) == eps_gate_fn_oracle(eps)(_ln_grid(t))


def test_corollary_eps_counts_its_evaluations():
    # "evaluations" counts the log enclosures read: one of ln t at the float
    # seed, whatever the size of t0 (262,537 bits at eps = 1/10000, 664,362 at
    # 1/25306), decides L at t0, at the cut values the search reads and at 2 t0
    for eps in (F(1, 100), F(1, 2), F(89, 100), F(99, 100), F(1, 10000), F(1, 25306)):
        assert corollary_eps(eps)["evaluations"] == 1, eps


@st.composite
def near_cut_pairs(draw) -> tuple:
    """(kind, t, c): a cut value t of 40 to 3,000 bits and an integer c with |c - t| <= t/2:
    c = t, c a few cut steps from t, t and c on the two sides of a power of two (where the
    cut step doubles, in either order), or c at a log-uniform distance from t."""
    n, kind = draw(st.integers(40, 3000)), draw(st.sampled_from(["same", "steps", "across", "far"]))
    if kind == "across":
        below = (1 << n) - draw(st.integers(1, 8)) * (1 << max(0, n - EPS_CUT_BITS))
        above = (1 << n) + draw(st.integers(0, 8)) * (1 << max(0, n + 1 - EPS_CUT_BITS))
        return (kind, below, above) if draw(st.booleans()) else (kind, above, below)
    t = _cut(draw(st.integers(1 << n - 1, (1 << n) - 1)))
    if kind == "same":
        return kind, t, t
    if kind == "steps":
        d = draw(st.integers(-8, 8)) << max(0, n - EPS_CUT_BITS)
    else:
        e = draw(st.integers(0, n - 2))
        d = draw(st.integers(-(1 << e), 1 << e))
    return kind, t, min(max(t + d, t - t // 2), t + t // 2)


@seed(2903)
@settings(max_examples=300, deadline=None)
@given(near_cut_pairs())
def test_one_enclosure_decides_l_near_its_cut_value(pair):
    # ln c = ln t + ln(1 + x), x = (c - t)/t, x - x^2 <= ln(1 + x) <= x: the
    # floor and every comparison with g next to it match L(c) read by its own
    # log, and within a few cut steps of t the first enclosure decides them
    kind, t, c = pair
    near, want = corollary._NearLn(t), _ln_grid(c)
    for g in (want - 1, want, want + 1):
        assert (near.grid(c) >= g) == (want >= g), (t, c, g)
    assert near.grid(c) == want, (t, c)
    if kind != "far":
        assert near.reads == 1, (t, c)


def test_the_enclosure_falls_back_to_ln_floor_away_from_its_cut_value(monkeypatch):
    # |x| > 1/2 on both sides, and x = 1/4, where x^2 and not the width leaves
    # the floor open: each reads ln_floor once, as L(c) does
    calls, real = [], corollary.ln_floor
    monkeypatch.setattr(corollary, "ln_floor", lambda x, b: calls.append(x) or real(x, b))
    t = _cut(3**200)
    near = corollary._NearLn(t)
    for c in (2 * t, t // 3, t + t // 4, t):
        want = _ln_grid(c)
        calls.clear()
        assert near.grid(c) == want, c
        assert calls == ([] if c == t else [_cut(c)]), c
    want = _ln_grid(2 * t)
    calls.clear()
    assert near.grid(t, 1) == want and not calls
    assert near.reads == 1 + 3


def test_a_floor_the_enclosure_leaves_open_is_read_by_ln_floor(monkeypatch):
    # an enclosure of ln t widened by 1 on each side decides no floor near t:
    # each is read by ln_floor, once, and counted in reads, and corollary_eps
    # still returns the exact t0 and gates
    want = {e: corollary_eps(e) for e in (F(1, 2), F(1, 100))}
    real = exactnum.LnArg._grid

    def wide(self, wn, wd):
        lo, hi, bits = real(self, wn, wd)
        return lo - (1 << bits), hi + (1 << bits), bits

    monkeypatch.setattr(exactnum.LnArg, "_grid", wide)
    t = _cut(3**200)
    near = corollary._NearLn(t)
    cs = (t, t + 1, t - (1 << 255), t + t // 8)
    for c in cs:
        assert near.grid(c) == _ln_grid(c), c
    assert near.grid(t, 1) == _ln_grid(2 * t)
    assert near.reads == 1 + len(cs) + 1
    keys = ("t0", "gates", "gates_at_double")
    for e, r in want.items():
        got = corollary_eps(e)
        assert [got[k] for k in keys] == [r[k] for k in keys] and got["evaluations"] > 1, e


SEED_SAMPLE = ([F(k, 100) for k in range(1, 100)] + [F(k, 1000) for k in range(1, 1000)]
               + [F(1, 25306), F(12345, 100000)])


def _recording_gates(monkeypatch) -> list:
    """Patch _eps_gate_fn so that every gate evaluation appends (g, all three hold)."""
    calls, real = [], corollary._eps_gate_fn

    def gate_fn(eps):
        gates = real(eps)

        def recorded(g):
            out = gates(g)
            calls.append((g, all(out[:3])))
            return out
        return recorded

    monkeypatch.setattr(corollary, "_eps_gate_fn", gate_fn)
    return calls


def _seeded_search(monkeypatch, eps) -> tuple:
    """(g*, t0, gate evaluations) of one corollary_eps query: g* is the least evaluated
    grid value at which the gates hold, and the search evaluated g* - 1 too."""
    calls = _recording_gates(monkeypatch)
    t0 = corollary_eps(eps)["t0"]
    g = min(g for g, ok in calls if ok)
    assert (g - 1, False) in calls, eps
    monkeypatch.undo()
    return g, t0, len(calls)


def test_the_seeded_search_finds_the_unseeded_g_star_and_t0(monkeypatch):
    for eps in SEED_SAMPLE:
        g, t0, _ = _seeded_search(monkeypatch, eps)
        assert (g, t0) == least_g_oracle(eps), eps


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda e: 0 < e < 1))
def test_the_seeded_search_matches_the_oracle_on_any_fraction(eps):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            g, t0, _ = _seeded_search(monkeypatch, eps)
        except OutputLimitError:
            with pytest.raises(OutputLimitError):
                least_g_oracle(eps)
        else:
            assert (g, t0) == least_g_oracle(eps), eps


def test_a_query_evaluates_the_gates_at_most_eight_times(monkeypatch):
    # g* and the grid value below it from the float seed, and the two sets of results
    counts = [_seeded_search(monkeypatch, eps)[2] for eps in SEED_SAMPLE]
    assert max(counts) <= 8, max(counts)


def test_the_seed_falls_back_to_the_floor_on_a_float_failure():
    # gate (iii)'s larger root overflows to inf at eps = 1e-300, and at 1e-400 eps
    # underflows to 0.0 and the root to a division by zero
    assert corollary._g_seed(F(1, 10**300), 7) == corollary._g_seed(F(1, 10**400), 7) == 8


@pytest.mark.parametrize("eps", ["1/25307", "1e-200001"])
def test_thresholds_past_the_output_limit_still_exit_64(eps, capsys):
    # the least eps refused after the g* search, and one refused before it, at once;
    # test_cli runs 1e-30 and 1e-200001 in a fresh interpreter
    start = time.perf_counter()
    assert main(["corollary-eps", "--eps", eps]) == 64
    took = time.perf_counter() - start
    assert "200,000-digit output limit" in capsys.readouterr().err
    if eps == "1e-200001":
        assert took < 0.2, took


def test_ln_floor_matches_an_independent_enclosure():
    rng = random.Random(4242)
    xs = [F(rng.randrange(1, 2**200), rng.randrange(1, 2**100)) for _ in range(40)]
    xs += [F(rng.randrange(2, 10**6)) for _ in range(40)] + [F(2), F(1, 2), F(3, 2), F(3, 4)]
    for x in xs:
        for bits in (8, 28, 61):
            assert ln_floor(x, bits) == ln_floor_oracle(x, bits), (x, bits)
    assert ln_floor(F(1), 28) == 0


def test_ln_floor_next_to_a_grid_point():
    # x = floor(e^(g / 2^bits)) and the integer above straddle a grid point,
    # where ln x is within about 1/x of it; and the cut thresholds of the
    # pins straddle the point of their own least passing grid value
    rng = random.Random(77)
    for bits in (4, 8, 28):
        for g in rng.sample(range(1 << bits, 40 << bits), 25):
            x = math.floor(math.exp(g / (1 << bits)))
            for y in (x - 1, x, x + 1, x + 2):
                assert ln_floor(F(y), bits) == ln_floor_oracle(F(y), bits), (bits, y)
    for t0 in EPS_T0.values():
        for t in (t0 - 1, t0):
            cut = corollary._cut(t)
            assert ln_floor(cut, LN_GRID_BITS) == ln_floor_oracle(F(cut), LN_GRID_BITS)
