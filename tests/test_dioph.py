import cmath
import hashlib
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache, reduce

import pytest
from hypothesis import given, settings, strategies as st

from thueq import concrete, dioph
from thueq.cli import main
from thueq.concrete import (
    ComplexBall,
    TieError,
    _root_seeds,
    _t_complex,
    _t_exact,
    all_root_balls,
    classify_type,
    divisibility_ball_check,
    root_ball,
)
from thueq.dioph import (
    Solution,
    irreducibility_exceptions,
    small_solution_search,
    t_value_set,
)
from thueq.exactnum import GRID_BITS
from thueq.quadfield import (QuadInt, eligible_fields, enumerate_bounded, field_pairs, norm,
                             ring, roots_of_unity)
from thueq.series import GaussRat

import oracles
from oracles import (ball_contains_zero, ball_record, balls_overlap_oracle,
                     beta_bounds_oracle, classify_type_oracle, derivative_balls_oracle,
                     div_exact, divisibility_ball_check_oracle, embed_oracle, eval_form,
                     irreducibility_exceptions_oracle, orbit, outcome,
                     root_ball_oracle, root_balls_oracle, root_seeds_oracle, sqrt_bounds,
                     sqrt_lower, sqrt_upper)


def test_eval_form_known_values():
    t = QuadInt(1, 0, 20)
    x = QuadInt(1, 1, 0)
    y = QuadInt(1, 1, 0)
    assert eval_form(t, x, y) == QuadInt(1, -4, 0)
    zero = QuadInt(1, 0, 0)
    assert eval_form(t, x, zero) == QuadInt(1, 1, 0)
    assert eval_form(t, zero, y) == QuadInt(1, 1, 0)


def test_orbit_invariance_sampled():
    rng = random.Random(0)
    for _ in range(1000):
        d = rng.choice([1, 2, 3, 7, 11])
        t = QuadInt(d, rng.randint(-30, 30), rng.randint(-30, 30))
        x = QuadInt(d, rng.randint(-9, 9), rng.randint(-9, 9))
        y = QuadInt(d, rng.randint(-9, 9), rng.randint(-9, 9))
        val = eval_form(t, x, y)
        for xo, yo in orbit(x, y):
            assert eval_form(t, xo, yo) == val


def trivial_solutions(d: int, mu: QuadInt) -> list[Solution]:
    """Solution classes of the shape (xi, 0), one representative each."""
    units = roots_of_unity(d)
    if not any(u == mu for u in units):
        raise ValueError(f"{mu} is not a unit in d={d}")
    zero = QuadInt(d, 0, 0)
    out = []
    seen = set()
    for xi in units:
        if eval_form(zero, xi, zero) == mu:
            # one representative per +- pair
            key = frozenset([(xi.a, xi.b), ((-xi).a, (-xi).b)])
            if key not in seen:
                seen.add(key)
                out.append(Solution(d, zero, xi, zero, mu))
    return out


def solve_zero(t: QuadInt) -> dict:
    """Solution set of F_t(X,Y) = 0: trivial only, except t = +-4i where a
    one-parameter family x = (+-i) y appears."""
    if t.d == 1 and t.a == 0 and t.b in (4, -4):
        root = QuadInt(1, 0, 1 if t.b == 4 else -1)
        return {"trivial_only": False, "family_root": root}
    return {"trivial_only": True, "family_root": None}


def test_trivial_solutions():
    one = QuadInt(1, 1, 0)
    sols = trivial_solutions(1, one)
    assert all(s.y == QuadInt(1, 0, 0) for s in sols)
    assert all(s.x.abs_sq() == 1 for s in sols)
    with pytest.raises(ValueError):
        trivial_solutions(1, QuadInt(1, 2, 0))


def test_irreducibility_exceptions():
    ts, root_cases = irreducibility_exceptions()
    keys = {(t.d, t.a, t.b) for t in ts}
    expected = set()
    # the reference set, written in a + b*omega coordinates
    refs = [
        (1, 0, 0),  # 0
        (1, 3, 0),  # 3
        (1, 1, 3),  # 3i + 1
        (1, -1, 3),  # 3i - 1
        (1, 0, 4),  # 4i
        (1, 0, 5),  # 5i
        (2, 0, 3),  # 3 sqrt(-2)
        (3, -2, 4),  # 2 sqrt(-3) = -2 + 4 omega
        (3, -1, 5),  # (5 sqrt(-3) + 3)/2 = -1 + 5 omega
        (3, -4, 5),  # (5 sqrt(-3) - 3)/2 = -4 + 5 omega
        (7, -1, 2),  # sqrt(-7) = -1 + 2 omega
        (7, -2, 3),  # (3 sqrt(-7) - 1)/2
        (7, -1, 3),  # (3 sqrt(-7) + 1)/2
        (15, -1, 2),  # sqrt(-15) = -1 + 2 omega
    ]
    for d, a, b in refs:
        expected.add((d, a, b))
        n = -QuadInt(d, a, b)
        expected.add((n.d, n.a, n.b))
    # 0 is self-negative; the pair collapses
    assert keys == expected
    assert len(ts) == 27
    assert {(t.d, t.a, t.b) for t in root_cases} == {(1, 0, 4), (1, 0, -4)}


def test_irreducibility_exceptions_equal_the_quadint_oracle(monkeypatch):
    # the pair kernel finds the list that QuadInt division over enumerate_bounded(4)
    # found, in the same order, and runs neither of them
    expected = irreducibility_exceptions_oracle()

    def refuse(*args, **kwargs):
        raise RuntimeError("the brute-force path ran")

    monkeypatch.setattr(dioph, "enumerate_bounded", refuse)
    monkeypatch.setattr(oracles, "div_exact", refuse)
    ts, root_cases = irreducibility_exceptions()
    assert (ts, root_cases) == expected


def test_solve_zero():
    assert solve_zero(QuadInt(1, 3, 0)) == {"trivial_only": True, "family_root": None}
    fam = solve_zero(QuadInt(1, 0, 4))
    assert not fam["trivial_only"]
    assert fam["family_root"] == QuadInt(1, 0, 1)
    t = QuadInt(1, 0, 4)
    i = QuadInt(1, 0, 1)
    y = QuadInt(1, 2, 3)
    assert eval_form(t, i * y, y) == QuadInt(1, 0, 0)


def test_small_solution_search_empty_at_100():
    assert small_solution_search(F(100)) == []


def test_small_solution_search_refuses_a_negative_bound():
    # |t| >= -5 holds for every t; squaring the bound once dropped them all
    with pytest.raises(ValueError):
        small_solution_search(F(-5))


def test_small_solution_search_full_t_set():
    # the +-closed t-value set of every non-trivial solution with
    # min{|x|, |y|} < 3: +-{1, 4, 4i, 3 sqrt(-2), 2 sqrt(-3),
    # (5 sqrt(-3) +- 1)/2, sqrt(-17)}
    sols = small_solution_search(F(0))
    expected = set()
    for d, a, b in [
        (1, 1, 0),
        (1, 4, 0),
        (1, 0, 4),
        (2, 0, 3),
        (3, -2, 4),  # 2 sqrt(-3)
        (3, -2, 5),  # (5 sqrt(-3) + 1)/2
        (3, -3, 5),  # (5 sqrt(-3) - 1)/2
        (17, 0, 1),
    ]:
        expected.add((d, a, b))
        n = -QuadInt(d, a, b)
        expected.add((n.d, n.a, n.b))
    assert t_value_set(sols) == expected


def test_small_solutions_verify_exactly():
    for s in small_solution_search(F(0)):
        assert eval_form(s.t, s.x, s.y) == s.mu
        assert s.mu.abs_sq() == 1
        assert min(s.x.abs_sq(), s.y.abs_sq()) < 9


def _plain_box(max_sq: int, strict: bool) -> list[QuadInt]:
    """Normalized elements with |z|^2 <= max_sq (< max_sq when strict), by
    plain loops over a + b*omega, the norm taken from the embedding."""
    def inside(z):
        re, im = z.re_im()
        n = re * re + z.d * im * im
        return n < max_sq if strict else n <= max_sq

    out = [QuadInt(1, a, 0) for a in range(1, max_sq) if inside(QuadInt(1, a, 0))]
    r = 2 * math.isqrt(max_sq) + 2  # |b| <= 2|Im| and |a| <= |Re| + |b|/2
    for d in range(1, 4 * max_sq + 1):
        if any(d % (k * k) == 0 for k in range(2, d) if k * k <= d):
            continue
        out += [z for b in range(1, r) for a in range(-r, r)
                if inside(z := QuadInt(d, a, b))]
    return out


def _units(x: QuadInt, y: QuadInt) -> list[tuple[int, QuadInt]]:
    """(ambient field, unit) pairs: a rational pair takes +-1, +-i from
    d = 1 and the primitive sixth roots of unity from d = 3."""
    if x.is_rational() and y.is_rational():
        return ([(1, u) for u in roots_of_unity(1)]
                + [(3, u) for u in roots_of_unity(3) if not u.is_rational()])
    d = y.d if x.is_rational() else x.d
    return [(d, u) for u in roots_of_unity(d)]


def test_small_solution_search_matches_an_unfiltered_oracle():
    # every x with |x|^2 < 9 against every y with |y|^2 <= 25 in a compatible
    # field, no divisibility filter: F_t = mu solved as t = (A - mu) / B with
    # A = x^4 - 6x^2y^2 + y^4, B = xy(x^2 - y^2); when B = 0, F = -4x^4 is no
    # unit.  The largest |y|^2 among the solutions is 17.
    xs = _plain_box(9, strict=True)
    ys = _plain_box(25, strict=False)
    found = set()
    for x in xs:
        for y in ys:
            if not (x.is_rational() or y.is_rational() or x.d == y.d):
                continue
            for d, mu in _units(x, y):
                xl = QuadInt(d, x.a, x.b)
                yl = QuadInt(d, y.a, y.b)
                den = xl * yl * (xl * xl - yl * yl)
                if den == QuadInt(d, 0, 0):
                    assert eval_form(QuadInt(d, 0, 0), xl, yl) == -4 * xl ** 4
                    continue
                num = xl ** 4 - 6 * (xl * yl) ** 2 + yl ** 4 - mu
                try:
                    t = div_exact(num, den)
                except ValueError:
                    continue
                assert eval_form(t, xl, yl) == mu
                found.add(Solution(d, t, xl, yl, mu))
    sols = small_solution_search(F(0))
    assert max(s.y.abs_sq() for s in sols) == 17
    assert len(set(sols)) == len(sols) == 79
    assert found == set(sols)


def test_every_solution_has_y_dividing_x4_minus_mu():
    # F_t(x, y) = x^4 (mod y), the fact behind the search's norm filter
    for s in small_solution_search(F(0)):
        rest = s.x ** 4 - s.mu
        assert rest == QuadInt(s.d, 0, 0) or rest.abs_sq() % s.y.abs_sq() == 0


def _per_pair_filter_calls() -> list[tuple]:
    """The (x, y, ambients) candidates of the search, x and y as (a, b)
    pairs, when every (x, y) pair of the box is tested for N(y) | N(x^4 - mu)
    one by one, in search order."""
    calls = []
    for x in [x for x in enumerate_bounded(3, normalize=True) if x.abs_sq() < 9]:
        ybound_sq = max((1 + x.abs_sq() ** 2) ** 2,
                        dioph.Y_UNIT_X_MAX_SQ if x.abs_sq() == 1 else 0)
        bound = 1 + math.isqrt(ybound_sq - 1)
        rational_y = [(a, 0) for a in range(1, math.isqrt(ybound_sq) + 1)]
        groups = [([1, 3] if x.is_rational() else [x.d], 1, rational_y)]
        groups += [([d], d, field_pairs(d, ybound_sq, normalize=True))
                   for d in (eligible_fields(bound) if x.is_rational() else [x.d])]
        for ambients, dy, pairs in groups:
            norms = {(x ** 4 - mu).abs_sq() for d in ambients for mu in roots_of_unity(d)}
            for a, b in pairs:
                n = norm(dy, a, b)
                if any(k % n == 0 for k in norms):
                    calls.append(((x.a, x.b), (a, b), ambients))
    return calls


def _solved_candidates(monkeypatch) -> list[tuple]:
    """Record the (x, y, ambients) candidates that _search_all solves, one per y."""
    calls = []
    solve = dioph._solve_for_t

    def recording(x, ys, ambients):
        ys = list(ys)
        calls.extend((x, y, ambients) for y in ys)
        return solve(x, ys, ambients)

    monkeypatch.setattr(dioph, "_solve_for_t", recording)
    return calls


def test_search_solves_only_norm_divisors(monkeypatch):
    expected = small_solution_search(F(0))  # fills the cache before counting
    calls = _solved_candidates(monkeypatch)
    assert dioph._search_all() == expected
    assert len(calls) < 10_000  # the unfiltered box made 118,032 calls
    # the divisor-driven walk solves exactly what the per-pair filter solves;
    # the box |y|^2 <= 47 for a unit x made 5,468
    assert len(calls) == 4435
    assert calls == _per_pair_filter_calls()


def test_solve_for_t_rechecks_the_form_on_each_hit(monkeypatch):
    s = small_solution_search(F(0))[0]
    args = ((s.x.a, s.x.b), [(s.y.a, s.y.b)], [s.d])
    assert s in dioph._solve_for_t(*args)
    real = dioph._checked_solution
    # F_{t+1}(x, y) = mu - xy(x^2 - y^2) != mu: the recheck must see it
    monkeypatch.setattr(dioph, "_checked_solution",
                        lambda d, t, *rest: real(d, (t[0] + 1, t[1]), *rest))
    with pytest.raises(ArithmeticError):
        dioph._solve_for_t(*args)


def test_the_search_builds_quad_ints_for_hits_only(monkeypatch):
    # QuadInt arithmetic stays out of the per-candidate loop: one element per
    # x of the box and three (t, x, y) per hit, over 4,435 candidates
    dioph._search_all()  # the units of every field, cached for the process
    dioph._x_part.cache_clear()
    count = [0]
    real = QuadInt.__init__
    monkeypatch.setattr(QuadInt, "__init__", lambda self, *args: (
        count.__setitem__(0, count[0] + 1) or real(self, *args)))
    sols, built = dioph._search_all(), count[0]
    assert len(sols) == 79
    assert built <= len(enumerate_bounded(3, normalize=True)) + 3 * len(sols)


SEARCH_PINS = [
    (("small-solutions", "--tmin", "0", "--json"),
     "6577d438b0f207a1cfd5c001e984572c382e59549fa7a8f11d88c181cc069c23"),
    (("small-solutions", "--tmin", "0"),
     "91ee28850515ecac0ec2664e93a6aa977f9b57ef4cd7adf4b76f276c9437ea56"),
    (("enumerate", "--max-abs", "3", "--json"),
     "8ded51accc816f5e9b12a92d64cdddab3cd946a314f7f1d3e5aa08883f1e93a8"),
]


@pytest.mark.parametrize("argv, digest", SEARCH_PINS)
def test_search_outputs_are_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _search_output_digests(monkeypatch, capsys) -> list[str]:
    monkeypatch.setattr(dioph, "_SEARCH_CACHE", None)
    out = []
    for argv, _ in SEARCH_PINS[:2]:
        assert main(list(argv)) == 0
        out.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return out


def test_the_unit_x_box_is_needed_to_its_last_norm(monkeypatch, capsys):
    # the six solutions with |x| = 1 and |y|^2 = 4 need the derived box
    # |y|^2 <= 6; a box of 3 loses them and the small-solutions pins
    sols = small_solution_search(F(0))
    assert max(s.y.abs_sq() for s in sols if s.x.abs_sq() == 1) == 4
    pins = [digest for _, digest in SEARCH_PINS[:2]]
    assert _search_output_digests(monkeypatch, capsys) == pins
    monkeypatch.setattr(dioph, "Y_UNIT_X_MAX_SQ", 3)
    lost = [s for s in sols if s.x.abs_sq() == 1 and s.y.abs_sq() == 4]
    assert len(lost) == 6
    assert dioph._search_all() == [s for s in sols if s not in lost]
    assert not set(_search_output_digests(monkeypatch, capsys)) & set(pins)


def _t_sq_bound_oracle() -> F:
    """The derived |t|^2 bound as Fractions, over the box spelled out:
    (X^2 + 6XY + Y^2 + 1)^2 / (XY max(1, Y - X)^2) for 1 <= X <= 8 and
    X <= Y <= 6 for X = 1, (1 + X^2)^2 otherwise."""
    return max(F((x * x + 6 * x * y + y * y + 1) ** 2, x * y * max(1, y - x) ** 2)
               for x in range(1, 9) for y in range(x, (6 if x == 1 else (1 + x * x) ** 2) + 1))


def test_every_small_solution_lies_inside_the_derived_t_bound():
    # the bound that decides the small-solution gate in place of the search
    # when tmin^2 exceeds it; the largest |t|^2 found is 19, at (5 sqrt(-3) +- 1)/2
    bound = dioph.small_solution_t_sq_bound()
    sols = small_solution_search(F(0))
    assert len(sols) == 79
    assert all(s.t.abs_sq() <= bound for s in sols)
    assert max(s.t.abs_sq() for s in sols) == 19


def test_the_derived_t_bound_is_83521_over_18_at_8_9(monkeypatch):
    # at X = 8, Y = 9: 578^2 / 72, so |t| <= 68.12 for every small solution
    calls = []
    real = dioph._t_sq_cap
    monkeypatch.setattr(dioph, "_t_sq_cap", lambda x, y: calls.append((x, y)) or real(x, y))
    bound = dioph.small_solution_t_sq_bound()
    assert bound == F(578 ** 2, 8 * 9) == F(83521, 18) == _t_sq_bound_oracle()
    assert F(68) ** 2 < bound < F("68.12") ** 2
    assert len(calls) <= 24 and (8, 9) in calls  # three Y per X, not the 9,162 box pairs
    # the bound holds no assert for python -O to strip
    code = ("import sys\nfrom thueq.dioph import small_solution_t_sq_bound\n"
            "if not sys.flags.optimize: sys.exit(3)\nprint(small_solution_t_sq_bound())\n")
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "83521/18\n"), r.stderr


def test_the_t_sq_cap_peaks_at_three_candidates_past_the_box():
    # small_solution_t_sq_bound's lemma, checked beyond its box: for every
    # X <= 16 and every box end B up to (1 + X^2)^2, the maximum of g over the
    # integers X <= Y <= B is its maximum over Y in {X, X + 1, B}
    def g(x, y):  # (X^2 + 6XY + Y^2 + 1)^2 / (XY max(1, Y - X)^2) as (num, den)
        return (x * x + 6 * x * y + y * y + 1) ** 2, x * y * max(1, y - x) ** 2

    def at_least(p, q):
        return p[0] * q[1] >= q[0] * p[1]

    for x in range(1, 17):
        assert all(F(*g(x, y)) == dioph._t_sq_cap(x, y) for y in (x, x + 1, x + 2, 3 * x))
        fixed = max(g(x, x), g(x, x + 1), key=lambda p: F(*p))
        top = fixed  # the maximum over X <= Y <= B
        for b in range(x + 2, (1 + x * x) ** 2 + 1):
            gb = g(x, b)
            if not at_least(top, gb):
                top = gb
            assert at_least(fixed, top) or at_least(gb, top), (x, b)


def test_root_ball_certification():
    t = GaussRat(F(0), F(100))  # t = 100i
    ball = root_ball(t, 0.01j, F(1, 10**25))
    assert ball.radius <= F(1, 10**25)
    # the enclosed root sits within O(1/|t|^3) of the center -1/t = 0.01i
    assert abs(complex(float(ball.re_mid), float(ball.im_mid)) - 0.01j) < 1e-4


def test_all_root_balls():
    balls = all_root_balls(100j, GaussRat(F(0), F(100)), None, F(1, 10**20))
    assert len(balls) == 4
    for b in balls:
        assert b.radius <= F(1, 10**20)


# sha256 of repr(all_root_balls(...)), from the closed-form seeds, with every Newton
# step on the 2^-128 grid
IRRATIONAL_BALL_PINS = [
    (7, 3, 40, "de2d6366fac6715b33d64dc01ae2de188a54868046ede751169a32cde5d466b6"),
    (11, -5, 31, "7baaf1ed65f0a77bb666a6593dce6910b09adbc80f30ed266f2089302b809eea"),
]
# sha256 of repr(all_root_balls(...)) at 2^-128 for a Gaussian parameter, from the
# closed-form seeds, with every Newton step on the 2^-192 grid
GAUSSIAN_BALL_PINS = [
    (37, -512, "e2ffa59e3711977a6cbe23361bc6719982cd9199cdccea178508250a8c891d38"),
    (-200, 35, "5336c7723d01d13bbcba02b97bd2ae93e4540cdb1918e9b602b307f60b6a1860"),
]
# exact values, taken from the closed-form seeds
DIVISIBILITY_RADIUS_PINS = [
    (5, GaussRat(F(37, 3), F(-512, 7)), F(1346717941834350885613, 1 << 128)),
    (3, GaussRat(F(0), F(100)), F(7198003783877, 1 << 127)),
]


@pytest.mark.parametrize("d, a, b, digest", IRRATIONAL_BALL_PINS)
def test_root_balls_of_an_irrational_parameter_are_pinned(d, a, b, digest):
    t = QuadInt(d, a, b)
    t_gauss, t_irrational = _t_exact(t)
    assert t_gauss is None  # the parameter is enclosed in a ball
    for _ in ("cold", "cached"):
        balls = all_root_balls(_t_complex(t), t_gauss, t_irrational, F(1, 1 << 64))
        assert hashlib.sha256(repr(balls).encode()).hexdigest() == digest
    assert concrete._root_balls.cache_info().hits == 1


@pytest.mark.parametrize("a, b, digest", GAUSSIAN_BALL_PINS)
def test_root_balls_of_a_gaussian_parameter_are_pinned(a, b, digest):
    t = QuadInt(1, a, b)
    balls = all_root_balls(_t_complex(t), *_t_exact(t), F(1, 1 << 128))
    assert hashlib.sha256(repr(balls).encode()).hexdigest() == digest


def test_one_coefficient_table_per_root_set(monkeypatch):
    # the four Newton runs of a set share the parameter's table: one _coeffs_at call per
    # _root_balls miss and one per divisibility check, and the pinned balls and radii
    calls = []
    real = concrete._coeffs_at
    monkeypatch.setattr(concrete, "_coeffs_at", lambda t: calls.append(t) or real(t))
    monkeypatch.setattr(concrete, "_root_balls",
                        lru_cache(maxsize=64)(concrete._root_balls.__wrapped__))
    runs = [(QuadInt(d, a, b), F(1, 1 << 64), digest) for d, a, b, digest in IRRATIONAL_BALL_PINS]
    runs += [(QuadInt(1, a, b), F(1, 1 << 128), digest) for a, b, digest in GAUSSIAN_BALL_PINS]
    for t, radius, digest in runs:
        for _ in ("cold", "cached"):
            balls = all_root_balls(_t_complex(t), *_t_exact(t), radius)
            assert hashlib.sha256(repr(balls).encode()).hexdigest() == digest
    assert len(calls) == concrete._root_balls.cache_info().misses == 4
    t = QuadInt(1, 0, 100)
    assert classify_type(t, QuadInt(1, 0, 99), QuadInt(1, 1, 0)) == 2
    assert len(calls) == concrete._root_balls.cache_info().misses == 5
    for r, t, radius in DIVISIBILITY_RADIUS_PINS:
        out = divisibility_ball_check(r, t)
        assert out["all_contain_zero"] and out["max_radius"] == radius
    assert len(calls) == 7


def _inline_parameter_ball(t: QuadInt) -> ComplexBall:
    """The ball root_ball built for an irrational parameter t = g + h sqrt(d)
    from the triple (d, g, h), with sqrt(d) enclosed at 200 bits."""
    re, im = t.re_im()
    d, g, h = t.d, GaussRat(re, F(0)), GaussRat(F(0), im)
    lo, hi = sqrt_lower(F(d), 200), sqrt_upper(F(d), 200)
    return ComplexBall(g.re + h.re * (lo + hi) / 2, g.im + h.im * (lo + hi) / 2,
                       (abs(h.re) + abs(h.im)) * (hi - lo))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 163, 10**6 + 3])
def test_embed_at_200_bits_is_the_inline_parameter_ball(d):
    rng = random.Random(d)
    ts = [QuadInt(d, 3, 40), QuadInt(d, -5, 1), QuadInt(d, 0, -1), QuadInt(d, 10**30, 7)]
    ts += [QuadInt(d, rng.randint(-10**6, 10**6), rng.choice([-1, 1]) * rng.randint(1, 10**6))
           for _ in range(5)]
    for t in ts:
        assert _t_exact(t) == (None, t)
        assert (_record_value(concrete._embed(t, 200))
                == _ball_value(_inline_parameter_ball(t))), str(t)


def _record_value(rec: tuple) -> tuple:
    """A ball record's midpoint, radius and h, whatever the scale of its integers."""
    a, b, n, p, q, h = rec
    return F(a, n), F(b, n), F(p, q), h


def _ball_value(ball: ComplexBall) -> tuple:
    return ball.re_mid, ball.im_mid, ball.radius, ball_record(ball)[5]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 11, 163])
def test_embed_records_equal_the_oracle_balls(d):
    # rational and irrational x, at the classification's 128 bits and the
    # parameter's 200: the same midpoint, radius and h as the ComplexBall embedding
    rng = random.Random(d)
    xs = [QuadInt(d, 0, 0), QuadInt(d, -7, 0), QuadInt(d, 10**40 + 1, 0), QuadInt(d, 0, 1),
          QuadInt(d, 3, -40), QuadInt(d, -10**30, 7)]
    xs += [QuadInt(d, rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)) for _ in range(6)]
    for x, bits in itertools.product(xs, (128, 200)):
        assert (_record_value(concrete._embed(x, bits))
                == _ball_value(embed_oracle(x, bits))), (str(x), bits)


@pytest.mark.parametrize("t", [QuadInt(1, 37, -512), QuadInt(7, 3, 40), QuadInt(163, -10**9, 3)])
def test_coeffs_at_majorant_is_the_complexball_majorant(t):
    # |A_k| + |B_k| |t| with |t| bounded as ComplexBall.abs_upper bounds it,
    # radius included, for the parameter ball root_ball reads
    t_gauss, t_irrational = _t_exact(t)
    ball = ComplexBall.exact(t_gauss.re, t_gauss.im) if t_irrational is None else \
        embed_oracle(t_irrational, 200)
    _, _, m2, td = concrete._coeffs_at(concrete._embed(t, 200))
    assert [F(m, td) for m in m2] == [abs(a) + abs(b) * ball.abs_upper()
                                      for a, b in zip(*concrete._D2F)]


def _count_built(monkeypatch) -> list:
    """Record the class of every ComplexBall and GaussRat built from now on."""
    built = []
    for cls in (ComplexBall, GaussRat):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real, cls=cls:
                            built.append(cls) or real(self, *args))
    return built


def test_classify_type_builds_only_the_balls_it_caches(monkeypatch):
    # a fresh Gaussian t that answers at 2^-64: the one GaussRat of _t_exact;
    # every ball, the cached set's included, is a record
    built = _count_built(monkeypatch)
    radii = _tie_at(monkeypatch, [])
    assert classify_type(QuadInt(1, 37, -512), QuadInt(1, 1, 0), QuadInt(1, 0, 1)) == 0
    assert radii == RUNGS[:1]
    assert built == [GaussRat]


def test_divisibility_check_builds_no_complexball(monkeypatch):
    # the root ball at 2^-120 stays a record from _root_record to _dyadic_ball
    t = GaussRat(F(37, 3), F(-512, 7))
    built = _count_built(monkeypatch)
    assert divisibility_ball_check(3, t)["all_contain_zero"]
    assert ComplexBall not in built


def test_the_root_ball_cache_holds_records_or_a_reason():
    # one stored form per set: four records (a, b, n, p, q, h) of ints, or the
    # reason of a tie; all_root_balls builds its ComplexBalls on the way out
    kinds = set()
    for t in (QuadInt(1, 0, 100), QuadInt(7, 3, 40), QuadInt(2, -37, 512)):
        for bits in (64, 128, 256):
            args = (_t_complex(t), *_t_exact(t), F(1, 1 << bits))
            got = concrete._root_balls(*args)
            kinds.add(type(got))
            assert isinstance(got, str) or (
                type(got) is tuple and len(got) == 4
                and all(type(rec) is tuple and len(rec) == 6
                        and all(type(x) is int for x in rec) for rec in got)), (str(t), bits)
            if type(got) is tuple:
                assert all_root_balls(*args) == list(map(concrete._ball, got))
    assert kinds == {tuple, str}


def _tie_at(monkeypatch, tied) -> list:
    """Record the radius of every root-ball set classify_type asks for, and
    make the sets at the radii in ``tied`` tie."""
    radii = []
    real = concrete._root_balls

    def root_balls(t_complex, t_gauss, t_irrational, radius):
        radii.append(radius)
        if radius in tied:
            return "forced tie"  # a tie's reason, as _root_balls returns it
        return real(t_complex, t_gauss, t_irrational, radius)

    monkeypatch.setattr(concrete, "_root_balls", root_balls)
    return radii


RUNGS = [F(1, 1 << 64), F(1, 1 << 128), F(1, 1 << 256)]


def test_every_parameter_climbs_the_whole_ladder(monkeypatch):
    # a tie at every rung asks for 2^-64, then 2^-128, then 2^-256, for an
    # enclosed parameter as for a Gaussian one
    radii = _tie_at(monkeypatch, RUNGS)
    for t in (QuadInt(7, 3, 40), QuadInt(1, 0, 100)):
        with pytest.raises(TieError, match="no strict minimal root distance"):
            classify_type(t, QuadInt(t.d, -5, 0), QuadInt(t.d, 5, 0))
    assert radii == RUNGS * 2


def test_a_gaussian_parameter_climbs_to_the_next_rung(monkeypatch):
    radii = _tie_at(monkeypatch, RUNGS[:1])
    t = QuadInt(1, 0, 100)
    assert classify_type(t, QuadInt(1, -5, 0), QuadInt(1, 5, 0)) == 1
    assert classify_type(t, QuadInt(1, 0, 99), QuadInt(1, 1, 0)) == 2
    assert radii == RUNGS[:2] * 2


def _below_the_top_rung() -> list[QuadInt]:
    """Seeded exact parameters with |t| < 2^126: t = 100i, 37 - 512i, 4i (a
    double root at i), a rational t in d = 7 and Gaussian t up to 10^37."""
    rng = random.Random(29)
    ts = [QuadInt(1, 0, 100), QuadInt(1, 37, -512), QuadInt(1, 0, 4), QuadInt(7, -101, 0)]
    for e in (1, 2, 9, 19, 37):
        ts.append(QuadInt(1, rng.randint(-10 ** e, 10 ** e), rng.randint(1, 10 ** e)))
    return ts


def test_a_gaussian_parameter_below_2_126_skips_the_top_rung():
    # classify_type asks for the top rung, but no answer can come from it
    rng = random.Random(31)
    for t in _below_the_top_rung():
        assert t.abs_sq() < 1 << 252 and _t_exact(t)[1] is None
        assert (concrete._root_balls(_t_complex(t), *_t_exact(t), RUNGS[2])
                == "root enclosure did not reach the requested radius")
        # near each root, and (x, 0), which ties at every rung
        for x, y in _pairs_near_roots(rng, t)[:4] + [(QuadInt(t.d, 3, 1), QuadInt(t.d, 0, 0))]:
            assert outcome(classify_type, t, x, y) == outcome(classify_type_oracle, t, x, y)


def test_the_top_rung_cannot_certify_below_2_129():
    # why the top rung ties below |t| = 2^129 - 1: a ball's radius is 2 en/ed
    # with en >= 1 and ed <= 2^128 |f'(x)| (f_t has a root in Q(i) only at
    # t = +-4i, the double root +-i, where ed <= 0), and the Rouche enclosure
    # |alpha0 + 1/t| <= 5.01/|t|^3 puts x within 5.02/|t|^3 of -1/t, so
    # |f'(x)| <= |t| + 3|t||x|^2 + 12|x| + 4|x|^3 < |t| + 1 at alpha0
    for t in (QuadInt(1, 3, (1 << 127) + 7), QuadInt(1, 3, (1 << 128) + 7)):
        assert (concrete._root_balls(_t_complex(t), *_t_exact(t), RUNGS[2])
                == "root enclosure did not reach the requested radius")
    # seeded Gaussian t, one per octave of [2^126, 2^130): the same type or
    # TieError as the oracle, on both sides of 2^129 - 1
    rng, above = random.Random(41), []
    for e in range(126, 130):
        m, phase = 2 ** rng.uniform(e, e + 1), rng.uniform(0, 2 * math.pi)
        t = QuadInt(1, round(m * math.cos(phase)), round(m * math.sin(phase)))
        assert 1 << 2 * e <= t.abs_sq() < 1 << 2 * e + 2
        above.append(t.abs_sq() >= ((1 << 129) - 1) ** 2)
        for x, y in _pairs_near_roots(rng, t)[:4] + [(QuadInt(1, 3, 1), QuadInt(1, 0, 0))]:
            assert outcome(classify_type, t, x, y) == outcome(classify_type_oracle, t, x, y)
    assert above == [False, False, False, True]


def _counting_root_ball(monkeypatch) -> list:
    calls = []
    real = concrete._root_record
    monkeypatch.setattr(concrete, "_root_record",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_one_root_ball_set_per_t(monkeypatch):
    # three classifications and one query on one t build the four balls once
    calls = _counting_root_ball(monkeypatch)
    t = QuadInt(1, 0, 100)
    t_gauss, t_irrational = _t_exact(t)
    assert classify_type(t, QuadInt(1, -5, 0), QuadInt(1, 5, 0)) == 1
    assert classify_type(t, QuadInt(1, 5, 0), QuadInt(1, 5, 0)) == 3
    assert classify_type(t, QuadInt(1, 0, 99), QuadInt(1, 1, 0)) == 2
    all_root_balls(_t_complex(t), t_gauss, t_irrational, F(1, 1 << 64))
    assert len(calls) == 4


def test_cached_root_balls_equal_the_cold_ones_in_a_fresh_list():
    t = QuadInt(1, 37, -512)
    args = (_t_complex(t), *_t_exact(t), F(1, 1 << 64))
    cold = all_root_balls(*args)
    cached = all_root_balls(*args)
    assert concrete._root_balls.cache_info().hits == 1
    assert cached == cold and cached is not cold
    cached[0] = None
    assert all_root_balls(*args) == cold


def test_a_tied_rung_is_cached(monkeypatch):
    # t = 3 + 40 omega in d = 7 stalls short of 2^-256 (see the test below)
    t = QuadInt(7, 3, 40)
    args = (_t_complex(t), *_t_exact(t), F(1, 1 << 256))
    calls = _counting_root_ball(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(TieError) as exc:
            all_root_balls(*args)
        messages.append(str(exc.value))
        assert len(calls) == 1  # the first seed stalls, and is not retried
    assert messages == ["root enclosure did not reach the requested radius"] * 2
    assert concrete._root_balls.cache_info().currsize == 1


def test_root_ball_stops_once_the_radius_stalls(monkeypatch):
    # t = 3 + 40 omega in d = 7 is a ball of nonzero radius, so every
    # t-coefficient of f_t is rounded up to the 2^-128 ball grid: the certified
    # radius bottoms out near 2^-132 (2^-127 for the large root) whatever the
    # precision of sqrt(d), and 2^-256 is out of reach
    t = QuadInt(7, 3, 40)
    t_gauss, t_irrational = _t_exact(t)
    calls = []
    real = concrete._certify_root
    monkeypatch.setattr(concrete, "_certify_root",
                        lambda *args: calls.append(args) or real(*args))
    with pytest.raises(TieError):
        root_ball(t_gauss, _root_seeds(_t_complex(t))[0], F(1, 1 << 256), t_irrational)
    assert len(calls) <= 4  # all 14 Newton steps ran before the stall check


def _oracle_parameters() -> list[QuadInt]:
    """One seeded parameter per field, |t| between 10^2 and 10^6."""
    rng = random.Random(17)
    out = []
    for d in (1, 2, 3, 5, 7, 11):
        m = 10 ** rng.uniform(2, 6)
        out.append(QuadInt(d, round(m * rng.uniform(-1, 1)), round(m * rng.uniform(-1, 1)) or 1))
    return out


def test_root_ball_matches_the_fraction_oracle():
    # every seed at 2^-64, 2^-128 and 2^-256: the integer Newton steps and
    # certificates give the GaussRat/ComplexBall path's ball, or its tie
    outcomes = []
    for t in _oracle_parameters():
        t_gauss, t_irrational = _t_exact(t)
        for seed, bits in itertools.product(_root_seeds(_t_complex(t)), (64, 128, 256)):
            got, want = [], []
            for fn, out in ((root_ball, got), (root_ball_oracle, want)):
                try:
                    out.append(fn(t_gauss, seed, F(1, 1 << bits), t_irrational))
                except TieError as e:
                    out.append(str(e))
            assert got == want, (str(t), seed, bits)
            outcomes.append(isinstance(got[0], str))
    assert True in outcomes and False in outcomes


def _bench_parameters() -> list[QuadInt]:
    """The 42 seeded parameters of BENCH_root_balls.json, |t| in [10^2, 10^6]."""
    rng, out = random.Random(2024), []
    for d in (1, 1, 2, 3, 5, 7, 11):
        for _ in range(6):
            m = 10 ** rng.uniform(2, 6)
            out.append(QuadInt(d, int(m * rng.uniform(-1, 1)), int(m * rng.uniform(-1, 1)) or 1))
    return out


def test_root_ball_midpoints_stay_on_the_dyadic_grid():
    # a ball asked for at radius 2^-k has a midpoint on the 2^-(k+64) grid; only
    # the parameter past 2^129 reaches 2^-256 (test_the_top_rung_cannot_certify_below_2_129)
    certified = set()
    for t in _bench_parameters() + [QuadInt(1, 5, (1 << 130) + 3)]:
        t_gauss, t_irrational = _t_exact(t)
        for seed, k in itertools.product(_root_seeds(_t_complex(t)), (64, 128, 256)):
            try:
                ball = root_ball(t_gauss, seed, F(1, 1 << k), t_irrational)
            except TieError:
                continue
            for c in (ball.re_mid, ball.im_mid):
                assert c.denominator & (c.denominator - 1) == 0, (str(t), seed, k)
                assert c.denominator <= 1 << k + 64, (str(t), seed, k)
            certified.add(k)
    assert certified == {64, 128, 256}


def test_root_ball_evaluates_f_once_per_iterate(monkeypatch):
    # the Newton step from an iterate reuses the evaluation that certified it
    calls, evaluations = [], []
    real, real_evaluate = concrete._certify_root, concrete._evaluate
    monkeypatch.setattr(concrete, "_certify_root",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(concrete, "_evaluate",
                        lambda *args: evaluations.append(args) or real_evaluate(*args))
    for t, bits in ((QuadInt(1, 37, -512), 256), (QuadInt(7, 3, 40), 128)):
        t_gauss, t_irrational = _t_exact(t)
        for seed in _root_seeds(_t_complex(t)):
            calls.clear()
            evaluations.clear()
            try:
                root_ball(t_gauss, seed, F(1, 1 << bits), t_irrational)
            except TieError:
                pass
            # the seed, then each certified iterate
            assert len(evaluations) == len(calls) + 1 >= 2


def _assert_seed_orbit(t: complex, seeds: list[complex]) -> None:
    """Each seed is a root of f_t to float accuracy, each the image of the one
    before under X -> (X - 1)/(X + 1), and the first has the least modulus."""
    assert len(seeds) == 4 and abs(seeds[0]) == min(map(abs, seeds)), (t, seeds)
    tr, ti, ta = F(t.real), F(t.imag), F(abs(t))
    for z in seeds:
        # |f_t(z)| <= 1e-12 sum |c_k| |z|^k, exactly over Q(i): no float overflows
        zr, zi, za = F(z.real), F(z.imag), F(abs(z))
        fr, fi = F(0), F(0)
        for cr, ci in ((1, 0), (-tr, -ti), (-6, 0), (tr, ti), (1, 0)):
            fr, fi = fr * zr - fi * zi + cr, fr * zi + fi * zr + ci
        scale = (((za + ta) * za + 6) * za + ta) * za + 1
        assert fr * fr + fi * fi <= (scale / 10**12) ** 2, (t, z)
    for z, w in zip(seeds, seeds[1:] + seeds[:1]):
        # w (z + 1) = z - 1, with the error of the float quotient w
        size = abs(w) * (abs(z) + 1) + abs(z) + 1
        assert abs(w * (z + 1) - (z - 1)) <= 1e-12 * size, (t, z, w)


def test_root_seeds_are_unchanged_up_to_1e30():
    # the same roots in the same order as the Durand-Kerner seeds of the oracle,
    # except where two roots share the least modulus: t = 0 and t in i(-4, 4)
    rng = random.Random(30)
    ts = [complex(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(150)]
    ts += [cmath.rect(10 ** rng.uniform(-2, 30), rng.uniform(-math.pi, math.pi))
           for _ in range(450)]
    for t in ts + [0j, 100j, 1e30 + 0j, -1e30j]:
        seeds = _root_seeds(t)
        if t.real == 0 and abs(t.imag) < 4:
            _assert_seed_orbit(t, seeds)
            continue
        for z, w in zip(seeds, root_seeds_oracle(t), strict=True):
            assert abs(z - w) <= 1e-6 * max(1, abs(z)), (t, z, w)


def test_root_seeds_are_a_least_modulus_orbit_of_roots():
    rng = random.Random(32)
    ts = [cmath.rect(10 ** rng.uniform(-2, 300), rng.uniform(-math.pi, math.pi))
          for _ in range(400)]
    for t in ts + [0j, 4j, -4j, 2j]:
        _assert_seed_orbit(t, _root_seeds(t))
    assert _root_seeds(4j) == [1j] * 4 and _root_seeds(-4j) == [-1j] * 4  # (X -+ i)^4


@pytest.mark.parametrize("k, e", [(3, 30), (5, 35), (1, 39), (3, 60), (6, 100), (3, 300)])
def test_large_gaussian_parameters_classify(k, e):
    # the closed-form seeds hold to the float range, past the |t| ~ 10^34 where
    # Durand-Kerner from a circle fails; each pair lands on the root its x/y sits at
    t = QuadInt(1, k * 10**e + 1, (8 - k) * 10**e - 3)
    one, i = QuadInt(1, 1, 0), QuadInt(1, 0, 1)
    assert classify_type(t, one, i) == 0  # x/y = -i, at distance 1 from alpha0 ~ -1/t
    assert classify_type(t, -one, one) == 1
    assert classify_type(t, t, one) == 2
    assert classify_type(t, one, one) == 3


@pytest.mark.parametrize("d", [2, 7])
def test_an_irrational_parameter_at_1e60_fails_closed(d):
    # sqrt(d) on the 2^-200 grid leaves t a radius near 1 at |t| ~ 10^60, so
    # the large root cannot be certified: a tie, never a type
    t = QuadInt(d, 3 * 10**60 + 1, 10**60)
    for x, y in ((1, 1), (-1, 1), (0, 1)):
        with pytest.raises(TieError):
            classify_type(t, QuadInt(d, x, 0), QuadInt(d, y, 0))


def _certify_root_oracle(t, x):
    """Newton-Kantorovich on hand-written f_t and f_t' ball lists, with the
    f_t'' majorant 12 + 6|t|r + 12r^2."""
    def horner(coeffs, z):
        acc = ComplexBall.exact(F(0))
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc

    one, xb = ComplexBall.exact(F(1)), ComplexBall.exact(x.re, x.im)
    f = horner([one, t, ComplexBall.exact(F(-6)), -t, one], xb)
    df = horner([t, ComplexBall.exact(F(-12)), -ComplexBall.exact(F(3)) * t,
                 ComplexBall.exact(F(4))], xb)
    df_lo = df.abs_bounds()[0]
    if df_lo <= 0:
        return None
    eta = f.abs_upper() / df_lo
    xr = xb.abs_upper() + 2 * eta
    if 2 * eta * (12 + 6 * t.abs_upper() * xr + 12 * xr * xr) > df_lo:
        return None
    return ComplexBall(x.re, x.im, 2 * eta)


def test_certify_root_matches_the_hand_written_quartic():
    # an exact and an enclosed parameter, Newton points at several distances
    # from each root: the balls (or refusals) agree exactly
    lo, hi = sqrt_bounds(F(7), 200)
    t_balls = [ComplexBall.exact(F(0), F(100)), ComplexBall.exact(F(-37, 3), F(512, 7)),
               ComplexBall(F(3, 2), 20 * (lo + hi), 20 * (hi - lo))]
    outcomes = set()
    for tb in t_balls:
        tc = complex(float(tb.re_mid), float(tb.im_mid))
        at = concrete._coeffs_at(ball_record(tb))
        for z, eps in itertools.product(_root_seeds(tc), (0.5, 0.3, 0.2, 0.1, 0.05, 0.03,
                                                          1e-2, 1e-4, 1e-9, 0.0)):
            w = z * (1 + eps * (1 + 1j)) + eps
            zr, zi = (concrete._nearest(*c.as_integer_ratio(), 128) for c in (w.real, w.imag))
            x = GaussRat(F(zr, 1 << 128), F(zi, 1 << 128))
            ball = concrete._certify_root(at, concrete._evaluate(at, zr, zi, 128))
            ball = ball and concrete._ball(ball)
            assert ball == _certify_root_oracle(tb, x), (tb, z, eps)
            outcomes.add(ball is None)
    assert outcomes == {True, False}


def test_divisibility_vanishing_order():
    t = GaussRat(F(0), F(100))
    for r in (1, 2, 3):
        out = divisibility_ball_check(r, t)
        assert out["order"] == 2 * r + 1
        assert out["all_contain_zero"]
        assert out["max_radius"] < F(1, 10**20)


def _divisibility_oracle(r, t):
    """The check by ball Horner on the root enclosure, derivative by
    derivative, over Q(i)."""
    tc = complex(float(t.re), float(t.im))
    alpha = root_ball(t, _root_seeds(tc)[0], F(1, 1 << 120))
    A, B = concrete.thue_polys_at(r, t)
    max_radius, contains = F(0), True
    for _ in range(2 * r + 1):
        val = alpha * A.eval_ball(alpha) - B.eval_ball(alpha)
        contains = contains and ball_contains_zero(val)
        max_radius = max(max_radius, val.radius)
        A, B = A.deriv(), B.deriv()
    return {"order": 2 * r + 1, "all_contain_zero": contains, "max_radius": max_radius}


def test_divisibility_check_agrees_with_the_ball_horner_oracle():
    # the oracle costs about a second at r = 6, so only the non-integral t
    # runs every order
    rng = random.Random(10)
    cases = [(GaussRat(F(37, 3), F(-512, 7)), range(1, 7)),
             (GaussRat(F(0), F(100)), range(1, 5))]
    cases += [(GaussRat(F(rng.randint(-5000, 5000), rng.randint(2, 9)),
                        F(rng.choice([-1, 1]) * rng.randint(300, 5000), rng.randint(2, 9))),
               range(1, 4)) for _ in range(2)]
    for t, orders in cases:
        for r in orders:
            out, oracle = divisibility_ball_check(r, t), _divisibility_oracle(r, t)
            assert out["order"] == oracle["order"] == 2 * r + 1
            assert out["all_contain_zero"] == oracle["all_contain_zero"], (r, str(t))
            assert 0 < out["max_radius"] <= oracle["max_radius"], (r, str(t))


def test_dyadic_ball_contains_the_root_ball():
    rng = random.Random(11)
    balls = [root_ball(GaussRat(F(0), F(100)), 0.01j, F(1, 1 << 120))]
    balls += [ComplexBall(F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                          F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                          F(rng.randint(0, 10**6), rng.randint(1, 10**9))) for _ in range(200)]
    for ball in balls:
        (p, q), R = concrete._dyadic_ball(ball_record(ball))
        scale = 1 << concrete.MID_BITS
        slack = F(R, scale) - ball.radius  # room left for the midpoint's move
        assert slack > 0
        assert (ball.re_mid - F(p, scale)) ** 2 + (ball.im_mid - F(q, scale)) ** 2 <= slack ** 2


def test_divisibility_check_sees_a_perturbed_b(monkeypatch):
    real = concrete._thue_ints

    def perturbed(r, t):  # B + 10^-25, with both numerators over 10^25 den
        (ar, ai), (br, bi), den = real(r, t)
        s = 10**25
        br = [x * s for x in br]
        br[0] += den
        return ([x * s for x in ar], [x * s for x in ai]), (br, [x * s for x in bi]), den * s

    monkeypatch.setattr(concrete, "_thue_ints", perturbed)
    t = GaussRat(F(0), F(100))
    for r in (1, 2, 3):
        assert not divisibility_ball_check(r, t)["all_contain_zero"], r


@pytest.mark.parametrize("r, t, radius", DIVISIBILITY_RADIUS_PINS)
def test_divisibility_check_radius_is_pinned(r, t, radius):
    out = divisibility_ball_check(r, t)
    assert out["all_contain_zero"] and out["max_radius"] == radius


_BIG_T = GaussRat(F(10**300 + 7), F(-3 * 10**299 - 11))


def _concrete_gauss_t(rng):
    """A Gaussian integer t with |t| log-uniform in [100, 10^4], as the
    concrete-t benchmark draws its divisibility parameters."""
    z = cmath.rect(10 ** rng.uniform(2, 4), rng.uniform(0, 2 * math.pi))
    return GaussRat(F(round(z.real)), F(round(z.imag)))


def test_divisibility_check_equals_the_exact_kernel():
    # at W = GRID_BITS + 128 the fixed point moves a radius by far less than
    # the 2^-GRID_BITS grid it is rounded up to
    rng = random.Random("divisibility fixed point")
    cases = [(5, GaussRat(F(37, 3), F(-512, 7))), (3, GaussRat(F(0), F(100)))]
    cases += [(r, _BIG_T) for r in (1, 3, 6)]
    # |t| from 10^5 to 10^80: the small root's midpoint m = M/2^192 shrinks past
    # rho = 2^-120 near 10^36 and to M = 0 past about 10^58
    cases += [(r, GaussRat(F(10**e + 3), F(-10**e // 3)))
              for e in (5, 10, 20, 30, 36, 40, 50, 56, 57, 58, 60, 80) for r in (1, 2, 5)]
    cases += [(3 + i % 3, _concrete_gauss_t(rng)) for i in range(900)]
    for r, t in cases:
        assert divisibility_ball_check(r, t) == divisibility_ball_check_oracle(r, t), (r, str(t))


def _contains(ball, k, wp, den, M, exact) -> bool:
    """Whether the ball k! (x + iy, rad)/(2^Wp den m^k) of _derivative_balls, m = M/2^192
    (read as 1 for M = 0), holds the exact ball: |mid - mid_exact| + r_exact <= rad, times
    2^Wp den m^k / k!, is sqrt(P) + sqrt(Q) <= rad with P and Q rational."""
    (x, y, rad), (ex, ey, er, escale) = ball, exact
    mk = reduce(concrete._gauss_mul, [M] * k, (1, 0)) if M != (0, 0) else (1, 0)
    unit, f = 1 << concrete.MID_BITS * k if M != (0, 0) else 1, F(math.factorial(k) * escale)
    # the exact midpoint times 2^Wp den m^k / k!, and the exact radius times 2^Wp den / k!
    c = F(den << wp) / f / unit
    dx, dy = x - c * (ex * mk[0] - ey * mk[1]), y - c * (ex * mk[1] + ey * mk[0])
    p, q = dx * dx + dy * dy, (c * er) ** 2 * (mk[0] ** 2 + mk[1] ** 2)
    d = rad * rad - p - q
    return rad >= 0 and d >= 0 and 4 * p * q <= d * d


@pytest.mark.parametrize("bits", [8, 12, 16])
def test_derivative_balls_hold_the_exact_balls_at_low_precision(monkeypatch, bits):
    # at a few bits every rounding shows: each ball, mapped back by k!/(2^Wp den m^k),
    # must still hold the exact kernel's, over the root ball and over discs up to radius 1
    monkeypatch.setattr(concrete, "W", bits)
    rng = random.Random(f"low precision {bits}")
    cases = []
    for _ in range(12):
        z = cmath.rect(10 ** rng.uniform(0, 4), rng.uniform(0, 2 * math.pi))
        cases.append((GaussRat(F(round(z.real)), F(round(z.imag))), rng.randint(1, 4)))
    # past |t| ~ 10^56 the midpoint rounds to M = 0, and nothing is scaled or shifted
    cases.append((GaussRat(F(10**60 + 3), F(-10**60 // 3)), 2))
    for t, r in cases:
        A, B = concrete.thue_polys_at(r, t)
        a, b, den = concrete._thue_ints(r, t)
        alpha = root_ball(t, _root_seeds(complex(float(t.re), float(t.im)))[0], F(1, 1 << 120))
        for rho in (alpha.radius, F(1, 1 << 30), F(1, 256), F(1, 4), F(1)):
            ball = ComplexBall(alpha.re_mid, alpha.im_mid, rho)
            M, R = concrete._dyadic_ball(ball_record(ball))
            wp, balls = concrete._derivative_balls(r, a, b, M, R)
            exact = derivative_balls_oracle(r, A, B, ball, below=True)
            assert len(balls) == len(exact) == 2 * r + 1
            assert (wp == bits) == (M == (0, 0)), (str(t), rho)
            assert all(_contains(got, k, wp, den, M, e)
                       for k, (got, e) in enumerate(zip(balls, exact))), (str(t), r, rho)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=12),
       st.integers(0, 1 << 300), st.integers(0, 300), st.integers(0, 12))
def test_upward_shift_bounds_the_exact_shift(c, s, bits, rounds):
    # each of the at most len(c)^2/2 products rounds up by less than 1
    x, n = F(s, 1 << bits), len(c)
    exact = [sum(F(c[j]) * math.comb(j, k) * x ** (j - k) for j in range(k, n)) for k in range(n)]
    got = concrete._shift_up(list(c), s, bits, rounds)
    for k in range(min(rounds, n)):
        assert exact[k] <= got[k]
    assert got[-1] == c[-1]


def test_the_shift_by_one_is_the_binomial_sum():
    # c(X + 1) has the X^j coefficient sum_i C(i, j) c_i, exactly
    rng = random.Random("shift by one")
    for _ in range(300):
        c = [rng.randint(-10**rng.randint(0, 80), 10**80) for _ in range(rng.randint(1, 30))]
        got = concrete._shift_one(c)
        assert got == [sum(math.comb(i, j) * c[i] for i in range(j, len(c)))
                       for j in range(len(c))]


def test_divisibility_check_refuses_a_negative_order():
    t = GaussRat(F(0), F(100))
    with pytest.raises(ValueError):
        divisibility_ball_check(-1, t)
    out = divisibility_ball_check(0, t)  # order 1: alpha*A_0 - B_0 vanishes at alpha
    assert out["order"] == 1 and out["all_contain_zero"]


def test_classify_type_tie_on_degenerate_pair():
    t = QuadInt(1, 0, 100)
    with pytest.raises(TieError):
        classify_type(t, QuadInt(1, 1, 0), QuadInt(1, 0, 0))


def test_classify_type_near_centers():
    # x/y within 0.48 of exactly one of the root centers -1/t, -1, t, 1
    t = QuadInt(1, 0, 100)
    j_minus = classify_type(t, QuadInt(1, -5, 0), QuadInt(1, 5, 0))  # x/y = -1
    j_plus = classify_type(t, QuadInt(1, 5, 0), QuadInt(1, 5, 0))  # x/y = +1
    j_small = classify_type(t, QuadInt(1, 0, 0), QuadInt(1, 5, 0))  # x/y = 0
    j_large = classify_type(t, QuadInt(1, 0, 99), QuadInt(1, 1, 0))  # x/y = 99i
    assert {j_minus, j_plus, j_small, j_large} == {0, 1, 2, 3}
    assert j_small == 0  # root near -1/t
    assert j_large == 2  # root near t


def test_type_swap_brute_force_desk_scale_box():
    # t = 20i: all pairs with |x|^2, |y|^2 <= 25 and |F_t(x, y)| <= 40 must
    # satisfy the j -> j+2 swap under (x, y) -> (-y, x) whenever
    # min{|x|, |y|} >= (20.14 * 40 / |t|)^(1/4).  At this scale every
    # qualifying pair has min below the threshold, so the force reduces to
    # checking the enumeration itself; the non-vacuous instance follows.
    t = QuadInt(1, 0, 20)
    thr4 = F("20.14") * 40 / 20  # threshold on min{|x|, |y|}^4 = min(|.|^2)^2
    n_small = 0
    checked = 0
    for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
        x = QuadInt(1, a, b)
        y = QuadInt(1, c, d)
        if x.abs_sq() > 25 or y.abs_sq() > 25:
            continue
        if x.abs_sq() == 0 and y.abs_sq() == 0:
            continue
        if eval_form(t, x, y).abs_sq() > 1600:
            continue
        n_small += 1
        if F(min(x.abs_sq(), y.abs_sq())) ** 2 < thr4:
            continue
        checked += 1
        j1 = classify_type(t, x, y)
        j2 = classify_type(t, -y, x)
        assert j2 == (j1 + 2) % 4
    assert n_small == 60
    assert checked == 0  # the threshold excludes the whole desk-scale box


def test_type_swap_near_roots():
    # non-vacuous swap instance: pairs close to the unit root centers at
    # t = 100i, qualifying under the per-pair threshold
    # min{|x|, |y|}^4 >= 20.14 |F_t(x, y)| / |t|
    t = QuadInt(1, 0, 100)
    checked = 0
    for c, d in itertools.product(range(-3, 4), repeat=2):
        y = QuadInt(1, c, d)
        if not 0 < y.abs_sq() <= 9:
            continue
        for s in (1, -1):
            for ea, eb in itertools.product((-1, 0, 1), repeat=2):
                x = QuadInt(1, s * c + ea, s * d + eb)
                if x.abs_sq() == 0:
                    continue
                mu = eval_form(t, x, y)
                m = min(x.abs_sq(), y.abs_sq())
                # min^4 >= 20.14 |F| / |t|, squared to stay rational
                if F(m**4) * 100**2 < F("20.14") ** 2 * mu.abs_sq():
                    continue
                checked += 1
                j1 = classify_type(t, x, y)
                j2 = classify_type(t, -y, x)
                assert j2 == (j1 + 2) % 4
    assert checked >= 50


# ---------------------------------------------------------------------------
# the integer bounds on |x - alpha y| and the integer overlap test against
# their ComplexBall oracles


def _classify_parameters() -> list[QuadInt]:
    """Two seeded parameters per field, |t| between 10^2 and 10^5, and a
    rational one: Gaussian for d = 1, balls (irrational) for the others."""
    rng = random.Random(21)
    out = [QuadInt(1, -250, 0)]
    for d in (1, 2, 3, 7, 11):
        for _ in range(2):
            m = 10 ** rng.uniform(2, 5)
            out.append(QuadInt(d, round(m * rng.uniform(-1, 1)),
                               round(m * rng.uniform(-1, 1)) or 1))
    return out


def _near(d: int, z: complex) -> QuadInt:
    """A ring element of Q(sqrt(-d)) close to z."""
    s, _ = ring(d)  # s = 1: omega = (1 + sqrt(-d))/2, else sqrt(-d)
    b = round(z.imag * (1 + s) / math.sqrt(d))
    return QuadInt(d, round(z.real - s * b / 2), b)


def _pairs_near_roots(rng: random.Random, t: QuadInt) -> list[tuple[QuadInt, QuadInt]]:
    """(x, y) with x/y near each root, a rational y for every other pair; for
    d = 3 (mod 4) odd b makes x and y half-integral."""
    roots, pairs = _root_seeds(_t_complex(t)), []
    for k in range(8):
        y = QuadInt(t.d, rng.randint(-9, 9) or 1, 0 if k % 2 else rng.randint(-9, 9))
        re, im = y.re_im()
        z = roots[k % 4] * complex(float(re), float(im) * math.sqrt(t.d))
        pairs.append((_near(t.d, z) + QuadInt(t.d, rng.randint(-1, 1), rng.randint(-1, 1)), y))
    return pairs


def test_beta_bounds_match_the_complexball_oracle():
    # every ball set that certifies at 2^-64, 2^-128 and 2^-256 (none reaches
    # 2^-256 here): the integer bounds are the ComplexBall bounds as fractions
    # on the 2^-GRID_BITS grid
    rng, rungs = random.Random(22), set()
    for t in _classify_parameters():
        pairs = _pairs_near_roots(rng, t)
        for bits in (64, 128, 256):
            got = concrete._root_balls(_t_complex(t), *_t_exact(t), F(1, 1 << bits))
            if isinstance(got, str):  # a tie
                continue
            rungs.add((bits, _t_exact(t)[1] is None))
            for x, y in pairs:
                xs, ys = (concrete._embed(z) for z in (x, y))
                for rec in got:
                    lo, hi = concrete._beta_bounds(xs, ys, rec)
                    assert (F(lo, 1 << GRID_BITS), F(hi, 1 << GRID_BITS)) == \
                        beta_bounds_oracle(x, y, concrete._ball(rec)), \
                        (str(t), str(x), str(y), bits)
    assert {(64, True), (128, True), (64, False)} <= rungs


_fields = st.sampled_from([1, 2, 3, 7, 11])
_coords = st.integers(-10**6, 10**6)
_ratios = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**30))
_radii = st.one_of(st.just(F(0)), st.builds(F, st.integers(1, 10**20), st.integers(1, 10**40)))


@settings(max_examples=300, deadline=None)
@given(_fields, _coords, _coords, _coords, _coords, _ratios, _ratios, _radii)
def test_beta_bounds_on_drawn_balls_match_the_oracle(d, xa, xb, ya, yb, re, im, radius):
    x, y, alpha = QuadInt(d, xa, xb), QuadInt(d, ya, yb), ComplexBall(re, im, radius)
    xs, ys = (concrete._embed(z) for z in (x, y))
    lo, hi = concrete._beta_bounds(xs, ys, ball_record(alpha))
    assert (F(lo, 1 << GRID_BITS), F(hi, 1 << GRID_BITS)) == beta_bounds_oracle(x, y, alpha)


def test_classify_type_matches_the_complexball_oracle():
    # the same type or the same TieError; (x, 0) ties at every rung
    rng, seen = random.Random(23), set()
    for t in _classify_parameters():
        pairs = _pairs_near_roots(rng, t) + [(QuadInt(t.d, 3, 1), QuadInt(1, 0, 0))]
        for x, y in pairs:
            got = outcome(classify_type, t, x, y)
            assert got == outcome(classify_type_oracle, t, x, y), (str(t), str(x), str(y))
            seen.add(got if isinstance(got, int) else got[0])
    assert seen == {0, 1, 2, 3, TieError}


def test_a_forced_overlap_ties_in_both(monkeypatch):
    # radius-1 balls: alpha0 ~ 0.01i and alpha1 ~ -1 overlap at every rung, so
    # the pair that classifies as 2 (x/y = 99i, near alpha2 ~ 100i) ties
    t, x, y = QuadInt(1, 0, 100), QuadInt(1, 0, 99), QuadInt(1, 1, 0)
    assert classify_type(t, x, y) == classify_type_oracle(t, x, y) == 2
    real = concrete._root_record

    def widened(*args):
        a, b, n, _, _, h = real(*args)
        return a, b, n, 1, 1, h

    monkeypatch.setattr(concrete, "_root_record", widened)
    concrete._root_balls.cache_clear()
    root_balls_oracle.cache_clear()
    try:
        with pytest.raises(TieError, match="overlap"):
            all_root_balls(_t_complex(t), *_t_exact(t), F(1, 1 << 64))
        with pytest.raises(TieError, match="overlap"):
            root_balls_oracle(t, F(1, 1 << 64))
        assert outcome(classify_type, t, x, y) == outcome(classify_type_oracle, t, x, y)
        assert outcome(classify_type, t, x, y)[0] is TieError
    finally:
        root_balls_oracle.cache_clear()


def _touching_sets(rng: random.Random) -> list[list[ComplexBall]]:
    """Four balls, two far off and two whose radii sum to their distance k,
    plus or minus less than, about or more than one grid step."""
    grid, out = F(1, 1 << GRID_BITS), []
    for delta in (0, grid / 3, grid / 2, grid, 2 * grid, F(1, 10**50), F(1, 10**30)):
        for sign in (1, -1):
            k = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            a = (F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)),
                 F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)))
            ra = k * F(rng.randint(1, 99), 100)
            out.append([ComplexBall(a[0], a[1], ra),
                        ComplexBall(a[0] + 3 * k / 5, a[1] + 4 * k / 5, k - ra + sign * delta),
                        ComplexBall(a[0] + 10**4, a[1], F(1)),
                        ComplexBall(a[0], a[1] - 10**4, F(0))])
    return out


def test_overlap_test_matches_the_complexball_oracle(monkeypatch):
    rng = random.Random(24)
    sets = _touching_sets(rng)
    sets += [[ComplexBall(F(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)),
                          F(rng.randint(-10**4, 10**4), rng.randint(1, 10**3)),
                          F(rng.randint(0, 10**4), rng.randint(1, 10**4))) for _ in range(4)]
             for _ in range(200)]
    monkeypatch.setattr(concrete, "_root_seeds", lambda t: [0j] * 4)
    monkeypatch.setattr(concrete, "_param_coeffs", lambda *args: None)  # read by no record
    seen = set()
    for balls in sets:
        it = map(ball_record, balls)
        monkeypatch.setattr(concrete, "_root_record", lambda *args: next(it))
        got = concrete._root_balls.__wrapped__(0j, None, None, F(1))
        overlap = isinstance(got, str)
        assert (got == "root enclosures overlap" if overlap
                else tuple(map(concrete._ball, got)) == tuple(balls))
        assert overlap == balls_overlap_oracle(balls), balls
        seen.add(overlap)
    assert seen == {True, False}


def test_a_mutated_seed_list_leaves_the_next_call_unchanged():
    t = complex(37, -512)
    first, kept = _root_seeds(t), _root_seeds(t)
    first[0] = None
    first.append(0j)
    assert _root_seeds(t) == kept
    assert _root_seeds(t) is not _root_seeds(t)
