"""End-to-end acceptance gate: one test per published claim the package must
reproduce, each with its own wall-clock budget."""

import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from oracles import (LETTL_NAMES, approximants, cleared_chi_oracle, cross_product, eval_form,
                     orbit)

from thueq.cli import main
from thueq.descent import run_descent
from thueq.dioph import (
    classify_type,
    divisibility_ball_check,
    small_solution_search,
    t_value_set,
)
from thueq.exactnum import round_nearest_sig
from thueq.hyperchi import denom_data
from thueq.measure import (
    CONTRADICTION_COEFF,
    _eps_gates,
    corollary_eps,
    corollary_lin,
    kappa_hi,
    kappa_lo,
    measure_constants,
)
from thueq.quadfield import QuadInt, roots_of_unity
from thueq.rouche import (
    BASE_CERT_PARAMS,
    HIGH_ORDER,
    base_certificates,
    certify_enclosure,
    certify_high_order,
)
from thueq.series import (
    GaussRat,
    Series,
    alpha3_series,
    newton_alpha_series,
    pade,
    pade_residual,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded {seconds}s budget: {elapsed:.1f}s"


def run_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def pm(keys):
    out = set()
    for d, a, b in keys:
        out.add((d, a, b))
        n = -QuadInt(d, a, b)
        out.add((n.d, n.a, n.b))
    return out


def test_criterion_01_irreducibility_list(capsys):
    with budget(1):
        code, doc = run_json(capsys, "irreducible-list", "--json")
        assert code == 0
        got = {(e["d"], e["a"], e["b"]) for e in doc["reducible"]}
        expected = pm(
            [
                (1, 0, 0),  # 0
                (1, 3, 0),  # 3
                (1, 1, 3),  # 3i + 1
                (1, -1, 3),  # 3i - 1
                (1, 0, 4),  # 4i
                (1, 0, 5),  # 5i
                (2, 0, 3),  # 3 sqrt(-2)
                (3, -2, 4),  # 2 sqrt(-3)
                (3, -1, 5),  # (5 sqrt(-3) + 3)/2
                (3, -4, 5),  # (5 sqrt(-3) - 3)/2
                (7, -1, 2),  # sqrt(-7)
                (7, -1, 3),  # (3 sqrt(-7) + 1)/2
                (7, -2, 3),  # (3 sqrt(-7) - 1)/2
                (15, -1, 2),  # sqrt(-15)
            ]
        )
        assert got == expected


# The published d = 3 entries (sqrt(-3) +- 1)/2 are a typo: the exhaustive
# exact search finds (5 sqrt(-3) +- 1)/2 instead (see also
# test_dioph.test_small_solution_search_full_t_set).  Published key ->
# corrected key, in a + b*omega coordinates with omega = (1 + sqrt(-3))/2.
ERRATUM = {
    (3, 0, 1): (3, -2, 5),  # (sqrt(-3) + 1)/2 -> (5 sqrt(-3) + 1)/2
    (3, -1, 1): (3, -3, 5),  # (sqrt(-3) - 1)/2 -> (5 sqrt(-3) - 1)/2
}


def test_criterion_02_small_solutions():
    with budget(60):
        assert small_solution_search(F(100)) == []
        sols = small_solution_search(F(0))
        got = t_value_set(sols)
        # the published parameter list: +-{4i, 3 sqrt(-2), 2 sqrt(-3)} union
        # +-{1, 4, (sqrt(-3) +- 1)/2, sqrt(-17)}
        published = pm(
            [
                (1, 0, 4),  # 4i
                (2, 0, 3),  # 3 sqrt(-2)
                (3, -2, 4),  # 2 sqrt(-3)
                (1, 1, 0),  # 1
                (1, 4, 0),  # 4
                (3, 0, 1),  # (sqrt(-3) + 1)/2
                (3, -1, 1),  # (sqrt(-3) - 1)/2
                (17, 0, 1),  # sqrt(-17)
            ]
        )
        wrong, corrected = pm(ERRATUM), pm(ERRATUM.values())
        assert wrong <= published
        assert got == (published - wrong) | corrected, (
            "exact search disagrees with the published parameter list "
            "corrected by its d=3 erratum: (sqrt(-3)+-1)/2 -> (5*sqrt(-3)+-1)/2"
        )

        # the witness for t = (1 + 5 sqrt(-3))/2: x = (-1 + sqrt(-3))/2, y = 1
        one = QuadInt(1, 1, 0)
        assert eval_form(QuadInt(3, -2, 5), QuadInt(3, -1, 1), one) == -one
        # every corrected t has a non-trivial solution in the search output;
        # the search normalizes the sign of t, and F_{-t}(x, y) = F_t(x, -y)
        for key in corrected:
            t = QuadInt(*key)
            hits = [(s.x, s.y if s.t == t else -s.y)
                    for s in sols if s.t in (t, -t)]
            assert hits, f"no solution at t = {t}"
            for x, y in hits:
                assert x.abs_sq() > 0 and y.abs_sq() > 0
                assert eval_form(t, x, y).abs_sq() == 1

        # no published d = 3 t (a unit, |t| = 1) has a non-trivial solution
        # with |x| < 3, by brute force over a + b*omega.  By the orbit
        # (x, y) -> (-y, x) this covers min{|x|, |y|} < 3.  y is bounded:
        # |F_t| <= 1 forces |y|^4 <= 1 + |x||y|^3 + 6|x|^2|y|^2 + |x|^3|y|
        # + |x|^4 < 1 + 3|y|^3 + 54|y|^2 + 27|y| + 81, false at |y| = 10 and
        # beyond, so |y|^2 <= 100 suffices.  a^2 + ab + b^2 >= (a^2 + b^2)/2
        # puts every such element in |a|, |b| <= 14.  F_t(ux, uy) =
        # u^4 F_t(x, y) for each unit u, so one x per unit class suffices.
        box = [QuadInt(3, a, b) for a in range(-14, 15) for b in range(-14, 15)]
        units = roots_of_unity(3)
        xs = {min((u * x for u in units), key=lambda z: (z.a, z.b))
              for x in box if 0 < x.abs_sq() < 9}
        ys = [y for y in box if 0 < y.abs_sq() <= 100]
        for key in wrong:
            t = QuadInt(*key)
            assert [(x, y) for x in xs for y in ys
                    if eval_form(t, x, y).abs_sq() <= 1] == [], (
                f"published t = {t} has a solution")


def test_criterion_03_enumeration(capsys):
    with budget(1):
        code, doc = run_json(capsys, "enumerate", "--max-abs", "3", "--json")
        assert code == 0
        assert doc["count"] == 76
        assert {e["d"] for e in doc["elements"]} == {
            1, 2, 3, 5, 6, 7, 11, 15, 19, 23, 31, 35,
        }


def test_criterion_04_series_endpoints():
    with budget(5):
        G = GaussRat.of
        a = newton_alpha_series(31)
        assert (a[1], a[3], a[5], a[7]) == (G(-1), G(5), G(-46), G(509))
        assert a[29].abs_sq() == F(1821914025180536) ** 2
        a3 = alpha3_series(a)
        assert [a3[k] for k in range(5)] == [G(1), G(-2), G(2), G(8), G(-18)]
        assert a3[29].abs_sq() == F(1435829041889280) ** 2


def test_criterion_05_root_enclosures():
    with budget(30):
        certs = base_certificates()
        for cert in certs.values():
            assert cert.verified and cert.margin > 0
        for which in ("B", "B3"):
            cert = certify_high_order(which)
            assert cert.verified and cert.margin > 0
        # negative controls: radii shrunk 1000x must fail to certify
        for _, center, c, k in BASE_CERT_PARAMS:
            assert not certify_enclosure(center, c / 1000, k, F(100)).verified
        for which, type_index in (("B", 0), ("B3", 3)):
            c, k = HIGH_ORDER[type_index]
            center = certify_high_order(which).center
            assert not certify_enclosure(center, c / 1000, k, F(100)).verified


def test_criterion_06_descent_tables(descent_chain_0, descent_chain_3):
    with budget(60):
        table0 = ["429.8", "2436", "4210", "1.863e5", "3.242e6", "5.915e6",
                  "8.066e7", "4.726e8"]
        table3 = ["10.14", "42.48", "868.0", "4921", "8503", "3.762e5",
                  "6.549e6", "1.195e7", "1.629e8", "9.547e8"]
        for chain, table, offset in (
            (descent_chain_0, table0, 1),  # published column starts at k = 4
            (descent_chain_3, table3, 0),
        ):
            for rec, ref_s in zip(chain[offset:], table):
                ref = F(ref_s)
                ulp = F(1)  # one unit in the 4th significant digit of ref
                m = ref
                while m >= 10:
                    m /= 10
                    ulp *= 10
                while m < 1:
                    m *= 10
                    ulp /= 10
                ulp /= 1000
                assert abs(rec.c_out - ref) <= ulp
            assert all(r.nonvanish_ok for r in chain)
        # final bounds at published (4 significant digit) precision
        final0, final3 = (F(100) ** chain[-1].k / chain[-1].c_out
                          for chain in (descent_chain_0, descent_chain_3))
        assert round_nearest_sig(final0) >= F("2.116e13")
        assert round_nearest_sig(final3) >= F("1.047e13")


def test_criterion_07_measure_constants():
    with budget(10):
        mc0 = measure_constants(0)
        assert (
            mc0.k0, mc0.Q_coeff, mc0.l0_coeff, mc0.E_div, mc0.qmin_coeff,
            mc0.c_coeff,
        ) == (F("3.32"), F("2.94"), F("1.83"), F("13.27"), F("0.28"), F("5.47"))
        mc3 = measure_constants(3)
        assert (
            mc3.k0, mc3.Q_coeff, mc3.l0_coeff, mc3.E_div, mc3.qmin_coeff,
            mc3.c_coeff,
        ) == (F("4.7"), F("2.94"), F("3.66"), F("13.27"), F("0.14"), F("15.48"))
        for mc in (mc0, mc3):
            assert all(margin >= 0 for _, margin in mc.lines)
        assert kappa_hi(F(100)) < F("2.83")
        assert kappa_hi(F(84)) < 3
        assert kappa_lo(F(80)) > 3


def test_criterion_08_theorem_assembly(assembly_100, assembly_80):
    with budget(120):
        assert assembly_100.verdict == "proven"
        upper = assembly_100.contradiction_upper
        assert upper <= F("3.74e12")
        # certification is a pure integer-power comparison at exponent
        # 17/100 = 3 - 2.83: (X-1)^17 < 137.16^100 <= X^17
        assert (upper - 1) ** 17 < CONTRADICTION_COEFF**100 <= upper**17
        assert assembly_80.verdict == "inconclusive"
        failed = {g.name for g in assembly_80.all_gates if not g.ok}
        assert "kappa below 3" in failed


def test_criterion_09_hypergeometric_bounds(lettl_lines):
    with budget(10):
        assert [name for name, _ in lettl_lines] == LETTL_NAMES
        assert all(margin > 0 for _, margin in lettl_lines)
        assert denom_data(1) == (3, 8)
        # the published cleared chi_1(1 - 8X), on the Fraction composition
        assert cleared_chi_oracle(1) == (3, 8, (1, -5))


def test_criterion_10_property_suite():
    with budget(120):
        alpha = newton_alpha_series(31)
        # Pade contact order and defining-equation residual
        for k in (3, 5, 7):
            pair = pade(alpha, k - 1, k - 1)
            assert pair.contact_order >= 2 * k - 1
            assert pade_residual(alpha, pair).valuation() >= 2 * k - 1
        s = Series([GaussRat.of(0), GaussRat.of(1)], 31)
        a2 = alpha * alpha
        resid = s * a2 * a2 - a2 * alpha - 6 * s * a2 + alpha + s
        assert resid.is_zero()
        # approximant integrality and cross-product non-vanishing, r <= 5
        for xi in (0, 1):
            for r in range(1, 6):
                p, q = approximants(xi, r)
                for poly in (p, q):
                    assert all(c.is_gaussian_integer() for c in poly.coeffs)
                assert not cross_product(xi, r).is_zero()
        # divisibility ball-check at t = 100i
        t100 = GaussRat(F(0), F(100))
        for r in (1, 2, 3):
            out = divisibility_ball_check(r, t100)
            assert out["all_contain_zero"]
            assert out["max_radius"] < F(1, 10**20)
        # orbit invariance on 1000 random samples
        rng = random.Random(0)
        for _ in range(1000):
            d = rng.choice([1, 2, 3, 7, 11])
            t = QuadInt(d, rng.randint(-30, 30), rng.randint(-30, 30))
            x = QuadInt(d, rng.randint(-9, 9), rng.randint(-9, 9))
            y = QuadInt(d, rng.randint(-9, 9), rng.randint(-9, 9))
            val = eval_form(t, x, y)
            assert all(eval_form(t, xo, yo) == val for xo, yo in orbit(x, y))
        # desk-scale type-swap brute force at t = 20i
        t20 = QuadInt(1, 0, 20)
        thr4 = F("20.14") * 40 / 20
        for a, b, c, d in itertools.product(range(-5, 6), repeat=4):
            x = QuadInt(1, a, b)
            y = QuadInt(1, c, d)
            if not (0 < max(x.abs_sq(), y.abs_sq())):
                continue
            if x.abs_sq() > 25 or y.abs_sq() > 25:
                continue
            if eval_form(t20, x, y).abs_sq() > 1600:
                continue
            if F(min(x.abs_sq(), y.abs_sq())) ** 2 < thr4:
                continue
            assert classify_type(t20, -y, x) == (classify_type(t20, x, y) + 2) % 4


def test_criterion_11_corollary_calculators():
    with budget(30):
        for C in (F(1, 2), F(1), F(10)):
            out = corollary_lin(C)
            assert kappa_hi(out["t0"]) < 2
            assert out["C0"] > 0
            assert out["consistency_margin"] == F(443) - F("8.86") * F("15.48") / F("0.31")
            assert out["consistency_margin"] > 0
        for eps in (F(1, 4), F(1, 2), F(3, 4)):
            out = corollary_eps(eps)
            assert out["t0"] > 100
            assert all(g.ok for g in out["gates"])
            assert all(g.ok for g in out["gates_at_double"])


def test_corollary_eps_has_no_search_cap():
    # thresholds beyond the former 2^200 search cap, and an eps with a
    # five-digit denominator, which integer-power clearing never finished
    with budget(30):
        for eps in (F(12345, 100000), F(37, 1000)):
            t0 = corollary_eps(eps)["t0"]
            assert all(g.ok for g in _eps_gates(t0, eps))
            assert all(g.ok for g in _eps_gates(2 * t0, eps))
            assert not all(g.ok for g in _eps_gates(t0 - 1, eps))
