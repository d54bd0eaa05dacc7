"""Arithmetic microbenchmarks on operands captured from the real pipeline.

Each type is timed on values the pipeline itself produces: ``QuadInt``
pairs from the small-solution search box, ``GaussRat`` coefficients of a
descent Pade pair and of a ``root_ball`` Newton iterate, the
``newton_alpha_series(31)`` series, a ``TPoly`` from ``thue_polys_at`` and
a ``ComplexBall`` from ``TPoly.eval_ball``.  The concrete parameter is fixed
so that the operands are the same on every commit.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CONCRETE_T = (37, 120)  # t = 37 + 120i
BATCH_S = 0.04
BATCHES = 7


def capture() -> dict[str, list[tuple]]:
    """Operand pairs per metric name."""
    from thueq import dioph, quadfield, series
    from thueq.series import GaussRat

    # the search box: |x| < 3 against |y| <= 7 in a common field
    xs = [x for x in quadfield.enumerate_bounded(3, normalize=True) if x.abs_sq() < 9]
    ys = quadfield.enumerate_bounded(7, normalize=True)
    quad = [(x, y) for x in xs for y in ys[::7]
            if x.d == y.d or x.is_rational() or y.is_rational()]

    alpha = series.newton_alpha_series(31)
    pair = series.pade(alpha, 10, 10)
    real = [c for c in pair.U + pair.V if c]
    descent_ops = [(a, b) for a in real for b in real]

    t = GaussRat(Fraction(CONCRETE_T[0]), Fraction(CONCRETE_T[1]))
    seeds = dioph._root_seeds(complex(*CONCRETE_T))
    iterates = [dioph.root_ball(t, s, Fraction(1, 1 << 120)) for s in seeds]
    newton = [GaussRat(b.re_mid, b.im_mid) for b in iterates]
    newton_ops = [(a, b) for a in newton for b in newton + [t]]

    alpha3 = series.alpha3_series(alpha).truncated(31)
    A, B = series.thue_polys_at(4, t)
    balls = [A.eval_ball(iterates[0]), B.eval_ball(iterates[0])]
    return {
        "quadfield.QuadInt.mul_us": quad,
        "series.GaussRat.mul_us.descent": descent_ops,
        "series.GaussRat.mul_us.newton": newton_ops,
        "series.Series.mul_us": [(alpha, alpha), (alpha, alpha3)],
        "series.TPoly.mul_us": [(A, B), (A, A)],
        "exactnum.ComplexBall.mul_us": [(balls[0], balls[1]), (balls[0], balls[0])],
    }


def _batch(pairs: list[tuple], reps: int) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        for a, b in pairs:
            a * b
    return time.perf_counter() - start


def per_call_us(pairs: list[tuple]) -> float:
    """Median over batches of the mean time of one ``a * b``, in microseconds."""
    reps = 1
    while (elapsed := _batch(pairs, reps)) < BATCH_S / 4:
        reps *= 2
    reps = max(1, round(reps * BATCH_S / elapsed))
    samples = [_batch(pairs, reps) / (reps * len(pairs)) for _ in range(BATCHES)]
    return statistics.median(samples) * 1e6


def run() -> dict[str, float]:
    return {name: per_call_us(pairs) for name, pairs in capture().items()}
