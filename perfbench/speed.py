"""Machine-speed calibration for the end-to-end timings.

On a shared machine a processor flips between a fast and a slow state
within a second, and the share of slow time drifts over minutes with the
load of other tenants; the same operation reads tens of per cent slower or
faster.  Each timed operation is therefore bracketed by calibrations, a
fixed unit of exact rational arithmetic close to what ``thueq`` does, and
the unit is also sampled every ``SAMPLE_S`` seconds on the processor the
operation runs on while it runs.  A wall time is reported scaled to the
reference speed, ``wall * REF_UNIT_S / unit``, where ``unit`` is the median
of those samples.  This holds a figure steady as far as contention slows
the unit and the operation alike.  The raw wall times are kept in the
results file and printed beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# seconds per calibration unit on the reference machine: 2-vCPU Intel Xeon,
# CPython 3.11.7
REF_UNIT_S = 5.7e-4
SAMPLE_S = 0.05  # interval of the samples taken during an operation


def _unit() -> Fraction:
    s, x = Fraction(0), Fraction(355, 113)
    for i in range(1, 150):
        s += Fraction(i, i * i + 1) * x
    return s


def calibrate(min_s: float) -> float:
    """Median seconds per calibration unit over at least ``min_s`` and three
    units; the median ignores a unit that lost the processor."""
    clock = time.perf_counter
    start = clock()
    units = []
    while len(units) < 3 or clock() - start < min_s:
        t = clock()
        _unit()
        units.append(clock() - t)
    return statistics.median(units)


class Sampler:
    """Times one calibration unit every ``SAMPLE_S`` seconds from a SIGALRM
    handler while an operation runs in the main thread, so that the speed
    is sampled during the operation itself.  ``spent`` is the handler's own
    time, to be taken off the operation's wall time."""

    def __init__(self):
        self.units: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _unit()
        self.units.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def factors(cals: list[float], inside: list[list[float]] | None = None) -> list[float]:
    """Scale onto the reference speed for each operation, where operation i
    ran between calibrations i and i+1 and ``inside[i]`` holds the units
    sampled during it.  Each takes the median of its own samples and the
    four calibrations nearest to it: a long operation is scaled by the speed
    it ran at, a short one by its neighbours', and one unit caught by a
    stall does not skew either."""
    inside = inside or [[] for _ in cals[1:]]
    return [REF_UNIT_S / statistics.median(inside[i] + cals[max(0, i - 1):i + 3])
            for i in range(len(cals) - 1)]
