"""An mpmath witness for the logarithms that the corollary-eps thresholds read:
the grid floors floor(2^28 ln c) of the corollary constants, and the
enclosures [lo, hi] / 2^81 of ln t that decide L near t0.  mpmath sums its
own series at a working precision well past both grids, so it shares no code
with thueq.exactnum's atanh series."""

import random
from fractions import Fraction as F

import mpmath

from thueq.corollary import LN_GRID_BITS, NEAR_BITS, _log_constants, _NearLn

# bits of working precision: ln t < 2^12 for t below 2^3001, and the enclosure's
# ends lie on the 2^-81 grid, so 200 bits leave more than 100 to spare
PREC = 200


def test_the_constants_grid_floors_hold_their_logs():
    # f <= 2^28 ln c < f + 1 for each constant c that _log_constants reads
    constants = {c: f for c, f in _log_constants().items() if type(c) is F}
    assert len(constants) == 7
    with mpmath.workprec(PREC):
        for c, f in constants.items():
            ln_c = mpmath.log(mpmath.mpf(c.numerator) / c.denominator)
            assert f <= mpmath.ldexp(ln_c, LN_GRID_BITS) < f + 1, c


def test_one_enclosure_holds_ln_t():
    # lo / 2^81 <= ln t <= hi / 2^81, of width at most 2^-72, for seeded t of 40 to
    # 3,000 bits, cut values among them
    rng = random.Random(2027)
    ts = [rng.getrandbits(n) | 1 << n - 1 for n in (rng.randrange(40, 3001) for _ in range(150))]
    ts += [(rng.getrandbits(63) | 1 << 63) << rng.randrange(0, 2937) for _ in range(50)]
    with mpmath.workprec(PREC):
        for t in ts:
            near = _NearLn(t)
            assert near.hi - near.lo <= 1 << NEAR_BITS - 72, t
            ln_t = mpmath.ldexp(mpmath.log(mpmath.mpf(t)), NEAR_BITS)
            assert near.lo <= ln_t <= near.hi, t
