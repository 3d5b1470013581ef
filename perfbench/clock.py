"""Timing scaled to a reference host speed.

On the shared 2-core VM this benchmark was built on, one fixed piece of
pure-Python work ran at two speeds about 1.8x apart, switching every few
seconds as other tenants came and went; identical runs differed by up to
50% in wall time.  So every timed interval is bracketed by a short
calibration unit (exact ``Fraction`` arithmetic and dict churn, the same
kinds of work adt does, but no adt code) and its wall time is scaled by
``REFERENCE_UNIT_S`` over the mean of the two unit times.  A scaled second
is a second at the speed at which one unit takes ``REFERENCE_UNIT_S``; the
raw wall times are reported alongside.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Mean unit time on the reference host in its fast state.
REFERENCE_UNIT_S = 0.0030
UNITS = 2  # units per calibration: 6-10 ms on the reference host


def _unit() -> None:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i + 1)
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())


def unit_time() -> float:
    """Current mean time of one calibration unit."""
    start = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return (time.perf_counter() - start) / UNITS


def timed(fn, *args):
    """Run ``fn(*args)``; return (result, wall seconds, scaled seconds)."""
    before = unit_time()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    return result, wall, wall * REFERENCE_UNIT_S * 2 / (before + unit_time())
