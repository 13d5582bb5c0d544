"""Host-speed calibration for reported times.

The benchmark's reference host is a shared 2-core VM.  Each of its vCPUs
switches every few seconds between a fast phase and one about twice as slow,
so one fixed computation, repeated back to back, took 0.18 s to 0.37 s.  A
fixed loop of the same kind of work as the library
(tuples, small integers, dicts, ``Fraction`` arithmetic) is timed before
every item and after the last, and times are reported at the reference
speed, at which the loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / loop time at that moment

The loop time at an item is the mean of the timings just before and just
after it: slow phases can begin and end within a second, so timings further
away track an item's speed worse.  A set-up is scaled by the loop timed right
after it.

A change to the library does not touch the loop, so a slower library still
reads slower.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0013        # median loop time on the reference host
REPEATS = 5


def _loop():
    acc = 0
    frac = Fraction(0)
    table = {}
    for i in range(2000):
        x = (i, 3 * i, i ^ 5)
        acc += x[0] * x[1] - x[2]
        table[i & 63] = x
        if i % 8 == 0:
            frac += Fraction(i, 7)
    return acc, frac


def loop_seconds() -> float:
    """Best of ``REPEATS`` timings of the calibration loop."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(loop_s: float) -> float:
    """Factor from a time measured while the loop took ``loop_s`` to the
    reference speed."""
    return REFERENCE_S / loop_s


def item_scales(loops: list[float]) -> list[float]:
    """Per-item factors to the reference speed, from the loop timings taken
    before each item and after the last one (one more timing than items)."""
    return [scale((a + b) / 2) for a, b in zip(loops, loops[1:])]
