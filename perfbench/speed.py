"""Machine speed, measured by a fixed job, to put wall times at one speed.

On a shared host the CPU's speed drifts by up to ~1.8x over a few seconds
(``process_time`` drifts with it, so this is not time stolen from the
process).  Plain wall times of the same op then spread by 10-35% between
runs.  Timing a fixed job before and after each measured interval tells
the speed that interval ran at; the job runs no package code, so a change
to the package moves a time at the reference speed exactly as it moves
the wall time.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# The reference job's duration at the reference speed, in seconds: about
# its fastest reading on the 2-vCPU x86_64 VM it was tuned on, where it read
# 55-120 ms as the speed drifted.
REFERENCE_S = 0.06


def reference_job() -> float:
    """Wall time of a fixed stdlib-only job of the kinds of work the package
    does: big-denominator Fraction sums, bit tests over a 1024-bit int,
    small lists, and an integer-table scan."""
    # The job makes no cycles; with the collector off its time does not
    # depend on how many objects the last op left behind.
    gc.disable()
    try:
        t0 = perf_counter()
        # The speed flips between two levels within ~100 ms, so the job is
        # repeated to average over several flips.
        for _ in range(2):
            acc = Fraction(0)
            for i in range(1, 1000):
                acc += Fraction(i, 8 * i + 1)
            bits = 0
            for i in range(3000):
                bits |= 1 << (i * 7 % 1024)
                [j for j in range(0, 1024, 16) if (bits >> j) & 1]
            table = list(range(1024))
            for x in range(0, 1024, 4):
                vx = table[x]
                for y in range(x, 1024, 16):
                    if vx + table[y] < table[x | y] + table[x & y]:
                        break
        return perf_counter() - t0
    finally:
        gc.enable()


def at_reference_speed(times: list[float], reference: list[float]) -> list[float]:
    """Scale ``times[i]`` by the speed of ``reference[i]`` and ``reference[i+1]``,
    the reference jobs timed just before and just after it."""
    return [t * 2 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, reference, reference[1:])]
