"""A yardstick for the machine's speed at the moment of measurement.

The sandbox this benchmark was written on is a 2-core VM whose speed shifts
by tens of per cent for minutes at a time (noisy neighbours, host memory
reclaim).  Eighty untraced runs over half an hour, program, seeds and
process set-up unchanged, gave inter-quartile spreads of 16-31 % on every
timing metric and single runs 2.5 times slower than the median.  No
statistic taken inside one run can remove a shift that lasts longer than
the run, and a change measured a quarter of an hour after its parent would
be judged by the weather.

So every run also times a fixed unit of work — :func:`sample` —
interleaved with the timed calls, and reports its timings in *yardstick
seconds*: measured seconds times ``NOMINAL_S / median(samples)``.  On a
machine running at the speed the workloads were sized on, the factor is 1
and a yardstick second is a second.  The unit mixes what the program mixes
— interpreter bytecode, a stable argsort, a fancy-index gather and a
row-wise product over a few megabytes — so it slows down with the program
whether the cause is stolen CPU time, a lower clock or a contended memory
bus.  It shares no code with ``repro``, touches no file and takes no lock,
so a change to the program cannot move it.

On the same eighty runs the yardstick's median tracked each workload's main
timing with correlation 0.76-0.95 and a fitted exponent of 0.9-1.4 (1 is a
pure ratio); dividing by it cut the spreads to 5-13 %.  A pure-Python loop
and an L2-resident variant of the same unit were recorded beside it and
tracked worse (0.47-0.79 and 0.66-0.90).  The factor is printed with every
result, so the measured seconds can always be recovered.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds one :func:`sample` takes between the program's own calls when
#: the machine the workloads were sized on is quiet (median of the per-run
#: medians of its fastest eighty-run sweep; 2-core 2.1 GHz Xeon guest).
NOMINAL_S = 0.0065

_RNG = np.random.default_rng(20140914)
_KEYS = _RNG.integers(0, 1 << 40, size=60_000)
_ROWS = _RNG.random((30_000, 16))


def sample() -> float:
    """Seconds the fixed unit of work takes right now."""
    start = time.perf_counter()
    order = np.argsort(_KEYS, kind="stable")
    gathered = _ROWS[order[:30_000] % len(_ROWS)]
    np.einsum("ij,ij->i", gathered, _ROWS)
    total = 0
    for value in range(6_000):
        total += value & 7
    return time.perf_counter() - start


class Yardstick:
    """Collects samples during a run and turns them into one factor."""

    def __init__(self, per_tick: int = 3):
        self.samples: List[float] = []
        self.per_tick = per_tick

    def tick(self, ticks: int = 1) -> float:
        """Take ``ticks * per_tick`` samples; returns the seconds that took,
        for a caller whose own clock is running."""
        taken = [sample() for _ in range(ticks * self.per_tick)]
        self.samples.extend(taken)
        return sum(taken)

    def mark(self) -> int:
        """A position in the sample list, to take a factor from later."""
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Multiply seconds measured since ``since`` (a :meth:`mark`) by this
        to get yardstick seconds."""
        samples = self.samples[since:]
        if not samples:
            return 1.0
        return NOMINAL_S / statistics.median(samples)
