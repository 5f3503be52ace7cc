"""Wall-clock intervals reported at a reference machine speed.

On a shared machine the speed of one core flips between about 1x and
1.8x, staying in one state for a tenth of a second to half a minute (a
neighbour's load on the same physical core), far more than the
differences the benchmark must resolve.  So every run also times a fixed
calibration routine between items, at most every CADENCE_S, and reports
each interval scaled by

    REFERENCE_S / (mean of the calibration times just before and after it)

that is, as the time the interval would have taken on a core that runs
the calibration routine in REFERENCE_S.  The routine is pure Python in
the benchmark's own files (graph generation and a branch-width count from
`gen`), so it shares the interpreter costs of `mwidth` but none of its
code: a faster library lowers the scaled times, a slower phase of the
machine does not raise them.  Raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import random
from time import perf_counter

import gen

# The calibration routine's time on an Intel Xeon (2 vCPU VM, Python
# 3.11) in its fast state; it only fixes the unit of the scaled times.
REFERENCE_S = 0.001
CADENCE_S = 0.025   # least time between calibration samples


def reference_work() -> int:
    """A fixed pure-Python task of about REFERENCE_S."""
    rng = random.Random(7)
    total = 0
    for _ in range(2):
        pairs = gen.multigraph(rng, 9, 14)
        gen.tree_decomposition(rng, 9, pairs)
        tree, leaves = gen.cubic_tree(rng, 14)
        total += gen.branch_width_of(tree, dict(zip(leaves, range(14))), pairs)
    return total


class Clock:
    """Records intervals and calibration samples; scales intervals later."""

    def __init__(self):
        self.samples_t: list[float] = []
        self.samples_s: list[float] = []
        for _ in range(5):  # warm the routine's code paths
            reference_work()
        self.last = 0.0
        self.calibrate()

    def calibrate(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.samples_t.append(t0)
        self.samples_s.append(t1 - t0)
        self.last = t1

    def tick(self) -> None:
        """Take a calibration sample if the last one is CADENCE_S old."""
        if perf_counter() - self.last >= CADENCE_S:
            self.calibrate()

    def scale(self, t0: float) -> float:
        """Factor from raw seconds of an interval starting at t0 to seconds
        at reference speed.  Samples are never taken inside an interval, so
        the neighbours of t0 are the samples just before and after it."""
        i = min(max(bisect.bisect_left(self.samples_t, t0), 1), len(self.samples_t) - 1)
        return 2 * REFERENCE_S / (self.samples_s[i - 1] + self.samples_s[i])

    def scaled(self, t0: float, seconds: float) -> float:
        return seconds * self.scale(t0)
