"""Machine speed, sampled through a run, to report times at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by 20-40% over
minutes: a fixed numpy/Python loop, timed in 25-second windows, took
between 0.075 and 0.106 s per pass over four minutes, and five repeats of
one casimir deck took 12.7 to 15.3 s.  The drift is slower than one run,
so no amount of work inside a run averages it out, and two runs of the
same code minutes apart differ by as much as a real regression.

``Speedometer.sample`` times two fixed kernels that are part of the
benchmark, not of diffpath.  The vector kernel runs numpy transcendental
functions over a small array many times (call overhead, data in cache) and
over a 2 MB array once (data from memory); the interpreter kernel fills a
dict in a Python loop.  The run samples both between requests and around
each set-up interpreter, outside every timed span, and scales every wall
time it reports by the speed factor: the reference kernel times over the
run's median kernel times, combined as a weighted geometric mean with the
workload's ``INTERP_WEIGHT``.  A scaled time is the time the same work
would take on the machine running at the reference speed.  A change to
diffpath cannot move the kernels, so it moves scaled and raw times by the
same share; the run record keeps the raw times and the factor.

The host's slowdowns do not hit all code alike, so the kernels follow the
kind of work each workload does.  Over 14-30 repeats of one small deck
each (one process, same inputs), the interquartile range of the deck's
time over its median was, raw / scaled by the vector kernel / by the
geometric mean of both: v2-scan 13% / 8% / 20%, spectrum 8% / 8% / 20%,
casimir 17% / 10% / 7%, sampling 15% / 9% / 4%.  Over ten seeds in ten
processes, casimir's throughput spread was 7% raw, 5% with the vector
kernel and 10% with both, sampling's 9%, 5% and 6% (median latency 13%,
9% and 7%).  v2-scan, spectrum and casimir run numpy over large arrays;
sampling's per-mode loops are mostly interpreter work.

One factor per run, not per request: single requests and single kernel
samples both scatter by about 15% from one second to the next, largely
independently, so a per-request factor adds scatter to the percentiles;
the run's median kernel times follow only the slow drift.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel times on the reference machine (2-core x86-64 VM, Python
# 3.11, numpy 2.4).  Constants: changing them rescales every reported time.
REFERENCE_VECTOR_S = 3.5e-3
REFERENCE_INTERP_S = 0.6e-3

# Weight of the interpreter kernel in each workload's speed factor.
INTERP_WEIGHT = {"v2-scan": 0.0, "spectrum": 0.0, "casimir": 0.0, "sampling": 0.5}


class Speedometer:
    def __init__(self, interp_weight: float):
        self.interp_weight = interp_weight
        self._small = np.linspace(0.0, 8.0, 1 << 12)
        self._large = np.linspace(0.0, 8.0, 1 << 18)
        self.vector: list[float] = []
        self.interp: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            for _ in range(16):
                np.log1p(np.exp(-self._small)).sum()
            np.log1p(np.exp(-self._large)).sum()
            t1 = time.perf_counter()
            table = {}
            for i in range(3000):
                table[i % 97] = (i, 0.5 * i)
            t2 = time.perf_counter()
            self.vector.append(t1 - t0)
            self.interp.append(t2 - t1)

    def factor(self) -> float:
        """The speed factor: multiply a wall time by it to get the time at the reference speed."""
        w = self.interp_weight
        return ((REFERENCE_VECTOR_S / statistics.median(self.vector)) ** (1.0 - w)
                * (REFERENCE_INTERP_S / statistics.median(self.interp)) ** w)
