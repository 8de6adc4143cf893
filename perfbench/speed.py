"""The machine's speed during a run, from a fixed pure-Python reference workload.

The benchmark was tuned on a shared 2-core machine whose speed drifts by up
to 1.6x over minutes.  The drift hits every process, and a process's CPU
time grows with it just as its wall time does.  So timings from
runs only minutes apart differ by more than any useful bound.  The run takes
a group of reference samples (`references()`) before every program process
and one more after the last, and `rescale()` multiplies each process's wall
time by NOMINAL_REF_S over the median of the two groups around it.  Reported
times are then seconds at the speed where the reference takes NOMINAL_REF_S.

The reference does the same kind of work as the program: exact Fraction
arithmetic and Python-level integer loops.  It is pure benchmark code, so a
change to the program cannot move it.  On the tuning machine, over 20-report
windows of `tspan compute` on dmax7, a run-wide factor cut the spread from
0.37 to 0.09.  The speed also changes within a run: 27 reports on dmax11 in
a row took 3.1-5.3 s.  Their coefficient of variation was 0.144 raw and with
a run-wide factor, and 0.095 with the two groups around each report; the
medians of three windows of nine reports varied by 0.067 with a run-wide
factor and by 0.011 with the groups around each report.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

NOMINAL_REF_S = 0.013  # the reference's time on the tuning machine at its usual speed
SAMPLES_PER_REPORT = 3  # a single 13 ms sample varies by ±30%


def reference_s() -> float:
    start = time.perf_counter()
    acc, x = Fraction(0), 1
    for k in range(1, 300):
        acc += Fraction(k, 7 * k + 3)
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) % 2147483648
    return time.perf_counter() - start


def share_core_with_children() -> None:
    """Pin this process, and so every child it starts, to one core.

    The two cores drift apart as well, so the reference has to run on the
    core that runs the reports.  The program runs in one thread.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def references() -> list[float]:
    """One group of reference samples, taken back to back."""
    return [reference_s() for _ in range(SAMPLES_PER_REPORT)]


def factor(samples: list[float]) -> float:
    """Multiply a time measured next to these reference samples by this to get it at the nominal speed."""
    return NOMINAL_REF_S / statistics.median(samples)


def rescale(walls: list[float], groups: list[list[float]]) -> list[float]:
    """Times at the nominal speed; walls[k] was measured between groups[k] and groups[k + 1]."""
    return [wall * factor(groups[k] + groups[k + 1]) for k, wall in enumerate(walls)]
