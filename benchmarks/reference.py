"""A fixed computation that scales the benchmark's timings to one host speed.

The shared host this benchmark was built on ran the same work up to 2.2
times slower for stretches of seconds to minutes, so raw wall times of two
runs, or of two sets of runs, did not repeat within a quarter.  The
reference below is plain-Python exact rational arithmetic, the kind of work
the exact workloads do, and calls no ``tritangle`` code, so no change to
the library can move it.  Timed next to the workload, it slows with the
host: over 155 passes of ``exact-transform`` the pass time spread 26%
(quartile distance over median) and the pass time over the reference time
spread 3.6%.

Every end-to-end time is reported as ``raw * REFERENCE_S / reference``: the
time it would take on a host where the reference takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

#: Host speed that the end-to-end times are scaled to: the reference takes
#: this long.  A round number; on the build host the reference took 0.7-1.4 ms.
REFERENCE_S = 1e-3
#: Back-to-back runs per measurement; the fastest is kept.
REPEATS = 3


def reference() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i * i - 7, 3 * i + 1) * Fraction(2 * i + 5, i + 11)
    return acc


def reference_s() -> float:
    """Time of the reference now, in seconds: the fastest of a few runs."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        reference()
        times.append(perf_counter_ns() - t0)
    return min(times) / 1e9
