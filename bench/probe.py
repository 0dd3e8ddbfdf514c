"""Host speed probe: a fixed pure-Python workload timed next to each measurement.

On a shared host the speed of the same single-threaded Python code drifts
by up to 2x over minutes, which swamps the differences a benchmark has to
resolve.  Every timed region in a child process is bracketed by probe
runs, and its time is rescaled to a host on which the probe takes
REFERENCE_S: time * REFERENCE_S / probe.  The probe never touches qine, so
a change to qine moves the rescaled time by the same ratio as the wall
time.  The probe mixes what the solver spends its time on: small-object
allocation, float min/max and Fraction arithmetic.
"""

from __future__ import annotations

import time
from fractions import Fraction

# A round number near the probe's fastest time on a 2-vCPU x86-64 host with
# CPython 3.11; it only sets the scale of the rescaled times.
REFERENCE_S = 0.1


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi


def probe_s() -> float:
    """Wall time of one run of the fixed probe workload."""
    t0 = time.perf_counter()
    kept = []
    x = 0.1
    for i in range(15000):
        p = _Pair(x, x + 1.0)
        q = _Pair(min(p.lo, 0.3) * 1.0000001, max(p.hi, 0.7))
        if Fraction(q.hi) - Fraction(q.lo) > 1:
            kept.append(q)
        x = (x * 1.37) % 3.0
        if i % 7 == 0:
            kept.append(Fraction(i, 7) + 1)
    return time.perf_counter() - t0


def scale(*probes: float) -> float:
    """Factor that rescales a wall time measured next to these probe runs."""
    return REFERENCE_S * len(probes) / sum(probes)
