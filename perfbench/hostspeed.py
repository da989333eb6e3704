"""Host-speed correction: scale measured durations to a nominal host.

The benchmark runs on shared hosts whose speed drifts as other tenants load
the machine: on the 2-CPU host it was built on, the same Python code ran up
to 1.7x slower for stretches of seconds to minutes.  Left alone, that drift
is most of a run's spread, and a median over one run cannot remove it when
a whole run falls in a slow stretch.

So the benchmark times a fixed reference loop between operations: pure
Python, independent of the program, allocating nothing the garbage
collector tracks (so it neither triggers nor shifts a collection).  Its
duration tracks how fast the host runs Python at that moment, and the
program's op latencies follow it, though not always in proportion: per
block of 20 ``edit-refresh`` steps, with the reference between 5.7 and
10.5 ms, the block's median page latency grew as the reference to a power
between 0.65 and 1.0 from one stretch of host load to another (correlation
0.7 to 0.9), and across whole runs ops, pages and streams grew as its 0.75th
to 0.9th power.  Every duration the benchmark reports is therefore
multiplied by ``(NOMINAL_MS / reference time around it) ** EXPONENT``:
timings read as on a host that runs the reference loop in ``NOMINAL_MS``.
The report prints the median factor, so raw wall times can be recovered.
"""

from __future__ import annotations

import bisect
from array import array
from statistics import median
from time import perf_counter_ns
from typing import List

#: reference-loop time of the host the timings are scaled to (about what the
#: loop takes on an unloaded core of the host the benchmark was built on)
NOMINAL_MS = 6.0
#: how durations scale with the reference time (see above)
EXPONENT = 0.85
#: samples on each side of the one whose median smooths out a single slow sample
SMOOTH = 2

_SMALL = {i: i * 3 for i in range(1024)}
_TABLE = list(range(4096))


def reference() -> int:
    """The fixed reference work: dict and list reads plus int arithmetic."""
    acc = 0
    small, table = _SMALL, _TABLE
    for i in range(40000):
        acc += small[i & 1023] ^ table[(i * 7) & 4095]
    return acc


class HostSpeed:
    """Reference-loop samples of one process, and the factors they give."""

    def __init__(self):
        self.at = array("q")  #: start of each sample (perf_counter_ns)
        self.took = array("q")  #: its duration
        self._smooth: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter_ns()
            reference()
            self.at.append(start)
            self.took.append(perf_counter_ns() - start)
        self._smooth = []

    def _smoothed(self) -> List[float]:
        if len(self._smooth) != len(self.took):
            took = self.took
            self._smooth = [
                median(took[max(0, k - SMOOTH): k + SMOOTH + 1]) for k in range(len(took))
            ]
        return self._smooth

    def factor(self, t_ns: int) -> float:
        """The scale for durations at ``t_ns``, from the reference time of the
        last sample started by then (or of the first one)."""
        smooth = self._smoothed()
        if not smooth:
            raise RuntimeError("no reference samples taken")
        k = max(0, bisect.bisect_right(self.at, t_ns) - 1)
        return (NOMINAL_MS * 1e6 / smooth[k]) ** EXPONENT

    def scaled_ns(self, t_ns: int, duration_ns: float) -> float:
        return duration_ns * self.factor(t_ns)

    def scaled_ms(self, samples) -> List[float]:
        """``(start_ns, duration_ns)`` pairs -> scaled durations in ms."""
        return [self.scaled_ns(start, took) / 1e6 for start, took in samples]

    def scaled_span_ns(self, start_ns: int, end_ns: int) -> float:
        """Scaled wall time of ``[start_ns, end_ns]`` without the reference
        samples taken inside it."""
        total = 0.0
        cursor = start_ns
        lo = bisect.bisect_left(self.at, start_ns)
        hi = bisect.bisect_left(self.at, end_ns)
        for k in range(lo, hi):
            total += self.scaled_ns(cursor, self.at[k] - cursor)
            cursor = self.at[k] + self.took[k]
        if end_ns > cursor:
            total += self.scaled_ns(cursor, end_ns - cursor)
        return total

    def scaled_by_median_ns(self, duration_ns: float) -> float:
        """``duration_ns`` scaled by the median of all samples (for one long
        span with samples taken just before and just after it)."""
        return duration_ns * (NOMINAL_MS * 1e6 / median(self.took)) ** EXPONENT

    def median_ms(self) -> float:
        return median(self.took) / 1e6 if self.took else 0.0
