"""Scaling times to a reference machine speed.

The development machine's speed swings by up to 1.7x in phases lasting
seconds to minutes (a fixed loop takes 68 to 118 ms), which repetition
within one run does not average out. So the benchmark samples the speed
with probes that do a fixed amount of work and scales every time it
reports to the reference speed, at which the probes take REF_S: about
their times at full speed on that machine (a 2-core x86-64 VM running
Python 3.11 and numpy 2.4).

The swings hit interpreted object code and numpy array passes by
different amounts, so there are two probes. "python" adds Fractions and
counts frozensets in a dict, like the exact-rational and per-word code;
"numpy" runs a masked prefix scan over a quarter of a kernel batch. Measured against either probe, a timed piece of work spreads least
when the probe does the same kind of work: 9% for Fraction masses against
the python probe (26% against numpy), 7% for kernel enumeration against
the numpy probe (18% against python). Set-up, which is mostly imports,
is scaled by a third probe of the same kind: starting a fresh interpreter
that imports numpy. The python probe over-corrects set-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_S = {"python": 0.0013, "numpy": 0.0022, "import": 0.13}
PERIOD_S = 0.1
GRID = (1 << 13, 24)  # a quarter of a kernel chunk, occupancy width at r=7


def import_probe() -> float:
    """Slowness of starting a fresh interpreter that imports numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return (perf_counter() - start) / REF_S["import"]


class SpeedMonitor:
    """Samples the speed with the given probe kinds. While active as a
    context manager, a SIGALRM handler samples every PERIOD_S seconds,
    inside long queries too. `clock()` leaves out the time the probes take,
    so latencies and spans read from it exclude them."""

    def __init__(self, kinds) -> None:
        self.kinds = tuple(kinds)
        if "numpy" in self.kinds:
            import numpy as np

            self._np = np
            self._grid = (np.arange(GRID[0] * GRID[1], dtype=np.int64).reshape(GRID) * 7919) % 13
        self.spent = 0.0
        self.times: list[float] = []  # clock() at each sample
        self.slowness: list[float] = []

    def _run(self, kind: str) -> None:
        if kind == "numpy":
            self._np.maximum.accumulate(self._np.where(self._grid > 3, self._grid, -1), axis=1)
            return
        acc, seen = Fraction(0), {}
        for i in range(1, 500):
            acc += Fraction(i % 7 + 1, i % 11 + 2)
            key = frozenset((i % 13, i % 17, i % 19))
            seen[key] = seen.get(key, 0) + 1

    def probe(self) -> float:
        """Slowness now: 1 at the reference speed, 2 at half of it,
        averaged over the probe kinds."""
        ratios = []
        for kind in self.kinds:
            start = perf_counter()
            self._run(kind)
            ratios.append((perf_counter() - start) / REF_S[kind])
        return statistics.fmean(ratios)

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, *_) -> None:
        start = perf_counter()
        self.times.append(start - self.spent)
        self.slowness.append(self.probe())
        self.spent += perf_counter() - start

    def __enter__(self) -> "SpeedMonitor":
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """Factor to the reference speed for the interval [start, end] of
        clock(): from the samples inside it and the nearest on each side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return 1 / statistics.fmean(self.slowness[lo:hi])
