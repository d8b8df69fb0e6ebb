"""A fixed reference computation that gauges the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% within tens of seconds, for every kind of code alike.  While a `Gauge`
is active, a wall-clock timer interrupts the timed work every `PERIOD_S` and
runs `kernel` twice, so the kernel samples the same stretches of time as the
work it interrupts.  Only the second call is kept: the first finds its code
and data evicted by the interrupted work, and that refill cost does not scale
with the host's speed (the kept calls slow down in proportion to the work,
the first calls by about 1/1.3 of it).  `Gauge.clock` and `Gauge.cpu_clock` stop while the
kernel runs, so the work's own times exclude it.  A time `t` measured while
the kernel took `k` seconds on average is reported as `t * REFERENCE_S / k`:
the seconds the work would have taken at the speed at which the kernel takes
`REFERENCE_S`.  The kernel is part of the benchmark, not of ifs-lab, so no
change to the library moves it; it mixes the kinds of work the library does
(scalar `math` calls through methods, list sorting, small numpy array
expressions and `interp`) so that it slows down with them.
"""

from __future__ import annotations

import math
import signal
import time
from typing import Callable, List

import numpy as np

# Seconds one kernel call takes at the reference speed (about its median on
# a 2-core share of an Intel Xeon host, Python 3.11, numpy 2.4).
REFERENCE_S = 0.002

# Interval of the timer that runs the kernel: about a tenth of the time.
PERIOD_S = 0.06

_GRID = np.linspace(0.0, 1.0, 1024)


class _Map:
    """A circle map lifted like the library's north-south generator."""

    def __init__(self, lam: float):
        self.lam = lam

    def lift(self, t: float) -> float:
        n = math.floor(t + 0.5)
        s = t - n
        if abs(s) <= 0.25:
            return n + math.atan(self.lam * math.tan(math.pi * s)) / math.pi
        return n + s


def kernel() -> float:
    """Run the reference computation once; return its wall seconds."""
    t0 = time.perf_counter()
    m = _Map(1.7)
    vals = [m.lift(i * 0.000731) for i in range(2500)]
    vals.sort(key=lambda v: v - math.floor(v))
    a = _GRID.copy()
    for _ in range(18):
        s = a - np.floor(a + 0.5)
        a = np.where(np.abs(s) <= 0.25, np.arctan(1.3 * np.tan(np.pi * s)) / np.pi, s) + 0.5
        a = np.interp(a, _GRID, _GRID[::-1])
        np.sort(a)
    return time.perf_counter() - t0


def scale(samples: List[float]) -> float:
    """Factor that turns seconds measured alongside the kernel times
    `samples` into seconds at the reference speed."""
    return REFERENCE_S * len(samples) / sum(samples)


class Gauge:
    """Runs the kernel on a SIGALRM timer while active (main thread only).

    `samples` holds every kernel time; `clock` and `cpu_clock` are
    `time.perf_counter` and `cpu` minus the time spent in the timer's
    handler, so intervals read with them leave the kernel out.
    """

    def __init__(self, cpu: Callable[[], float] = time.process_time,
                 period: float = PERIOD_S):
        self.period = period
        self._cpu_now = cpu
        self.samples: List[float] = []
        self._wall = 0.0
        self._cpu = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        w0, c0 = time.perf_counter(), self._cpu_now()
        kernel()
        self.samples.append(kernel())
        self._cpu += self._cpu_now() - c0
        self._wall += time.perf_counter() - w0
        self._busy = False

    def clock(self) -> float:
        while True:
            spent = self._wall
            now = time.perf_counter()
            if spent == self._wall:
                return now - spent

    def cpu_clock(self) -> float:
        while True:
            spent = self._cpu
            now = self._cpu_now()
            if spent == self._cpu:
                return now - spent

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
