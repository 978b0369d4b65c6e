"""Machine-speed probe: times a fixed kernel while the program runs.

On a shared host the speed of a core drifts by up to 2x within seconds
(other tenants, frequency changes), in wall time and in CPU time alike,
so raw stage times of the same code spread more than any useful bound.
The probe measures that drift where it happens. An interval timer
(SIGALRM) interrupts the program every PERIOD_S seconds; the handler runs
`kernel`, a fixed mix of small numpy calls, Python arithmetic and
scattered reads, which does not touch the program. Its duration against
REFERENCE_S is the machine's speed at that moment.

`clock` is perf_counter minus the time spent in the probe, so no
measurement includes probe time. `scale(a, b)` is the mean of
REFERENCE_S / duration over the probes taken in [a, b] of that clock
(at least MIN_SAMPLES of them, taking the nearest ones for a short
window), raised to ELASTICITY; a stage time times its scale is the
stage's time on a machine where the kernel takes REFERENCE_S. A change
to the program moves the scaled time exactly as it moves the raw time;
a change of machine speed moves the raw time and the probe alike, and
the scaled time much less.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# Median kernel time on a 2-vCPU x86-64 cloud VM (Python 3, numpy 2,
# OpenBLAS on one thread) at its faster speed.
REFERENCE_S = 2.5e-4
MIN_SAMPLES = 16
# The program slows somewhat more than the kernel when the machine does:
# regressing log stage time on log probe time over 54 runs of 35 s (the
# three workloads, 2-vCPU VM, raw time spread 17-38%) gives slopes of
# 0.8-1.4 per stage, and 1.1 leaves the least run-to-run spread.
ELASTICITY = 1.1

_B = np.random.default_rng(0).random((6, 6)) + 6.0 * np.eye(6)
_TABLE = np.random.default_rng(1).random(1 << 19)
_INDEX = np.random.default_rng(2).integers(0, 1 << 19, 4000)


def kernel() -> float:
    s = 0.0
    for _ in range(24):
        s += np.linalg.solve(_B, _B[:, 0])[0]
        for j in range(10):
            s += j * 0.5
    return s + float(_TABLE[_INDEX].sum())


class SpeedProbe:
    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.spent = 0.0
        self.times: list[float] = []   # probe start, on `clock`
        self.ratios: list[float] = []  # REFERENCE_S / probe duration
        self.durations: list[float] = []
        self._saved = None

    def _handler(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.times.append(t0 - self.spent)
        self.durations.append(dt)
        self.ratios.append(REFERENCE_S / dt)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter minus probe time, read between two probes."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def start(self) -> None:
        for _ in range(20):  # warm the kernel's code and data
            kernel()
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def scale(self, a: float, b: float) -> float:
        """Speed ratio over [a, b]; 1.0 when nothing was probed."""
        times, n = self.times, len(self.times)
        if n == 0:
            return 1.0
        lo, hi = bisect.bisect_left(times, a), bisect.bisect_right(times, b)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(times, 0.5 * (a + b))
            lo = max(0, min(mid - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        return statistics.fmean(self.ratios[lo:hi]) ** ELASTICITY

    def median_duration(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class NoProbe:
    """Stand-in when no probe runs: raw perf_counter times, scale 1."""
    spent = 0.0
    clock = staticmethod(time.perf_counter)

    def scale(self, a: float, b: float) -> float:
        return 1.0

    def median_duration(self) -> float:
        return 0.0
