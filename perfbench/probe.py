"""Host-speed probe: times a fixed kernel while the workload runs.

On a shared host the same code runs up to 1.8x slower from one stretch of
seconds to the next, and CPU time slows with wall time, so neither clock
alone can compare two runs. The probe times a fixed kernel of small numpy
operations and a small linear solve, the mix torusflow's hot loops are made
of, every PERIOD_S seconds from a SIGALRM handler in the workload's own
thread. The mean kernel time over an iteration measures how fast the host
ran during it; `factor()` turns it into the ratio that scales the
iteration's times to a host on which the kernel takes REFERENCE_S.

`clock()` is perf_counter minus the time spent in the probe, so the
workload's own durations, and the tracer's spans, leave the probe out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.005
PERIOD_S = 0.2

_X = np.linspace(0.0, 1.0, 64)
_M = np.eye(24) * 3.0 + 0.01


def kernel() -> float:
    total = 0.0
    for i in range(200):
        b = np.sin(_X * i) + np.cos(_X)
        total += float(b @ _X)
        total += float(np.linalg.solve(_M, b[:24])[0])
    return total


class Probe:
    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self):
        if self._busy:  # a signal that lands during a sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)

    def start(self):
        """Sample now and then every PERIOD_S until stop()."""
        self.samples = []
        self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
