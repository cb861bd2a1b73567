"""Stopwatches for workload iterations, one of which corrects for host speed.

The benchmark runs on small shared virtual machines where neighbours slow
the whole vCPU by up to a quarter for seconds at a time, with process CPU
time equal to wall time, so waiting is not the cause and repeating the
iteration does not average the slowdown out.  `SpeedProbe` therefore times
a fixed ~1 ms kernel (small FFTs plus an interpreter loop) on the
iteration's own thread every 100 ms, from a SIGALRM handler, and five times
on each side of it.  `normalized()` is the iteration's wall time, less the
probes run inside it, rescaled to a host on which the kernel takes exactly
`REF_PROBE_S`.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_PROBE_S = 1e-3
INTERVAL_S = 0.1
EDGE_PROBES = 5


class Stopwatch:
    """Wall time of the `with` block, in `elapsed`."""

    elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0


class SpeedProbe(Stopwatch):
    """Stopwatch that also samples the host's speed during the block."""

    def __init__(self):
        self._x = np.exp(2j * np.pi * np.arange(1024) / 7.0)
        self.inside: list[float] = []
        self.edges: list[float] = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(20):
            np.fft.fft(self._x)
        acc = 0
        for i in range(3000):
            acc += i * i
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.inside.append(self._kernel())

    def __enter__(self):
        self.inside = []
        self.edges = [self._kernel() for _ in range(EDGE_PROBES)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        super().__enter__()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        super().__exit__(*exc)
        signal.signal(signal.SIGALRM, self._previous)
        self.edges += [self._kernel() for _ in range(EDGE_PROBES)]

    def probe_s(self) -> float:
        """Mean duration of the kernel around and during the block."""
        return statistics.fmean(self.edges + self.inside)

    def normalized(self) -> float:
        return (self.elapsed - sum(self.inside)) * REF_PROBE_S / self.probe_s()
