"""Host speed during a unit, sampled by a fixed probe on a timer signal.

On a shared host the CPU switches between a fast and a slow state (about
1.75x apart) every fraction of a second to several seconds, and the share
of time in the slow state drifts over minutes. CPU time grows as much as
wall time, so a median over one run cannot remove it. ``HostSpeed`` runs a
fixed probe (an Adam-like update on 20 floats, the kind of work a guardlab
step does) every PERIOD_S while a unit runs; the mean of nominal/probe time
is the share of nominal speed the host gave the unit. Unit times are
divided by the slowdown this gives, so they read as seconds at the nominal
speed below; the raw times and slowdowns are printed beside every result.
The probe costs about 1% of the unit's raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Probe time in the fast state of the host the benchmark was defined on:
# 2 vCPU Intel Xeon (KVM) at 2.0 GHz, Python 3.11.7, numpy 2.4.6.
PROBE_NOMINAL_S = 90e-6
PERIOD_S = 0.01


class HostSpeed:
    """Context manager that samples host speed while its block runs."""

    def __init__(self):
        self.samples: list = []
        self._x = np.linspace(-1.0, 1.0, 20)
        self._m = np.zeros(20)
        self._v = np.zeros(20)
        self._previous = None

    def _probe(self, signum, frame) -> None:
        x, m, v = self._x, self._m, self._v
        t0 = time.perf_counter()
        for t in range(8):
            g = 0.5 * x - 1.0
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x = x - 1e-3 * m / (np.sqrt(v) + 1e-8)
            _ = {"step": t, "loss": float(g @ g)}
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Raw time / time at nominal speed over the block (1.0 if never sampled)."""
        if not self.samples:
            return 1.0
        return 1.0 / statistics.fmean(PROBE_NOMINAL_S / s for s in self.samples)
