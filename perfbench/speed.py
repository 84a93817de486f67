"""In-thread speed probe that scales op times to a nominal machine speed.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds as other tenants load the machine, so raw wall times of the same
op differ more between runs than the regressions the benchmark must catch.
While an op runs, a SIGALRM timer interrupts the main thread every
``INTERVAL_S`` seconds and times a small fixed kernel whose mix (a Thomas
sweep over numpy scalars plus small numpy ops) resembles the program's own
work.  The op time scaled by ``NOMINAL_PROBE_S`` over the mean kernel time
follows the program's speed and not the host's.  A set-up probe, too short
to sample, times the kernel right after it finishes instead.  The kernel is
frozen here and never calls the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
NOMINAL_PROBE_S = 2.5e-4  # the kernel's time on an unloaded 2-core Xeon; a scale only

_N = 60
_LOWER = np.full(_N - 1, -1.0)
_DIAG = np.full(_N, 2.5)
_RHS = np.linspace(0.0, 1.0, _N)


def probe_once() -> float:
    """Wall time of one run of the fixed kernel (about 0.25 ms)."""
    t0 = time.perf_counter()
    gamma = np.empty(_N - 1)
    x = np.empty(_N)
    for _ in range(3):
        piv = _DIAG[0]
        gamma[0] = _LOWER[0] / piv
        x[0] = _RHS[0] / piv
        for k in range(1, _N):
            piv = _DIAG[k] - _LOWER[k - 1] * gamma[k - 1]
            if k < _N - 1:
                gamma[k] = _LOWER[k] / piv
            x[k] = (_RHS[k] - _LOWER[k - 1] * x[k - 1]) / piv
        np.maximum(x * 0.5 + _RHS, 0.0).sum()
    return time.perf_counter() - t0


class SpeedProbe:
    """Sample ``probe_once`` every ``INTERVAL_S`` while the block runs.

    ``on_sample(seconds)``, if given, is told the duration of every sample,
    so a tracer can keep the probe out of the span it interrupted.
    """

    def __init__(self, on_sample=None):
        self._on_sample = on_sample

    def __enter__(self):
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(probe_once())
        if self._on_sample is not None:
            self._on_sample(self.samples[-1])

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.own_s = sum(self.samples)  # probe time spent inside the block
        if not self.samples:  # a block shorter than one interval
            self.samples.append(probe_once())
        return False

    def normalise(self, wall: float) -> float:
        """``wall`` without the probe's own time, at nominal machine speed."""
        return (wall - self.own_s) * scale(self.samples)


def scale(samples) -> float:
    """Nominal over measured probe time: below 1 while the host runs slow."""
    return NOMINAL_PROBE_S / statistics.fmean(samples)
