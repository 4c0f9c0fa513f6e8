"""A fixed reference kernel that measures how fast the host runs, during an operation.

On a shared 2-core host the speed available to one process swings by up to
2x, in episodes that last from a second to minutes, so one operation's wall
time says as much about the neighbours as about the code. A `SpeedSampler`
times this kernel every SAMPLE_PERIOD_S of wall time while an operation
runs (from a SIGALRM handler, so no thread is started) and the run reports
each operation scaled by the mean kernel time it saw. On the baseline host
that cut the operation-to-operation spread of the survey mission from 13 %
to 5 %. The kernel mixes scalar Python and 3-vector numpy calls, like
flatwing's per-tick work.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

# Best mean kernel time over one operation on the baseline host (2-core
# x86_64, Python 3.11.7, numpy 2.4.6): the speed scaled times refer to.
REF_NOMINAL_S = 0.0006
SAMPLE_PERIOD_S = 0.2

_M3 = np.random.default_rng(12345).standard_normal((3, 3))


def reference_seconds() -> float:
    """Wall time of one fixed run of the reference kernel."""
    tic = time.perf_counter()
    v = np.ones(3)
    acc = 0.0
    for i in range(150):
        v = _M3 @ v
        v = v / np.linalg.norm(v)
        acc += math.sqrt(i) * float(v[0])
    if not math.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite sum")
    return time.perf_counter() - tic


class SpeedSampler:
    """Context manager that times the kernel periodically while it is active.

    `spent` is the wall time the samples took, to be taken off the timed
    operation. Python runs the handler between bytecodes, so a sample due
    during a long native call (a BLAS product) waits until the call returns.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame):
        tic = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - tic

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_s(self) -> float:
        """Mean kernel time seen; one sample taken now if none fell inside."""
        if not self.samples:
            self.samples.append(reference_seconds())
        return sum(self.samples) / len(self.samples)
