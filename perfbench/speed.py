"""Host-speed probe: rescales wall time to a fixed reference CPU speed.

The benchmark host is a small virtual machine on a shared server. How fast
its CPU runs changes by up to 2x within minutes, with almost no time stolen
from the guest, so the same deterministic solve takes 8 s in one minute and
16 s a few minutes later, and CPU time moves with wall time. Such drift swamps
any change to the program.

SpeedProbe samples the current speed from inside the measured process: every
PERIOD_S a SIGALRM handler times a fixed probe (a 60x60 matrix product and a
sparse LU solve of a 3600-unknown 2-D Laplacian, on data of the probe's own),
between two bytecodes of whatever the process is running. `rescale(a, b)` then
converts the wall time spent outside the probe between perf_counter()
readings a and b into seconds at reference speed:

    (b - a - probe time) * REF_SAMPLE_S / median sample time

The median, not the mean, so that samples slowed by a cold cache or an
interrupt do not count as a slow host. The probe does not touch the program,
its inputs or its random streams, so a change to the program moves the
rescaled time as it moves the work; only the host's speed cancels. On the
reference host the rescaled solve times of a fixed workload spread 2 to 6
times less than their wall times (README.md).
"""
from __future__ import annotations

import bisect
import signal
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PERIOD_S = 0.02
# probe duration at full speed on the reference host (2-CPU Intel Xeon VM):
# the unit that rescaled seconds are expressed in
REF_SAMPLE_S = 6.0e-4
# an interval with fewer samples is rescaled by every sample taken so far
MIN_SAMPLES = 20


class SpeedProbe:
    """Periodic timing of a fixed probe inside the current process."""

    def __init__(self):
        rng = np.random.default_rng(0)  # the probe's own data, not a program stream
        self._mat = rng.random((60, 60))
        n = 60
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.eye(n)
        self._lu = spla.splu((sp.kron(lap, eye) + sp.kron(eye, lap) + 0.1 * sp.eye(n * n))
                             .tocsc())
        self._rhs = rng.random(n * n)
        self.t: list[float] = []  # perf_counter() at the start of each sample
        self.d: list[float] = []  # its duration
        self.run = lambda fn: fn()  # a tracer charges samples to a span of its own
        self._busy = False

    def _probe(self) -> float:
        return float((self._mat @ self._mat).sum() + self._lu.solve(self._rhs).sum())

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.run(self._probe)
        finally:
            self.t.append(t0)
            self.d.append(time.perf_counter() - t0)
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, a: float, b: float) -> float:
        """Probe time between perf_counter() readings a and b."""
        return sum(self.d[bisect.bisect_left(self.t, a):bisect.bisect_left(self.t, b)])

    def rescale(self, a: float, b: float) -> float:
        """Work time between perf_counter() readings a and b at reference speed."""
        i, j = bisect.bisect_left(self.t, a), bisect.bisect_left(self.t, b)
        lo = i if j - i >= MIN_SAMPLES else 0
        if j - lo == 0:
            return b - a
        return (b - a - self.busy(a, b)) * REF_SAMPLE_S / float(np.median(self.d[lo:j]))

    def summary(self) -> dict:
        """Sample count, duty and median sample time, for the run log."""
        if not self.d:
            return {"samples": 0}
        span = self.t[-1] + self.d[-1] - self.t[0]
        return {"samples": len(self.d), "duty": sum(self.d) / span,
                "median_sample_s": float(np.median(self.d))}
