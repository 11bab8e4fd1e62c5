"""Machine-speed calibration: a fixed numpy kernel timed alongside each workload.

The machines this benchmark runs on are shared, and their speed drifts by up
to 1.6x over minutes (the same default campaign took 3.1 s and 5.7 s in one
process five minutes apart).  No statistic taken within one run removes a
drift that lasts longer than the run.  So each run times a fixed kernel that
shares no code with gyromean, interleaved with the measured work (once per
round of a mix, once per property of a campaign, 100 times per set-up
probe), and scales every time it reports by

    REFERENCE_S / (mean time of the kernel in that run),

the mean weighted by the duration of the work each sample precedes when
that varies (the properties of a campaign take 1 ms to 0.5 s).

Reported times are therefore in reference seconds: seconds on a machine on
which the kernel takes REFERENCE_S.  A change to gyromean moves them; a
change of machine speed does not.  Runs print the unscaled figures too.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 200e-6
_REPEATS = 32


class Calibration:
    """Times of the calibration kernel in this process."""

    def __init__(self):
        rng = np.random.default_rng(20090)
        self._a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._b = self._a @ self._a.conj().T
        self.times_ns: list[int] = []

    def sample(self) -> int:
        """Time one pass of the kernel: small-array numpy calls, as gyromean makes.

        Of the kernels tried (LAPACK eigensolves, pure Python, small-array
        numpy calls), this one tracked the drift of both mixes best: over
        ten 24 s windows of a 240 s run, the ratio of mix time to kernel
        time spread by 1.3%, against 14% for the unscaled mix time.
        """
        a, b = self._a, self._b
        t0 = time.perf_counter_ns()
        for _ in range(_REPEATS):
            c = b @ a
            float(np.max(np.abs(c - c.conj().T)))
            np.asarray(c, dtype=complex)
        elapsed = time.perf_counter_ns() - t0
        self.times_ns.append(elapsed)
        return elapsed

    def factor(self, weights=None) -> float:
        """REFERENCE_S over the (weighted) mean kernel time: multiply a time by this."""
        return REFERENCE_S / (np.average(self.times_ns, weights=weights) * 1e-9)
