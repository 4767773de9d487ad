"""A fixed loop that measures how fast this machine is running right now.

On a shared host, other tenants slow every pass by up to about 1.8x for
minutes at a time. Raw wall times of the same work then spread 0.15 to 0.6
(quartile distance over median) across ten 40 s runs, wider than any useful
regression bound. The loop below never touches edanav; it mixes the same
kinds of work (an interpreted scalar loop like the PID law, small numpy
calls and a small matmul like the surrogate, sign changes like peak
detection). Timing it next to every pass and scaling the pass by
``REFERENCE_S / loop time`` cancels most of the host's drift, while a
change in edanav's own cost shows in full.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of ``Calibration.measure`` on the machine the baseline was
# recorded on (2 vCPUs, Intel Xeon at 2.0 GHz, Python 3.11, numpy 2.4,
# single-threaded BLAS). Scaled times are seconds on that machine.
REFERENCE_S = 0.06
_REPEATS = 64
_N = 960


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal(_N)
        self._samples = self._x.tolist()
        self._weights = rng.standard_normal((9, 55))
        self._idx = np.arange(_N - 30)[:, None] + np.arange(27)[None, :]
        self._bias = np.ones((_N - 30, 1))

    def measure(self) -> float:
        """Wall seconds of one fixed round of the loop."""
        start = time.perf_counter()
        for _ in range(_REPEATS):
            integral = prev = 0.0
            out = []
            for v in self._samples:
                e = -v
                integral = min(10.0, max(-10.0, integral + 0.25 * e))
                out.append(0.3 * e + 0.1 * integral + 0.2 * (e - prev))
                prev = e
            windows = np.concatenate([self._x[self._idx], self._x[self._idx], self._bias], axis=1)
            np.clip(windows @ self._weights.T, 0.0, 1.0)
            np.count_nonzero(np.diff(np.sign(np.diff(out))))
        return time.perf_counter() - start
