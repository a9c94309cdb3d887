"""Machine-speed reference for timing on a shared CPU.

On a small shared machine the CPU's speed drifts with what other tenants
run. On a 2-core x86_64 container a fixed pure-Python loop ran at 360 to
610 iterations per 2 s window over 150 s, in regimes lasting 10 to 20 s,
so the median exposure time of 12 to 20 s runs spread by 13 to 21%
(quartile distance over median) from run to run. Interpreter,
vector-math, FFT and memory-streaming kernels slowed together
(correlation 0.85 to 0.95 over 5 s windows), so one short mixed kernel,
run between exposures, measures the current speed.

Each exposure is scaled by ``REF_NOMINAL_S`` over the mean of the two
reference bursts around it, which puts it in seconds at the speed where
the kernel takes ``REF_NOMINAL_S`` (its typical time on that machine).
That local scaling cut the run-to-run spread of the CLI round trip from
19% to 10% of the median in the same five runs.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.008

# Take a reference at least this often during a timed loop.
REF_INTERVAL_S = 0.5


class Reference:
    """A fixed mix of interpreter, vector-math, FFT and memory work."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._z = np.exp(2j * math.pi * rng.random(4000))
        self._step = np.exp(2j * math.pi * rng.random(4000))
        self._x = rng.random(20_000)
        self._mem = rng.random(1 << 19)
        self._tmp = np.empty_like(self._mem)
        self._fft = rng.random(1 << 16)

    def measure(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        z = self._z.copy()
        for _ in range(300):  # many small array operations, as in a phasor recursion
            z *= self._step
            z.sum()
        np.exp((-2j * math.pi * 3.3) * self._x).sum()
        np.multiply(self._mem, 1.0001, out=self._tmp).sum()
        np.fft.fft(self._fft).sum()
        return time.perf_counter() - t0

    def burst(self, n: int = 5) -> float:
        """Median of n back-to-back measurements, which damps one-off stalls."""
        return statistics.median(self.measure() for _ in range(n))


def factor(before: float, after: float) -> float:
    """Multiplier taking a time measured between two bursts to the nominal speed."""
    return REF_NOMINAL_S / ((before + after) / 2.0)
