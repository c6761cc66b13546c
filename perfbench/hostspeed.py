"""Host speed, measured by a fixed calibration kernel timed alongside the workload.

On a shared host the processor's speed for this process drifts by up to
1.7x over minutes (other tenants), and every wall time of a run moves
with it.  The benchmark times a fixed kernel that calls nothing in
penskew between units of work, and reports its gated timings scaled to
the host speed at which that kernel takes ``REFERENCE_MS``: a time is
multiplied by ``factor``, a rate divided by it.  A change to penskew
moves the scaled figures exactly as it moves the wall times; drift of
the host cancels to the extent that it slows the kernel and the
workload alike.  The wall times are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 25.0


def calibration_kernel() -> float:
    """Fixed work: an interpreter loop and small-array numpy, no BLAS, no penskew."""
    s = 0
    for i in range(300_000):
        s += i * i
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return float(s % 7) + float(a[0])


class HostSpeed:
    """Calibration samples of one phase of a run, and the scale factor they give."""

    def __init__(self):
        self.samples_ms = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            t0 = time.perf_counter()
            calibration_kernel()
            self.samples_ms.append(1e3 * (time.perf_counter() - t0))

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples_ms)

    @property
    def factor(self) -> float:
        """Wall time x factor = time at the reference speed (below 1 on a slow host)."""
        return REFERENCE_MS / self.median_ms

    def scale(self, value: float, unit: str) -> float:
        """A wall-clock time, or a rate (unit ``1/s``), at the reference speed."""
        return value / self.factor if unit == "1/s" else value * self.factor
