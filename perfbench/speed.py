"""Host CPU speed probe, for timings stated at a reference speed.

On a shared host the same code can run about 1.6x slower for tens of seconds
at a time, while no stolen time is reported and no gaps show in the
process's own clock. Run-to-run spread of raw wall times is then set by the
host, not by the program. The probe times a fixed pure-Python loop that runs
no margex code, between jobs; multiplying a run's timings by
``REFERENCE_S / probe median`` states them at the speed where the loop takes
``REFERENCE_S``. In trials a small numpy gather tracked the host's speed
worse than the loop did, so the probe is the loop alone.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# loop time in the host's fast phase on a 2-vCPU Xeon VM with Python 3.11.7
REFERENCE_S = 2.5e-3
EVERY_S = 0.5
BURST = 5


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the loop ``BURST`` times; one timing alone varies by ~20%."""
        for _ in range(BURST):
            t0 = perf_counter()
            acc = 0
            for i in range(50_000):
                acc += i % 7
            self._last = perf_counter()
            self.samples.append(self._last - t0)

    def maybe_sample(self) -> None:
        """Sample when ``EVERY_S`` has passed since the last sample."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """Factor turning a measured time into one at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
