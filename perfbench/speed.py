"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark runs on is shared, and its speed drifts by up to
2x over seconds to minutes with the load of its other tenants; CPU time
drifts with wall time, so the process's own clock cannot tell the two
apart.  So a fixed pure-Python probe, independent of the package, is timed
right before every job, and a job's time is scaled by REFERENCE_S over the
median probe time of the samples around it: what the job would have taken
with the machine at the reference speed.  A change to the package moves the
scaled times as much as the raw ones; the machine's drift moves the probe
with the job and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

# The probe's time at the reference speed: about its time on the 2-core
# machine the benchmark was defined on (Python 3.11) when that machine ran
# at its fast speed.
REFERENCE_S = 4e-4
WINDOW = 4          # samples on each side of the one a job follows


def probe() -> int:
    """Interpreter work of the kinds the package does: tuple keys, a dict,
    small-integer arithmetic."""
    counts: dict = {}
    total = 0
    for i in range(1500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
        total += (i * i) % 7
    return total + len(counts)


class Speed:
    """Probe samples in the order they were taken."""

    def __init__(self) -> None:
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the probe once.  The collector is off meanwhile, so the heap
        that the package leaves behind does not slow the probe down."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe()
            self.took.append(time.perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def scale(self, k: int) -> float:
        """The factor for work done right after sample k: REFERENCE_S over
        the median of samples k-WINDOW .. k+WINDOW."""
        near = self.took[max(0, k - WINDOW):k + WINDOW + 1] or self.took[-WINDOW:]
        return REFERENCE_S / statistics.median(near)
