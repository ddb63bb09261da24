"""CPU-speed calibration for trial timings.

On a shared machine the same work can take 1.7x longer from one second to
the next (CPU time tracks wall time, so this is core speed, not waiting).
``Calibrator.lap`` times a fixed kernel owned by the benchmark, with the same
mix as the program (interpreted loops around small numpy operations on
2^10-entry arrays), three times, and keeps the median so one preempted run
of the kernel does not count; a trial timed between two laps is scaled by
``REFERENCE_S / mean(lap before, lap after)``.  Reported times are therefore
seconds on a core that runs the kernel in ``REFERENCE_S``; a change to the
program moves them, a change of core speed mostly does not.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an unloaded core of the reference machine (README)
REFERENCE_S = 0.004


def _kernel() -> float:
    idx = np.arange(1 << 10)
    vec = np.exp(1j * idx / 7.0)
    acc = 0.0
    table: dict[int, tuple] = {}
    for i in range(800):
        w = vec[idx ^ (i & 1023)]
        acc += abs(complex(np.vdot(w, vec)))
        acc += int(np.bitwise_count(np.uint64(i * 40503)))
        table[i & 127] = (i, (i * 2654435761) & 0xFFFF)
    return acc + len(table)


class Calibrator:
    def __init__(self):
        _kernel()
        self.last = self.lap()

    def lap(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
        self.last = sorted(times)[1]
        return self.last

    def scale(self, before: float, after: float) -> float:
        return REFERENCE_S / (0.5 * (before + after))
