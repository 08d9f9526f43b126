"""Host-speed probe: a fixed pure-Python kernel timed while the measured process runs.

On a small shared VM the speed of a vCPU drifts by +-25 % over seconds to
tens of seconds with no steal time and no load visible from inside, so raw
times of identical runs spread by 20-30 %.  The benchmark therefore runs
the measured process at nice 19 on the same CPU as ``run.py``, which wakes
every ``INTERVAL_S`` and times the kernel.  The child yields the CPU to the
probe at once, so each probe sees the CPU's current speed.  A reported time
is the raw interval minus the probe time inside it, divided by the factor
``mean kernel time near the interval / NOMINAL_S``.  The kernel shares no
code with the package, so a change to the package moves the reported times
and not the factor.
"""

from __future__ import annotations

import bisect
import time

# Kernel time in seconds on the machine the baseline was recorded on (the
# lower quartile of 400 probes there).
NOMINAL_S = 0.0021
INTERVAL_S = 0.05

_MATRIX = [[((i * 7 + j * 3) % 11) / 10.0 for j in range(10)] for i in range(10)]


def _matchings(idx: tuple[int, ...]) -> float:
    if not idx:
        return 1.0
    first, total = idx[0], 0.0
    for pos in range(1, len(idx)):
        total += _MATRIX[first][idx[pos]] * _matchings(idx[1:pos] + idx[pos + 1 :])
    return total


def kernel() -> None:
    """All 945 perfect matchings of 10 indices, three times: about 2 ms."""
    for _ in range(3):
        _matchings(tuple(range(10)))


class SpeedTrace:
    """Probe intervals on the ``time.perf_counter`` clock, which child processes share."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def factor(self, t0: float, t1: float) -> float:
        """Mean kernel time over nominal for probes within one interval of [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL_S)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL_S)
        if lo >= hi:  # no probe close by: the nearest one
            i = min(bisect.bisect_left(self.starts, t0), len(self.starts) - 1)
            lo, hi = i, i + 1
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo) / NOMINAL_S

    def stolen(self, t0: float, t1: float) -> float:
        """Probe time that falls inside [t0, t1]."""
        total = 0.0
        for i in range(bisect.bisect_left(self.ends, t0), len(self.starts)):
            if self.starts[i] >= t1:
                break
            total += max(0.0, min(self.ends[i], t1) - max(self.starts[i], t0))
        return total

    def adjust(self, t0: float, t1: float) -> float:
        """The interval's length without probe time, at the nominal host speed."""
        return (t1 - t0 - self.stolen(t0, t1)) / self.factor(t0, t1)

    def mean_factor(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends)) / len(self.starts) / NOMINAL_S

