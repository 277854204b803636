"""A yardstick for the speed of a shared machine, read inside the run.

The machine the benchmark was built on is shared with other tenants, and
its speed drifts: the same ``grid-demo`` pass took 20 s in one minute and
65 s in another, and ``load_resources`` flips between 13 and 25 ms for
seconds at a time. Medians inside a run remove only the short spells. A
reference loop timed before and after a pass does not follow what
happened during it, and one run in a second process times the other core.

So while a run measures, a timer interrupts it every ``INTERVAL_S`` and
runs a fixed loop of the benchmark's own, the yardstick, in the same
process and so on the same core: dot products over the rows of a small
matrix and a burst of small allocations, the two things the program's
hot paths do. Over an interval between two ``read()`` marks,
``program_s`` is the wall time less the yardstick's own, and
``rescaled_s`` is that times ``NOMINAL_S`` over the yardstick's mean
time in the interval: how long the program would have taken had the
machine run at the yardstick's nominal speed. The yardstick takes about
2% of a run; it is left out of both.

Run ``python3 perfbench/yardstick.py`` to print this machine's yardstick
time at this moment.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

# Mean yardstick time inside runs on the machine the benchmark was built
# on (2-core x86_64 VM, Python 3.11, NumPy 2.4); alone it takes about
# 1 ms. It fixes only the scale of the rescaled times.
NOMINAL_S = 0.0014
INTERVAL_S = 0.05
# An interval too short to hold a sample takes the mean of the last few.
RECENT = 5

_rng = np.random.default_rng(20230405)
_MATRIX = _rng.random((300, 300))
_VECTOR = _rng.random(300)


def measure_once() -> float:
    """One run of the yardstick loop; its duration in seconds."""
    started = time.perf_counter()
    total = 0.0
    for row in _MATRIX:
        total += np.dot(_VECTOR, row)
    names = {}
    for i in range(3000):
        names[str(i)] = total
    return time.perf_counter() - started


class Mark(NamedTuple):
    wall: float
    samples: int
    spent: float


class Yardstick:
    """Samples the yardstick on a timer while the ``with`` block runs.

    With ``enabled=False`` nothing is sampled and ``rescaled_s`` equals
    ``program_s``; traced runs use that, so that no span holds
    yardstick time.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.durations: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            seconds = measure_once()
            self.durations.append(seconds)
            self._spent += seconds
        finally:
            self._busy = False

    def __enter__(self) -> "Yardstick":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            while len(self.durations) < RECENT:
                time.sleep(INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def read(self) -> Mark:
        busy, self._busy = self._busy, True  # no sample between the fields
        try:
            return Mark(time.perf_counter(), len(self.durations), self._spent)
        finally:
            self._busy = busy

    def program_s(self, start: Mark, end: Mark) -> float:
        """Wall time between two marks, less the yardstick's."""
        return (end.wall - start.wall) - (end.spent - start.spent)

    def rescaled_s(self, start: Mark, end: Mark) -> float:
        """``program_s`` at the yardstick's nominal speed."""
        seconds = self.program_s(start, end)
        if not self.enabled:
            return seconds
        inside = self.durations[start.samples:end.samples]
        if not inside:
            inside = self.durations[max(0, end.samples - RECENT):end.samples]
        return seconds * NOMINAL_S / statistics.fmean(inside)


if __name__ == "__main__":
    times = [measure_once() for _ in range(200)]
    print(f"yardstick mean {statistics.fmean(times) * 1e3:.4f} ms, "
          f"median {statistics.median(times) * 1e3:.4f} ms over {len(times)}")
