"""Machine-speed calibration for the untraced runs.

On a shared host the speed a process gets changes by up to about 1.8x, in
phases from a fraction of a second up to minutes, and its wall and CPU
time grow alike.  While a run measures, an interval timer therefore
interrupts the process every `INTERVAL_S`, and the signal handler runs a
fixed calibration kernel, independent of evogrid, twice, timing the second
call.  The first call refills the cache the program evicted; without it
the kernel time would follow the program's memory use, not the machine's
speed.  Python runs the handler between bytecodes, so the kernel samples
the speed all through each operation, however long it is.

`Speedometer.clock()` is `time.perf_counter()` minus the time spent in the
handler, so the kernel's own time stays out of every sample.  A sample
that took `d` by that clock is scaled to `d * REF_KERNEL_S / k`, where `k`
is the mean timed kernel call during the sample (or, for a sample shorter
than a few ticks, around it).  That is its time at the reference speed.

The kernel mixes what evogrid spends its time on: tuple and dict work on
small label tuples in pure Python, and a small complex matrix product and
spectral norm in numpy.  It reads no seed, so it is the same for every
workload and seed and for every version of evogrid.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Median timed kernel call over the benchmark's tuning runs on the reference
# machine (2-vCPU VM, Python 3.11.7, numpy 2.4.6 with OpenBLAS pinned to 1
# thread), so that scaled times there read about like measured ones.
REF_KERNEL_S = 0.000533
INTERVAL_S = 0.02
# A sample is scaled by at least this many kernel calls, the nearest ones in
# time when fewer fall inside it.
MIN_TICKS = 8


class Kernel:
    """Fixed calibration work: pure-Python label plumbing plus small LAPACK."""

    def __init__(self):
        rng = np.random.default_rng(20061)
        self.labels = [tuple(int(v) for v in rng.integers(0, 12, size=6)) for _ in range(256)]
        self.matrix = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / 4.0

    def __call__(self) -> float:
        index: dict[tuple, int] = {}
        for label in self.labels:
            key = tuple(sorted(label))
            index[key] = index.get(key, 0) + key.index(label[0]) + len(set(label))
        x = self.matrix @ self.matrix.conj().T
        return float(sum(index.values())) + float(np.linalg.norm(x, 2))


class Speedometer:
    """Runs the kernel on a timer and scales samples to the reference speed.

    Use as a context manager: the timer runs inside the `with` block, and
    the previous SIGALRM handler and timer are restored on the way out.
    """

    def __init__(self):
        self.kernel = Kernel()
        self.stolen = 0.0  # time spent in the handler so far
        self.ticks: list[float] = []  # clock() at each kernel call, ascending
        self.times: list[float] = []  # duration of each timed kernel call
        self._busy = False
        self._saved = None

    def clock(self) -> float:
        """perf_counter() less the time spent in the calibration handler."""
        return time.perf_counter() - self.stolen

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the handler is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.kernel()  # brings the kernel's data back into cache
            warm = time.perf_counter()
            self.kernel()
            end = time.perf_counter()
            self.ticks.append(start - self.stolen)
            self.times.append(end - warm)
            self.stolen += end - start
        finally:
            self._busy = False

    def __enter__(self) -> Speedometer:
        self.kernel()  # first-call costs stay out of the samples
        self._tick(signal.SIGALRM, None)  # so that every sample has a tick to go by
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def factor(self, start: float, end: float) -> float:
        """Scale for a sample that ran from `start` to `end` by `clock()`."""
        lo = bisect.bisect_left(self.ticks, start)
        hi = bisect.bisect_right(self.ticks, end)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(self.ticks)):
            if lo > 0:
                lo -= 1
            if hi < len(self.ticks):
                hi += 1
        return REF_KERNEL_S / statistics.fmean(self.times[lo:hi])
