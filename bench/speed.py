"""Machine-speed sampling, so that times taken minutes apart compare.

On a 2-vCPU virtual machine shared with other tenants, the same pass of
work took 16 s in one run and 26 s in the next, and a fixed arithmetic
loop sped up and slowed down by a factor of two within seconds.  Raw
times from two sets of runs therefore differ by more than any change
worth measuring.

While a workload runs, a timer signal interrupts it every ``INTERVAL_S``
seconds and times a fixed reference kernel: exact Gauss-Jordan
inversion of a small Hilbert matrix, the same kind of ``Fraction``
arithmetic as the program's LP kernel.  The kernel is the benchmark's
own code, so a change to the program cannot speed it up.  Each
operation's time, less the time spent in the kernel, is then scaled by
``REFERENCE_S`` over the median kernel time in a window around the
operation.  The result is in reference seconds: the time the operation
would take on a machine where the kernel takes ``REFERENCE_S``, which is
about its median time on the machine above.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003
INTERVAL_S = 0.1
WINDOW_S = 1.0
_HILBERT = 7


def reference_kernel() -> None:
    n = _HILBERT
    rows = [[Fraction(1, i + j + 1) for j in range(n)]
            + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]


def kernel_seconds() -> float:
    """One timed kernel, after an untimed one that warms the caches."""
    reference_kernel()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel on SIGALRM while installed."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []     # when each sample began
        self.ends: list[float] = []
        self.kernel_s: list[float] = []   # the timed kernel of each sample
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel_s.append(kernel_seconds())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def inside(self, t0: float, t1: float) -> float:
        """Seconds spent in samples that began within [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def factor(self, t0: float, t1: float, window: float = WINDOW_S) -> float:
        """Median kernel time near [t0, t1] over ``REFERENCE_S``; all
        samples are used when none falls in the window."""
        if not self.kernel_s:
            raise RuntimeError("no speed sample was taken")
        lo = bisect.bisect_left(self.starts, t0 - window)
        hi = bisect.bisect_right(self.starts, t1 + window)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return statistics.median(near) / REFERENCE_S

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of an operation that ran from t0 to t1."""
        return (t1 - t0 - self.inside(t0, t1)) / self.factor(t0, t1)
