"""Host speed: a fixed reference computation timed next to the benchmark.

The benchmark runs on virtual machines whose cores are shared.  On 2 vCPUs
of a Xeon at 2.1 GHz (Python 3.11) the same work ran up to twice as slow
for seconds to minutes at a time, with CPU time equal to wall time.  So
every end-to-end time is measured together with this module's reference
computation and reported as seconds at reference speed: measured seconds
times ``REF_SECONDS`` over the reference's mean time meanwhile.

The reference is exact rational elimination on sparse dict rows, the kind
of work the package does; it does not call the package, so a change to the
package cannot move it.  The host's speed changes within seconds, so a
``Sampler`` takes a reference sample when a timed stretch starts, every
``PERIOD`` seconds during it (from a ``SIGALRM`` handler, in the same
thread), and when it ends.  The time spent in samples is kept out of every
measurement by ``work_clock``.

In a 4.5-minute recording on that host, hh(1,2), hc(3,1) and hh(1,3)
(1 to 8 s each) varied by up to 2.05 times as measured.  Against the mean
of their reference samples, log time had a slope of 0.94 to 0.99, and
scaling by the reference cut their spread (interquartile range over
median) from 0.21-0.34 to 0.05-0.06.  With samples only at the start and
end, the slope was 0.32 to 0.87 and the spread stayed at 0.13-0.35.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

REF_N = 16
REF_REPS = 3
PERIOD = 0.25
# one reference sample on the host above while it runs fast
REF_SECONDS = 0.004

_sampling = 0.0  # seconds spent in reference samples so far


def work_clock() -> float:
    """``time.perf_counter()`` minus the time reference samples took."""
    return time.perf_counter() - _sampling


def reference_work() -> Fraction:
    """Determinant of a fixed sparse REF_N x REF_N integer matrix by
    fraction-exact Gaussian elimination on dict rows."""
    n = REF_N
    rows = [
        {j: Fraction((3 * i + 5 * j) % 7 - 3 + 11 * (i == j)) for j in range(n) if (i + 2 * j) % 5}
        for i in range(n)
    ]
    det = Fraction(1)
    for c in range(n):
        r = next(r for r in range(c, n) if rows[r].get(c))
        if r != c:
            rows[c], rows[r] = rows[r], rows[c]
            det = -det
        piv = rows[c]
        det *= piv[c]
        for r in range(c + 1, n):
            f = rows[r].get(c)
            if f:
                f = f / piv[c]
                row = rows[r]
                for k, v in piv.items():
                    x = row.get(k, 0) - f * v
                    if x:
                        row[k] = x
                    else:
                        row.pop(k, None)
    return det


def reference_seconds() -> float:
    """The host's current speed: the fastest of REF_REPS reference runs.

    The cyclic garbage collector is off meanwhile: a collection set off by
    the reference's allocations would walk the heap the measured work left,
    and time that instead of the host.
    """
    global _sampling
    t_in = time.perf_counter()
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
        _sampling += time.perf_counter() - t_in
    return best


def at_reference_speed(seconds: float, ref: float) -> float:
    """``seconds`` measured while a reference sample took ``ref`` seconds."""
    return seconds * REF_SECONDS / ref


class Sampler:
    """Reference samples over one timed stretch; ``ref`` is their mean."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(reference_seconds())

    def __enter__(self):
        self.samples.append(reference_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_seconds())
        return False

    @property
    def ref(self) -> float:
        return sum(self.samples) / len(self.samples)
