"""The host's speed, sampled while the benchmark runs, to scale its times.

The benchmark gets a few cores of a shared host, whose speed swings by up to
about 1.9 times over spells of a few seconds to minutes, as other tenants
come and go.  A case's raw time follows those swings, and so does the time
of a small fixed reference kernel.  While cases run, a timer signal times
the kernel every ``INTERVAL`` seconds; a case's time is then scaled by
``REFERENCE_S`` over the mean kernel time around the case, which gives the
seconds the case would take with the host at the speed where the kernel
takes ``REFERENCE_S``.  The kernel does the same kind of work as the
package (small dicts of exponents, tuples, sorting and ``Fraction``
arithmetic) so that it slows by about as much.  The time spent in the
kernel is left out of the case's time.

The kernel is timed in the CPU time of its thread, with the garbage
collector off: time the kernel waits for a core or for the interpreter lock
while the program's own threads or worker processes run does not count, and
neither does the program's heap.  (Sampling only between cases avoids the
program's work too, but follows the host much less closely during a case of
a few seconds.)  The kernel is part of the benchmark and never changes with
the program, so a faster program shows as fully in scaled times as in raw
ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, thread_time
from typing import Callable

# Seconds between two samples of the kernel while cases run.
INTERVAL = 0.04
# The kernel's time on the 2-vCPU x86-64 host the benchmark was defined on,
# with Python 3.11, in its fast spells; it only sets the scale of the
# reported seconds, which are then about the wall seconds of such a spell.
REFERENCE_S = 0.00035
# Samples around a case that its scale is the mean of: those within
# ``WINDOW_S`` of it, or more if there are fewer than ``MIN_SAMPLES``.
WINDOW_S = 0.25
MIN_SAMPLES = 8
# A sample longer than this many times the run's median sample was cut off
# by something other than the host's speed (a preemption, say), and counts
# as this long.
CLIP = 3.0
# Kernel samples taken just before and just after a time measured elsewhere.
AROUND_SAMPLES = 8

_EXPONENTS = [{v: (i + v) % 3 + 1 for v in range(i % 4 + 1)} for i in range(30)]


def reference() -> tuple[int, Fraction]:
    """A fixed kernel of the kind of work the package does: multiply small
    exponent dicts, sort the results, and add fractions."""
    size = 0
    for a in _EXPONENTS:
        for b in _EXPONENTS[:10]:
            c = dict(a)
            for v, e in b.items():
                c[v] = c.get(v, 0) + e
            size += len(tuple(sorted(c.items())))
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 5 - 2, i)
    return size, total


def _time_reference() -> float:
    """Thread CPU time of the kernel's second of two runs: the first brings
    its code and data back into the caches, so that the time follows the
    host's speed and not what the program left in the caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        start = thread_time()
        reference()
        return thread_time() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Samples of the kernel's time, and the timed intervals to scale."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.intervals: list[tuple[float, float, float]] = []  # (start, end, seconds)
        self.spent = 0.0  # wall seconds spent sampling so far

    def _sample(self, *_) -> None:
        start = perf_counter()
        self.samples.append((start, _time_reference()))
        self.spent += perf_counter() - start

    def start(self) -> None:
        """Sample every ``INTERVAL`` seconds from now on."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, run: Callable[[], object]) -> tuple[object, float]:
        """Call ``run``; return its result and its wall time less the
        sampling, and keep the interval for ``scaled``.  An exception
        ``run`` raises is returned as its result."""
        spent = self.spent
        start = perf_counter()
        try:
            out = run()
        except Exception as exc:  # every failure is counted, none skipped
            out = exc
        end = perf_counter()
        seconds = end - start - (self.spent - spent)
        self.intervals.append((start, end, seconds))
        return out, seconds

    def around(self, run: Callable[[], float]) -> float:
        """Seconds that ``run`` measures outside this process (a child's
        CPU time), scaled by the median of ``AROUND_SAMPLES`` kernel times
        taken just before and ``AROUND_SAMPLES`` just after it."""
        took = [_time_reference() for _ in range(AROUND_SAMPLES)]
        seconds = run()
        took += [_time_reference() for _ in range(AROUND_SAMPLES)]
        return seconds * REFERENCE_S / statistics.median(took)

    def scaled(self) -> list[float]:
        """Every timed interval's seconds at the reference speed, in order."""
        starts = [t for t, _ in self.samples]
        cap = CLIP * statistics.median(d for _, d in self.samples)
        took = [min(d, cap) for _, d in self.samples]
        out = []
        for start, end, seconds in self.intervals:
            pad = WINDOW_S
            while True:
                lo = bisect_left(starts, start - pad)
                hi = bisect_right(starts, end + pad)
                if hi - lo >= MIN_SAMPLES or hi - lo == len(starts):
                    break
                pad *= 2
            out.append(seconds * REFERENCE_S / statistics.fmean(took[lo:hi]))
        return out
