"""In-process processor speed probe, to correct timings on a shared machine.

On a small shared host the same Python code runs at two or more speeds
that alternate every few seconds (measured here: a fast mode and a mode
about 1.8x slower, in runs of 1 to 10 s), so raw medians of 25-second runs
differ by 20-30% from run to run.  The probe runs a fixed reference
computation (exact ``Fraction`` arithmetic into a dict, the kind of work the
engine does) from a ``SIGALRM`` timer every few milliseconds, in this
process and thread, and records how long each one took.

``corrected(start, end, first, last)`` turns a raw interval into its time at
a fixed reference speed: the interval minus the probe's own time inside it,
times ``REFERENCE_S`` over the mean probe duration of the samples inside it
and the two on either side of it (so an item shorter than the probe
interval still has samples).  Scaling to a constant rather than to the
run's own fastest samples also cancels slow drifts that move the whole
machine.  A change to the program cannot move the reference, so a faster
program still reads faster.  Both raw and corrected values are printed;
the JSON carries the corrected ones.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.005
# Duration of one reference() at the speed timings are scaled to: about its
# fast-mode duration on the 2-vCPU machine the baseline was taken on.
REFERENCE_S = 0.0004
_TERMS = [Fraction(k + 1, k % 3 + 2) for k in range(12)]


def reference() -> dict:
    acc: dict = {}
    for a in _TERMS:
        for b in _TERMS:
            key = (a.numerator * b.denominator) % 7
            acc[key] = acc.get(key, 0) + a * b
    return acc


class SpeedProbe:
    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # A collection of the program's heap triggered by the reference's
        # own allocations would be timed as a slow processor.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference()
        self.durations.append(perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Index of the next probe sample; bracket an interval with two marks."""
        return len(self.durations)

    def corrected(self, start: float, end: float, first: int, last: int) -> float:
        """Interval [start, end] with probe samples [first, last), at reference speed.

        Call only after the probe has stopped, so the samples after the
        interval exist.
        """
        busy = end - start - sum(self.durations[first:last])
        window = self.durations[max(0, first - 2):last + 2] or [REFERENCE_S]
        return busy * REFERENCE_S * len(window) / sum(window)
