"""Host-speed normalisation of measured times.

The host this benchmark was built on runs the same pure-Python loop up to
a third faster or slower from one five-second window to the next, and
process CPU time follows wall time, so the drift is in the speed of the
processor itself.  While a round runs, a SIGALRM handler times one fixed
reference slice (dict, tuple and integer work, as in the program) every
``INTERVAL_S`` of wall time.  A measured interval then loses the time its
own samples took, and is multiplied by ``REFERENCE_S`` over the mean slice
time of the samples within ``WINDOW_S`` of it.  Times are thereby expressed
at the host speed at which one slice takes ``REFERENCE_S``, and a check
that runs for seconds is normalised by the samples taken while it ran.

On that host the ratio of program time to slice time varied by 7% across
five-second windows while program time alone varied by 38%.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

REFERENCE_S = 0.001
INTERVAL_S = 0.1
WINDOW_S = 0.5


def _reference_work() -> int:
    table: dict[tuple[int, int], int] = {}
    for j in range(5000):
        key = (j % 61, j % 7)
        table[key] = table.get(key, 0) + (j * j) % 13
    return len(table)


class Sampler:
    """Samples the host speed from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        _reference_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self):
        for _ in range(3):  # let the interpreter specialise the slice
            _reference_work()
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        return False

    def normalise(self, start: float, end: float) -> float:
        """The interval [start, end] without the samples taken inside it,
        at the reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        mean = sum(self.durations[lo:hi]) / (hi - lo)
        return own * REFERENCE_S / mean
