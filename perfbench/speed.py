"""Machine speed probe: scale times measured in a slow phase back to the
reference speed.

The reference machine (a 2-vCPU virtual machine on a shared host) slows
as a whole by up to about 2x, in phases that last from a fraction of a
second to minutes.  Process CPU time slows with the wall clock, and
pinning the process to either core does not help, so no statistic of the
program's own times removes a slow phase that covers much of a run.  A
fixed pure-Python loop slows in step with the program: over a minute of
4 ms engine calls, each bracketed by two runs of this probe, the log of
the call time followed the log of the probe time with slope 1.0
(correlation 0.83).

`Meter.timed()` measures one call: its wall seconds and its seconds at
the reference speed.  The probe runs before and after the
call and, from a SIGALRM timer, every SAMPLE_S seconds during it; the
probes' own time is left out of the call's.  (The traced run probes only
around calls, so that no probe lands inside a layer's span.)  Each stretch between two
readings counts its wall time times REFERENCE_PROBE_S over the mean of
the two readings, so on the reference machine in a fast phase the
factor is about 1.  The probe uses only the standard library, so a
change to the program cannot move it.
"""

from __future__ import annotations

import gc
import json
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# probe() on the reference machine in a fast phase (Python 3.11.7).
REFERENCE_PROBE_S = 0.0033
PROBE_REPEATS = 2
# A reading younger than FRESH_S is reused at the start of the next call,
# so runs of short calls share readings; probes during a call come every
# SAMPLE_S.  Together they keep the probe at a few percent of a run.
FRESH_S = 0.05
SAMPLE_S = 0.1


def _loop() -> int:
    """Tuples, dicts, small ints, exact fractions and JSON text: the mix
    the engine's chart, blowup and trace code runs."""
    rows = [(i % 97, i * 7 % 101, i % 13) for i in range(3000)]
    counts: dict[tuple[int, int, int], int] = {}
    for row in rows:
        counts[row] = counts.get(row, 0) + 1
    total = sum(Fraction(a + 1, c + 1) for a, _, c in rows[:60])
    return len(json.dumps(sorted(counts.items()))) + total.numerator


def probe() -> float:
    """Seconds for one pass of the loop, the best of PROBE_REPEATS, with
    the collector off so the program's heap does not enter the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            _loop()
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    wall_s: float = 0.0
    reference_s: float = 0.0


class Meter:
    """Probe readings on a clock that stops while the probe runs."""

    def __init__(self, sample_s: float | None = SAMPLE_S) -> None:
        """`sample_s=None` probes only around calls, never inside them."""
        self.sample_s = sample_s
        self.probing_s = 0.0  # wall time spent in probes so far
        self.last_at = float("-inf")  # work-clock time of the last reading
        self.last = 0.0
        self.readings: list[float] = []

    def _clock(self) -> float:
        return perf_counter() - self.probing_s

    def _read(self) -> tuple[float, float]:
        t0 = perf_counter()
        self.last = probe()
        self.readings.append(self.last)
        self.probing_s += perf_counter() - t0
        self.last_at = self._clock()
        return self.last_at, self.last

    @contextmanager
    def timed(self):
        """Time the body.  The wall seconds leave out the probes run
        during it."""
        timing = Timing()
        if self._clock() - self.last_at >= FRESH_S:
            self._read()
        points = [(self._clock(), self.last)]

        def sample(signum, frame):
            points.append(self._read())

        if self.sample_s is None:
            yield timing
        else:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
            try:
                yield timing
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        end = self._clock()
        if end - self.last_at >= FRESH_S:
            self._read()
        points.append((end, self.last))
        timing.wall_s = end - points[0][0]
        timing.reference_s = sum(
            (t1 - t0) * 2 * REFERENCE_PROBE_S / (r0 + r1)
            for (t0, r0), (t1, r1) in zip(points, points[1:]))
