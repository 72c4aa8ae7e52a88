"""Host-speed probe: scales measured times to one fixed interpreter speed.

On a shared host a fixed Python loop runs at one speed for tens of seconds
and up to 40% faster or slower for the next, whatever the program does.
Every timed run then reads the host's phase as much as the program.  The
probe samples the host's speed while the program runs: an interval timer
interrupts it every ``PERIOD_S`` and the signal handler times one pass of
``reference()``, a fixed loop of exact rational arithmetic and dict stores
(the kind of work the package's hot paths do).  The handler's own time is
kept apart and taken out of every measured time.

A time ``t`` measured while the reference loop took ``r`` seconds on
average is reported as ``t * REF_S / r``: seconds on a host on which the
reference loop takes ``REF_S``.  A change to the program moves ``t`` and
not ``r``, so it shows in full; a change of host speed moves both.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time
from fractions import Fraction

REF_S = 1e-3  # reported times are seconds at this reference-loop time
PERIOD_S = 0.02
WINDOW_S = 0.25  # an op is scaled by the samples this close to its middle


def reference() -> Fraction:
    """The fixed reference loop, about 1 ms on one 2-vCPU sandbox core."""
    total = Fraction(0)
    table = {}
    for i in range(1, 300):
        total = total + Fraction(i % 7, i % 5 + 1)
        table[(i & 31, i & 3)] = total
    return total


def time_reference() -> float:
    """Seconds of one reference pass, with the garbage collector held off.

    A collection started by the loop's allocations would charge it for the
    program's heap, and so make a program that holds more memory read faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples ``time_reference()`` every ``PERIOD_S`` while it is running.

    ``handler_s`` is the total time spent in the signal handler; a caller
    subtracts its growth over a timed interval from that interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampled_at: list[float] = []
        self.handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(time_reference())
        self.sampled_at.append(start)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor from measured seconds to seconds at ``REF_S``."""
        if not self.samples:  # shorter than one period: sample once now
            self._tick(None, None)
        return REF_S / math.fsum(self.samples) * len(self.samples)

    def scale_near(self, moment: float) -> float:
        """The scale from the samples within ``WINDOW_S`` of ``moment``.

        The host's speed drifts within a unit of seconds, so a short op is
        scaled by the speed around it rather than by the unit's mean.
        """
        lo = bisect.bisect_left(self.sampled_at, moment - WINDOW_S)
        hi = bisect.bisect_right(self.sampled_at, moment + WINDOW_S)
        if lo == hi:
            return self.scale()
        return REF_S / math.fsum(self.samples[lo:hi]) * (hi - lo)
