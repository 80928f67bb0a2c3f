"""Machine-speed gauge: a fixed pure-Python loop timed while the workload runs.

On the shared 2-CPU VM this benchmark was built on, one and the same
``integrate`` call took anywhere from 31 to 74 ms within a minute, with CPU
time equal to wall time: other tenants of the host change how fast this
process runs, in phases lasting from a second to tens of seconds.  The
reference loop below (a fixed RK4 integration of a damped pendulum that
shares no code with cmcflow) slows down with them.  Timed side by side, the ratio of an ``integrate`` call
to the loop moved by about 4% over stretches in which the raw call time moved
by 50%.

While ``sampling`` is active, a timer signal interrupts the workload every
INTERVAL_S and times one short loop.  An operation's time is then reported
without those readings and normalised to a fixed machine speed: raw time x
REFERENCE_S / (mean loop time around the operation), the time it would take
where the loop takes REFERENCE_S.  Raw times are kept in the run record next
to the normalised ones.
"""

from __future__ import annotations

import contextlib
import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# A round figure near the loop's time in the fast phases of the 2-CPU VM
# (Python 3.11.7) the bounds were set on; normalised times are in seconds of
# a machine where the loop takes this long.
REFERENCE_S = 0.001
INTERVAL_S = 0.1
NEIGHBOURS = 2
_STEPS = 270
_H = 0.01


def _pendulum(t, u):
    x, v = u
    return v, -math.sin(x) - 0.1 * v


def reference_loop():
    u = (1.0, 0.0)
    t = 0.0
    h = _H
    f = _pendulum
    for _ in range(_STEPS):
        k1 = f(t, u)
        k2 = f(t + 0.5 * h, tuple(u[i] + 0.5 * h * k1[i] for i in range(2)))
        k3 = f(t + 0.5 * h, tuple(u[i] + 0.5 * h * k2[i] for i in range(2)))
        k4 = f(t + h, tuple(u[i] + h * k3[i] for i in range(2)))
        u = tuple(
            u[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in range(2)
        )
        t += h
    return u


class Gauge:
    """Reference-loop readings in time order: when each ended, how long it took."""

    def __init__(self):
        self.ends: list[float] = []
        self.loops: list[float] = []

    def read(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.ends.append(t1)
        self.loops.append(t1 - t0)

    def _on_alarm(self, _signum, _frame) -> None:
        self.read()

    @contextlib.contextmanager
    def sampling(self):
        """Read every INTERVAL_S, interrupting whatever the main thread runs."""
        self.read()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.read()

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """Raw and normalised time of [t0, t1], less the readings taken in it.

        The speed is the mean over the readings inside [t0, t1] and the
        NEIGHBOURS readings on either side; it needs at least one on each side.
        """
        lo = bisect_left(self.ends, t0)
        hi = bisect_right(self.ends, t1)
        raw = t1 - t0 - math.fsum(self.loops[lo:hi])
        around = self.loops[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        return raw, raw * REFERENCE_S * len(around) / math.fsum(around)
