"""Sample the machine's speed through a run, so that timings can be
scaled to a nominal speed.

On a shared host the same code runs up to a third faster or slower from
one minute to the next, as other tenants come and go, and that drift
moves every timing taken at the time together: no repetition inside a
run removes it.  So the measured process times a fixed pure-Python loop
(the probe) every ``INTERVAL_S`` seconds, from a timer signal, and each
timing is reported as

    reported = measured * NOMINAL_S / median(probes around the timing)

where the probes around a timing are those from ``WINDOW_S`` before it
began to ``WINDOW_S`` after it ended: the time the work would take on a
machine where the probe takes ``NOMINAL_S``.  A 30 s analysis is sampled
as densely as thirty 1 s ones, and the time the probes take is left out
of every timing.  The loop runs no csgroups code, so a change to csgroups
moves reported times exactly as it moves measured ones.  A change that
slowed the interpreter itself, such as a thread left running, would slow
the probe too and would not show.
"""

from __future__ import annotations

import signal
import statistics
import time

ITERATIONS = 50_000
INTERVAL_S = 0.25
WINDOW_S = 1.0
# median probe time on the machine the baseline was measured on (2 cores,
# "Intel(R) Xeon(R) Processor", Python 3.11.7)
NOMINAL_S = 0.0046


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc ^= i * i
    return time.perf_counter() - t


class Sampler:
    """Runs a probe every ``INTERVAL_S`` seconds between ``start`` and
    ``stop``, and keeps a clock that leaves the probes' time out."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (clock() at start, seconds)
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.probes.append((t - self.spent, probe()))
        self.spent += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probes.append((self.clock(), probe()))  # so that even a short run has one

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in probes."""
        return time.perf_counter() - self.spent

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """The factor that scales a timing from ``start`` to ``end`` (readings
        of ``clock``) to the nominal speed; without them, the whole run's."""
        near = [] if start is None else [
            seconds for t, seconds in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        return NOMINAL_S / statistics.median(near or [seconds for _, seconds in self.probes])
