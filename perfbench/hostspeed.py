"""Host-speed sampling, so that timings compare across a drifting host.

On a shared VM the CPU speed available to one process drifts by tens of per
cent, in spells of seconds to minutes, while the program's work stays the
same.  ``HostSpeed`` samples that speed all through a timed phase: a timer
signal interrupts the process every ``interval`` seconds and times a tiny
fixed probe, whose code lives here and never changes with the program.  A
sample's *speed* is ``REFERENCE_PROBE_S`` over the probe's time, so 1.0 is
the reference host and 0.8 a host running 20 % slow.  A time ``t``
measured at mean speed ``s`` becomes ``t * s`` seconds of the reference
host.

The probe's own seconds are kept out of the program's timings: time blocks
with :func:`work_clock`, which stops while a timer probe runs.  A call too
short for the timer to sample is scaled by :meth:`HostSpeed.now` taken just
before and just after it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: Probe seconds on the reference host: the fastest decile of back-to-back
#: probes on an idle vCPU of a 2.1 GHz Xeon VM under Python 3.11.  Inside a
#: workload the probe shares the caches with the program and read speeds of
#: 0.6-0.9 there.
REFERENCE_PROBE_S = 0.00085

_INT_LOOPS = 4000
_FLOAT_LOOPS = 1500
_TABLE = list(range(256))

_probe_total = 0.0


def work_clock() -> float:
    """``time.perf_counter()`` minus every second spent in probes so far."""
    return time.perf_counter() - _probe_total


def _probe() -> float:
    """Fixed interpreter work in two equal halves: list indexing, integer
    arithmetic and dict stores, then float arithmetic and ``math`` calls.

    Neither half alone tracks the workloads: on the shared VM the program's
    log time rose 1.1-1.2 times as fast as the integer half's and 0.7-0.85
    times as fast as the float half's, and 0.9-1.0 times as fast as their sum.
    """
    table, store, acc = _TABLE, {}, 0
    for i in range(_INT_LOOPS):
        value = table[i & 255]
        acc = (acc + value * 3 ^ i) & 0xFFFFF
        store[value] = acc
    level = 0.0
    for i in range(_FLOAT_LOOPS):
        x = i * 0.001
        level = max(level * 0.5, math.exp(-x) + x * 1.5) - 0.25
    return acc + level


class HostSpeed:
    """Samples the host's speed on a timer while active (one per process)."""

    interval = 0.1

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        global _probe_total
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        _probe()
        elapsed = time.perf_counter() - started
        _probe_total += elapsed
        self.samples.append(REFERENCE_PROBE_S / elapsed)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the timer samples (1.0 when there are none)."""
        return statistics.fmean(self.samples) if self.samples else 1.0

    @staticmethod
    def now() -> float:
        """Speed right now: the median of three back-to-back probes.

        For timing a short call, where the timer samples few or none."""
        speeds = []
        for _ in range(3):
            started = time.perf_counter()
            _probe()
            speeds.append(REFERENCE_PROBE_S / (time.perf_counter() - started))
        return statistics.median(speeds)
