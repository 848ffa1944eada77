"""A clock that measures time at a fixed reference speed of the host.

The benchmark runs on a few cores of a shared host whose speed is not its
own: when other tenants load the cores it shares, the same Python code runs
up to about twice as slowly, in phases that last from a fraction of a second
to minutes.  Process CPU time slows just as much, so it is no remedy.

`SteadyClock` samples the host's speed every `PERIOD_S` seconds with a
signal timer: it times `reference()`, a fixed loop of the kinds of work the
program does (dictionary lookups on tuple keys, big-integer bit operations,
calls), and takes the speed as `NOMINAL_S` divided by the median of the last
three samples.  The clock advances by elapsed seconds times that speed, so
one second of it is the time that work takes when `reference()` runs in
`NOMINAL_S`.  The time spent in the sampling itself is left out.

The reference is part of the benchmark, never of the program, so a change
to the program moves the clock's readings and a change of the host's speed
does not, as far as the program slows by the same factor as the reference.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

# The source of `reference()`, shared with the set-up probe, which must
# time it in a fresh interpreter without importing this module.
REFERENCE_SOURCE = """\
_REF_BITS = (1 << 2048) - 0x9E3779B97F4A7C15
_REF_TABLE = {(i, i & 3): i * 0x9E37 for i in range(256)}


def _ref_step(bits, key):
    return (bits ^ (bits >> 7)) & _REF_BITS, _REF_TABLE[key]


def reference():
    acc, bits = 0, _REF_BITS
    for i in range(96):
        j = (i * 37) & 255
        bits, value = _ref_step(bits, (j, j & 3))
        acc ^= value
    return acc, bits


def time_reference(repeats=3):
    # The least of a few timings: an interrupt only ever adds time.
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best
"""
exec(REFERENCE_SOURCE)

# `reference()` time that defines a clock second: its median in the usual
# contended state of the 2-vCPU Intel Xeon virtual machine where the
# benchmark was defined (about 40 us when uncontended).
NOMINAL_S = 80e-6
PERIOD_S = 0.01


def speed_of(samples) -> float:
    """Host speed relative to the reference, from `reference()` timings."""
    return NOMINAL_S / statistics.median(samples)


class SteadyClock:
    """Seconds at the reference speed; use as a context manager.

    Inside the `with` block, `now()` reads the clock.  The block installs a
    SIGALRM handler and an interval timer, and removes both on exit.
    """

    def __init__(self):
        self._samples: deque[float] = deque(maxlen=3)
        self._state = (0.0, time.perf_counter(), 1.0)  # (value, since, speed)
        self._previous_handler = None

    def __enter__(self) -> "SteadyClock":
        for _ in range(3):
            self._samples.append(time_reference(1))  # noqa: F821 (from REFERENCE_SOURCE)
        self._state = (0.0, time.perf_counter(), speed_of(self._samples))
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        value, since, speed = self._state
        value += (start - since) * speed
        self._samples.append(time_reference(1))  # noqa: F821
        # One tuple assignment, so that `now()` never sees half an update.
        self._state = (value, time.perf_counter(), speed_of(self._samples))

    def now(self) -> float:
        value, since, speed = self._state
        return value + (time.perf_counter() - since) * speed
