"""Injectable clocks: the one place the package may read wall-clock time.

The determinism contract forbids ``time.time()`` / ``datetime.now()``
in library code because wall-clock reads make output depend on the
machine running it; a reading that reaches a stored visit or a span
fails the golden digests and the FakeClock telemetry tests.  Code that
genuinely needs elapsed-time reporting — CLI glue printing "finished in
3.2s" — takes a :class:`Clock` argument instead and defaults to
:class:`SystemClock`; tests inject a :class:`FakeClock` and get stable
output.

Simulated *measurement* time is a different thing entirely and lives in
the browser engine's visit clock; this module is only about real,
operator-facing timing.
"""

from __future__ import annotations

import time
from typing import Optional


class Clock:
    """Minimal clock interface: a monotonically non-decreasing ``now()``."""

    def now(self) -> float:
        raise NotImplementedError


class SystemClock(Clock):
    """The sanctioned real clock (monotonic, for measuring durations)."""

    def now(self) -> float:
        return time.perf_counter()  # the one sanctioned wall-clock read


class FakeClock(Clock):
    """A hand-cranked clock for tests: time moves only via :meth:`advance`."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards: {seconds}")
        self._now += seconds


class Stopwatch:
    """Measures elapsed time against an injectable clock.

    >>> clock = FakeClock()
    >>> watch = Stopwatch(clock)
    >>> clock.advance(2.5)
    >>> watch.elapsed()
    2.5
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock if clock is not None else SystemClock()
        self._start = self._clock.now()

    def elapsed(self) -> float:
        return self._clock.now() - self._start

    def restart(self) -> None:
        self._start = self._clock.now()
