"""Developer tooling for the ``repro`` package.

Nothing in this subpackage participates in a measurement.
:mod:`repro.devtools.clock` holds the one sanctioned wall-clock so that
timing in CLI glue stays injectable and testable.
"""

from __future__ import annotations

from .clock import Clock, FakeClock, Stopwatch, SystemClock

__all__ = ["Clock", "FakeClock", "Stopwatch", "SystemClock"]
