"""Developer tooling for the ``repro`` package.

Nothing in this subpackage participates in a measurement: it exists to
*protect* the measurement code.  ``repro.devtools.lint`` is the static
analysis pass for the determinism invariants no test run can vary, and
:mod:`repro.devtools.clock` holds the one sanctioned wall-clock so that
timing in CLI glue stays injectable and testable.
"""

from __future__ import annotations

from .clock import Clock, FakeClock, Stopwatch, SystemClock

__all__ = ["Clock", "FakeClock", "Stopwatch", "SystemClock"]
