"""Measure one workload: set up, run a closed loop of repetitions, check.

:func:`measure` is what ``run.py`` (one workload per process) and the
smoke test call.  Untraced, it times back-to-back repetitions for the
requested seconds.  Traced, it first times untraced repetitions for part
of the budget (the base of ``trace.overhead``), then installs the layer
wrappers and runs traced repetitions for the rest.

The host these benchmarks run on is shared, and its speed drifts by tens
of percent within seconds.  A repetition is a sequence of steps (a
workload's ``run`` may be a generator that yields between steps).  Around
each untraced stretch of steps lasting at least
:data:`CALIBRATION_SEGMENT_S`, the harness times a fixed, stdlib-only
calibration workload and scales the stretch by the calibrations just
before and after it, to a host on which the calibration takes
:data:`REFERENCE_CALIBRATION_S`.  Set-up times are scaled by calibrations
taken right after the set-up.  The program never runs the calibration
code, so no change to the program can move the scale.

Every run makes at least two repetitions (:data:`MIN_REPS`), so every run
checks one repetition's output against another's.  A repetition fails
when it raises or when any of its output digests differs from the first
repetition's; failed repetitions count against ``attempted`` and are left
out of every timing.  After the loop the workload's reference digests (an
independent path to the same output) must match too.
"""

from __future__ import annotations

import gc
import hashlib
import inspect
import os
import random
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.obs.profile import peak_rss_kb

from .layers import LayerTracer
from .workloads import RepResult, Scale, Workload

#: Repetitions an untraced run makes, however short its budget.  A traced
#: run makes one untraced and one traced repetition at least.
MIN_REPS = 2
#: Share of a traced run's budget spent on untraced repetitions.
UNTRACED_SHARE = 0.4
#: Seconds :func:`calibrate` takes on the reference host (2-core Xeon VM,
#: Python 3.11, while the host is not contended).
REFERENCE_CALIBRATION_S = 0.05
_CALIBRATION_ROUNDS = 6500
#: Shortest stretch of steps one pair of calibrations scales.  Short steps
#: share a stretch, so calibrating costs a small share of a repetition.
CALIBRATION_SEGMENT_S = 0.5


def calibrate() -> float:
    """Seconds for a fixed mix of the interpreter work the program does:
    string formatting, dict inserts, ``random.Random`` seeding, BLAKE2b
    digests and a sort.

    The cyclic garbage collector is paused meanwhile: a collection
    triggered here would walk the program's heap, whose size differs by
    workload and by step, and the calibration would read that as a slower
    host.  Everything it allocates is freed by reference counting.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for index in range(_CALIBRATION_ROUNDS):
            key = f"https://host{index % 97}.example.com/path/{index}?q={index * 7}"
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()
            table[key] = (random.Random(index).random(), digest)
        sorted(table.items(), key=lambda item: item[1][0])
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def settled_calibration() -> float:
    """Median of three calibrations, for a one-off measurement."""
    return statistics.median(calibrate() for _ in range(3))


def at_reference_speed(seconds: float, calibration: float) -> float:
    """``seconds`` measured while :func:`calibrate` took ``calibration``,
    scaled to the reference host."""
    return seconds * REFERENCE_CALIBRATION_S / calibration


@dataclass
class Repetition:
    """One timed repetition and what it produced."""

    #: Seconds the repetition's steps took, calibrations excluded.
    wall: float
    #: The same at reference host speed (untraced repetitions only).
    scaled: float = 0.0
    #: CPU seconds of the process and its reaped children.
    cpu: float = 0.0
    result: Optional[RepResult] = None
    error: Optional[str] = None
    layers: Optional[Dict[str, float]] = None
    spans: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class Measurement:
    """Everything one :func:`measure` call observed."""

    workload: str
    seed: int
    traced: bool
    workers: int = 1
    repetitions: List[Repetition] = field(default_factory=list)
    traced_repetitions: List[Repetition] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    reference: Dict[str, str] = field(default_factory=dict)
    #: Set-up-side numbers a workload reports (``bundle.record.s``, ...).
    extra: Dict[str, float] = field(default_factory=dict)
    #: Set-up seconds at reference speed; ``run.py`` replaces the
    #: in-process sample with fresh processes' samples.
    setup_samples: List[float] = field(default_factory=list)
    #: Peak resident set size of the measuring process, set-up included.
    peak_rss_kb: int = 0

    @property
    def all_repetitions(self) -> List[Repetition]:
        return self.repetitions + self.traced_repetitions

    @property
    def attempted(self) -> int:
        return len(self.all_repetitions)

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.all_repetitions if rep.error is not None)

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0 and self.attempted > 0

    @property
    def host_factor(self) -> float:
        """How much slower than the reference host the repetitions ran."""
        ratios = [rep.wall / rep.scaled for rep in self.repetitions if rep.scaled]
        return statistics.median(ratios) if ratios else 1.0

    def successes(self, traced: bool = False) -> List[Repetition]:
        reps = self.traced_repetitions if traced else self.repetitions
        return [rep for rep in reps if rep.error is None and rep.result is not None]

    def first_result(self) -> Optional[RepResult]:
        for rep in self.all_repetitions:
            if rep.result is not None:
                return rep.result
        return None


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _steps(workload: Workload, state) -> Generator[None, None, object]:
    """The repetition as a generator of steps whose value is its output."""
    if inspect.isgeneratorfunction(workload.run):
        return (yield from workload.run(state))
    return workload.run(state)


def _timed(steps: Generator[None, None, object], calibrated: bool) -> Tuple[object, float, float]:
    """Run every step; returns the output, wall and reference seconds."""
    wall = scaled = segment = 0.0
    before = calibrate() if calibrated else 0.0
    while True:
        started = time.perf_counter()
        try:
            next(steps)
            output, done = None, False
        except StopIteration as stop:
            output, done = stop.value, True
        elapsed = time.perf_counter() - started
        wall += elapsed
        segment += elapsed
        if calibrated and (done or segment >= CALIBRATION_SEGMENT_S):
            after = calibrate()
            scaled += at_reference_speed(segment, (before + after) / 2)
            before, segment = after, 0.0
        if done:
            return output, wall, scaled


def _repetition(
    workload: Workload,
    state,
    expected: Optional[RepResult],
    tracer: Optional[LayerTracer],
) -> Repetition:
    # Collect leftovers of the previous repetition outside the timed region.
    gc.collect()
    if tracer is not None:
        tracer.reset()
    cpu_before = _cpu_seconds()
    try:
        output, wall, scaled = _timed(_steps(workload, state), calibrated=tracer is None)
    except Exception:  # a failing repetition is counted, not fatal
        return Repetition(0.0, error=traceback.format_exc())
    rep = Repetition(wall, scaled, _cpu_seconds() - cpu_before)
    if tracer is not None:
        # Snapshot before the untimed output checks add calls of their own.
        tracer.collect_workers()
        rep.layers = tracer.snapshot()
        rep.spans = list(tracer.spans)
    try:
        rep.result = workload.summarize(state, output)
    except Exception:
        rep.error = traceback.format_exc()
        return rep
    if expected is not None and rep.result.digests != expected.digests:
        differing = sorted(
            key
            for key in set(expected.digests) | set(rep.result.digests)
            if expected.digests.get(key) != rep.result.digests.get(key)
        )
        rep.error = f"digest mismatch against the first repetition: {', '.join(differing)}"
    return rep


def _loop(
    measurement: Measurement,
    workload: Workload,
    state,
    seconds: float,
    min_reps: int,
    tracer: Optional[LayerTracer] = None,
) -> None:
    into = measurement.traced_repetitions if tracer else measurement.repetitions
    started = time.perf_counter()
    while True:
        into.append(_repetition(workload, state, measurement.first_result(), tracer))
        if len(into) >= min_reps and time.perf_counter() - started >= seconds:
            return


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: Path,
    scale: Scale = Scale(),
) -> Measurement:
    """Set up ``workload`` once, then run repetitions for ``seconds``."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    state = workload.setup(seed, scale, work_dir)
    setup_seconds = time.perf_counter() - started
    measurement = Measurement(
        workload=workload.name,
        seed=seed,
        traced=trace,
        workers=workload.workers,
        extra=dict(getattr(state, "extra", {})),
        setup_samples=[at_reference_speed(setup_seconds, settled_calibration())],
    )
    try:
        if not trace:
            _loop(measurement, workload, state, seconds, MIN_REPS)
        else:
            # One repetition each at least: the traced repetitions are
            # then checked against an untraced one.
            _loop(measurement, workload, state, seconds * UNTRACED_SHARE, 1)
            layers_dir = work_dir / "layers"
            shutil.rmtree(layers_dir, ignore_errors=True)  # files a killed run left
            with LayerTracer(layers_dir) as tracer:
                _loop(measurement, workload, state, seconds * (1 - UNTRACED_SHARE), 1, tracer)
        measurement.errors.extend(
            f"repetition {index + 1}: {rep.error}"
            for index, rep in enumerate(measurement.all_repetitions)
            if rep.error is not None
        )
        first = measurement.first_result()
        if workload.reference is not None and first is not None:
            _check_reference(measurement, workload, state, first)
        measurement.peak_rss_kb = peak_rss_kb()
    finally:
        close = getattr(state, "close", None)
        if close is not None:
            close()
    return measurement


def _check_reference(measurement: Measurement, workload: Workload, state, first: RepResult) -> None:
    try:
        measurement.reference = workload.reference(state)
    except Exception:  # reported as a failed check, like a mismatch
        measurement.errors.append("reference failed:\n" + traceback.format_exc())
    for key, digest in measurement.reference.items():
        if first.digests.get(key) != digest:
            measurement.errors.append(
                f"{key} digest differs from the reference path "
                f"({first.digests.get(key)} != {digest})"
            )


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single sample repeats itself."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return list(statistics.quantiles(values, n=4))
