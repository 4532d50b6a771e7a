"""Benchmark: repro-lint over the whole package, serial vs parallel driver.

Asserts the two runs produce identical reports (the driver's determinism
guarantee), that the package is clean, and records both wall-clocks in
``bench_results/lint.txt``.  As with the crawl benchmarks, the speedup
assertion only binds on multi-core machines.
"""

from __future__ import annotations

import os
import pathlib
import time

import repro
from repro.devtools.lint import lint_project

from .conftest import emit

PACKAGE_DIR = str(pathlib.Path(repro.__file__).parent)
JOBS = 4


def _timed_lint(jobs: int):
    started = time.perf_counter()
    report = lint_project([PACKAGE_DIR], jobs=jobs)
    return report, time.perf_counter() - started


def test_bench_lint_walker():
    serial, serial_seconds = _timed_lint(jobs=1)
    parallel, parallel_seconds = _timed_lint(jobs=JOBS)

    assert serial == parallel
    assert serial.violations == [], [v.format() for v in serial.violations]
    assert serial.files_checked > 100

    ratio = serial_seconds / parallel_seconds if parallel_seconds else float("inf")
    lines = [
        f"files checked        : {serial.files_checked}",
        f"serial driver        : {serial_seconds:.3f}s",
        f"parallel driver (x{JOBS}): {parallel_seconds:.3f}s",
        f"speedup              : {ratio:.2f}x",
        f"cpu cores            : {os.cpu_count()}",
    ]
    emit("lint", "\n".join(lines))

    if (os.cpu_count() or 1) >= JOBS:
        # Process pool startup dominates at this scale on slow filesystems;
        # only require that parallelism is not catastrophically slower.
        assert parallel_seconds < serial_seconds * 3
