"""Run one perf workload and print its metrics.

Usage, from the repository root::

    python3 benchmarks/perf/run.py --workload crawl --seed 2023 --seconds 15 --trace 0

With ``--trace 0`` the run times untraced repetitions and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of traced repetitions.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result lands in
``benchmarks/perf/results/run-<workload>-trace<0|1>.json`` and, traced,
the coarse spans in ``results/trace-<workload>.jsonl``.

``setup_s`` is the median of three fresh processes that each import the
program and build the workload's inputs, each scaled to reference host
speed by a calibration taken right after (see ``harness.py``).  The exit
status is 1 when any output check failed, and 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORK_DIR = Path(__file__).resolve().parent / "results" / "work"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("crawl", "analyze", "observed", "parallel")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe_seconds(workload: str, seed: int) -> float:
    """Spawn-to-inputs-ready time of one fresh process, at reference speed."""
    from benchmarks.perf.harness import at_reference_speed

    spawned = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{completed.stderr}")
    # The probe prints the (system-wide monotonic) clock when its inputs
    # were ready, so interpreter teardown stays out of the sample, and
    # the calibration it took right after.
    ready, calibration = map(float, completed.stdout.split()[-2:])
    return at_reference_speed(ready - spawned, calibration)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    work_dir = WORK_DIR / args.workload
    tmp_dir = work_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    # Scratch files of the program (shard stores, snapshots) stay in the checkout.
    os.environ["TMPDIR"] = str(tmp_dir)
    tempfile.tempdir = str(tmp_dir)
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

    from benchmarks.perf import report
    from benchmarks.perf.harness import measure, settled_calibration
    from benchmarks.perf.workloads import WORKLOADS, Scale

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed, Scale(), work_dir / "probe")
        ready = time.perf_counter()
        print(repr(ready), repr(settled_calibration()), flush=True)
        os._exit(0)

    warning = report.nproc_warning()
    if warning and workload.workers > 1:
        print(warning, file=sys.stderr)
    setup_samples = (
        [] if args.trace else [_setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    )
    measurement = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    if setup_samples:
        measurement.setup_samples = setup_samples
    payload = report.workload_payload(measurement, args.seconds)
    report.write_json(
        report.RESULTS_DIR / f"run-{args.workload}-trace{args.trace}.json",
        {"env": report.environment(args.seed), "workloads": {args.workload: payload}},
    )
    if args.trace:
        report.write_spans(report.RESULTS_DIR / f"trace-{args.workload}.jsonl", measurement)
    for line in report.render(args.workload, payload):
        print(line)
    print(
        json.dumps(
            {
                "correct": payload["correct"],
                "attempted": payload["attempted"],
                "failed": payload["failed"],
                "metrics": payload["metrics"],
            }
        )
    )
    return report.exit_status(payload)


if __name__ == "__main__":
    sys.exit(main())
