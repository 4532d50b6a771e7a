"""Run every perf workload, check outputs across workloads, and ledger them.

Usage, from the repository root::

    PYTHONPATH=src python -m benchmarks.perf [--seed N] [--workload NAME] [--seconds S]
    PYTHONPATH=src python -m benchmarks.perf compare P1.json C1.json [P2.json C2.json ...]

Each workload runs in its own child process (``run.py``), one workload at
a time: an untraced run for the end-to-end metrics, then a traced run for
the per-layer numbers.  The invocation prints every end-to-end metric by
name with its unit, writes ``results/latest.json``, appends one
``kind="benchmark"`` record per workload (label ``perf:<workload>``) to
``benchmarks/perf/ledger``, and exits 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Dict, List, Mapping, Optional

from repro import __version__
from repro.obs.ledger import RunLedger, RunRecord, config_hash

from . import compare, report
from .metrics import END_TO_END, phase_seconds
from .workloads import WORKLOADS, Scale

RUN_SCRIPT = report.PERF_DIR / "run.py"


def _result_line(stdout: str) -> Optional[Dict[str, object]]:
    """The JSON object ``run.py`` prints last, or None when it printed none."""
    lines = stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return line if isinstance(line, dict) and "correct" in line else None


def _child(name: str, seed: int, seconds: float, trace: int) -> Dict[str, object]:
    """Run one workload in a child process; returns its result payload.

    A child that prints no result line or leaves no fresh results file
    crashed, and ends the invocation.  Any other non-zero exit marks the
    run as incorrect.
    """
    results = report.RESULTS_DIR / f"run-{name}-trace{trace}.json"
    results.unlink(missing_ok=True)
    completed = subprocess.run(
        [sys.executable, str(RUN_SCRIPT), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=report.ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    sys.stderr.write(completed.stderr)
    line = _result_line(completed.stdout)
    if line is None or not results.is_file():
        raise SystemExit(f"{name} (trace={trace}) exited {completed.returncode} without a result")
    payload = json.loads(results.read_text(encoding="utf-8"))["workloads"][name]
    if payload["correct"] and (completed.returncode != 0 or not line["correct"]):
        payload["correct"] = False
        payload["errors"].append(f"run.py exited {completed.returncode} after a correct run")
    return payload


def _cross_checks(workloads: Mapping[str, Mapping[str, object]]) -> List[str]:
    """Digests that two workloads must share; returns the failures."""
    failures = []
    pairs = (("parallel", "crawl", "store"), ("parallel", "analyze", "dataset"))
    for left, right, digest in pairs:
        if left in workloads and right in workloads:
            ours = workloads[left]["digests"].get(digest)
            theirs = workloads[right]["digests"].get(digest)
            if ours != theirs:
                failures.append(f"{left} {digest} digest {ours} != {right} {theirs}")
    return failures


def _obs_overhead(workloads: Mapping[str, Mapping[str, object]]) -> float:
    """``observed`` seconds per visit over ``crawl`` seconds per visit,
    both at reference host speed."""
    if "crawl" not in workloads or "observed" not in workloads:
        return 0.0
    per_visit = {}
    for name in ("crawl", "observed"):
        timings = workloads[name]["timings"]
        seconds = timings["wall_s"]["median"] / timings["host_factor"]
        per_visit[name] = seconds / workloads[name]["counts"]["visits"]
    return per_visit["observed"] / per_visit["crawl"]


def ledger_record(name: str, seed: int, payload: Mapping[str, object]) -> RunRecord:
    scale = Scale()
    config = {
        "workload": name,
        "sites_per_bucket": scale.sites_per_bucket,
        "pages_per_site": scale.pages_per_site,
    }
    return RunRecord(
        kind="benchmark",
        label=f"perf:{name}",
        deterministic={
            "seed": seed,
            "config": config,
            "config_hash": config_hash(config),
            "code_version": __version__,
            "digests": payload["digests"],
            "counts": payload["counts"],
        },
        measured={
            "clock": "system",
            "wall_seconds": round(payload["timings"]["wall_s"]["median"], 6),
            "host_factor": round(payload["timings"]["host_factor"], 4),
            "visits_per_second": round(payload["metrics"]["visits_per_s"]["value"], 2),
            "peak_rss_kb": payload["peak_rss_kb"],
            "phase_seconds": phase_seconds(payload["layers"]),
        },
    )


def _parse(argv):
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seconds", type=float, default=15.0, help="per run (default 15)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = _parse(argv)
    if report.nproc_warning():
        print(report.nproc_warning(), file=sys.stderr)
    names = [args.workload] if args.workload else list(WORKLOADS)
    workloads: Dict[str, Dict[str, object]] = {}
    ok = True
    for name in names:
        payload = _child(name, args.seed, args.seconds, 0)
        traced = _child(name, args.seed, args.seconds, 1)
        payload["per_layer"] = traced["metrics"]
        payload["layers"] = traced["layers"]
        payload["traced_check"] = {
            key: traced[key] for key in ("correct", "attempted", "failed", "errors")
        }
        if traced["digests"] != payload["digests"]:
            payload["traced_check"]["errors"].append("traced digests differ from untraced")
            payload["traced_check"]["correct"] = False
        ok = ok and payload["correct"] and payload["traced_check"]["correct"]
        workloads[name] = payload
        for line in report.render(name, payload):
            print(line)
        shares = sorted(
            ((value, key) for key, value in traced["layers"].items() if key.endswith(".self_pct")),
            reverse=True,
        )
        print("  top self time (traced): " + ", ".join(
            f"{key[: -len('.self_pct')]} {value:.1f}%" for value, key in shares[:5]
        ))
    failures = _cross_checks(workloads)
    overhead = _obs_overhead(workloads)
    document = {
        "env": report.environment(args.seed),
        "workloads": workloads,
        "cross_checks": failures,
        "obs.overhead": overhead,
    }
    report.write_json(report.RESULTS_DIR / "latest.json", document)
    ledger = RunLedger(report.LEDGER_DIR)
    print()
    print(f"{'workload':<10}" + "".join(f"{m.name + ' (' + m.unit + ')':>22}" for m in END_TO_END))
    for name, payload in workloads.items():
        values = "".join(f"{payload['metrics'][m.name]['value']:>22.4f}" for m in END_TO_END)
        print(f"{name:<10}{values}")
        run_id = ledger.append(ledger_record(name, args.seed, payload))
        print(f"  ledger perf:{name} -> {run_id[:12]}")
    if overhead:
        print(f"obs.overhead: {overhead:.3f}x (observed s/visit over crawl s/visit)")
    for failure in failures:
        print(f"cross-check failed: {failure}")
    print(f"results: {report.RESULTS_DIR / 'latest.json'}")
    return 0 if ok and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
