"""Result files and printed tables of the perf harness.

One run of one workload is summarized as a JSON document::

    {"env": {...}, "workloads": {"<name>": {...}}}

``run.py`` writes one such file per run; ``python -m benchmarks.perf``
merges the runs of one invocation into ``results/latest.json``, and
``compare`` reads either kind.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

from .harness import Measurement, quartiles
from .metrics import END_TO_END, PER_LAYER, layer_summary, metrics
from .workloads import PARALLEL_WORKERS

ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = Path(__file__).resolve().parent
RESULTS_DIR = PERF_DIR / "results"
LEDGER_DIR = PERF_DIR / "ledger"

UNITS: Dict[str, str] = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}


def git_head() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            # Never resolve a repository above the checkout.
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "git_head": git_head(),
        "seed": seed,
    }


def nproc_warning() -> str:
    """Non-empty when the host has fewer cores than the parallel workload uses."""
    cores = os.cpu_count() or 1
    if cores >= PARALLEL_WORKERS:
        return ""
    return (
        f"warning: nproc={cores} is below the parallel workload's "
        f"{PARALLEL_WORKERS} workers; its numbers measure oversubscription"
    )


def _timing(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def workload_payload(measurement: Measurement, seconds: float) -> Dict[str, object]:
    """The result document of one run of one workload."""
    ok = measurement.successes()
    first = measurement.first_result()
    payload: Dict[str, object] = {
        "seed": measurement.seed,
        "traced": measurement.traced,
        "seconds": seconds,
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "fail_ratio": measurement.failed / measurement.attempted if measurement.attempted else 0.0,
        "errors": measurement.errors,
        "peak_rss_kb": measurement.peak_rss_kb,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in metrics(measurement).items()
        },
        "timings": {
            "wall_s": _timing([rep.wall for rep in ok]),
            "setup_s": _timing(measurement.setup_samples),
            "host_factor": measurement.host_factor,
        },
        "counts": (
            {
                "visits": first.visits,
                "requests": first.requests,
                "pages": first.pages,
                "nodes": first.nodes,
            }
            if first is not None
            else {}
        ),
        "digests": first.digests if first is not None else {},
        "reference": measurement.reference,
        "samples": {
            "wall_s": [rep.wall for rep in ok],
            "scaled_s": [rep.scaled for rep in ok],
            "setup_s": measurement.setup_samples,
        },
    }
    if measurement.traced:
        traced = measurement.successes(traced=True)
        payload["timings"]["traced_wall_s"] = _timing([rep.wall for rep in traced])
        payload["layers"] = layer_summary(measurement)
    return payload


def exit_status(payload: Mapping[str, object]) -> int:
    """0 when every output check of a run passed, else 1."""
    return 0 if payload["correct"] else 1


def write_json(path: Path, document: Mapping[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def write_spans(path: Path, measurement: Measurement) -> None:
    """Coarse spans of the traced repetitions, one JSON object a line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, rep in enumerate(measurement.traced_repetitions):
            for span in rep.spans:
                handle.write(json.dumps(dict(span, rep=index), sort_keys=True) + "\n")


def render(name: str, payload: Mapping[str, object]) -> List[str]:
    """Human-readable lines: every metric by name with its unit."""
    status = "ok" if payload["correct"] else "FAILED"
    lines = [
        f"[{name}] seed={payload['seed']} traced={payload['traced']} "
        f"attempted={payload['attempted']} failed={payload['failed']} "
        f"fail_ratio={payload['fail_ratio']:.3f} check={status}"
    ]
    timings = payload["timings"]
    for key in ("wall_s", "traced_wall_s", "setup_s"):
        if key in timings:
            t = timings[key]
            lines.append(
                f"  {key:<34} median {t['median']:.4f} s  "
                f"(q1 {t['q1']:.4f}, q3 {t['q3']:.4f}, n={t['n']})"
            )
    for metric, entry in payload["metrics"].items():
        lines.append(f"  {metric:<34} {entry['value']:>14.4f} {entry['unit']}")
    for error in payload["errors"]:
        lines.append(f"  error: {error.strip().splitlines()[-1]}")
    return lines
