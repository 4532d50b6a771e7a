"""Judge a change against its parent from alternated benchmark runs.

Usage::

    PYTHONPATH=src python -m benchmarks.perf compare P1.json C1.json P2.json C2.json ...

Arguments are result files (``results/latest.json`` or a ``run.py``
result) in pairs: each parent run followed by the change run made next
to it.  For every workload and end-to-end metric the command prints each
side's median and quartiles, the share of pairs the change won (ties
count for neither side), the change/parent ratio with its base, and a
verdict:

* ``improved`` — the change won at least 9 of 10 pairs and the medians
  differ, in the better direction, by more than the parent's own
  interquartile range;
* ``unresolved`` — the parent's spread (IQR over median) is wider than
  the metric's bound, and not every change run beats every parent run;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``no worse than the bound`` — otherwise.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Sequence

from .harness import quartiles
from .metrics import END_TO_END, Metric

WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, Dict[str, float]]:
    """Workload → end-to-end metric → value, from one result file."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        name: {metric: entry["value"] for metric, entry in payload["metrics"].items()}
        for name, payload in document["workloads"].items()
        if not payload.get("traced")
    }


def _better(metric: Metric, change: float, parent: float) -> bool:
    return change < parent if metric.better == "lower" else change > parent


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Dict[str, object]:
    """Compare paired runs of one metric (``parent[i]`` ran next to ``change[i]``)."""
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if _better(metric, c, p))
    # Worsening as a share of the parent's median, positive when worse.
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (c_median - p_median) / p_median if p_median else 0.0
    spread = (p_q3 - p_q1) / p_median if p_median else 0.0
    all_better = all(_better(metric, c, p) for c in change for p in parent)
    if (
        wins >= WIN_SHARE * len(parent)
        and _better(metric, c_median, p_median)
        and abs(c_median - p_median) > p_q3 - p_q1
    ):
        outcome = "improved"
    elif spread > metric.bound and not all_better:
        outcome = "unresolved"
    elif worse_by > metric.bound:
        outcome = "regressed"
    else:
        outcome = "no worse than the bound"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "pairs": len(parent),
        "ratio": c_median / p_median if p_median else 0.0,
        "verdict": outcome,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf compare",
        description="Compare alternated parent/change result files, given in pairs.",
    )
    parser.add_argument("files", nargs="+", type=Path, help="P1 C1 P2 C2 ...")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("result files come in parent/change pairs")
    runs = [load(path) for path in args.files]
    parents, changes = runs[0::2], runs[1::2]
    workloads = [name for name in parents[0] if all(name in run for run in runs)]
    regressed = False
    for name in workloads:
        print(f"[{name}] {len(parents)} pairs")
        for metric in END_TO_END:
            result = verdict(
                metric,
                [run[name][metric.name] for run in parents],
                [run[name][metric.name] for run in changes],
            )
            regressed = regressed or result["verdict"] == "regressed"
            p_q1, p_median, p_q3 = result["parent"]
            c_q1, c_median, c_q3 = result["change"]
            print(
                f"  {metric.name:<14} parent {p_median:.4f} [{p_q1:.4f}, {p_q3:.4f}]  "
                f"change {c_median:.4f} [{c_q1:.4f}, {c_q3:.4f}] {metric.unit}  "
                f"won {result['wins']}/{result['pairs']}  "
                f"change/parent {result['ratio']:.3f} (base: parent median "
                f"{p_median:.4f} {metric.unit}, {metric.better} is better)  "
                f"-> {result['verdict']}"
            )
    return 1 if regressed else 0
