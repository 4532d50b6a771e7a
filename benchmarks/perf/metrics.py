"""Metric definitions and how each is computed from a measurement.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares (the smoke test keeps the two in step).  Every one of them is
emitted for every workload: end-to-end metrics by an untraced run,
per-layer metrics by a traced run.  A layer a workload never enters
reads 0 there, which is itself the prediction for that workload.

Per-layer times are reported as shares of the traced repetition's wall
time (``*.self_pct``), so a layer's number says where the time went
whatever the workload's size; absolute seconds and per-unit costs are in
the full results file (:func:`layer_details`).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from .harness import Measurement
from .layers import ANALYSIS_EXPERIMENTS, LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None

    def declaration(self) -> Dict[str, object]:
        entry: Dict[str, object] = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END: Sequence[Metric] = (
    Metric("visits_per_s", "1/s", "higher", 0.20),
    Metric("peak_rss_mb", "MiB", "lower", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
)

#: Layers whose self time is reported as a share of the traced wall (the
#: experiments are reported by their total share instead).
_SHARE_LAYERS = tuple(layer.name for layer in LAYERS if not layer.name.startswith("experiments."))

PER_LAYER: Sequence[Metric] = (
    Metric("trace.wall_s", "s", "lower"),
    Metric("trace.overhead", "x", "lower"),
    Metric("cpu_util", "ratio", "higher"),
    Metric("rng.child_rng.calls", "count", "lower"),
    Metric("rng.child_rng.per_visit", "1/visit", "lower"),
    Metric("browser.engine.visits", "count", "higher"),
    Metric("browser.engine.requests", "count", "higher"),
    Metric("browser.engine.failed_ratio", "ratio", "lower"),
    Metric("web.url.str.calls", "count", "lower"),
    Metric("web.site.calls", "count", "lower"),
    Metric("crawler.storage.write.rows", "count", "higher"),
    Metric("crawler.storage.bulk.rows", "count", "higher"),
    Metric("crawler.storage.read.calls", "count", "lower"),
    Metric("crawler.storage.read.rows", "count", "higher"),
    Metric("bundle.replay.rows", "count", "higher"),
    Metric("bundle.compressed_bytes", "B", "lower"),
    Metric("trees.builder.trees", "count", "higher"),
    Metric("trees.builder.nodes", "count", "higher"),
    Metric("trees.normalize.calls", "count", "lower"),
    Metric("trees.normalize.distinct_ratio", "ratio", "lower"),
    Metric("web.psl.calls", "count", "lower"),
    Metric("web.psl.distinct_ratio", "ratio", "lower"),
    Metric("blocklist.matcher.decisions", "count", "lower"),
    Metric("blocklist.matcher.blocked_ratio", "ratio", "higher"),
    Metric("blocklist.matcher.distinct_ratio", "ratio", "lower"),
    Metric("analysis.comparison.pages", "count", "higher"),
    Metric("obs.stream.events", "count", "lower"),
    Metric("pipeline.stream.handoffs", "count", "higher"),
) + tuple(Metric(f"{name}.self_pct", "%", "lower") for name in _SHARE_LAYERS) + tuple(
    Metric(f"experiments.{experiment_id}.pct", "%", "lower")
    for experiment_id in ANALYSIS_EXPERIMENTS
) + (Metric("experiments.total.pct", "%", "lower"),)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def end_to_end_metrics(measurement: Measurement) -> Dict[str, float]:
    """End-to-end metrics of the untraced repetitions at reference host speed."""
    reps = measurement.successes()
    seconds = _median([rep.scaled for rep in reps])
    return {
        "visits_per_s": _per(reps[0].result.visits, seconds) if reps else 0.0,
        "peak_rss_mb": measurement.peak_rss_kb / 1024.0,
        "setup_s": _median(measurement.setup_samples),
    }


def layer_details(flat: Mapping[str, float], wall: float, cpu: float, workers: int) -> Dict[str, float]:
    """Every per-layer number of one traced repetition, by metric name."""

    def get(key: str) -> float:
        return float(flat.get(key, 0))

    out: Dict[str, float] = {"trace.wall_s": wall, "cpu_util": _per(cpu, wall * workers)}
    for layer in LAYERS:
        name = layer.name
        for suffix in ("calls", "s", "self_s"):
            out[f"{name}.{suffix}"] = get(f"{name}.{suffix}")
        out[f"{name}.self_pct"] = _per(get(f"{name}.self_s"), wall, 100.0)
        if layer.distinct is not None:
            out[f"{name}.distinct_ratio"] = _per(get(f"{name}.distinct"), get(f"{name}.calls"))
    for name in ("crawler.storage.write", "crawler.storage.bulk", "crawler.storage.read"):
        out[f"{name}.rows"] = get(f"{name}.rows")
        out[f"{name}.us_per_row"] = _per(get(f"{name}.s"), get(f"{name}.rows"), 1e6)
    # The units each layer counts, under the names the README's layer map uses.
    visits = get("browser.engine.calls")
    requests = get("browser.engine.requests")
    out.update(
        {
            "rng.child_rng.per_visit": _per(get("rng.child_rng.calls"), visits),
            "browser.engine.visits": visits,
            "browser.engine.requests": requests,
            "browser.engine.us_per_request": _per(get("browser.engine.s"), requests, 1e6),
            "browser.engine.failed_ratio": _per(get("browser.engine.failed"), visits),
            "bundle.replay.rows": get("bundle.replay.rows"),
            "trees.builder.trees": get("trees.builder.calls"),
            "trees.builder.nodes": get("trees.builder.nodes"),
            "trees.builder.us_per_node": _per(
                get("trees.builder.s"), get("trees.builder.nodes"), 1e6
            ),
            "blocklist.matcher.decisions": get("blocklist.matcher.calls"),
            "blocklist.matcher.us_per_decision": _per(
                get("blocklist.matcher.s"), get("blocklist.matcher.calls"), 1e6
            ),
            "blocklist.matcher.blocked_ratio": _per(
                get("blocklist.matcher.blocked"), get("blocklist.matcher.calls")
            ),
            "analysis.comparison.pages": get("analysis.comparison.calls"),
            "analysis.comparison.us_per_page": _per(
                get("analysis.comparison.s"), get("analysis.comparison.calls"), 1e6
            ),
            "obs.stream.events": get("obs.stream.publish.events"),
            "pipeline.stream.handoffs": get("pipeline.stream.handoffs"),
            "pipeline.stream.drain_s": get("pipeline.stream.drain_s"),
        }
    )
    total = 0.0
    for experiment_id in ANALYSIS_EXPERIMENTS:
        seconds = get(f"experiments.{experiment_id}.s")
        out[f"experiments.{experiment_id}.pct"] = _per(seconds, wall, 100.0)
        total += seconds
    out["experiments.total.s"] = total
    out["experiments.total.pct"] = _per(total, wall, 100.0)
    return out


def layer_summary(measurement: Measurement) -> Dict[str, float]:
    """Per-layer numbers: the median of each over the traced repetitions."""
    per_rep = [
        layer_details(rep.layers, rep.wall, rep.cpu, measurement.workers)
        for rep in measurement.successes(traced=True)
        if rep.layers is not None
    ]
    summary = {key: _median([row[key] for row in per_rep]) for key in (per_rep[0] if per_rep else {})}
    untraced = _median([rep.wall for rep in measurement.successes()])
    summary["trace.overhead"] = _per(summary.get("trace.wall_s", 0.0), untraced)
    summary.update(measurement.extra)
    return summary


def layer_metrics(measurement: Measurement) -> Dict[str, float]:
    summary = layer_summary(measurement)
    return {metric.name: summary.get(metric.name, 0.0) for metric in PER_LAYER}


def metrics(measurement: Measurement) -> Dict[str, float]:
    """End-to-end metrics untraced, per-layer metrics traced."""
    return layer_metrics(measurement) if measurement.traced else end_to_end_metrics(measurement)


def phase_seconds(layers: Mapping[str, float]) -> Dict[str, float]:
    """The ledger's ``phase_seconds``: self seconds per layer (total seconds
    per experiment) of a layer summary; idle layers are left out."""
    phases = {name: layers.get(f"{name}.self_s", 0.0) for name in _SHARE_LAYERS}
    phases.update(
        (f"experiments.{experiment_id}", layers.get(f"experiments.{experiment_id}.s", 0.0))
        for experiment_id in ANALYSIS_EXPERIMENTS
    )
    return {name: round(seconds, 6) for name, seconds in phases.items() if seconds > 0}
