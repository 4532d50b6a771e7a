"""The metrics registry: counters and fixed-bucket histograms.

Design constraints, in order:

1. **Deterministic.**  Exported metrics are a pure function of what was
   observed, never of observation order or process layout.  Each metric
   is recorded once, from what the run produced: the commander folds the
   crawl's metrics from the finished store and ``StreamingDataset``
   folds the tree metrics from the finalized entries, so no registry
   travels between processes.  Counters and histograms are sums
   (commutative), metric keys are sorted on export, and histogram
   buckets are fixed at registration — no dynamic rebinning that could
   depend on arrival order.
2. **Free when disabled.**  A disabled registry hands out a shared no-op
   metric, so an instrumented path pays one attribute load and a no-op
   call — nothing else.

Histogram bucket edges are validated up front (:class:`~repro.errors.ObsError`
on empty, unsorted, duplicated, or non-finite edges): silently misbinned
telemetry in a measurement framework is a bug factory.
"""

from __future__ import annotations

import bisect
import json
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ObsError

LabelValue = Union[str, int]

#: Fixed bucket edges for storage batch sizes (visits per flush).
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 5, 10, 25, 50, 100, 250, 500, 1000)

#: Fixed bucket edges for dependency-tree shape histograms.
TREE_NODE_BUCKETS: Tuple[float, ...] = (1, 5, 10, 25, 50, 100, 250, 500)
TREE_EDGE_BUCKETS: Tuple[float, ...] = TREE_NODE_BUCKETS
TREE_DEPTH_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 5, 6, 8, 10, 15)

#: Fixed bucket edges for per-visit durations (seconds of simulated time).
VISIT_SECONDS_BUCKETS: Tuple[float, ...] = (0.5, 1, 2, 5, 10, 20, 30, 60)


def validate_bucket_edges(edges: Sequence[float]) -> Tuple[float, ...]:
    """Validate histogram bucket edges; returns them as a float tuple.

    Edges must be non-empty, finite, and strictly increasing — the same
    spirit as :func:`repro.rng.token_hex` rejecting ``nbytes <= 0``:
    reject misuse loudly instead of misbinning silently.
    """
    validated = tuple(float(edge) for edge in edges)
    if not validated:
        raise ObsError("histogram needs at least one bucket edge")
    for edge in validated:
        if math.isnan(edge) or math.isinf(edge):
            raise ObsError(f"histogram bucket edges must be finite, got {edge!r}")
    for low, high in zip(validated, validated[1:]):
        if high <= low:
            raise ObsError(
                f"histogram bucket edges must be strictly increasing, "
                f"got {low!r} before {high!r}"
            )
    return validated


def metric_key(name: str, labels: Mapping[str, LabelValue]) -> str:
    """The canonical string identity of a metric: ``name{k=v,...}``.

    Labels are sorted by key so the identity never depends on call-site
    keyword order.
    """
    if not labels:
        return name
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{rendered}}}"


def _require_finite(value: float, context: str) -> None:
    """Reject NaN/±inf observations loudly.

    NaN compares false against everything, so without this check it slips
    past ``amount < 0`` guards and bisect binning and silently poisons
    exported sums — the same failure mode bucket-edge validation exists
    to prevent.
    """
    if math.isnan(value) or math.isinf(value):
        raise ObsError(f"{context} requires a finite value, got {value!r}")


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        _require_finite(amount, "Counter.inc")
        if amount < 0:
            raise ObsError(f"counters only go up; inc({amount}) is not allowed")
        self.value += amount


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus a total count.

    ``edges`` are upper bounds; an observation lands in the first bucket
    whose edge is ``>= value``, with one implicit overflow bucket at the
    end.  ``counts`` therefore has ``len(edges) + 1`` entries.

    Histograms deliberately keep no float sum of observations: float
    addition is not associative, so a running sum would differ in the
    last ulp between two observation orders, breaking the
    byte-identical-exports contract.  Everything exported is an integer.
    """

    __slots__ = ("edges", "counts", "count")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges = validate_bucket_edges(edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count: int = 0

    def observe(self, value: float) -> None:
        _require_finite(value, "Histogram.observe")
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1


class NullMetric:
    """The shared do-nothing metric a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = NullMetric()

Metric = Union[Counter, Histogram]


class MetricsRegistry:
    """Holds every metric of one run.

    Metrics are created on first use and identified by
    ``(name, sorted labels)``; re-registering the same name as a different
    kind — or a histogram with different edges — raises
    :class:`~repro.errors.ObsError`.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    @classmethod
    def disabled(cls) -> "MetricsRegistry":
        return cls(enabled=False)

    # -- recording ---------------------------------------------------------

    def counter(self, name: str, **labels: LabelValue) -> Union[Counter, NullMetric]:
        if not self.enabled:
            return _NULL_METRIC
        return self._get(name, labels, Counter, lambda: Counter())

    def histogram(
        self, name: str, edges: Sequence[float], **labels: LabelValue
    ) -> Union[Histogram, NullMetric]:
        if not self.enabled:
            return _NULL_METRIC
        metric = self._get(name, labels, Histogram, lambda: Histogram(edges))
        if metric.edges != validate_bucket_edges(edges):
            raise ObsError(
                f"histogram {metric_key(name, labels)} re-registered with "
                f"different bucket edges"
            )
        return metric

    def _get(self, name, labels, kind, factory):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise ObsError(
                f"metric {key} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    # -- export ------------------------------------------------------------

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Deterministic plain-dict export (sorted keys, JSON-ready).

        The ``gauges`` section is always empty; it stays in the layout so
        exported metrics JSON and ledger records keep their bytes.
        """
        counters: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, object]] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Counter):
                counters[key] = metric.value
            else:
                histograms[key] = {
                    "edges": list(metric.edges),
                    "counts": list(metric.counts),
                    "count": metric.count,
                }
        return {"counters": counters, "gauges": {}, "histograms": histograms}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)

    # -- access ------------------------------------------------------------

    def get(self, name: str, **labels: LabelValue) -> Optional[Metric]:
        """The metric registered under ``(name, labels)``, if any."""
        return self._metrics.get(metric_key(name, labels))

    def __len__(self) -> int:
        return len(self._metrics)

