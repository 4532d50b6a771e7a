"""``repro.obs`` — deterministic telemetry for the crawl→trees→analysis
pipeline.

The package is a dependency-free observability layer:

* :mod:`repro.obs.trace` — span tracing with deterministic span ids
  (derived via :mod:`repro.rng`) and injectable time
  (:mod:`repro.devtools.clock`), so traces are byte-identical under
  ``FakeClock`` at any worker count;
* :mod:`repro.obs.metrics` — counters and fixed-bucket histograms,
  each folded once from what the run produced (the stored crawl, the
  finalized dataset);
* :mod:`repro.obs.stream` and :mod:`repro.obs.monitor` — one ``visit``
  event per stored visit, in visit-id order, through rolling-window
  anomaly detectors;
* :mod:`repro.obs.health` and :mod:`repro.obs.ledger` — the
  Table-1-style crawl-health report and the run ledger, whose outcomes
  are the store's own fold
  (:meth:`~repro.crawler.storage.MeasurementStore.outcomes`); the
  ``repro-obs`` console script renders both.

Instrumented modules take an :class:`ObsContext` and default to
:data:`NULL_OBS`, whose tracer and registry are disabled no-ops — tracing
is off unless a caller opts in, and the disabled path costs one attribute
load per hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..devtools.clock import Clock
from ..errors import ObsError
from .ledger import (
    DiffThresholds,
    LedgerDiff,
    LedgerEntry,
    RunLedger,
    RunRecord,
    build_run_record,
    config_hash,
    diff_records,
)
from .metrics import (
    BATCH_SIZE_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    TREE_DEPTH_BUCKETS,
    TREE_EDGE_BUCKETS,
    TREE_NODE_BUCKETS,
    VISIT_SECONDS_BUCKETS,
    metric_key,
    validate_bucket_edges,
)
from .monitor import (
    Alert,
    FailureSpikeDetector,
    Monitor,
    ProfileSkewDetector,
    SiteStallDetector,
    ThroughputDetector,
    baseline_seconds_per_visit,
    default_expected_failure_rate,
    events_from_store,
    publish_store_events,
)
from .profile import PhaseStat, RunProfile, build_profile, profile_from_parts
from .render import render_alerts, render_flame, render_profile
from .stream import EventStream, StreamEvent
from .trace import Span, SpanRecord, Tracer, read_jsonl, split_roots


@dataclass(frozen=True)
class ObsConfig:
    """Picklable recipe for recreating an :class:`ObsContext` in a worker.

    ``clock`` travels by value: a pickled ``FakeClock`` carries its
    current reading, so worker spans see the same frozen time the parent
    does — one of the ingredients of trace byte-identity across worker
    counts.  Workers only trace: the parent publishes the merged
    store's visits and records the crawl's metrics from it.
    """

    enabled: bool = False
    seed: int = 0
    clock: Optional[Clock] = None


class ObsContext:
    """One tracer plus one metrics registry, threaded through the pipeline.

    ``ledger`` optionally names a :class:`~repro.obs.ledger.RunLedger`;
    instrumented entry points (``Commander.run``, ``run_pipeline``,
    ``Bundle.replay``) append a run record to it when present.  The
    ledger stays with the parent process — :meth:`config` deliberately
    does not ship it to shard workers, whose spans reach the ledger
    through the parent's record.
    """

    def __init__(
        self,
        tracer: Tracer,
        metrics: MetricsRegistry,
        ledger: Optional[RunLedger] = None,
        stream: Optional[EventStream] = None,
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.ledger = ledger
        self.stream = stream if stream is not None else EventStream.disabled()
        self.monitor: Optional[Monitor] = None
        if monitor is not None:
            self.attach_monitor(monitor)

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def create(
        cls,
        seed: int = 0,
        clock: Optional[Clock] = None,
        ledger: Optional[RunLedger] = None,
        stream: Optional[EventStream] = None,
        monitor: Optional[Monitor] = None,
    ) -> "ObsContext":
        """An enabled context for one pipeline run."""
        if monitor is not None and stream is None:
            stream = EventStream()
        return cls(
            Tracer(seed=seed, clock=clock),
            MetricsRegistry(),
            ledger=ledger,
            stream=stream,
            monitor=monitor,
        )

    @classmethod
    def disabled(cls) -> "ObsContext":
        return cls(Tracer.disabled(), MetricsRegistry.disabled())

    def attach_monitor(self, monitor: Monitor) -> None:
        """Subscribe ``monitor`` to this context's event stream."""
        if not self.stream.enabled:
            raise ObsError("attach_monitor needs an enabled event stream")
        self.monitor = monitor
        self.stream.subscribe(monitor.handle)

    def config(self) -> ObsConfig:
        """The picklable spec workers use to build their own context."""
        if not self.enabled:
            return ObsConfig(enabled=False)
        return ObsConfig(enabled=True, seed=self.tracer.seed, clock=self.tracer.clock)

    @classmethod
    def from_config(cls, config: Optional[ObsConfig]) -> "ObsContext":
        if config is None or not config.enabled:
            return NULL_OBS
        return cls.create(seed=config.seed, clock=config.clock)


#: The shared disabled context instrumented modules default to.
NULL_OBS = ObsContext.disabled()

__all__ = [
    "Alert",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "DiffThresholds",
    "EventStream",
    "FailureSpikeDetector",
    "Histogram",
    "LedgerDiff",
    "LedgerEntry",
    "MetricsRegistry",
    "Monitor",
    "NULL_OBS",
    "ObsConfig",
    "ObsContext",
    "PhaseStat",
    "ProfileSkewDetector",
    "RunLedger",
    "RunProfile",
    "RunRecord",
    "SiteStallDetector",
    "Span",
    "SpanRecord",
    "StreamEvent",
    "ThroughputDetector",
    "TREE_DEPTH_BUCKETS",
    "TREE_EDGE_BUCKETS",
    "TREE_NODE_BUCKETS",
    "Tracer",
    "VISIT_SECONDS_BUCKETS",
    "baseline_seconds_per_visit",
    "build_profile",
    "build_run_record",
    "config_hash",
    "default_expected_failure_rate",
    "diff_records",
    "events_from_store",
    "metric_key",
    "profile_from_parts",
    "publish_store_events",
    "read_jsonl",
    "render_alerts",
    "render_flame",
    "render_profile",
    "split_roots",
    "validate_bucket_edges",
]
