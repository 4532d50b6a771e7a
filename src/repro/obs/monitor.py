"""Deterministic anomaly detection over the crawl event stream.

A :class:`Monitor` subscribes to an :class:`~repro.obs.stream.EventStream`
and routes every event through a set of detectors:

* :class:`FailureSpikeDetector` — rolling failure rate vs the expected
  rate derived from the seed-driven fault taxonomy
  (:mod:`repro.web.faults`);
* :class:`ThroughputDetector` — rolling mean simulated seconds per visit
  vs a baseline estimated from a ledger record's ``crawl.visit_seconds``
  histogram;
* :class:`SiteStallDetector` — a per-site watchdog for repeated
  stall-timeouts;
* :class:`ProfileSkewDetector` — per-profile success-rate gap (the
  "one profile silently degrading" bias *Detecting Bot Detection*
  documents).

Determinism contract (DESIGN §6.5): alerts are pure functions of the
event sequence, which is the crawl's stored visits in visit-id order —
the same at any worker count, and the same for a live crawl and its
recording — so the full alert stream is regression-testable, and
the ledger's ``alerts`` section is compared byte-for-byte by
``repro-obs diff``.  Detector thresholds and alert names are literal
module constants, and detectors never write back into the metrics
registry: the monitor observes telemetry, it must not perturb it, so a
monitored crawl records the metrics an unmonitored one does (DESIGN §6,
invariant 8).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from .stream import KIND_VISIT, EventStream, StreamEvent, visit_event

#: Alert severities, in escalation order.
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"

_SEVERITY_RANK = {"": 0, SEVERITY_WARNING: 1, SEVERITY_CRITICAL: 2}

#: Alert names (one per detector).
ALERT_FAILURE_SPIKE = "failure-spike"
ALERT_THROUGHPUT_DEGRADED = "throughput-degraded"
ALERT_SITE_STALL = "site-stall"
ALERT_PROFILE_SKEW = "profile-skew"

#: Rolling window (visits) for the failure-rate detector.
FAILURE_WINDOW = 50
#: Warning when the windowed failure rate exceeds expected × this factor.
FAILURE_WARN_FACTOR = 2.0
#: Critical when it exceeds expected × this factor.
FAILURE_CRITICAL_FACTOR = 4.0

#: Rolling window (visits) for the throughput detector.
THROUGHPUT_WINDOW = 50
#: Warning when mean seconds/visit exceeds baseline × this factor.
THROUGHPUT_WARN_FACTOR = 1.5
#: Critical when it exceeds baseline × this factor.
THROUGHPUT_CRITICAL_FACTOR = 3.0

#: Stall-timeouts within one site that trip the (critical) watchdog.
SITE_STALL_LIMIT = 3

#: Rolling window (visits per profile) for the skew detector.
SKEW_WINDOW = 25
#: Warning when the max−min per-profile success-rate gap exceeds this.
SKEW_WARN_GAP = 0.25
#: Critical when the gap exceeds this.
SKEW_CRITICAL_GAP = 0.5

#: The failure reason the stall watchdog counts.  Mirrors
#: :data:`repro.web.faults.STALL_TIMEOUT`; kept literal here so the
#: observability layer stays import-light (pinned equal by a test).
STALL_REASON = "stall-timeout"


@dataclass(frozen=True)
class Alert:
    """One structured detector finding.

    ``value`` is the observed quantity, ``threshold`` the limit it
    crossed; both are rounded on export so the ledger payload is stable
    JSON.
    """

    name: str
    severity: str
    message: str
    site_rank: Optional[int] = None
    profile: str = ""
    value: float = 0.0
    threshold: float = 0.0

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "site_rank": self.site_rank,
            "profile": self.profile,
            "value": round(self.value, 6),
            "threshold": round(self.threshold, 6),
        }

    def format(self) -> str:
        """One-line rendering for live output and summaries."""
        scope = f" site={self.site_rank}" if self.site_rank is not None else ""
        who = f" profile={self.profile}" if self.profile else ""
        return f"[{self.severity}] {self.name}{scope}{who}: {self.message}"


class Detector:
    """Base detector: stateful event consumer emitting :class:`Alert`\\ s.

    Detectors may keep rolling windows and counters, but must not touch
    the metrics registry or any other telemetry sink: alerts derive from
    the event stream, they never feed back into it.
    """

    name = ""

    def observe(self, event: StreamEvent) -> List[Alert]:
        return []


class _Hysteresis:
    """Escalation-edge alerting: emit only when severity *rises*.

    A rolling window hovering over a threshold would otherwise re-alert
    on every visit; tracking the active severity keeps the alert stream
    proportional to the number of distinct excursions (and deterministic,
    since it is a pure function of the event sequence).
    """

    __slots__ = ("active",)

    def __init__(self) -> None:
        self.active = ""

    def escalate(self, severity: str) -> bool:
        """Record the current severity; return True on a rising edge."""
        rising = _SEVERITY_RANK[severity] > _SEVERITY_RANK[self.active]
        self.active = severity
        return rising


def _severity_for(value: float, warn_limit: float, critical_limit: float) -> str:
    if value > critical_limit:
        return SEVERITY_CRITICAL
    if value > warn_limit:
        return SEVERITY_WARNING
    return ""


class FailureSpikeDetector(Detector):
    """Rolling failure rate vs the fault-taxonomy expectation."""

    name = ALERT_FAILURE_SPIKE

    def __init__(self, expected_rate: float, window: int = FAILURE_WINDOW) -> None:
        self.expected_rate = expected_rate
        self.window = window
        self._outcomes: deque = deque(maxlen=window)
        self._state = _Hysteresis()

    def observe(self, event: StreamEvent) -> List[Alert]:
        if event.kind != KIND_VISIT:
            return []
        self._outcomes.append(0 if event.payload.get("success") else 1)
        if len(self._outcomes) < self.window:
            return []
        rate = sum(self._outcomes) / self.window
        warn_limit = self.expected_rate * FAILURE_WARN_FACTOR
        critical_limit = self.expected_rate * FAILURE_CRITICAL_FACTOR
        severity = _severity_for(rate, warn_limit, critical_limit)
        if not self._state.escalate(severity):
            return []
        threshold = critical_limit if severity == SEVERITY_CRITICAL else warn_limit
        return [
            Alert(
                name=ALERT_FAILURE_SPIKE,
                severity=severity,
                message=(
                    f"failure rate {rate:.3f} over last {self.window} visits "
                    f"exceeds {threshold:.3f} "
                    f"(expected {self.expected_rate:.3f})"
                ),
                value=rate,
                threshold=threshold,
            )
        ]


class ThroughputDetector(Detector):
    """Rolling mean simulated seconds per visit vs a ledger baseline.

    Throughput is defined over *simulated* visit durations (pure
    functions of the seed), not wall clock — under ``FakeClock`` wall
    time is frozen, and the paper cares about the measured workload, not
    host speed.  The baseline comes from a prior run's deterministic
    ``crawl.visit_seconds`` histogram via
    :func:`baseline_seconds_per_visit`.
    """

    name = ALERT_THROUGHPUT_DEGRADED

    def __init__(
        self, baseline_seconds: float, window: int = THROUGHPUT_WINDOW
    ) -> None:
        self.baseline_seconds = baseline_seconds
        self.window = window
        self._durations: deque = deque(maxlen=window)
        self._state = _Hysteresis()

    def observe(self, event: StreamEvent) -> List[Alert]:
        if event.kind != KIND_VISIT:
            return []
        self._durations.append(float(event.payload.get("seconds", 0.0)))
        if len(self._durations) < self.window:
            return []
        # fsum is exact, so the mean never depends on accumulation order.
        mean = math.fsum(self._durations) / self.window
        warn_limit = self.baseline_seconds * THROUGHPUT_WARN_FACTOR
        critical_limit = self.baseline_seconds * THROUGHPUT_CRITICAL_FACTOR
        severity = _severity_for(mean, warn_limit, critical_limit)
        if not self._state.escalate(severity):
            return []
        threshold = critical_limit if severity == SEVERITY_CRITICAL else warn_limit
        return [
            Alert(
                name=ALERT_THROUGHPUT_DEGRADED,
                severity=severity,
                message=(
                    f"mean visit duration {mean:.3f}s over last "
                    f"{self.window} visits exceeds {threshold:.3f}s "
                    f"(baseline {self.baseline_seconds:.3f}s/visit)"
                ),
                value=mean,
                threshold=threshold,
            )
        ]


class SiteStallDetector(Detector):
    """Per-site watchdog: repeated stall-timeouts mark a site critical."""

    name = ALERT_SITE_STALL

    def __init__(self, limit: int = SITE_STALL_LIMIT) -> None:
        self.limit = limit
        self._stalls: Dict[int, int] = {}

    def observe(self, event: StreamEvent) -> List[Alert]:
        if event.kind != KIND_VISIT or event.site_rank is None:
            return []
        if event.payload.get("reason") != STALL_REASON:
            return []
        count = self._stalls.get(event.site_rank, 0) + 1
        self._stalls[event.site_rank] = count
        if count != self.limit:  # fire exactly once per site
            return []
        return [
            Alert(
                name=ALERT_SITE_STALL,
                severity=SEVERITY_CRITICAL,
                message=(
                    f"site rank {event.site_rank} hit {count} "
                    f"stall-timeouts"
                ),
                site_rank=event.site_rank,
                value=float(count),
                threshold=float(self.limit),
            )
        ]


class ProfileSkewDetector(Detector):
    """Success-rate gap between paired profiles over rolling windows."""

    name = ALERT_PROFILE_SKEW

    def __init__(self, window: int = SKEW_WINDOW) -> None:
        self.window = window
        self._outcomes: Dict[str, deque] = {}
        self._state = _Hysteresis()

    def observe(self, event: StreamEvent) -> List[Alert]:
        if event.kind != KIND_VISIT or not event.profile:
            return []
        outcomes = self._outcomes.get(event.profile)
        if outcomes is None:
            outcomes = deque(maxlen=self.window)
            self._outcomes[event.profile] = outcomes
        outcomes.append(1 if event.payload.get("success") else 0)
        # Judge only profiles with full windows, in sorted-name order so
        # ties break deterministically.
        rates = {
            profile: sum(window) / self.window
            for profile, window in sorted(self._outcomes.items())
            if len(window) == self.window
        }
        if len(rates) < 2:
            return []
        best = max(rates, key=lambda profile: (rates[profile], profile))
        worst = min(rates, key=lambda profile: (rates[profile], profile))
        gap = rates[best] - rates[worst]
        severity = _severity_for(gap, SKEW_WARN_GAP, SKEW_CRITICAL_GAP)
        if not self._state.escalate(severity):
            return []
        threshold = (
            SKEW_CRITICAL_GAP if severity == SEVERITY_CRITICAL else SKEW_WARN_GAP
        )
        return [
            Alert(
                name=ALERT_PROFILE_SKEW,
                severity=severity,
                message=(
                    f"success-rate gap {gap:.3f} between {best} "
                    f"({rates[best]:.3f}) and {worst} ({rates[worst]:.3f}) "
                    f"over last {self.window} visits/profile"
                ),
                profile=worst,
                value=gap,
                threshold=threshold,
            )
        ]


class Monitor:
    """Routes stream events through detectors and collects alerts.

    ``on_alert`` is an optional callback fired per alert in emission
    order — CLIs set it to render alerts live (the library itself never
    prints).  Attach to a context with
    :meth:`ObsContext.attach_monitor`, which subscribes :meth:`handle`
    to the context's event stream.
    """

    def __init__(
        self,
        detectors: Sequence[Detector],
        on_alert: Optional[Callable[[Alert], None]] = None,
    ) -> None:
        self.detectors = list(detectors)
        self.on_alert = on_alert
        self.alerts: List[Alert] = []
        self.events_seen = 0

    @classmethod
    def for_crawl(
        cls,
        expected_rate: float,
        baseline_seconds: Optional[float] = None,
        on_alert: Optional[Callable[[Alert], None]] = None,
        window: Optional[int] = None,
    ) -> "Monitor":
        """The standard crawl detector set.

        ``baseline_seconds`` (from :func:`baseline_seconds_per_visit`)
        enables the throughput detector; ``window`` overrides every
        rolling-window size at once (small test crawls never fill the
        production defaults).
        """
        failure_window = window if window is not None else FAILURE_WINDOW
        throughput_window = window if window is not None else THROUGHPUT_WINDOW
        skew_window = window if window is not None else SKEW_WINDOW
        detectors: List[Detector] = [
            FailureSpikeDetector(expected_rate=expected_rate, window=failure_window),
            SiteStallDetector(),
            ProfileSkewDetector(window=skew_window),
        ]
        if baseline_seconds is not None and baseline_seconds > 0:
            detectors.append(
                ThroughputDetector(
                    baseline_seconds=baseline_seconds, window=throughput_window
                )
            )
        return cls(detectors, on_alert=on_alert)

    def handle(self, event: StreamEvent) -> None:
        """The stream-subscriber entry point."""
        self.events_seen += 1
        for detector in self.detectors:
            for alert in detector.observe(event):
                self.alerts.append(alert)
                if self.on_alert is not None:
                    self.on_alert(alert)

    @property
    def has_critical(self) -> bool:
        return any(alert.severity == SEVERITY_CRITICAL for alert in self.alerts)

    def alerts_payload(self) -> List[Dict[str, object]]:
        """The ledger-ready ``alerts`` section, in emission order."""
        return [alert.to_payload() for alert in self.alerts]


def default_expected_failure_rate(
    page_fail_probability: Optional[float] = None,
) -> float:
    """The per-visit failure probability the fault taxonomy predicts.

    Combines the persistent-fault, crawler-fault, and page-fault layers
    (independent Bernoulli draws, DESIGN §3): ``r + (1-r)·(p+q-pq)``.
    Imported lazily so :mod:`repro.obs` stays importable without the web
    package.
    """
    from ..web.faults import CRAWLER_FAULT_PROBABILITY, PERSISTENT_FAULT_PROBABILITY

    if page_fail_probability is None:
        from ..web.sitegen import WebConfig

        page_fail_probability = WebConfig().page_fail_probability
    page_or_crawler = (
        page_fail_probability
        + CRAWLER_FAULT_PROBABILITY
        - page_fail_probability * CRAWLER_FAULT_PROBABILITY
    )
    return (
        PERSISTENT_FAULT_PROBABILITY
        + (1.0 - PERSISTENT_FAULT_PROBABILITY) * page_or_crawler
    )


def baseline_seconds_per_visit(record) -> Optional[float]:
    """Estimate mean seconds/visit from a ledger record's deterministic
    ``crawl.visit_seconds`` histogram (bucket-midpoint estimate).

    Returns ``None`` when the record carries no usable histogram —
    callers then simply run without the throughput detector.
    """
    metrics = record.deterministic.get("metrics", {})
    histogram = metrics.get("histograms", {}).get("crawl.visit_seconds")
    if not histogram:
        return None
    edges = [float(edge) for edge in histogram.get("edges", [])]
    counts = [int(count) for count in histogram.get("counts", [])]
    total = int(histogram.get("count", 0))
    if not edges or total <= 0 or len(counts) != len(edges) + 1:
        return None
    midpoints = [edges[0] / 2.0]
    midpoints += [(low + high) / 2.0 for low, high in zip(edges, edges[1:])]
    midpoints.append(edges[-1])  # overflow bucket: clamp to the last edge
    weighted = math.fsum(
        midpoint * count for midpoint, count in zip(midpoints, counts)
    )
    return weighted / total


def events_from_store(store) -> Iterator[StreamEvent]:
    """The crawl's event sequence: one ``visit`` event per stored visit.

    Visits stream in visit-id order — the order a live crawl publishes
    them in (:func:`~repro.crawler.commander._crawl_sites`) — so a
    recorded crawl, including a bundle replay, drives the detectors
    through exactly the events, and raises exactly the alerts, its live
    run did.
    """
    for visit in store.iter_visits(success_only=False):
        yield visit_event(visit)


def publish_store_events(store, stream: EventStream) -> int:
    """Publish a store's visit events in visit-id order; returns the
    count dispatched."""
    dispatched = 0
    for event in events_from_store(store):
        if stream.publish(event):
            dispatched += 1
    return dispatched
