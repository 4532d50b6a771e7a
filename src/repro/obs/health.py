"""Crawl-health reporting: the paper's Table 1, for our own runs.

The paper reports per-profile success/failure rates before any similarity
analysis (§3, Table 1) because a profile that silently fails more often
*looks* more different.  This module renders the same accounting for a
reproduction run — per-profile visit outcomes split by failure reason
(timeout vs. crawler error), plus a per-stage wall-clock breakdown from
the span trace — so a run can be audited before its numbers are believed.

Outcomes come from one place, the crawl's stored visits
(:meth:`~repro.crawler.storage.MeasurementStore.outcomes`), whether the
crawl just ran, was stored earlier, or was replayed from a bundle; trace
records add the stage timings.  The ``repro-obs`` console script
(:mod:`repro.obs.cli`) wires them together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

from ..reporting.tables import percent, render_kv, render_table
from .trace import SpanRecord

#: Span names that count as pipeline stages in the timing breakdown.
STAGE_SPAN_NAMES = ("plan", "crawl", "filter-list", "dataset", "experiment")

#: Failure reasons that count as timeouts: the fault-taxonomy name plus
#: the pre-taxonomy one (stores written by older crawls).
TIMEOUT_REASONS = frozenset({"stall-timeout", "timeout"})


@dataclass(frozen=True)
class ProfileHealth:
    """Per-profile visit outcomes (one Table-1 row).

    ``recovered`` counts successful visits that needed a retry — visits a
    single-attempt crawl would have lost.
    """

    profile: str
    visits: int
    successes: int
    timeouts: int
    errors: int
    recovered: int = 0

    @property
    def failures(self) -> int:
        return self.timeouts + self.errors

    @property
    def success_rate(self) -> float:
        return self.successes / self.visits if self.visits else 0.0


@dataclass(frozen=True)
class StageTiming:
    """One stage span: its label and wall-clock duration."""

    stage: str
    seconds: float
    nested: bool


@dataclass
class HealthReport:
    """Everything ``repro-obs`` renders."""

    profiles: List[ProfileHealth] = field(default_factory=list)
    stages: List[StageTiming] = field(default_factory=list)
    sites_crawled: int = 0
    pages_discovered: int = 0

    @property
    def total_visits(self) -> int:
        return sum(item.visits for item in self.profiles)


def profile_health(
    outcomes: Mapping[str, Mapping[str, object]],
) -> List[ProfileHealth]:
    """Fold a store's per-profile outcomes into :class:`ProfileHealth` rows.

    ``outcomes`` is :meth:`~repro.crawler.storage.MeasurementStore.outcomes`:
    profile → ``visits``, ``successes``, ``failures`` (reason → count),
    ``retries`` and ``recovered``.
    """
    rows: List[ProfileHealth] = []
    for profile in sorted(outcomes):
        outcome = outcomes[profile]
        reasons = outcome["failures"]
        timeouts = sum(
            count for reason, count in reasons.items() if reason in TIMEOUT_REASONS
        )
        rows.append(
            ProfileHealth(
                profile=profile,
                visits=outcome["visits"],
                successes=outcome["successes"],
                timeouts=timeouts,
                errors=sum(reasons.values()) - timeouts,
                recovered=outcome["recovered"],
            )
        )
    return rows


def stage_timings(records: Sequence[SpanRecord]) -> List[StageTiming]:
    """Extract the stage breakdown from a trace, in record order.

    Stages nested inside another stage (``plan`` inside ``crawl``) are
    marked so renderers can indent them instead of double-counting.
    """
    stage_ids = {
        record.span_id for record in records if record.name in STAGE_SPAN_NAMES
    }
    timings: List[StageTiming] = []
    for record in records:
        if record.name not in STAGE_SPAN_NAMES:
            continue
        label = record.key if record.key != record.name else record.name
        timings.append(
            StageTiming(
                stage=label,
                seconds=record.duration,
                nested=record.parent_id in stage_ids,
            )
        )
    return timings


def render_health_report(report: HealthReport) -> str:
    """Render the Table-1-style summary plus the stage-timing breakdown."""
    sections: List[str] = []
    sections.append(
        render_kv(
            [
                ("sites crawled", report.sites_crawled),
                ("pages discovered", report.pages_discovered),
                ("total visits", report.total_visits),
            ],
            title="Crawl health",
        )
    )
    if report.profiles:
        rows = [
            [
                item.profile,
                item.visits,
                item.successes,
                item.timeouts,
                item.errors,
                item.recovered,
                percent(item.success_rate, 1),
            ]
            for item in report.profiles
        ]
        sections.append(
            render_table(
                [
                    "profile",
                    "visits",
                    "success",
                    "timeout",
                    "error",
                    "recovered",
                    "success%",
                ],
                rows,
                title="Per-profile outcomes (Table 1 style)",
            )
        )
    if report.stages:
        top_total = sum(item.seconds for item in report.stages if not item.nested)
        rows = []
        for item in report.stages:
            share = (
                percent(item.seconds / top_total, 1)
                if top_total > 0 and not item.nested
                else "-"
            )
            label = f"  {item.stage}" if item.nested else item.stage
            rows.append([label, f"{item.seconds:.3f}", share])
        sections.append(
            render_table(["stage", "seconds", "share"], rows, title="Stage timings")
        )
    return "\n\n".join(sections)


def build_health_report(
    store, records: Optional[Sequence[SpanRecord]] = None
) -> HealthReport:
    """Assemble a report: outcome counts from the ``store``'s visits,
    stage timings from trace ``records`` when given."""
    return HealthReport(
        profiles=profile_health(store.outcomes()),
        stages=stage_timings(records or []),
        sites_crawled=len(store.sites()),
        pages_discovered=len(store.pages()),
    )
