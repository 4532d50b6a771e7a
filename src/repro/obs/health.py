"""Crawl-health reporting: the paper's Table 1, for our own runs.

The paper reports per-profile success/failure rates before any similarity
analysis (§3, Table 1) because a profile that silently fails more often
*looks* more different.  This module renders the same accounting for a
reproduction run — per-profile visit outcomes split by failure reason
(timeout vs. crawler error) — so a run can be audited before its numbers
are believed.

Outcomes come from one place, the crawl's stored visits
(:meth:`~repro.crawler.storage.MeasurementStore.outcomes`), whether the
crawl just ran, was stored earlier, or was replayed from a bundle:
``repro crawl`` prints the report for the store it wrote, and
``repro-obs health`` (:mod:`repro.obs.cli`) the same report for a
stored db or bundle.  Per-phase time is ``repro-obs profile``'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping

from ..reporting.tables import percent, render_kv, render_table

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


@dataclass
class HealthReport:
    """Everything the crawl-health report renders."""

    profiles: List[ProfileHealth] = field(default_factory=list)
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


def render_health_report(report: HealthReport) -> str:
    """Render the Table-1-style summary."""
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
    return "\n\n".join(sections)


def build_health_report(store) -> HealthReport:
    """Assemble a report from the ``store``'s sites, pages and visits."""
    return HealthReport(
        profiles=profile_health(store.outcomes()),
        sites_crawled=len(store.sites()),
        pages_discovered=len(store.pages()),
    )
