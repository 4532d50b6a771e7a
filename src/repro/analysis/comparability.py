"""Cross-study comparability (the paper's motivating question).

Given *two measurement runs* — different points in time, different
crawlers, or different configurations — would their published conclusions
agree?  The paper argues this is the community's blind spot; this module
makes the comparison concrete for the most-published quantities:

* **tracking prevalence** — the tracking-node share each study reports;
* **per-site tracker ranking** — Spearman rank correlation of tracker
  counts over the sites both studies crawled;
* **top-tracker lists** — Jaccard overlap of the top-k tracker domains
  each study would name;
* **site coverage** — how much of each other's site set the studies share.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stats.descriptive import ratio
from ..stats.nonparametric import spearman_rho
from .dataset import AnalysisDataset
from .jaccard import jaccard


@dataclass(frozen=True)
class StudySummary:
    """The publishable headline numbers of one measurement run."""

    name: str
    pages: int
    sites: int
    tracking_share: float
    trackers_per_site: Dict[str, float]
    top_trackers: Tuple[str, ...]


@dataclass(frozen=True)
class ComparabilityReport:
    """How far two studies' conclusions agree."""

    study_a: StudySummary
    study_b: StudySummary
    common_sites: int
    tracking_share_gap: float
    per_site_rank_correlation: Optional[float]
    top_tracker_overlap: float

    @property
    def comparable(self) -> bool:
        """A pragmatic verdict: conclusions broadly agree.

        Thresholds follow the paper's similarity categories: high list
        overlap, small prevalence gap, and — when enough common sites
        exist for ranks to be meaningful (>= 8) — correlated rankings.
        """
        rank_ok = (
            self.per_site_rank_correlation is None
            or self.common_sites < 8
            or self.per_site_rank_correlation >= 0.5
        )
        return (
            self.tracking_share_gap < 0.1
            and self.top_tracker_overlap >= 0.5
            and rank_ok
        )


class StudyComparator:
    """Summarizes runs and compares their would-be conclusions."""

    def __init__(self, top_k: int = 5) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k

    # -- summaries ------------------------------------------------------------

    def summarize(self, name: str, dataset: AnalysisDataset) -> StudySummary:
        """The headline numbers a single-run study would publish."""
        total_nodes = 0
        tracking_nodes = 0
        trackers_per_site: Dict[str, List[int]] = defaultdict(list)
        tracker_domains: Counter = Counter()
        for entry in dataset:
            page_tracker_count = 0
            for node in entry.comparison.nodes():
                total_nodes += 1
                if node.is_tracking:
                    tracking_nodes += 1
                    page_tracker_count += 1
                    site = node.any_view.site
                    if site:
                        tracker_domains[site] += 1
            trackers_per_site[entry.site].append(page_tracker_count)
        return StudySummary(
            name=name,
            pages=len(dataset),
            sites=len(trackers_per_site),
            tracking_share=ratio(tracking_nodes, total_nodes),
            trackers_per_site={
                site: sum(values) / len(values)
                for site, values in trackers_per_site.items()
            },
            top_trackers=tuple(
                domain for domain, _ in tracker_domains.most_common(self.top_k)
            ),
        )

    # -- comparison --------------------------------------------------------------

    def compare(
        self, study_a: StudySummary, study_b: StudySummary
    ) -> ComparabilityReport:
        common = sorted(
            set(study_a.trackers_per_site) & set(study_b.trackers_per_site)
        )
        correlation: Optional[float] = None
        if len(common) >= 3:
            values_a = [study_a.trackers_per_site[site] for site in common]
            values_b = [study_b.trackers_per_site[site] for site in common]
            correlation = spearman_rho(values_a, values_b)
        return ComparabilityReport(
            study_a=study_a,
            study_b=study_b,
            common_sites=len(common),
            tracking_share_gap=abs(study_a.tracking_share - study_b.tracking_share),
            per_site_rank_correlation=correlation,
            top_tracker_overlap=jaccard(
                set(study_a.top_trackers), set(study_b.top_trackers)
            ),
        )

    def compare_datasets(
        self,
        name_a: str,
        dataset_a: AnalysisDataset,
        name_b: str,
        dataset_b: AnalysisDataset,
    ) -> ComparabilityReport:
        """Summarize and compare in one step."""
        return self.compare(
            self.summarize(name_a, dataset_a), self.summarize(name_b, dataset_b)
        )
