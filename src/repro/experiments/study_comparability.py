"""Experiment: would two independently run studies agree?

The paper's opening problem: studies of the same phenomenon reach
different numbers because their setups differ.  This experiment simulates
three study pairs and scores their agreement:

* **same study, re-run** — same configuration, a later crawl of the same
  sites (the sites are visited starting one site later, so every visit
  gets a fresh id and fresh per-visit draws; the Web's dynamics are the
  only difference);
* **different methodology** — the full five-profile study versus a
  NoAction-only crawl (the "fast crawler" many papers use);
* **different web** — the same setup pointed at a different synthetic web
  (another seed), the across-population check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..analysis import AnalysisDataset
from ..analysis.comparability import ComparabilityReport, StudyComparator
from ..browser.profile import PROFILE_NOACTION
from ..crawler import Commander, MeasurementStore
from ..reporting import percent, render_table
from ..web import WebGenerator
from .runner import ExperimentContext


@dataclass(frozen=True)
class StudyComparabilityResult:
    reports: List[ComparabilityReport]


def _crawl_dataset(
    ctx: ExperimentContext,
    seed: int,
    ranks: List[int],
    profiles=None,
) -> AnalysisDataset:
    generator = WebGenerator(seed, config=ctx.config.web_config)
    store = MeasurementStore()
    Commander(
        generator,
        store,
        profiles=profiles or ctx.config.profiles,
        max_pages_per_site=ctx.config.pages_per_site,
    ).run(ranks)
    from ..blocklist import build_filter_list

    dataset = AnalysisDataset.from_store(
        store, filter_list=build_filter_list(generator.ecosystem)
    )
    store.close()
    return dataset


def run(ctx: ExperimentContext) -> StudyComparabilityResult:
    comparator = StudyComparator(top_k=5)
    seed = ctx.config.seed
    ranks = ctx.ranks[: max(4, len(ctx.ranks) // 2)]
    base = comparator.summarize("study A (reference)", _crawl_dataset(ctx, seed, ranks))
    # Visit-id blocks are dealt site by site in crawl order, so starting
    # one site later gives every site a new block: the same pages,
    # visited again with fresh per-visit draws.
    rerun = comparator.summarize(
        "study B (re-run, later)",
        _crawl_dataset(ctx, seed, ranks[1:] + ranks[:1]),
    )
    noaction = comparator.summarize(
        "study C (NoAction only)",
        _crawl_dataset(ctx, seed, ranks, profiles=(PROFILE_NOACTION,)),
    )
    other_web = comparator.summarize(
        "study D (different web)", _crawl_dataset(ctx, seed + 1, ranks)
    )
    return StudyComparabilityResult(
        reports=[
            comparator.compare(base, rerun),
            comparator.compare(base, noaction),
            comparator.compare(base, other_web),
        ]
    )


def render(result: StudyComparabilityResult) -> str:
    rows = []
    for report in result.reports:
        rows.append(
            [
                report.study_b.name,
                percent(report.study_a.tracking_share),
                percent(report.study_b.tracking_share),
                (
                    f"{report.per_site_rank_correlation:.2f}"
                    if report.per_site_rank_correlation is not None
                    else "-"
                ),
                f"{report.top_tracker_overlap:.2f}",
                "yes" if report.comparable else "NO",
            ]
        )
    table = render_table(
        headers=[
            "vs study A",
            "share A",
            "share B",
            "rank corr",
            "top-5 overlap",
            "comparable?",
        ],
        rows=rows,
        title="Would two studies agree? (tracking prevalence and rankings)",
    )
    return table + (
        "\n\nagreement degrades along a gradient: a re-run of the same setup"
        "\nagrees most, a methodology change less, a different population"
        "\nleast — and even the re-run is not identical (paper §1/§4.4)."
    )
