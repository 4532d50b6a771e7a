"""Ablation: filter-list composition (paper §6).

The paper classifies tracking with EasyList alone and discusses the
limitation: the list is crowd-sourced, incomplete, and combining lists
(e.g. EasyPrivacy) changes what counts as a tracker.  This ablation
re-classifies the same trees under four list configurations and reports
how the headline tracking statistics move:

* the full synthetic EasyList (the main pipeline's classifier),
* its domain-anchored rules only (no generic path patterns),
* its generic patterns only,
* EasyList + the EasyPrivacy-style companion list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import AnalysisDataset, TrackingAnalyzer
from ..blocklist import FilterList, build_combined_list, generate_easylist
from ..blocklist.parser import parse_filter_list
from ..reporting import percent, render_table
from .runner import ExperimentContext


@dataclass(frozen=True)
class ListPoint:
    """Tracking statistics under one list configuration."""

    name: str
    filter_count: int
    tracking_share: float
    tracking_child_similarity: float


@dataclass(frozen=True)
class BlocklistAblationResult:
    points: List[ListPoint]


def _variants(ctx: ExperimentContext) -> Dict[str, FilterList]:
    easylist_text = generate_easylist(ctx.generator.ecosystem)
    filters = parse_filter_list(easylist_text)
    anchored = [flt for flt in filters if flt.anchor_domain and not flt.is_exception]
    generic = [flt for flt in filters if not flt.anchor_domain and not flt.is_exception]
    return {
        "EasyList (paper)": ctx.filter_list,
        "domain rules only": FilterList(anchored),
        "generic rules only": FilterList(generic),
        "EasyList + EasyPrivacy": build_combined_list(ctx.generator.ecosystem),
    }


def _point(name: str, filter_list: FilterList, dataset: AnalysisDataset) -> ListPoint:
    report = TrackingAnalyzer().analyze(dataset)
    child_sim = (
        report.child_similarity_tracking.mean
        if report.child_similarity_tracking is not None
        else 0.0
    )
    return ListPoint(
        name=name,
        filter_count=len(filter_list),
        tracking_share=report.tracking_node_share,
        tracking_child_similarity=child_sim,
    )


def run(ctx: ExperimentContext) -> BlocklistAblationResult:
    """Analyse ``ctx.dataset`` under each list configuration.

    The paper's list classified ``ctx.dataset`` itself; each other list
    gets a re-classified dataset, made, analysed and dropped in turn.
    It shares ``ctx.dataset``'s alignment, and the tracking analysis
    reads only nodes, so no tree is copied.
    """
    return BlocklistAblationResult(
        points=[
            _point(
                name,
                filter_list,
                ctx.dataset
                if filter_list is ctx.filter_list
                else ctx.dataset.reclassified(filter_list),
            )
            for name, filter_list in _variants(ctx).items()
        ]
    )


def render(result: BlocklistAblationResult) -> str:
    table = render_table(
        headers=["list", "filters", "tracking share", "tracking child sim"],
        rows=[
            [point.name, point.filter_count, percent(point.tracking_share),
             round(point.tracking_child_similarity, 2)]
            for point in result.points
        ],
        title="Ablation F: filter-list composition vs tracking classification",
    )
    base = result.points[0].tracking_share
    combined = result.points[-1].tracking_share
    note = (
        f"adding the companion list moves the tracking share from "
        f"{percent(base)} to {percent(combined)} — the classifier is part "
        "of the setup (paper §6)"
    )
    return f"{table}\n\n{note}"
