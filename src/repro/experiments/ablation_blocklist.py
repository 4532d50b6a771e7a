"""Ablation: filter-list composition (paper §6).

The paper classifies tracking with EasyList alone and discusses the
limitation: the list is crowd-sourced, incomplete, and combining lists
(e.g. EasyPrivacy) changes what counts as a tracker.  This ablation
classifies the same trees under four list configurations and reports
how the headline tracking statistics move:

* the full synthetic EasyList (the main pipeline's classifier),
* its domain-anchored rules only (no generic path patterns),
* its generic patterns only,
* EasyList + the EasyPrivacy-style companion list.

The dataset is classified once, when it is built; each list here is
read as the keys it blocks in the built trees, which writes nothing.
A page's trees are classified in one pass over all their nodes, which
asks a list about each key's distinct (raw URL, resource type) pairs
once, not once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import AnalysisDataset
from ..blocklist import FilterList, build_combined_list, generate_easylist
from ..blocklist.parser import parse_filter_list
from ..reporting import percent, render_table
from ..stats.descriptive import ratio, safe_mean
from ..trees.tree import tracking_keys
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
    """The tracking share and tracking child similarity under ``filter_list``.

    A page's tracking nodes are what
    :func:`~repro.trees.tree.tracking_keys` gives over all of its trees'
    nodes: the union of each tree's tracking keys, exactly the nodes a
    dataset built under the list would flag.  The child similarities
    are those of the tracking nodes with children, in the order
    ``TrackingAnalyzer`` averages them.  ``dataset`` is only read.
    """
    nodes = tracking = 0
    child_similarities: List[float] = []
    for comparison in dataset.comparisons():
        keys = tracking_keys(
            (node for tree in comparison.tree_list() for node in tree.nodes()),
            filter_list,
            comparison.page_url,
        )
        nodes += len(comparison)
        tracking += len(keys)
        child_similarities.extend(
            node.child_similarity()
            for node in comparison.nodes()
            if node.key in keys and node.has_children
        )
    return ListPoint(
        name=name,
        filter_count=len(filter_list),
        tracking_share=ratio(tracking, nodes),
        tracking_child_similarity=safe_mean(child_similarities),
    )


def run(ctx: ExperimentContext) -> BlocklistAblationResult:
    """Classify ``ctx.dataset``'s trees under each list configuration.

    Each list, the paper's too, is read as key sets over the dataset's
    own trees, so no tree is built and no page aligned.
    """
    return BlocklistAblationResult(
        points=[
            _point(name, filter_list, ctx.dataset)
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
