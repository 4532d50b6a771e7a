"""Ablations for the design choices DESIGN.md calls out.

Three ablations, each matching a methodological argument in the paper:

* **URL normalization** (§3.2/§6) — compare trees built from raw URLs vs
  query-value-stripped URLs.  The paper predicts raw URLs (session ids)
  inflate the observed differences; stripping under-reports them slightly.
* **Parent attribution** (§3.2) — disable call-stack/redirect attribution
  and attach everything to frames/root; trees collapse and dependency
  information disappears.
* **Whole-tree vs node-level similarity** (§3.2) — the paper argues
  node-level comparison is more informative than one whole-tree score.

The paper's own recipe is ``ctx.dataset``: its trees, and the URL counts
of the build that made them, are read rather than built again.  Only
the raw-URL and frames-only recipes are built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..analysis import AnalysisDataset, TreeStatsAnalyzer
from ..reporting import render_table
from ..trees.builder import TreeBuilder
from ..trees.normalize import UrlNormalizer
from ..trees.tree import DependencyTree
from .runner import ExperimentContext


@dataclass(frozen=True)
class NormalizationAblation:
    normalized_variation: float
    raw_variation: float
    normalized_changed_ratio: float


@dataclass(frozen=True)
class AttributionAblation:
    full_mean_depth: float
    frames_only_mean_depth: float
    full_root_children: float
    frames_only_root_children: float


@dataclass(frozen=True)
class SimilarityGranularityAblation:
    whole_tree_mean: float
    depth_one_mean: float


@dataclass(frozen=True)
class AblationResult:
    normalization: NormalizationAblation
    attribution: AttributionAblation
    granularity: SimilarityGranularityAblation


def _tree_sets(
    ctx: ExperimentContext, builder: TreeBuilder
) -> List[Dict[str, DependencyTree]]:
    """``builder``'s trees of the pages ``ctx.dataset`` keeps.

    Pages are vetted as the dataset's build vetted them (its profiles,
    its partial-visit setting).  The builder has no filter list: the
    statistics read only keys, depths and root-child counts.
    """
    dataset = ctx.dataset
    return list(
        builder.iter_page_trees(
            ctx.store, dataset.profiles, include_partial=dataset.include_partial
        )
    )


class _FramesOnlyBuilder(TreeBuilder):
    """Tree builder with call-stack/redirect attribution disabled."""

    def _resolve_parent(self, request, resource_type, by_request_id, by_raw_url,
                        frame_docs, frame_parents, tree):
        from ..web.resources import ResourceType

        if resource_type == ResourceType.SUB_FRAME:
            parent_frame = request.parent_frame_id
            if parent_frame is not None and parent_frame in frame_docs:
                return frame_docs[parent_frame]
        elif request.frame_id in frame_docs:
            return frame_docs[request.frame_id]
        return tree.root


def run(ctx: ExperimentContext) -> AblationResult:
    stats = TreeStatsAnalyzer()
    normalized_variation = stats.pairwise_data_variation(ctx.dataset)

    raw_sets = _tree_sets(ctx, TreeBuilder(UrlNormalizer(strip_query_values=False)))
    raw_variation = stats.pairwise_data_variation(
        AnalysisDataset.from_tree_sets(raw_sets)
    )

    tree_sets = [entry.comparison.trees for entry in ctx.dataset]
    frames_sets = _tree_sets(ctx, _FramesOnlyBuilder())

    def mean_depth(sets: List[Dict]) -> float:
        depths = [t.max_depth for trees in sets for t in trees.values()]
        return sum(depths) / len(depths) if depths else 0.0

    def mean_root_children(sets: List[Dict]) -> float:
        counts = [len(t.root.children) for trees in sets for t in trees.values()]
        return sum(counts) / len(counts) if counts else 0.0

    whole_tree = [
        entry.comparison.whole_tree_similarity() for entry in ctx.dataset
    ]
    depth_one = [entry.comparison.depth_one_similarity() for entry in ctx.dataset]
    return AblationResult(
        normalization=NormalizationAblation(
            normalized_variation=normalized_variation,
            raw_variation=raw_variation,
            normalized_changed_ratio=ctx.dataset.normalization.changed_ratio,
        ),
        attribution=AttributionAblation(
            full_mean_depth=mean_depth(tree_sets),
            frames_only_mean_depth=mean_depth(frames_sets),
            full_root_children=mean_root_children(tree_sets),
            frames_only_root_children=mean_root_children(frames_sets),
        ),
        granularity=SimilarityGranularityAblation(
            whole_tree_mean=sum(whole_tree) / len(whole_tree) if whole_tree else 0.0,
            depth_one_mean=sum(depth_one) / len(depth_one) if depth_one else 0.0,
        ),
    )


def render(result: AblationResult) -> str:
    norm = render_table(
        headers=["URL identity", "pairwise data variation"],
        rows=[
            ["normalized (paper)", result.normalization.normalized_variation],
            ["raw URLs", result.normalization.raw_variation],
        ],
        title="Ablation A: URL normalization (raw URLs inflate differences)",
    )
    attribution = render_table(
        headers=["Attribution", "mean tree depth", "root children (mean)"],
        rows=[
            [
                "redirect+stack+frame (paper)",
                result.attribution.full_mean_depth,
                result.attribution.full_root_children,
            ],
            [
                "frames only",
                result.attribution.frames_only_mean_depth,
                result.attribution.frames_only_root_children,
            ],
        ],
        title="Ablation B: parent attribution signals",
    )
    granularity = render_table(
        headers=["Granularity", "mean similarity"],
        rows=[
            ["whole-tree node sets", result.granularity.whole_tree_mean],
            ["depth-one (horizontal entry)", result.granularity.depth_one_mean],
        ],
        title="Ablation C: whole-tree vs node-level comparison",
    )
    changed = result.normalization.normalized_changed_ratio
    note = f"URLs adjusted by normalization: {changed:.0%} (paper: 40%)"
    return "\n\n".join([norm, attribution, granularity, note])
