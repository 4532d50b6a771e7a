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
the raw-URL and frames-only recipes are built here, both from one store
read of each visit ``ctx.dataset`` kept, and neither is aligned: the
statistics read only key sets, depths and root-child counts.  They are
built one page at a time, and :func:`run` keeps a page's statistics and
lets its recipe trees go before the next page is built, so no recipe
tree outlives its page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Tuple

from ..analysis.treestats import data_variation, tree_keys
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


def _recipe_tree_sets(
    ctx: ExperimentContext,
) -> Iterator[Tuple[Dict[str, DependencyTree], Dict[str, DependencyTree]]]:
    """The raw-URL and the frames-only trees of each page ``ctx.dataset`` keeps.

    Yields one page's ``(raw, frames)`` profile → tree mappings at a
    time, in dataset order.  Each of the dataset's trees names its
    visit; the visit and its requests are read once and both recipes are
    built from that read, with the dataset's partial-visit setting.  The
    builders have no filter list: the statistics read no tracking flag.
    """
    store = ctx.store
    allow_partial = ctx.dataset.include_partial
    raw_builder = TreeBuilder(UrlNormalizer(strip_query_values=False))
    frames_builder = _FramesOnlyBuilder()
    for entry in ctx.dataset:
        raw: Dict[str, DependencyTree] = {}
        frames: Dict[str, DependencyTree] = {}
        for profile, tree in entry.comparison.trees.items():
            visit = store.visit(tree.visit_id)
            requests = store.requests_for_visit(tree.visit_id)
            raw[profile] = raw_builder.build(visit, requests, allow_partial=allow_partial)
            frames[profile] = frames_builder.build(
                visit, requests, allow_partial=allow_partial
            )
        yield raw, frames


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def run(ctx: ExperimentContext) -> AblationResult:
    full = [tree for entry in ctx.dataset for tree in entry.comparison.tree_list()]
    raw_keys: List[Dict[str, FrozenSet[str]]] = []
    frames_depths: List[int] = []
    frames_root_children: List[int] = []
    for raw, frames in _recipe_tree_sets(ctx):
        raw_keys.append(tree_keys(raw))
        frames_depths.extend(tree.max_depth for tree in frames.values())
        frames_root_children.extend(len(tree.root.children) for tree in frames.values())
        del raw, frames  # the page's trees go before the next page is built

    whole_tree = [
        entry.comparison.whole_tree_similarity() for entry in ctx.dataset
    ]
    depth_one = [entry.comparison.depth_one_similarity() for entry in ctx.dataset]
    return AblationResult(
        normalization=NormalizationAblation(
            normalized_variation=data_variation(
                [tree_keys(entry.comparison.trees) for entry in ctx.dataset]
            ),
            raw_variation=data_variation(raw_keys),
            normalized_changed_ratio=ctx.dataset.normalization.changed_ratio,
        ),
        attribution=AttributionAblation(
            full_mean_depth=_mean([tree.max_depth for tree in full]),
            frames_only_mean_depth=_mean(frames_depths),
            full_root_children=_mean([len(tree.root.children) for tree in full]),
            frames_only_root_children=_mean(frames_root_children),
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
