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
of the build that made them, are read rather than built again.  The
raw-URL and frames-only recipes build no tree.  Each visit ``ctx.dataset``
kept is read from the store once, and both recipes fold
:func:`~repro.trees.builder.resolve_parents` over that read into just
what the statistics read: the raw-URL recipe's non-root key set, and the
frames-only recipe's maximum depth (first parent wins, as in a tree) and
root-child count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, NamedTuple, Sequence

from ..analysis.treestats import data_variation, tree_keys
from ..browser.network import RequestRecord
from ..reporting import render_table
from ..trees.builder import resolve_parents
from ..trees.normalize import UrlNormalizer
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


class _RecipeStats(NamedTuple):
    """What the ablations read of one visit under the two recipes."""

    raw_keys: FrozenSet[str]
    frames_only_depth: int
    frames_only_root_children: int


def _recipe_stats(
    page_url: str,
    requests: Sequence[RequestRecord],
    raw: Callable[[str], str],
    frames: Callable[[str], str],
) -> _RecipeStats:
    """Both recipes of one visit: ``raw`` and ``frames`` normalize URLs."""
    raw_page = raw(page_url)
    raw_keys = {raw_page}
    for _, _, key, _ in resolve_parents(raw_page, requests, raw, raw_keys):
        raw_keys.add(key)
    raw_keys.discard(raw_page)
    frames_page = frames(page_url)
    depths = {frames_page: 0}
    for _, _, key, parent in resolve_parents(
        frames_page, requests, frames, depths, frames_only=True
    ):
        if key not in depths:
            depths[key] = depths[parent] + 1
    depth_list = list(depths.values())
    return _RecipeStats(frozenset(raw_keys), max(depth_list), depth_list.count(1))


def _page_recipe_stats(ctx: ExperimentContext) -> Iterator[Dict[str, _RecipeStats]]:
    """Profile → :class:`_RecipeStats` of each page ``ctx.dataset`` keeps.

    Pages come in dataset order and profiles in each page's order.  Each
    of the dataset's trees names its visit; the visit and its requests
    are read once and both recipes fold that read.
    """
    store = ctx.store
    raw = UrlNormalizer(strip_query_values=False).normalize
    frames = UrlNormalizer().normalize
    for entry in ctx.dataset:
        yield {
            profile: _recipe_stats(
                store.visit(tree.visit_id).page_url,
                store.requests_for_visit(tree.visit_id),
                raw,
                frames,
            )
            for profile, tree in entry.comparison.trees.items()
        }


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def run(ctx: ExperimentContext) -> AblationResult:
    full = [tree for entry in ctx.dataset for tree in entry.comparison.tree_list()]
    pages = list(_page_recipe_stats(ctx))
    recipes = [stats for page in pages for stats in page.values()]

    whole_tree = [
        entry.comparison.whole_tree_similarity() for entry in ctx.dataset
    ]
    depth_one = [entry.comparison.depth_one_similarity() for entry in ctx.dataset]
    return AblationResult(
        normalization=NormalizationAblation(
            normalized_variation=data_variation(
                [tree_keys(entry.comparison.trees) for entry in ctx.dataset]
            ),
            raw_variation=data_variation(
                [{profile: stats.raw_keys for profile, stats in page.items()}
                 for page in pages]
            ),
            normalized_changed_ratio=ctx.dataset.normalization.changed_ratio,
        ),
        attribution=AttributionAblation(
            full_mean_depth=_mean([tree.max_depth for tree in full]),
            frames_only_mean_depth=_mean([stats.frames_only_depth for stats in recipes]),
            full_root_children=_mean([len(tree.root.children) for tree in full]),
            frames_only_root_children=_mean(
                [stats.frames_only_root_children for stats in recipes]
            ),
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
