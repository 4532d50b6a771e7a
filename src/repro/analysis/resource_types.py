"""Resource-type effects on similarity (paper Table 4, Figures 5 and 7).

Which content types keep their loading dependencies stable across setups,
and which cause the dissimilarities?  The module computes

* Table 4a — per type, the share of (beyond-depth-one) nodes always
  loaded by the same dependency chain;
* Table 4b — per type, the mean parent similarity (lowest types shown);
* Figure 5 — the composition of pages by resource type, bucketed by the
  page's average parent/child similarity;
* Figure 7 — per type, the mean child/parent similarity by depth;
* the Kruskal-Wallis test that the resource type affects similarity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..stats.descriptive import safe_mean
from ..stats.nonparametric import TestResult, kruskal_wallis
from ..web.resources import ResourceType
from .dataset import AnalysisDataset
from .horizontal import page_child_similarity
from .vertical import page_parent_similarity

#: Types shown in Figure 5 (the most common dynamic ones).
FIGURE5_TYPES: Tuple[ResourceType, ...] = (
    ResourceType.IMAGE,
    ResourceType.SCRIPT,
    ResourceType.STYLESHEET,
    ResourceType.XHR,
    ResourceType.SUB_FRAME,
)


@dataclass(frozen=True)
class TypeChainRow:
    """Per-type chain determinism (Table 4a) and similarity (Table 4b)."""

    resource_type: ResourceType
    node_count: int
    same_chain_share: float
    mean_parent_similarity: float
    mean_child_similarity: float


class ResourceTypeAnalyzer:
    """Per-resource-type similarity breakdowns."""

    # -- Table 4 -----------------------------------------------------------------

    def type_rows(self, dataset: AnalysisDataset, min_depth: int = 2) -> List[TypeChainRow]:
        """One row per observed resource type, for nodes at ``min_depth``+.

        Chain determinism considers nodes present in all trees (as §4.2
        does); parent/child similarity averages over all aligned nodes of
        the type.
        """
        chain_total: Dict[ResourceType, int] = defaultdict(int)
        chain_same: Dict[ResourceType, int] = defaultdict(int)
        parent_sims: Dict[ResourceType, List[float]] = defaultdict(list)
        child_sims: Dict[ResourceType, List[float]] = defaultdict(list)
        counts: Dict[ResourceType, int] = defaultdict(int)
        for node in dataset.iter_nodes():
            if node.min_depth < min_depth:
                continue
            rtype = node.resource_type
            counts[rtype] += 1
            parent_sims[rtype].append(node.parent_similarity())
            if node.has_children:
                child_sims[rtype].append(node.child_similarity())
            if node.in_all_profiles:
                chain_total[rtype] += 1
                if node.same_chain_everywhere():
                    chain_same[rtype] += 1
        rows = []
        for rtype in sorted(counts, key=lambda t: t.value):
            total = chain_total.get(rtype, 0)
            rows.append(
                TypeChainRow(
                    resource_type=rtype,
                    node_count=counts[rtype],
                    same_chain_share=chain_same.get(rtype, 0) / total if total else 0.0,
                    mean_parent_similarity=safe_mean(parent_sims.get(rtype, [])),
                    mean_child_similarity=safe_mean(child_sims.get(rtype, [])),
                )
            )
        return rows

    def table4a(self, dataset: AnalysisDataset, top: int = 5) -> List[TypeChainRow]:
        """Types most often loaded by the same chain (descending)."""
        rows = [row for row in self.type_rows(dataset) if row.node_count > 0]
        rows.sort(key=lambda row: row.same_chain_share, reverse=True)
        return rows[:top]

    def table4b(self, dataset: AnalysisDataset, top: int = 5) -> List[TypeChainRow]:
        """Types with the lowest parent similarity (ascending)."""
        rows = [row for row in self.type_rows(dataset) if row.node_count > 0]
        rows.sort(key=lambda row: row.mean_parent_similarity)
        return rows[:top]

    # -- Figure 5 ------------------------------------------------------------------

    def page_similarity_composition(
        self,
        dataset: AnalysisDataset,
        kind: str = "parent",
        bins: int = 9,
        types: Sequence[ResourceType] = FIGURE5_TYPES,
    ) -> Dict[float, Dict[ResourceType, float]]:
        """Figure 5: for pages bucketed by average parent (or child)
        similarity, the relative share of each resource type's nodes.

        Returns ``bin_upper_bound → {type: share}``.
        """
        if kind not in ("parent", "child"):
            raise ValueError(f"kind must be 'parent' or 'child', got {kind!r}")
        counters: Dict[float, Dict[ResourceType, int]] = defaultdict(lambda: defaultdict(int))
        for entry in dataset:
            comparison = entry.comparison
            if kind == "parent":
                page_score = page_parent_similarity(comparison)
            else:
                page_score = page_child_similarity(comparison)
            if page_score is None:
                continue
            upper = _bin_upper(page_score, bins)
            for node in comparison.nodes():
                if node.resource_type in types:
                    counters[upper][node.resource_type] += 1
        result: Dict[float, Dict[ResourceType, float]] = {}
        for upper, counts in sorted(counters.items()):
            total = sum(counts.values())
            result[upper] = {
                rtype: counts.get(rtype, 0) / total if total else 0.0 for rtype in types
            }
        return result

    # -- Figure 7 ------------------------------------------------------------------

    def similarity_by_type_and_depth(
        self, dataset: AnalysisDataset, combine_after: int = 10
    ) -> Dict[ResourceType, Dict[int, Tuple[float, float]]]:
        """Figure 7: type → depth → (mean child sim, mean parent sim)."""
        child_acc: Dict[Tuple[ResourceType, int], List[float]] = defaultdict(list)
        parent_acc: Dict[Tuple[ResourceType, int], List[float]] = defaultdict(list)
        for node in dataset.iter_nodes():
            bucket = min(node.min_depth, combine_after)
            key = (node.resource_type, bucket)
            parent_acc[key].append(node.parent_similarity())
            if node.has_children:
                child_acc[key].append(node.child_similarity())
        result: Dict[ResourceType, Dict[int, Tuple[float, float]]] = defaultdict(dict)
        for (rtype, depth) in sorted(set(child_acc) | set(parent_acc), key=lambda k: (k[0].value, k[1])):
            result[rtype][depth] = (
                safe_mean(child_acc.get((rtype, depth), [])),
                safe_mean(parent_acc.get((rtype, depth), [])),
            )
        return dict(result)

    # -- subframe impact (§4.2) -------------------------------------------------------

    def subframe_impact(
        self, dataset: AnalysisDataset
    ) -> Dict[str, Dict[str, Optional[float]]]:
        """Average page similarity for pages with vs. without subframes."""
        groups: Dict[str, Dict[str, List[float]]] = {
            "with_subframes": {"parent": [], "child": []},
            "without_subframes": {"parent": [], "child": []},
        }
        for entry in dataset:
            comparison = entry.comparison
            has_subframe = any(
                node.resource_type == ResourceType.SUB_FRAME
                for node in comparison.nodes()
            )
            group = "with_subframes" if has_subframe else "without_subframes"
            parent = page_parent_similarity(comparison)
            child = page_child_similarity(comparison)
            if parent is not None:
                groups[group]["parent"].append(parent)
            if child is not None:
                groups[group]["child"].append(child)
        return {
            group: {
                kind: (sum(values) / len(values) if values else None)
                for kind, values in kinds.items()
            }
            for group, kinds in groups.items()
        }

    # -- significance --------------------------------------------------------------

    def type_effect_test(
        self, dataset: AnalysisDataset, kind: str = "child", min_group: int = 3
    ) -> TestResult:
        """Kruskal-Wallis: does resource type affect similarity?"""
        groups: Dict[ResourceType, List[float]] = defaultdict(list)
        for node in dataset.iter_nodes():
            if kind == "child":
                if node.has_children:
                    groups[node.resource_type].append(node.child_similarity())
            else:
                groups[node.resource_type].append(node.parent_similarity())
        samples = [values for values in groups.values() if len(values) >= min_group]
        if len(samples) < 2:
            raise ValueError("not enough resource-type groups for the test")
        return kruskal_wallis(*samples)


def _bin_upper(score: float, bins: int) -> float:
    """Upper bound of the similarity bin containing ``score``.

    Bins span (0.1, 1.0] in 0.1 steps for ``bins=9`` (Fig 5's x-axis).
    """
    width = 1.0 / (bins + 1)
    index = min(int(score / width), bins)
    upper = (index + 1) * width
    return round(upper, 10)
