"""Per-depth node similarity (paper Table 3, §4.1).

For every page, each depth level is compared across the five trees: depth
one with depth one, depth two with depth two, and so on — revealing
*where* in a tree differences occur.  The table's five rows restrict the
node universe differently: all nodes, only nodes with children, only
nodes present in all trees, first-party nodes, and third-party nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..stats.descriptive import Summary, summarize
from .categories import SimilarityCategory, categorize
from .comparison import NodeComparison
from .dataset import AnalysisDataset

NodeFilter = Callable[[NodeComparison], bool]


@dataclass(frozen=True)
class DepthSimilarityRow:
    """One row of Table 3."""

    label: str
    category: SimilarityCategory
    summary: Summary

    @property
    def similarity(self) -> float:
        return self.summary.mean


def _depth_one_needs_children(node: NodeComparison) -> bool:
    """Keep deeper nodes; at depth one require at least one child."""
    if node.min_depth != 1:
        return True
    return node.has_children


def _in_all(node: NodeComparison) -> bool:
    return node.in_all_profiles


def _first_party(node: NodeComparison) -> bool:
    return not node.is_third_party


def _third_party(node: NodeComparison) -> bool:
    return node.is_third_party


#: Table 3's rows: label → node filter.
TABLE3_FILTERS: Dict[str, Optional[NodeFilter]] = {
    "across all depths (all nodes)": None,
    "across all depths (only nodes with children)": _depth_one_needs_children,
    "nodes in all trees": _in_all,
    "first-party nodes": _first_party,
    "third-party nodes": _third_party,
}


class DepthAnalyzer:
    """Computes per-depth similarities and the Table 3 aggregate rows."""

    def per_depth_values(
        self,
        dataset: AnalysisDataset,
        keys_filter: Optional[NodeFilter] = None,
    ) -> List[float]:
        """One similarity value per (page, depth) cell."""
        values: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            for depth in range(1, comparison.max_depth() + 1):
                similarity = comparison.depth_similarity(depth, keys_filter=keys_filter)
                if similarity is not None:
                    values.append(similarity)
        return values

    def row(
        self,
        dataset: AnalysisDataset,
        label: str,
        keys_filter: Optional[NodeFilter] = None,
    ) -> Optional[DepthSimilarityRow]:
        values = self.per_depth_values(dataset, keys_filter)
        if not values:
            return None
        summary = summarize(values)
        return DepthSimilarityRow(
            label=label, category=categorize(summary.mean), summary=summary
        )

    def table3(self, dataset: AnalysisDataset) -> List[DepthSimilarityRow]:
        """All five rows of Table 3 (rows without data are skipped)."""
        rows = []
        for label, keys_filter in TABLE3_FILTERS.items():
            row = self.row(dataset, label, keys_filter)
            if row is not None:
                rows.append(row)
        return rows

    def same_depth_share_for_common_nodes(self, dataset: AnalysisDataset) -> float:
        """Of the nodes present in all trees, how many sit at the same depth?

        The paper finds this is essentially all of them ("if a node appears
        in all trees, it will appear at the same depth").
        """
        total = 0
        same = 0
        for node in dataset.iter_nodes():
            if not node.in_all_profiles:
                continue
            total += 1
            if node.same_depth_everywhere:
                same += 1
        return same / total if total else 1.0

    def mean_similarity_by_depth(
        self,
        dataset: AnalysisDataset,
        max_depth: int,
        keys_filter: Optional[NodeFilter] = None,
    ) -> Dict[int, float]:
        """Depth → mean similarity (depths beyond ``max_depth`` collapse)."""
        buckets: Dict[int, List[float]] = {}
        for entry in dataset:
            comparison = entry.comparison
            for depth in range(1, comparison.max_depth() + 1):
                similarity = comparison.depth_similarity(depth, keys_filter=keys_filter)
                if similarity is None:
                    continue
                bucket = min(depth, max_depth)
                buckets.setdefault(bucket, []).append(similarity)
        return {
            depth: sum(values) / len(values)
            for depth, values in sorted(buckets.items())
        }
