"""Horizontal tree analysis: comparing siblings (paper §3.2, Appendix D).

The horizontal pass starts at depth one of each page's trees — the
elements directly loaded by the page — and computes the pairwise-mean
Jaccard of those node sets.  It then recurses: for every node that recurs
in at least two trees with at least one child, the children sets are
compared, and the recursion continues into children that again recur,
until no node recurs in two or more profiles.

Unless stated otherwise, depth-one nodes that *cannot* dynamically load
additional content (images, fonts, plain media) are excluded — including
them would report perfect similarity for branches that cannot possibly
differ, under-reporting the Web's dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Set

from ..web.resources import ResourceType
from .comparison import NodeComparison, PageComparison
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class ChildSimilarityRecord:
    """Child-set similarity of one recurring node on one page."""

    page_url: str
    key: str
    depth: int
    resource_type: ResourceType
    is_third_party: bool
    is_tracking: bool
    presence_count: int
    similarity: float
    mean_child_count: float


@dataclass(frozen=True)
class HorizontalResult:
    """Everything the horizontal pass produced for one page."""

    page_url: str
    depth_one_similarity: float
    records: List[ChildSimilarityRecord]

    def similarities(self) -> List[float]:
        return [record.similarity for record in self.records]


def exclude_static_leaf(node: NodeComparison) -> bool:
    """The paper's default filter: drop depth-one nodes that cannot load
    children (text, images, ...) — they would fake perfect similarity."""
    if node.min_depth == 1 and not node.resource_type.can_load_children:
        return False
    return True


class HorizontalAnalyzer:
    """Runs the recursive horizontal comparison."""

    def __init__(self, include_static_leaves: bool = False) -> None:
        self.include_static_leaves = include_static_leaves

    # -- per page ------------------------------------------------------------

    def analyze_page(self, comparison: PageComparison) -> HorizontalResult:
        """The horizontal pass for one page's aligned trees."""
        depth_one = self._depth_one_similarity(comparison)
        records: List[ChildSimilarityRecord] = []
        visited: Set[str] = set()
        # Recursion frontier: depth-one nodes that recur in >= 2 trees.
        frontier = [
            node
            for node in comparison.nodes()
            if node.min_depth == 1 and node.presence_count >= 2
        ]
        while frontier:
            next_frontier: List[NodeComparison] = []
            for node in frontier:
                if node.key in visited:
                    continue
                visited.add(node.key)
                if not self.include_static_leaves and not exclude_static_leaf(node):
                    continue
                if not node.has_children:
                    continue
                record = self._record_for(comparison, node)
                records.append(record)
                for child_key in self._recurring_children(comparison, node):
                    child = comparison.node(child_key)
                    if child is not None and child.presence_count >= 2:
                        next_frontier.append(child)
            frontier = next_frontier
        return HorizontalResult(
            page_url=comparison.page_url,
            depth_one_similarity=depth_one,
            records=records,
        )

    # -- across the dataset ----------------------------------------------------

    def analyze(self, dataset: AnalysisDataset) -> Iterator[HorizontalResult]:
        for entry in dataset:
            yield self.analyze_page(entry.comparison)

    def all_records(self, dataset: AnalysisDataset) -> List[ChildSimilarityRecord]:
        records: List[ChildSimilarityRecord] = []
        for result in self.analyze(dataset):
            records.extend(result.records)
        return records

    # -- internals ---------------------------------------------------------------

    def _depth_one_similarity(self, comparison: PageComparison) -> float:
        keys_filter = None if self.include_static_leaves else exclude_static_leaf
        result = comparison.depth_similarity(1, keys_filter=keys_filter)
        return result if result is not None else 1.0

    @staticmethod
    def _record_for(
        comparison: PageComparison, node: NodeComparison
    ) -> ChildSimilarityRecord:
        return ChildSimilarityRecord(
            page_url=comparison.page_url,
            key=node.key,
            depth=node.min_depth,
            resource_type=node.resource_type,
            is_third_party=node.is_third_party,
            is_tracking=node.is_tracking,
            presence_count=node.presence_count,
            similarity=node.child_similarity(),
            mean_child_count=node.mean_child_count,
        )

    @staticmethod
    def _recurring_children(
        comparison: PageComparison, node: NodeComparison
    ) -> Set[str]:
        """Children of ``node`` that occur in at least two trees."""
        counts: dict = {}
        for view in node.present_views():
            for child_key in view.child_keys():
                counts[child_key] = counts.get(child_key, 0) + 1
        return {key for key, count in counts.items() if count >= 2}


def page_child_similarity(comparison: PageComparison) -> Optional[float]:
    """The page-average child similarity (used by Figure 5b).

    Mean over recurring nodes with at least one child; ``None`` when the
    page has no such node.
    """
    result = HorizontalAnalyzer().analyze_page(comparison)
    values = result.similarities()
    return sum(values) / len(values) if values else None
