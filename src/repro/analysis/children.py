"""Children statistics (paper §4.2, Figures 4 and 8).

How trees grow: how many children nodes have per depth, how the
similarity of children/parents develops with depth, and the relation
between a node's number of children and its child similarity (Wilcoxon).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..stats.descriptive import Summary, safe_mean, summarize
from ..stats.nonparametric import TestResult, wilcoxon_signed_rank
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class ChildCountStats:
    """§4.2 headline child counts."""

    per_node: Summary
    per_page_root: Summary
    share_with_at_most_one_child_beyond_root: float


@dataclass(frozen=True)
class DepthSimilarityPoint:
    """Mean similarity of children and parents at one depth (Fig 4/7)."""

    depth: int
    child_similarity: float
    parent_similarity: float
    node_count: int


class ChildrenAnalyzer:
    """Computes child-count and child-similarity statistics."""

    # -- counts (Figure 8, §4.2) ------------------------------------------------

    def child_counts(self, dataset: AnalysisDataset) -> ChildCountStats:
        per_node: List[float] = []
        per_root: List[float] = []
        beyond_root_total = 0
        beyond_root_sparse = 0
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                per_root.append(float(len(tree.root.children)))
                for node in tree.nodes():
                    count = len(node.children)
                    per_node.append(float(count))
                    beyond_root_total += 1
                    if count <= 1:
                        beyond_root_sparse += 1
        return ChildCountStats(
            per_node=summarize(per_node) if per_node else summarize([0.0]),
            per_page_root=summarize(per_root) if per_root else summarize([0.0]),
            share_with_at_most_one_child_beyond_root=(
                beyond_root_sparse / beyond_root_total if beyond_root_total else 0.0
            ),
        )

    def children_per_depth(
        self, dataset: AnalysisDataset, combine_after: int = 20, with_children_only: bool = False
    ) -> Dict[int, Summary]:
        """Figure 8: distribution of child counts per node depth."""
        buckets: Dict[int, List[float]] = defaultdict(list)
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                for node in tree.nodes():
                    count = len(node.children)
                    if with_children_only and count == 0:
                        continue
                    bucket = min(node.depth, combine_after)
                    buckets[bucket].append(float(count))
        return {depth: summarize(values) for depth, values in sorted(buckets.items())}

    # -- similarity vs depth (Figure 4) ------------------------------------------

    def similarity_by_depth(
        self, dataset: AnalysisDataset, combine_after: int = 4
    ) -> List[DepthSimilarityPoint]:
        """Mean child/parent similarity per depth; deep levels combined."""
        child_values: Dict[int, List[float]] = defaultdict(list)
        parent_values: Dict[int, List[float]] = defaultdict(list)
        for node in dataset.iter_nodes():
            bucket = min(node.min_depth, combine_after)
            if node.has_children:
                child_values[bucket].append(node.child_similarity())
            if node.min_depth >= 1:
                parent_values[bucket].append(node.parent_similarity())
        points = []
        for depth in sorted(set(child_values) | set(parent_values)):
            points.append(
                DepthSimilarityPoint(
                    depth=depth,
                    child_similarity=safe_mean(child_values.get(depth, [])),
                    parent_similarity=safe_mean(parent_values.get(depth, [])),
                    node_count=len(child_values.get(depth, []))
                    + len(parent_values.get(depth, [])),
                )
            )
        return points

    # -- child count vs similarity (§4.2 Wilcoxon) ---------------------------------

    def child_count_vs_similarity(
        self, dataset: AnalysisDataset
    ) -> Tuple[TestResult, float, float]:
        """Wilcoxon test relating the number of children to child similarity.

        Pairs each node's normalized child count with its similarity; the
        paper reports significance (nodes with many children load more
        varying children).  Also returns mean similarity for small (≤1)
        vs. large (>1) child sets for interpretability.
        """
        counts: List[float] = []
        similarities: List[float] = []
        small: List[float] = []
        large: List[float] = []
        for node in dataset.iter_nodes():
            mean_children = node.mean_child_count
            if mean_children == 0:
                continue
            similarity = node.child_similarity()
            counts.append(min(mean_children, 10.0) / 10.0)
            similarities.append(similarity)
            if mean_children <= 1.0:
                small.append(similarity)
            else:
                large.append(similarity)
        if not counts:
            raise ValueError("no nodes with children in dataset")
        test = wilcoxon_signed_rank(counts, similarities)
        return test, safe_mean(small), safe_mean(large)
