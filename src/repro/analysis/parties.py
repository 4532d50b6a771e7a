"""First- vs. third-party context analysis (paper §4.3).

First-party resources are controlled by the site operator and embed
stably; third-party content — ads, trackers, widgets — rotates, chains,
and dominates the deep tree levels.  This module quantifies both sides:
node shares, per-depth dominance, presence across profiles, child
similarity, and the fan-out comparison (children per node).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.descriptive import Summary, safe_mean, summarize
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class PartyProfileStats:
    """§4.3 statistics for one loading context (first or third party)."""

    node_share: float
    depth_one_presence_mean: float
    deeper_presence_mean: float
    child_similarity: Optional[Summary]
    mean_children_per_node: float
    distinct_domains: int


@dataclass(frozen=True)
class PartyComparisonResult:
    """Both contexts side by side, plus the derived contrasts."""

    first_party: PartyProfileStats
    third_party: PartyProfileStats

    @property
    def children_increase(self) -> float:
        """Relative increase of third-party children over first-party."""
        fp = self.first_party.mean_children_per_node
        if fp == 0:
            return 0.0
        return (self.third_party.mean_children_per_node - fp) / fp


class PartyAnalyzer:
    """Computes the §4.3 first-/third-party breakdown."""

    def analyze(self, dataset: AnalysisDataset, deeper_than: int = 1) -> PartyComparisonResult:
        return PartyComparisonResult(
            first_party=self._stats(dataset, third_party=False, deeper_than=deeper_than),
            third_party=self._stats(dataset, third_party=True, deeper_than=deeper_than),
        )

    def party_share_by_depth(self, dataset: AnalysisDataset, combine_after: int = 6) -> Dict[int, float]:
        """Depth → share of third-party tree nodes (dominance check)."""
        first: Dict[int, int] = defaultdict(int)
        third: Dict[int, int] = defaultdict(int)
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                for node in tree.nodes(include_root=True):
                    bucket = min(node.depth, combine_after)
                    if node.is_third_party:
                        third[bucket] += 1
                    else:
                        first[bucket] += 1
        return {
            depth: third.get(depth, 0) / (third.get(depth, 0) + first.get(depth, 0))
            for depth in sorted(set(first) | set(third))
            if third.get(depth, 0) + first.get(depth, 0) > 0
        }

    # -- internals ------------------------------------------------------------

    def _stats(
        self, dataset: AnalysisDataset, third_party: bool, deeper_than: int
    ) -> PartyProfileStats:
        total_nodes = 0
        matching_nodes = 0
        depth_one_presence: List[float] = []
        deeper_presence: List[float] = []
        child_similarities: List[float] = []
        children_counts: List[float] = []
        domains: set = set()
        for node in dataset.iter_nodes():
            total_nodes += 1
            if node.is_third_party != third_party:
                continue
            matching_nodes += 1
            if node.min_depth == 1:
                depth_one_presence.append(node.presence_count)
            elif node.min_depth > deeper_than:
                deeper_presence.append(node.presence_count)
            if node.has_children:
                child_similarities.append(node.child_similarity())
            children_counts.append(node.mean_child_count)
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                for tree_node in tree.nodes():
                    if tree_node.is_third_party != third_party:
                        continue
                    if third_party and tree_node.site is not None:
                        domains.add(tree_node.site)
        return PartyProfileStats(
            node_share=matching_nodes / total_nodes if total_nodes else 0.0,
            depth_one_presence_mean=safe_mean(depth_one_presence),
            deeper_presence_mean=safe_mean(deeper_presence),
            child_similarity=(
                summarize(child_similarities) if child_similarities else None
            ),
            mean_children_per_node=safe_mean(children_counts),
            distinct_domains=len(domains),
        )
