"""Tree-level descriptive statistics (paper Table 2, Figures 1 and 3).

Covers the dataset overview: tree dimensions (nodes, depth, breadth),
node presence across profiles (in how many of the five trees does a node
occur), the depth × breadth distribution, and the per-depth composition
by node type (party × tracking).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Mapping, Sequence, Tuple

from ..stats.descriptive import Summary, summarize
from ..trees.tree import DependencyTree
from .dataset import AnalysisDataset
from .jaccard import jaccard


@dataclass(frozen=True)
class TreeOverview:
    """Table 2: dimensions plus cross-profile presence."""

    nodes: Summary
    depth: Summary
    breadth: Summary
    mean_presence: float
    present_in_all_share: float
    present_in_one_share: float
    tree_count: int
    node_count: int


@dataclass(frozen=True)
class DepthTypeComposition:
    """Figure 3: per-depth shares of node types."""

    depth: int
    first_party: float
    third_party: float
    tracking: float
    non_tracking: float
    total_nodes: int


class TreeStatsAnalyzer:
    """Computes Table 2, Figure 1, and Figure 3."""

    def overview(self, dataset: AnalysisDataset) -> TreeOverview:
        """Table 2 for a dataset."""
        node_counts: List[float] = []
        depths: List[float] = []
        breadths: List[float] = []
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                node_counts.append(tree.node_count)
                depths.append(tree.max_depth)
                breadths.append(tree.breadth)
        presence = [node.presence_count for node in dataset.iter_nodes()]
        total = len(presence)
        profile_count = len(dataset.profiles)
        in_all = sum(1 for count in presence if count == profile_count)
        in_one = sum(1 for count in presence if count == 1)
        return TreeOverview(
            nodes=summarize(node_counts),
            depth=summarize(depths),
            breadth=summarize(breadths),
            mean_presence=sum(presence) / total if total else 0.0,
            present_in_all_share=in_all / total if total else 0.0,
            present_in_one_share=in_one / total if total else 0.0,
            tree_count=len(node_counts),
            node_count=total,
        )

    def depth_breadth_distribution(
        self, dataset: AnalysisDataset
    ) -> Dict[Tuple[int, int], int]:
        """Figure 1: (depth, breadth) → number of trees."""
        counts: Counter = Counter()
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                counts[(tree.max_depth, tree.breadth)] += 1
        return dict(counts)

    def shallow_broad_share(
        self, dataset: AnalysisDataset, depth_below: int = 6, breadth_below: int = 21
    ) -> float:
        """Share of trees with depth < ``depth_below`` and breadth <
        ``breadth_below`` (the paper: 56% for <6 / <21)."""
        total = 0
        matching = 0
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                total += 1
                if tree.max_depth < depth_below and tree.breadth < breadth_below:
                    matching += 1
        return matching / total if total else 0.0

    def composition_by_depth(
        self, dataset: AnalysisDataset, combine_after: int = 6
    ) -> List[DepthTypeComposition]:
        """Figure 3: node-type volumes per depth (deep levels combined).

        Counts tree-node occurrences (not aligned nodes): each tree
        contributes its own nodes, matching how the figure counts volume.
        Depth 0 is the visited page itself (always first party).
        """
        first_party: Dict[int, int] = defaultdict(int)
        third_party: Dict[int, int] = defaultdict(int)
        tracking: Dict[int, int] = defaultdict(int)
        non_tracking: Dict[int, int] = defaultdict(int)
        for entry in dataset:
            for tree in entry.comparison.tree_list():
                for node in tree.nodes(include_root=True):
                    bucket = min(node.depth, combine_after)
                    if node.is_third_party:
                        third_party[bucket] += 1
                    else:
                        first_party[bucket] += 1
                    if node.is_tracking:
                        tracking[bucket] += 1
                    else:
                        non_tracking[bucket] += 1
        rows = []
        for depth in sorted(set(first_party) | set(third_party)):
            fp = first_party.get(depth, 0)
            tp = third_party.get(depth, 0)
            trk = tracking.get(depth, 0)
            non = non_tracking.get(depth, 0)
            total = fp + tp
            if total == 0:
                continue
            rows.append(
                DepthTypeComposition(
                    depth=depth,
                    first_party=fp / total,
                    third_party=tp / total,
                    tracking=trk / total,
                    non_tracking=non / total,
                    total_nodes=total,
                )
            )
        return rows

    def pairwise_data_variation(self, dataset: AnalysisDataset) -> float:
        """Share of data that differs when comparing two profiles (≈48%).

        :func:`data_variation` of the dataset's trees.
        """
        return data_variation([tree_keys(entry.comparison.trees) for entry in dataset])


def tree_keys(trees: Mapping[str, DependencyTree]) -> Dict[str, FrozenSet[str]]:
    """Profile → the tree's non-root node keys, what :func:`data_variation` reads."""
    return {profile: frozenset(tree.keys()) for profile, tree in trees.items()}


def data_variation(key_sets: Sequence[Mapping[str, AbstractSet[str]]]) -> float:
    """Mean over pages and profile pairs of ``1 − J(keys_a, keys_b)``.

    Each mapping is one page's profile → key set (:func:`tree_keys`), so
    a caller can keep a page's keys and let its trees go.  Profiles are
    taken in sorted order and pairs in ``(i, j)``, ``i < j`` order, so
    any caller sums the same floats in the same order.
    """
    values: List[float] = []
    for page in key_sets:
        keys = [page[profile] for profile in sorted(page)]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                values.append(1.0 - jaccard(keys[i], keys[j]))
    return sum(values) / len(values) if values else 0.0
