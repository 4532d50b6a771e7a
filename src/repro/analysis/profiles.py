"""Setup implications: per-profile totals and pairwise comparisons
(paper §4.4, Tables 5 and 6).

Table 5 summarizes each profile's measured trees (nodes, third-party
nodes, trackers, max depth/breadth).  Table 6 compares every profile
against the reference profile Sim1: the share of nodes whose children
(or parent) are *perfectly* similar (Jaccard 1) or *not at all* similar
(Jaccard 0), split by loading context, plus mean dependency similarities.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import AnalysisError
from ..stats.descriptive import ratio, safe_mean
from ..stats.nonparametric import TestResult, mann_whitney_u
from .dataset import AnalysisDataset
from .jaccard import jaccard


@dataclass(frozen=True)
class ProfileTreeTotals:
    """One row of Table 5."""

    profile: str
    nodes: int
    third_party: int
    tracker: int
    max_depth: int
    max_breadth: int


@dataclass(frozen=True)
class PairwiseShare:
    """Perfect/zero similarity shares for one metric of one profile pair."""

    perfect: float
    none: float
    node_count: int


@dataclass(frozen=True)
class ProfilePairComparison:
    """One column of Table 6: ``other`` compared against the reference."""

    reference: str
    other: str
    fp_children: PairwiseShare
    tp_children: PairwiseShare
    fp_parent: PairwiseShare
    tp_parent: PairwiseShare
    parent_similarity_mean: float  # nodes at depth >= 2
    child_similarity_mean: float  # nodes with >= 1 child


class ProfileAnalyzer:
    """Computes Tables 5/6 and the §4.4 profile contrasts."""

    # -- Table 5 -----------------------------------------------------------------

    def totals(self, dataset: AnalysisDataset) -> List[ProfileTreeTotals]:
        nodes: Dict[str, int] = defaultdict(int)
        third: Dict[str, int] = defaultdict(int)
        tracker: Dict[str, int] = defaultdict(int)
        depth: Dict[str, int] = defaultdict(int)
        breadth: Dict[str, int] = defaultdict(int)
        for entry in dataset:
            comparison = entry.comparison
            for profile in comparison.profiles:
                tree = comparison.trees[profile]
                nodes[profile] += tree.node_count
                third[profile] += len(tree.third_party_nodes())
                tracker[profile] += len(tree.tracking_nodes())
                depth[profile] = max(depth[profile], tree.max_depth)
                breadth[profile] = max(breadth[profile], tree.breadth)
        return [
            ProfileTreeTotals(
                profile=profile,
                nodes=nodes[profile],
                third_party=third[profile],
                tracker=tracker[profile],
                max_depth=depth[profile],
                max_breadth=breadth[profile],
            )
            for profile in dataset.profiles
        ]

    # -- Table 6 -----------------------------------------------------------------

    def compare_pair(
        self, dataset: AnalysisDataset, reference: str, other: str
    ) -> ProfilePairComparison:
        """Compare ``other`` against ``reference`` (Table 6 column)."""
        if reference not in dataset.profiles or other not in dataset.profiles:
            raise AnalysisError(f"unknown profiles: {reference!r} vs {other!r}")
        shares = {
            ("fp", "children"): [0, 0, 0],
            ("tp", "children"): [0, 0, 0],
            ("fp", "parent"): [0, 0, 0],
            ("tp", "parent"): [0, 0, 0],
        }
        parent_sims: List[float] = []
        child_sims: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            ref_index = comparison.profiles.index(reference)
            other_index = comparison.profiles.index(other)
            for node in comparison.nodes():
                ref_view = node.views[ref_index]
                other_view = node.views[other_index]
                if ref_view is None or other_view is None:
                    continue
                party = "tp" if node.is_third_party else "fp"
                child_j = jaccard(ref_view.child_keys(), other_view.child_keys())
                if ref_view.child_count > 0 or other_view.child_count > 0:
                    _tally(shares[(party, "children")], child_j)
                    child_sims.append(child_j)
                parent_j = 1.0 if ref_view.parent_key() == other_view.parent_key() else 0.0
                _tally(shares[(party, "parent")], parent_j)
                if min(ref_view.depth, other_view.depth) >= 2:
                    parent_sims.append(parent_j)
        return ProfilePairComparison(
            reference=reference,
            other=other,
            fp_children=_share(shares[("fp", "children")]),
            tp_children=_share(shares[("tp", "children")]),
            fp_parent=_share(shares[("fp", "parent")]),
            tp_parent=_share(shares[("tp", "parent")]),
            parent_similarity_mean=safe_mean(parent_sims),
            child_similarity_mean=safe_mean(child_sims),
        )

    def table6(
        self, dataset: AnalysisDataset, reference: str = "Sim1"
    ) -> List[ProfilePairComparison]:
        """All Table 6 columns: every other profile vs. the reference."""
        return [
            self.compare_pair(dataset, reference, other)
            for other in dataset.profiles
            if other != reference
        ]

    # -- identical-setup comparison (§4.4) -------------------------------------------

    def same_configuration_similarity(
        self,
        dataset: AnalysisDataset,
        profile_a: str = "Sim1",
        profile_b: str = "Sim2",
        upper_depth: int = 5,
    ) -> Tuple[float, float]:
        """(upper-level, deeper-level) mean Jaccard between two profiles.

        Per page and per depth, the node sets of both profiles are
        compared; depths ≤ ``upper_depth`` aggregate into the first value.
        """
        upper: List[float] = []
        deeper: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            tree_a = comparison.trees.get(profile_a)
            tree_b = comparison.trees.get(profile_b)
            if tree_a is None or tree_b is None:
                continue
            max_depth = max(tree_a.max_depth, tree_b.max_depth)
            for depth in range(1, max_depth + 1):
                keys_a = tree_a.keys_at_depth(depth)
                keys_b = tree_b.keys_at_depth(depth)
                if not keys_a and not keys_b:
                    continue
                value = jaccard(frozenset(keys_a), frozenset(keys_b))
                (upper if depth <= upper_depth else deeper).append(value)
        return safe_mean(upper, default=1.0), safe_mean(deeper, default=1.0)

    # -- interaction effect (§4.4) ------------------------------------------------------

    def interaction_effect(
        self,
        dataset: AnalysisDataset,
        interactive: str = "Sim1",
        noaction: str = "NoAction",
    ) -> Dict[str, float]:
        """Relative node/third-party/children differences Sim1 vs NoAction."""
        totals = {row.profile: row for row in self.totals(dataset)}
        for name in (interactive, noaction):
            if name not in totals:
                raise AnalysisError(f"profile {name!r} is not in the dataset")
        sim = totals[interactive]
        noact = totals[noaction]
        children_sim: List[float] = []
        children_noact: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            for profile, bucket in ((interactive, children_sim), (noaction, children_noact)):
                tree = comparison.trees.get(profile)
                if tree is None:
                    continue
                for node in tree.nodes():
                    bucket.append(float(len(node.children)))
        return {
            "node_increase": ratio(sim.nodes - noact.nodes, noact.nodes),
            "third_party_increase": ratio(sim.third_party - noact.third_party, noact.third_party),
            "children_per_node_change": (
                ratio(
                    safe_mean(children_sim) - safe_mean(children_noact),
                    safe_mean(children_noact),
                )
                if children_noact
                else 0.0
            ),
        }

    def interaction_depth_test(
        self, dataset: AnalysisDataset, interactive: str = "Sim1", noaction: str = "NoAction"
    ) -> TestResult:
        """Mann-Whitney U on node depths: interaction vs. no interaction."""
        depths_interactive: List[float] = []
        depths_noaction: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            for profile, bucket in (
                (interactive, depths_interactive),
                (noaction, depths_noaction),
            ):
                tree = comparison.trees.get(profile)
                if tree is None:
                    continue
                bucket.extend(float(node.depth) for node in tree.nodes())
        if not depths_interactive or not depths_noaction:
            raise AnalysisError("profiles missing from dataset for depth test")
        return mann_whitney_u(depths_interactive, depths_noaction)


def _tally(counter: List[int], value: float) -> None:
    counter[2] += 1
    if value >= 1.0:
        counter[0] += 1
    elif value <= 0.0:
        counter[1] += 1


def _share(counter: List[int]) -> PairwiseShare:
    total = counter[2]
    return PairwiseShare(
        perfect=counter[0] / total if total else 0.0,
        none=counter[1] / total if total else 0.0,
        node_count=total,
    )
