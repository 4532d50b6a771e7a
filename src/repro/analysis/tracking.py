"""Tracking-request case study (paper §5.3).

Tracking nodes — nodes whose URL matches the filter list — are the most
studied phenomenon the paper stress-tests.  The analysis contrasts them
with non-tracking nodes on every stability axis: node similarity, child
similarity, child counts, parent similarity, depth distribution, and who
triggers them (other trackers, third parties, scripts/frames).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..stats.descriptive import Summary, ratio, safe_mean, summarize
from ..web.resources import ResourceType
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class TrackingReport:
    """§5.3 headline numbers."""

    tracking_node_share: float
    node_similarity: Summary
    child_similarity_tracking: Optional[Summary]
    child_similarity_non_tracking: Optional[Summary]
    mean_children_tracking: float
    mean_children_non_tracking: float
    parent_similarity_tracking: Optional[Summary]
    parent_similarity_non_tracking: Optional[Summary]
    depth_distribution: Dict[int, float]
    triggered_by_tracker_share: float
    tracker_parent_third_party_share: float
    parent_type_shares: Dict[str, float]


class TrackingAnalyzer:
    """Tracking vs. non-tracking stability comparison."""

    def analyze(self, dataset: AnalysisDataset, combine_depth_after: int = 4) -> TrackingReport:
        total_nodes = 0
        tracking_nodes = 0
        node_sims: List[float] = []
        child_track: List[float] = []
        child_non: List[float] = []
        children_track: List[float] = []
        children_non: List[float] = []
        parent_track: List[float] = []
        parent_non: List[float] = []
        depth_counts: Dict[int, int] = defaultdict(int)
        tracker_parent = 0
        tracker_parent_total = 0
        tracker_parent_third = 0
        parent_types: Dict[str, int] = defaultdict(int)

        for entry in dataset:
            comparison = entry.comparison
            for node in comparison.nodes():
                total_nodes += 1
                is_tracking = node.is_tracking
                child_sim = node.child_similarity() if node.has_children else None
                parent_sim = node.parent_similarity()
                mean_children = node.mean_child_count
                if is_tracking:
                    tracking_nodes += 1
                    node_sims.append(node.presence_count / len(node.views))
                    if child_sim is not None:
                        child_track.append(child_sim)
                    children_track.append(mean_children)
                    parent_track.append(parent_sim)
                    depth_counts[min(node.min_depth, combine_depth_after)] += 1
                    self._classify_parents(comparison, node, parent_types)
                    for view in node.present_views():
                        if view.is_root:
                            continue
                        tracker_parent_total += 1
                        parent = comparison.node(view.parent_key())
                        if parent is None:
                            continue  # the visited page: first party, not a tracker
                        if parent.is_tracking:
                            tracker_parent += 1
                        if parent.is_third_party:
                            tracker_parent_third += 1
                else:
                    if child_sim is not None:
                        child_non.append(child_sim)
                    children_non.append(mean_children)
                    parent_non.append(parent_sim)

        depth_total = sum(depth_counts.values())
        return TrackingReport(
            tracking_node_share=ratio(tracking_nodes, total_nodes),
            node_similarity=summarize(node_sims) if node_sims else summarize([0.0]),
            child_similarity_tracking=summarize(child_track) if child_track else None,
            child_similarity_non_tracking=summarize(child_non) if child_non else None,
            mean_children_tracking=safe_mean(children_track),
            mean_children_non_tracking=safe_mean(children_non),
            parent_similarity_tracking=summarize(parent_track) if parent_track else None,
            parent_similarity_non_tracking=summarize(parent_non) if parent_non else None,
            depth_distribution={
                depth: count / depth_total for depth, count in sorted(depth_counts.items())
            }
            if depth_total
            else {},
            triggered_by_tracker_share=ratio(tracker_parent, tracker_parent_total),
            tracker_parent_third_party_share=ratio(tracker_parent_third, tracker_parent_total),
            parent_type_shares=self._normalize(parent_types),
        )

    def same_chain_contrast(self, dataset: AnalysisDataset) -> Dict[str, float]:
        """§4.2: share of nodes loaded by the same parents, tracking vs not."""
        same = {"tracking": 0, "non_tracking": 0}
        totals = {"tracking": 0, "non_tracking": 0}
        for node in dataset.iter_nodes():
            if not node.in_all_profiles:
                continue
            bucket = "tracking" if node.is_tracking else "non_tracking"
            totals[bucket] += 1
            if node.same_parent_everywhere():
                same[bucket] += 1
        return {
            bucket: ratio(same[bucket], totals[bucket]) for bucket in totals
        }

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _classify_parents(comparison, node, parent_types: Dict[str, int]) -> None:
        for view in node.present_views():
            if view.is_root:
                continue
            parent = comparison.node(view.parent_key())
            if parent is None:
                parent_types["mainframe"] += 1
                continue
            rtype = parent.resource_type
            if rtype == ResourceType.SCRIPT:
                parent_types["script"] += 1
            elif rtype == ResourceType.SUB_FRAME:
                parent_types["subframe"] += 1
            elif rtype == ResourceType.MAIN_FRAME:
                parent_types["mainframe"] += 1
            else:
                parent_types["other"] += 1

    @staticmethod
    def _normalize(counts: Dict[str, int]) -> Dict[str, float]:
        total = sum(counts.values())
        if not total:
            return {}
        return {key: value / total for key, value in sorted(counts.items())}
