"""Unique-node case study (paper §5.1).

A node is *unique* iff its (normalized) URL occurs in exactly one tree of
the whole dataset, ignoring depth — the "needle in the haystack" a study
of a novel phenomenon would have to find.  The paper reports that 24% of
all nodes are unique, 90% of them third-party, 37% tracking, with ad
networks hosting the top share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..stats.descriptive import Summary, ratio, safe_mean, summarize
from ..web.resources import ResourceType
from .dataset import AnalysisDataset


@dataclass(frozen=True)
class UniqueNodeReport:
    """§5.1 headline numbers."""

    total_nodes: int
    unique_nodes: int
    unique_share: float
    tracking_share: float
    third_party_share: float
    depth: Summary
    depth_one_share: float
    type_shares: Dict[ResourceType, float]
    top_hosting_sites: List[Tuple[str, float]]
    mean_unique_share_per_tree: float


class UniqueNodeAnalyzer:
    """Identifies and characterizes unique nodes across the dataset."""

    def analyze(self, dataset: AnalysisDataset, top_sites: int = 5) -> UniqueNodeReport:
        # Occurrence counting is dataset-global and tree-granular: a key
        # seen in two trees of the same page is not unique, nor is a key
        # seen on two different pages.
        occurrences: Counter = Counter()
        for entry in dataset:
            for node in entry.comparison.nodes():
                occurrences[node.key] += node.presence_count
        unique_keys = {key for key, count in occurrences.items() if count == 1}

        total = 0
        unique_total = 0
        tracking = 0
        third_party = 0
        depths: List[float] = []
        depth_one = 0
        type_counts: Counter = Counter()
        site_counts: Counter = Counter()
        per_tree_unique: List[float] = []
        for entry in dataset:
            comparison = entry.comparison
            for node in comparison.nodes():
                total += 1
                if node.key not in unique_keys:
                    continue
                unique_total += 1
                if node.is_tracking:
                    tracking += 1
                if node.is_third_party:
                    third_party += 1
                depths.append(float(node.min_depth))
                if node.min_depth == 1:
                    depth_one += 1
                type_counts[node.resource_type] += 1
                site = node.any_view.site
                if site is not None:
                    site_counts[site] += 1
            for tree in comparison.tree_list():
                keys = tree.keys()
                if keys:
                    per_tree_unique.append(
                        sum(1 for key in keys if key in unique_keys) / len(keys)
                    )
        type_shares = {
            rtype: count / unique_total
            for rtype, count in type_counts.most_common()
        } if unique_total else {}
        top_hosts = [
            (site, count / unique_total)
            for site, count in site_counts.most_common(top_sites)
        ] if unique_total else []
        return UniqueNodeReport(
            total_nodes=total,
            unique_nodes=unique_total,
            unique_share=ratio(unique_total, total),
            tracking_share=ratio(tracking, unique_total),
            third_party_share=ratio(third_party, unique_total),
            depth=summarize(depths) if depths else summarize([0.0]),
            depth_one_share=ratio(depth_one, unique_total),
            type_shares=type_shares,
            top_hosting_sites=top_hosts,
            mean_unique_share_per_tree=safe_mean(per_tree_unique),
        )
