"""Tests for the unique-node case study (§5.1)."""

import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.analysis.unique import UniqueNodeAnalyzer

from ..helpers import make_tree_set


def dataset_with_unique():
    structures = {
        "A": {
            "https://site.com/a.js": None,
            "https://ads.com/creative-only-in-a.jpg": None,
        },
        "B": {
            "https://site.com/a.js": None,
            "https://ads.com/creative-only-in-b.jpg": None,
        },
    }
    return AnalysisDataset.from_tree_sets([make_tree_set("https://site.com/", structures)])


class TestUniqueDetection:
    def test_unique_identified(self):
        report = UniqueNodeAnalyzer().analyze(dataset_with_unique())
        # Denominator = aligned distinct nodes: a.js + the two creatives.
        assert report.unique_nodes == 2
        assert report.total_nodes == 3
        assert report.unique_share == pytest.approx(2 / 3)

    def test_shared_node_not_unique(self):
        report = UniqueNodeAnalyzer().analyze(dataset_with_unique())
        # a.js occurs in both trees -> not unique; both creatives are.
        assert report.third_party_share == 1.0

    def test_cross_page_occurrence_not_unique(self):
        # The same key on two different pages is not unique (dataset-global).
        page1 = make_tree_set(
            "https://site.com/", {"A": {"https://cdn.com/lib.js": None}}
        )
        page2 = make_tree_set(
            "https://site.com/sub", {"A": {"https://cdn.com/lib.js": None}}
        )
        data = AnalysisDataset.from_tree_sets([page1, page2])
        report = UniqueNodeAnalyzer().analyze(data)
        assert report.unique_nodes == 0

    def test_hosting_site_drops_the_port(self):
        trees = make_tree_set(
            "https://site.com/",
            {"A": {"https://cdn.tracker.com:8443/t.js": None}, "B": {}},
        )
        report = UniqueNodeAnalyzer().analyze(AnalysisDataset.from_tree_sets([trees]))
        assert report.top_hosting_sites == [("tracker.com", 1.0)]


class TestRealDatasetShapes:
    def test_paper_shapes(self, dataset):
        report = UniqueNodeAnalyzer().analyze(dataset)
        # Unique nodes exist and are predominantly third-party (paper: 90%).
        assert 0.02 < report.unique_share < 0.6
        assert report.third_party_share > 0.6
        assert 0.0 <= report.tracking_share <= 1.0
        assert report.depth.mean >= 1.0

    def test_type_shares_sum_to_one(self, dataset):
        report = UniqueNodeAnalyzer().analyze(dataset)
        if report.unique_nodes:
            assert sum(report.type_shares.values()) == pytest.approx(1.0)

    def test_top_hosting_sites_limited(self, dataset):
        report = UniqueNodeAnalyzer().analyze(dataset, top_sites=2)
        assert len(report.top_hosting_sites) <= 2

    def test_per_tree_share(self, dataset):
        report = UniqueNodeAnalyzer().analyze(dataset)
        assert 0.0 <= report.mean_unique_share_per_tree <= 1.0
