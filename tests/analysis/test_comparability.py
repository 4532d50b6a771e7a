"""Tests for cross-study comparability."""

import pytest

from repro.analysis.comparability import StudyComparator
from repro.analysis.dataset import AnalysisDataset

from ..helpers import make_tree_set


def dataset_with_trackers(tracker_domain="trk.com", pages=2):
    tree_sets = []
    for index in range(pages):
        page = f"https://site{index:03d}.com/"
        structure = {
            f"https://site{index:03d}.com/a.js": {
                f"https://{tracker_domain}/pixel.gif": None,
            },
            f"https://site{index:03d}.com/b.png": None,
        }
        trees = make_tree_set(page, {"A": structure, "B": structure})
        for tree in trees.values():
            tree.node(f"https://{tracker_domain}/pixel.gif").is_tracking = True
        tree_sets.append(trees)
    return AnalysisDataset.from_tree_sets(tree_sets)


class TestSummarize:
    def test_headline_numbers(self):
        comparator = StudyComparator()
        summary = comparator.summarize("s", dataset_with_trackers())
        assert summary.pages == 2
        assert summary.sites == 2
        assert summary.tracking_share == pytest.approx(1 / 3)
        assert summary.top_trackers == ("trk.com",)

    def test_trackers_per_site_averaged(self):
        comparator = StudyComparator()
        summary = comparator.summarize("s", dataset_with_trackers())
        assert all(value == 1.0 for value in summary.trackers_per_site.values())

    def test_tracker_site_drops_the_port(self):
        key = "https://cdn.tracker.com:8443/t.js"
        trees = make_tree_set("https://site.com/", {"A": {key: None}})
        trees["A"].node(key).is_tracking = True
        summary = StudyComparator().summarize(
            "s", AnalysisDataset.from_tree_sets([trees])
        )
        assert summary.top_trackers == ("tracker.com",)

    def test_top_k_limit(self):
        with pytest.raises(ValueError):
            StudyComparator(top_k=0)


class TestCompare:
    def test_identical_studies_comparable(self):
        comparator = StudyComparator()
        a = comparator.summarize("a", dataset_with_trackers())
        b = comparator.summarize("b", dataset_with_trackers())
        report = comparator.compare(a, b)
        assert report.tracking_share_gap == 0.0
        assert report.top_tracker_overlap == 1.0
        assert report.comparable

    def test_different_trackers_not_comparable(self):
        comparator = StudyComparator()
        a = comparator.summarize("a", dataset_with_trackers("trk.com"))
        b = comparator.summarize("b", dataset_with_trackers("other.net"))
        report = comparator.compare(a, b)
        assert report.top_tracker_overlap == 0.0
        assert not report.comparable

    def test_rank_correlation_needs_common_sites(self):
        comparator = StudyComparator()
        a = comparator.summarize("a", dataset_with_trackers(pages=2))
        b = comparator.summarize("b", dataset_with_trackers(pages=2))
        report = comparator.compare(a, b)
        assert report.per_site_rank_correlation is None  # < 3 common sites

    def test_compare_datasets_shortcut(self):
        comparator = StudyComparator()
        report = comparator.compare_datasets(
            "a", dataset_with_trackers(), "b", dataset_with_trackers()
        )
        assert report.study_a.name == "a"
        assert report.study_b.name == "b"


class TestOnRealPipeline:
    def test_self_comparison_is_comparable(self, dataset):
        comparator = StudyComparator()
        report = comparator.compare_datasets("x", dataset, "y", dataset)
        assert report.tracking_share_gap == 0.0
        assert report.top_tracker_overlap == 1.0
        assert report.comparable
        if report.per_site_rank_correlation is not None:
            assert report.per_site_rank_correlation == pytest.approx(1.0)
