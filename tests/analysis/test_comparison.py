"""Tests for PageComparison / NodeComparison alignment."""

from collections import Counter

import pytest

from repro.analysis import (
    ResourceTypeAnalyzer,
    TrackingAnalyzer,
    VerticalAnalyzer,
    comparison as comparison_module,
)
from repro.analysis.comparison import NodeComparison, PageComparison
from repro.analysis.dataset import AnalysisDataset
from repro.errors import AnalysisError
from repro.export import export_node_comparisons_csv
from repro.trees.node import TreeNode

from ..helpers import make_tree, make_tree_set, node_measures

PAGE = "https://site.com/"


def three_trees():
    """Three trees mirroring the Appendix D example structure."""
    base = {
        "https://site.com/a.js": {
            "https://site.com/d.js": {
                "https://site.com/e.js": {
                    "https://site.com/x.png": None,
                    "https://site.com/y.png": None,
                }
            }
        },
        "https://site.com/b.png": None,
        "https://site.com/c.js": None,
    }
    tree2 = {
        "https://site.com/a.js": {
            "https://site.com/d.js": {
                "https://site.com/e.js": {
                    "https://site.com/x.png": None,
                    "https://site.com/y.png": None,
                }
            }
        },
        "https://site.com/c.js": None,
    }
    tree3 = {
        "https://site.com/a.js": {
            "https://site.com/d.js": {
                "https://site.com/y.png": None,
            }
        },
        "https://site.com/b.png": None,
        "https://site.com/c.js": None,
    }
    return make_tree_set(PAGE, {"T1": base, "T2": tree2, "T3": tree3})


@pytest.fixture()
def comparison():
    return PageComparison(three_trees())


class TestAlignment:
    def test_all_keys_present(self, comparison):
        assert len(comparison) == 7  # a, b, c, d, e, x, y

    def test_presence_counts(self, comparison):
        assert comparison.node("https://site.com/a.js").presence_count == 3
        assert comparison.node("https://site.com/b.png").presence_count == 2
        assert comparison.node("https://site.com/e.js").presence_count == 2

    def test_in_all_and_in_one(self, comparison):
        assert comparison.node("https://site.com/a.js").in_all_profiles
        assert not comparison.node("https://site.com/e.js").in_all_profiles

    def test_views_are_the_trees_own_nodes(self, dataset):
        absent = 0
        for entry in dataset:
            comparison = entry.comparison
            for node in comparison.nodes():
                assert len(node.views) == len(comparison.profiles)
                for profile, view in zip(comparison.profiles, node.views):
                    assert view is comparison.trees[profile].node(node.key)
                    absent += view is None
        assert absent  # some nodes are missing from some trees

    def test_mismatched_pages_rejected(self):
        trees = make_tree_set(PAGE, {"A": {}})
        other = make_tree("https://other.com/", {}, profile="B")
        with pytest.raises(AnalysisError):
            PageComparison({"A": trees["A"], "B": other})

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            PageComparison({})


class TestAppendixD:
    """The worked example of the paper's Appendix D."""

    def test_depth_one_similarity(self, comparison):
        # ({a,b,c} vs {a,c} vs {a,b,c}) -> (2/3 + 1 + 2/3) / 3
        assert comparison.depth_similarity(1) == pytest.approx((2 / 3 + 1 + 2 / 3) / 3)

    def test_parent_similarity_of_e(self, comparison):
        # e present in T1 and T2 with parent d, absent in T3 -> (1+0+0)/3.
        node = comparison.node("https://site.com/e.js")
        assert node.parent_similarity() == pytest.approx(1 / 3)

    def test_whole_tree_similarity(self, comparison):
        # T1 = 7 nodes, T2 = 6 (subset), T3 = 5 nodes {a,b,c,d,y}.
        expected = (6 / 7 + 5 / 7 + 4 / 7) / 3
        assert comparison.whole_tree_similarity() == pytest.approx(expected)


class TestNodeMeasures:
    def test_child_similarity_over_present_trees(self, comparison):
        # e's children: {x,y} in T1 and T2 -> 1.0 (T3 lacks e entirely).
        node = comparison.node("https://site.com/e.js")
        assert node.child_similarity() == 1.0

    def test_child_similarity_divergent(self, comparison):
        # d's children: {e}, {e}, {y} -> pairs (1, 0, 0) -> 1/3.
        node = comparison.node("https://site.com/d.js")
        assert node.child_similarity() == pytest.approx(1 / 3)

    def test_same_parent_everywhere(self, comparison):
        assert comparison.node("https://site.com/d.js").same_parent_everywhere()

    def test_same_depth_everywhere(self, comparison):
        assert comparison.node("https://site.com/y.png").min_depth == 3
        assert not comparison.node("https://site.com/y.png").same_depth_everywhere

    def test_chains(self, comparison):
        node = comparison.node("https://site.com/e.js")
        assert node.same_chain_everywhere()
        y = comparison.node("https://site.com/y.png")
        assert not y.same_chain_everywhere()
        assert y.unique_chain_count() == 1  # the short T3 chain is unique


class TestPageMeasures:
    def test_depth_similarity_none_when_empty(self, comparison):
        assert comparison.depth_similarity(9) is None

    def test_depth_similarity_with_filter(self, comparison):
        only_b = comparison.depth_similarity(
            1, keys_filter=lambda n: n.key.endswith("b.png")
        )
        # b present at depth 1 in T1 and T3 only -> (0 + 1 + 0) / 3.
        assert only_b == pytest.approx(1 / 3)

    def test_max_depth(self, comparison):
        assert comparison.max_depth() == 4


class TestMemo:
    """A node's measures are computed once and equal a cold node's."""

    def test_memoized_measures_equal_a_fresh_nodes(self, dataset):
        nodes = list(dataset.iter_nodes())
        assert nodes
        for node in nodes:
            first, second = node_measures(node), node_measures(node)
            assert first == second == node_measures(NodeComparison(node.key, node.views))

    def test_present_views_cannot_change_the_memo(self, comparison):
        node = comparison.node("https://site.com/e.js")
        views = node.present_views()
        views.append(views[0])
        assert len(node.present_views()) == 2
        assert node.presence_count == 2

    def test_second_analysis_computes_nothing(self, store, filter_list, monkeypatch):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        calls = {"jaccard": 0, "pairwise_mean_jaccard": 0}

        def counted(name):
            function = getattr(comparison_module, name)

            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(comparison_module, name, counted(name))
        first = TrackingAnalyzer().analyze(dataset)
        assert calls["jaccard"] and calls["pairwise_mean_jaccard"]
        calls.update(jaccard=0, pairwise_mean_jaccard=0)
        assert TrackingAnalyzer().analyze(dataset) == first
        assert calls == {"jaccard": 0, "pairwise_mean_jaccard": 0}

    def test_second_analysis_reads_no_child_count(self, store, filter_list, monkeypatch):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        reads = [0]
        child_count = TreeNode.child_count.fget

        def counted(view):
            reads[0] += 1
            return child_count(view)

        monkeypatch.setattr(TreeNode, "child_count", property(counted))
        first = TrackingAnalyzer().analyze(dataset)
        assert reads[0]
        reads[0] = 0
        assert TrackingAnalyzer().analyze(dataset) == first
        assert reads[0] == 0

    def test_one_chain_walk_per_view(self, store, filter_list, tmp_path, monkeypatch):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        walked = Counter()
        chain = TreeNode.chain

        def counted(view):
            walked[id(view)] += 1
            return chain(view)

        monkeypatch.setattr(TreeNode, "chain", counted)
        records = VerticalAnalyzer().all_records(dataset)
        ResourceTypeAnalyzer().type_rows(dataset)
        TrackingAnalyzer().analyze(dataset)
        TrackingAnalyzer().same_chain_contrast(dataset)
        export_node_comparisons_csv(dataset, tmp_path / "nodes.csv")
        assert records == VerticalAnalyzer().all_records(dataset)
        views = [view for node in dataset.iter_nodes() for view in node.present_views()]
        assert len(views) > len(records)  # some nodes have several views
        assert walked == Counter(id(view) for view in views)
