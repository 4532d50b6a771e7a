"""Tests for the networkx graph export."""

import pytest

networkx = pytest.importorskip("networkx")

from repro.trees.graph import inclusion_graph, to_networkx, tracker_centrality

from ..helpers import make_tree

PAGE = "https://site.com/"


def sample_tree(profile="A"):
    tree = make_tree(
        PAGE,
        {
            "https://site.com/a.js": {
                "https://trk.com/pixel.gif": None,
            },
            "https://ads.com/frame.html": {
                "https://trk.com/pixel.gif": None,
                "https://cdn.com/img.png": None,
            },
        },
        profile=profile,
    )
    tree.node("https://trk.com/pixel.gif").is_tracking = True
    return tree


class TestToNetworkx:
    def test_structure(self):
        graph = to_networkx(sample_tree())
        assert graph.number_of_nodes() == 5  # root + 4 (pixel merged)
        assert graph.has_edge(PAGE, "https://site.com/a.js")
        assert graph.has_edge("https://site.com/a.js", "https://trk.com/pixel.gif")

    def test_node_attributes(self):
        graph = to_networkx(sample_tree())
        pixel = graph.nodes["https://trk.com/pixel.gif"]
        assert pixel["tracking"] is True
        assert pixel["third_party"] is True
        assert pixel["depth"] == 2
        assert graph.nodes[PAGE]["depth"] == 0

    def test_is_dag(self):
        graph = to_networkx(sample_tree())
        assert networkx.is_directed_acyclic_graph(graph)


class TestInclusionGraph:
    def test_site_level_aggregation(self):
        graph = inclusion_graph([sample_tree("A"), sample_tree("B")])
        assert graph.has_edge("site.com", "ads.com")
        # The pixel merged under a.js (first-parent-wins), so its site-level
        # inclusion edge originates from site.com.
        assert graph.has_edge("site.com", "trk.com")
        assert graph.has_edge("ads.com", "cdn.com")
        # Two trees contribute weight 2 to each site-level edge.
        assert graph["site.com"]["ads.com"]["weight"] == 2

    def test_tracking_flag_propagates(self):
        graph = inclusion_graph([sample_tree()])
        assert graph.nodes["trk.com"]["tracking"] is True
        assert graph.nodes["cdn.com"].get("tracking") is False

    def test_url_level(self):
        graph = inclusion_graph([sample_tree()], by_site=False)
        assert graph.has_edge(PAGE, "https://ads.com/frame.html")

    def test_self_edges_skipped(self):
        graph = inclusion_graph([sample_tree()])
        assert not graph.has_edge("site.com", "site.com")

    def test_page_site_ignores_userinfo_and_port(self):
        tree = make_tree(
            "https://user:pw@www.example.com:8443/index.html",
            {
                "https://www.example.com:8443/app.js": None,
                "https://tracker.net/pixel.gif": None,
            },
        )
        graph = inclusion_graph([tree])
        assert sorted(graph.edges()) == [("example.com", "tracker.net")]


class TestTrackerCentrality:
    def test_trackers_ranked(self):
        graph = inclusion_graph([sample_tree()])
        ranked = tracker_centrality(graph)
        assert ranked
        assert ranked[0][0] == "trk.com"
        assert 0.0 < ranked[0][1] <= 1.0

    def test_top_limit(self):
        graph = inclusion_graph([sample_tree()])
        assert len(tracker_centrality(graph, top=0)) == 0

    def test_dataset_integration(self, dataset):
        trees = [
            tree for entry in dataset for tree in entry.comparison.tree_list()
        ]
        graph = inclusion_graph(trees)
        assert graph.number_of_nodes() > 5
        ranked = tracker_centrality(graph, top=3)
        assert len(ranked) <= 3
