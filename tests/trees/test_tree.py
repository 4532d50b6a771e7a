"""Tests for DependencyTree and TreeNode."""

import gc

import pytest

from repro.blocklist.matcher import FilterList
from repro.trees.node import host_of
from repro.trees.tree import DependencyTree, tracking_keys
from repro.web.resources import ResourceType

from ..helpers import make_tree

PAGE = "https://site.com/"


def sample_tree():
    return make_tree(
        PAGE,
        {
            "https://site.com/a.js": {
                "https://trk.com/pixel.gif": None,
                "https://site.com/api.json": None,
            },
            "https://site.com/b.png": None,
            "https://ads.com/frame.html": {
                "https://ads.com/creative.jpg": None,
            },
        },
    )


class TestStructure:
    def test_node_count_excludes_root(self):
        assert sample_tree().node_count == 6

    def test_depths(self):
        tree = sample_tree()
        assert tree.root.depth == 0
        assert tree.node("https://site.com/a.js").depth == 1
        assert tree.node("https://trk.com/pixel.gif").depth == 2

    def test_max_depth_and_breadth(self):
        tree = sample_tree()
        assert tree.max_depth == 2
        assert tree.breadth == 3  # three nodes at depth 1

    def test_nodes_at_depth(self):
        keys = sample_tree().keys_at_depth(1)
        assert keys == {
            "https://site.com/a.js",
            "https://site.com/b.png",
            "https://ads.com/frame.html",
        }

    def test_depth_zero_is_root(self):
        nodes = sample_tree().nodes_at_depth(0)
        assert [n.key for n in nodes] == [PAGE]

    def test_chain(self):
        tree = sample_tree()
        chain = tree.node("https://trk.com/pixel.gif").chain()
        assert chain == (PAGE, "https://site.com/a.js", "https://trk.com/pixel.gif")

    def test_branches_are_root_to_leaf(self):
        branches = sample_tree().branches()
        assert all(b[0] == PAGE for b in branches)
        assert len(branches) == 4  # four leaves

    def test_contains(self):
        tree = sample_tree()
        assert "https://site.com/a.js" in tree
        assert "https://nope.com/" not in tree


class TestMerging:
    def test_same_key_merges_first_parent_wins(self):
        tree = DependencyTree(PAGE, "P", 1)
        parent_a = tree.attach("https://site.com/a.js", ResourceType.SCRIPT, tree.root, "raw", 1)
        parent_b = tree.attach("https://site.com/b.js", ResourceType.SCRIPT, tree.root, "raw", 2)
        tree.attach("https://cdn.com/lib.js", ResourceType.SCRIPT, parent_a, "raw1", 3)
        node = tree.attach("https://cdn.com/lib.js", ResourceType.SCRIPT, parent_b, "raw2", 4)
        assert node.parent is parent_a
        assert tree.node_count == 3
        assert node.raw_urls == ("raw1", "raw2")
        assert node.request_ids == (3, 4)

    def test_merged_raw_urls_stay_sorted_and_distinct(self):
        tree = DependencyTree(PAGE, "P", 1)
        for request_id, raw in enumerate(["raw-c", "raw-a", "raw-c", "raw-b"]):
            node = tree.attach(
                "https://site.com/a.js", ResourceType.SCRIPT, tree.root, raw, request_id
            )
        assert node.raw_urls == ("raw-a", "raw-b", "raw-c")
        assert node.request_ids == (0, 1, 2, 3)


class TestCompactFields:
    """A built node's raw URLs and request ids are tuples the cyclic
    collector stops tracking, so it visits the node and nothing it holds."""

    def test_built_dataset_nodes_hold_untracked_tuples(self, dataset):
        gc.collect()
        nodes = [
            node
            for entry in dataset
            for tree in entry.comparison.tree_list()
            for node in tree.nodes(include_root=True)
        ]
        assert nodes
        merged = 0
        for node in nodes:
            assert type(node.raw_urls) is tuple and type(node.request_ids) is tuple
            assert list(node.raw_urls) == sorted(set(node.raw_urls))
            assert not gc.is_tracked(node.raw_urls), node.key
            assert not gc.is_tracked(node.request_ids), node.key
            merged += len(node.request_ids) > 1
        assert merged  # the crawl has merged nodes, whose tuples were rebound


class TestPartyAnnotation:
    def test_first_vs_third_party(self):
        tree = sample_tree()
        assert not tree.node("https://site.com/a.js").is_third_party
        assert tree.node("https://trk.com/pixel.gif").is_third_party
        assert len(tree.third_party_nodes()) == 3

    def test_subdomain_is_first_party(self):
        tree = make_tree(PAGE, {"https://cdn.site.com/x.png": None})
        assert not tree.node("https://cdn.site.com/x.png").is_third_party


class TestTrackingAnnotation:
    def test_annotate_tracking(self):
        tree = sample_tree()
        filter_list = FilterList.from_text("||trk.com^\n||ads.com^$image\n")
        count = tree.annotate_tracking(filter_list)
        assert count == 2
        assert tree.node("https://trk.com/pixel.gif").is_tracking
        assert tree.node("https://ads.com/creative.jpg").is_tracking
        assert not tree.node("https://ads.com/frame.html").is_tracking
        assert len(tree.tracking_nodes()) == 2

    def test_tracking_keys_write_nothing(self):
        tree = sample_tree()
        filter_list = FilterList.from_text("||trk.com^\n||ads.com^$image\n")
        keys = tree.tracking_keys(filter_list)
        assert keys == {"https://trk.com/pixel.gif", "https://ads.com/creative.jpg"}
        assert tree.tracking_nodes() == []
        assert tree.annotate_tracking(filter_list) == len(keys)
        assert {node.key for node in tree.tracking_nodes()} == keys

    def test_one_pass_over_a_pages_trees_is_their_union(self, monkeypatch):
        filter_list = FilterList.from_text("||trk.com^\n||ads.com^$image\n")
        other = make_tree(
            PAGE,
            {
                "https://trk.com/pixel.gif": {"https://ads.com/creative.jpg": None},
                "https://ads.com/banner.jpg": None,
                "https://site.com/b.png": None,  # let through in the first tree
                # Blocked here only: the first tree loads it as a frame.
                "https://ads.com/frame.html": ResourceType.IMAGE,
            },
            profile="Other",
        )
        trees = [sample_tree(), other]
        union = trees[0].tracking_keys(filter_list) | other.tracking_keys(filter_list)
        asked = []
        match = FilterList.match

        def counted(self, url, context=None):
            asked.append(url)
            return match(self, url, context)

        monkeypatch.setattr(FilterList, "match", counted)
        nodes = [node for tree in trees for node in tree.nodes()]
        assert tracking_keys(nodes, filter_list, PAGE) == union
        assert "https://ads.com/frame.html" in union and len(union) == 4
        # The second tree asks nothing about a key shown to track, nor
        # about a URL the list let through as the same type.
        assert asked.count("https://trk.com/pixel.gif") == 1
        assert asked.count("https://ads.com/creative.jpg") == 1
        assert asked.count("https://site.com/b.png") == 1
        assert asked.count("https://ads.com/frame.html") == 2  # frame, image
        assert len(asked) == len(nodes) - 3

    def test_node_host_and_site(self):
        tree = sample_tree()
        node = tree.node("https://trk.com/pixel.gif")
        assert node.host == "trk.com"
        assert node.site == "trk.com"


HOSTS = [
    ("https://Site.com/a.js", "site.com"),
    ("https://site.com", "site.com"),
    ("https://site.com?q=1", "site.com"),
    ("https://site.com#frag", "site.com"),
    ("https://site.com:8443/a", "site.com"),
    ("https://user:pw@site.com:8443/a", "site.com"),
    ("http://[::1]:8080/a", "::1"),
    ("http://[::1]/a", "::1"),
    ("http://user@[2001:DB8::1]:80/", "2001:db8::1"),
    ("http://[::1", ""),
    ("http://[::1/a.js", ""),
    ("https://u:p@[::1]:8080/x", "::1"),
    ("HTTP://Example.COM:80/", "example.com"),
    ("not a url", ""),
    ("", ""),
]


class TestHostOf:
    @pytest.mark.parametrize("url,host", HOSTS)
    def test_host_of(self, url, host):
        assert host_of(url) == host

    def test_cold_and_warm_agree(self):
        urls = [url for url, _ in HOSTS]
        host_of.cache_clear()
        cold = [host_of(url) for url in urls]
        warm = [host_of(url) for url in urls]
        assert cold == warm == [host for _, host in HOSTS]
        assert host_of.cache_info().hits >= len(urls)

    def test_node_host_uses_the_same_parser(self):
        tree = DependencyTree("http://[::1]:8080/", "P", 1)
        node = tree.attach("http://[::1]:8080/a.js", ResourceType.SCRIPT, tree.root, "raw", 1)
        assert node.host == "::1"
        assert node.site is None

    def test_ipv6_party_annotation(self):
        tree = DependencyTree("http://[::1]:8080/", "P", 1)
        same = tree.attach("http://[::1]/a.js", ResourceType.SCRIPT, tree.root, "r1", 1)
        other = tree.attach("http://[::2]/b.js", ResourceType.SCRIPT, tree.root, "r2", 2)
        assert not same.is_third_party
        assert other.is_third_party
