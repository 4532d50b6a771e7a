"""Tests for AnalysisDataset construction."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.analysis import TrackingAnalyzer
from repro.analysis.dataset import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.browser.callstack import CallStack
from repro.errors import AnalysisError
from repro.experiments import ablation_blocklist
from repro.trees import TreeBuilder, normalize
from repro.trees.tree import DependencyTree
from repro.web import psl
from repro.web.resources import parse_resource_type

from ..helpers import make_tree_set, node_measures


class TestFromStore:
    def test_vetting_keeps_only_complete_pages(self, store, filter_list):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        complete = store.pages_crawled_by_all(store.profiles())
        assert len(dataset) == len(complete)
        for entry in dataset:
            assert len(entry.comparison.trees) == len(dataset.profiles)

    def test_without_vetting_more_pages(self, store, filter_list):
        vetted = AnalysisDataset.from_store(store, filter_list=filter_list)
        unvetted = AnalysisDataset.from_store(
            store, filter_list=filter_list, require_all=False
        )
        assert len(unvetted) >= len(vetted)

    def test_site_ranks_populated(self, dataset):
        for entry in dataset:
            assert entry.site_rank >= 1
            assert entry.site

    def test_tracking_annotated(self, dataset):
        assert any(node.is_tracking for node in dataset.iter_nodes())

    def test_node_count(self, dataset):
        assert dataset.node_count() == sum(len(e.comparison) for e in dataset)

    def test_sites_mapping(self, dataset):
        sites = dataset.sites()
        assert sites
        for entry in dataset:
            assert sites[entry.site] == entry.site_rank


def _fingerprint(dataset):
    return [
        (
            entry.site,
            entry.site_rank,
            entry.page_url,
            entry.comparison.profiles,
            tuple((node.key, node.views) for node in entry.comparison.nodes()),
        )
        for entry in dataset.entries
    ]


class TestWarmCaches:
    """The memos under tree building change no entry and no stat."""

    def test_cold_warm_and_fresh_list_builds_agree(self, store, generator, monkeypatch):
        for memo in (
            psl.public_suffix,
            psl.registrable_domain,
            normalize._node_key,
            parse_resource_type,
            CallStack.parse,
        ):
            memo.cache_clear()
        normalizers = []
        original_init = normalize.UrlNormalizer.__init__

        def recording_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            normalizers.append(self)

        monkeypatch.setattr(normalize.UrlNormalizer, "__init__", recording_init)
        filter_list = build_filter_list(generator.ecosystem)
        builds = [
            AnalysisDataset.from_store(store, filter_list=filter_list),
            AnalysisDataset.from_store(store, filter_list=filter_list),
            AnalysisDataset.from_store(
                store, filter_list=build_filter_list(generator.ecosystem)
            ),
        ]
        fingerprints = [_fingerprint(dataset) for dataset in builds]
        assert fingerprints[0]
        assert fingerprints[1] == fingerprints[0]
        assert fingerprints[2] == fingerprints[0]
        stats = [(n.stats.total, n.stats.changed, n.stats.unparseable) for n in normalizers]
        assert len(stats) == 3
        assert stats[0][0] > 0 and stats[0][1] > 0
        assert stats[1] == stats[0]
        assert stats[2] == stats[0]


def _tree_flags(dataset):
    return [
        (tree.profile_name, node.key, node.is_tracking)
        for entry in dataset.entries
        for tree in entry.comparison.tree_list()
        for node in tree.nodes(include_root=True)
    ]


def _tracking_nodes(dataset):
    return [
        (tree.profile_name, [node.key for node in tree.tracking_nodes()])
        for entry in dataset.entries
        for tree in entry.comparison.tree_list()
    ]


class TestReclassified:
    """Re-classifying a built dataset equals building it under that list."""

    def test_equals_rebuild_and_leaves_source_untouched(
        self, store, generator, filter_list
    ):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        before = (_fingerprint(dataset), _tree_flags(dataset))
        lists = ablation_blocklist._variants(
            SimpleNamespace(generator=generator, filter_list=filter_list)
        )
        assert len(lists) == 4
        shares = set()
        for name, other in lists.items():
            copy = dataset.reclassified(other)
            rebuilt = AnalysisDataset.from_store(store, filter_list=other)
            assert _fingerprint(copy) == _fingerprint(rebuilt), name
            assert _tracking_nodes(copy) == _tracking_nodes(rebuilt), name
            assert copy.profiles == rebuilt.profiles
            assert copy.normalization == rebuilt.normalization
            shares.add(sum(len(keys) for _, keys in _tracking_nodes(copy)))
        assert len(shares) > 1  # the lists really classify differently
        assert (_fingerprint(dataset), _tree_flags(dataset)) == before

    def test_shared_node_measures_hold_for_both_datasets(
        self, store, generator, filter_list
    ):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        before = [node_measures(node) for node in dataset.iter_nodes()]
        lists = ablation_blocklist._variants(
            SimpleNamespace(generator=generator, filter_list=filter_list)
        )
        for name, other in lists.items():
            copy = dataset.reclassified(other)
            rebuilt = AnalysisDataset.from_store(store, filter_list=other)
            assert TrackingAnalyzer().analyze(copy) == TrackingAnalyzer().analyze(
                rebuilt
            ), name
            for node in copy.iter_nodes():
                assert node.is_tracking == any(
                    view.is_tracking for view in node.views if view is not None
                ), name
        assert [node_measures(node) for node in dataset.iter_nodes()] == before

    def test_child_measures_follow_the_views(self, store, generator, filter_list):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        lists = ablation_blocklist._variants(
            SimpleNamespace(generator=generator, filter_list=filter_list)
        )
        datasets = {"source": dataset}
        datasets.update((name, dataset.reclassified(other)) for name, other in lists.items())
        for name, data in datasets.items():
            with_children = 0
            for node in data.iter_nodes():
                views = node.present_views()
                assert node.has_children == any(
                    view.child_count > 0 for view in views
                ), name
                assert node.mean_child_count == sum(
                    view.child_count for view in views
                ) / len(views), name
                with_children += node.has_children
            assert 0 < with_children < len(list(data.iter_nodes())), name

    def test_tracking_analysis_shares_instead_of_copying(
        self, store, generator, filter_list, monkeypatch
    ):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        copied = []
        copy_tree = DependencyTree.reclassified

        def spy(tree, *args, **kwargs):
            copied.append(tree.visit_id)
            return copy_tree(tree, *args, **kwargs)

        monkeypatch.setattr(DependencyTree, "reclassified", spy)
        lists = ablation_blocklist._variants(
            SimpleNamespace(generator=generator, filter_list=filter_list)
        )
        shared = replaced = 0
        for name, other in lists.items():
            copy = dataset.reclassified(other)
            TrackingAnalyzer().analyze(copy)
            assert copied == [], name
            for entry, source in zip(copy.entries, dataset.entries):
                nodes, sources = entry.comparison.nodes(), source.comparison.nodes()
                assert [node.key for node in nodes] == [node.key for node in sources]
                for node, before in zip(nodes, sources):
                    flags = [view and view.is_tracking for view in node.views]
                    if flags == [view and view.is_tracking for view in before.views]:
                        assert node is before, name
                        shared += 1
                        continue
                    replaced += 1
                    for view, old in zip(node.views, before.views):
                        if view is None or view.is_tracking == old.is_tracking:
                            assert view is old, name
                        else:
                            assert view is not old
                            assert replace(view, is_tracking=old.is_tracking) == old
        assert shared and replaced
        # The copies are made on the first read of a page's trees.
        copy = dataset.reclassified(lists["EasyList + EasyPrivacy"])
        trees = copy.entries[0].comparison.trees
        assert sorted(copied) == sorted(tree.visit_id for tree in trees.values())

    def test_normalization_counts_the_build(self, store, filter_list):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        builder = TreeBuilder(normalize.UrlNormalizer())
        profiles = store.profiles()
        for page in store.pages_crawled_by_all(profiles):
            builder.build_visits(store, store.successful_visits_for_page(page, profiles))
        assert dataset.normalization == builder.normalizer.stats
        assert dataset.normalization.changed > 0
        assert not dataset.include_partial
        assert AnalysisDataset.from_store(
            store, filter_list=filter_list, include_partial=True
        ).include_partial


class TestFromTreeSets:
    def test_basic(self):
        trees = make_tree_set(
            "https://site.com/", {"A": {"https://site.com/a.js": None}}
        )
        dataset = AnalysisDataset.from_tree_sets([trees])
        assert len(dataset) == 1
        assert dataset.profiles == ["A"]
        assert dataset.entries[0].site == "site.com"

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            AnalysisDataset.from_tree_sets([])

    def test_rank_override(self):
        trees = make_tree_set("https://site.com/", {"A": {}})
        dataset = AnalysisDataset.from_tree_sets([trees], site_ranks={"site.com": 77})
        assert dataset.entries[0].site_rank == 77
