"""Tests for AnalysisDataset construction."""

from types import SimpleNamespace

import pytest

from repro.analysis import TrackingAnalyzer
from repro.analysis.dataset import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.browser.callstack import CallStack
from repro.errors import AnalysisError
from repro.experiments import ablation_blocklist
from repro.trees import TreeBuilder, normalize
from repro.web import psl
from repro.web.resources import parse_resource_type

from ..helpers import dataset_fingerprint, make_tree_set, node_measures


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
        assert builds[0].entries
        fingerprints = [dataset_fingerprint(dataset) for dataset in builds]
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


class TestReclassified:
    """Classifying a built dataset's trees under another list, as
    ``ablation_blocklist`` does, equals building the dataset under it."""

    def test_equals_rebuild_and_leaves_source_untouched(
        self, store, generator, filter_list
    ):
        dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
        before = (
            dataset_fingerprint(dataset),
            _tree_flags(dataset),
            [node_measures(node) for node in dataset.iter_nodes()],
        )
        lists = ablation_blocklist._variants(
            SimpleNamespace(generator=generator, filter_list=filter_list)
        )
        assert len(lists) == 4
        shares = set()
        for name, other in lists.items():
            report = TrackingAnalyzer().analyze(
                AnalysisDataset.from_store(store, filter_list=other)
            )
            child_similarity = report.child_similarity_tracking
            assert ablation_blocklist._point(name, other, dataset) == (
                ablation_blocklist.ListPoint(
                    name=name,
                    filter_count=len(other),
                    tracking_share=report.tracking_node_share,
                    tracking_child_similarity=(
                        child_similarity.mean if child_similarity is not None else 0.0
                    ),
                )
            ), name
            shares.add(report.tracking_node_share)
        assert len(shares) > 1  # the lists really classify differently
        assert (
            dataset_fingerprint(dataset),
            _tree_flags(dataset),
            [node_measures(node) for node in dataset.iter_nodes()],
        ) == before

    def test_child_measures_follow_the_views(self, dataset):
        with_children = 0
        for node in dataset.iter_nodes():
            views = node.present_views()
            assert node.has_children == any(view.child_count > 0 for view in views)
            assert node.mean_child_count == sum(
                view.child_count for view in views
            ) / len(views)
            with_children += node.has_children
        assert 0 < with_children < len(list(dataset.iter_nodes()))

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
