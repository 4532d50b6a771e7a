"""Tests for per-profile totals and pairwise comparisons (Tables 5 and 6)."""

import pytest

from repro.analysis.profiles import ProfileAnalyzer
from repro.errors import AnalysisError


class TestTable5Totals:
    def test_row_per_profile(self, dataset):
        rows = ProfileAnalyzer().totals(dataset)
        assert [row.profile for row in rows] == dataset.profiles

    def test_counts_consistent(self, dataset):
        for row in ProfileAnalyzer().totals(dataset):
            assert row.third_party <= row.nodes
            assert row.tracker <= row.nodes
            assert row.max_depth >= 1
            assert row.max_breadth >= 1

    def test_noaction_smallest(self, dataset):
        rows = {row.profile: row for row in ProfileAnalyzer().totals(dataset)}
        noaction = rows["NoAction"].nodes
        for name, row in rows.items():
            if name != "NoAction":
                assert row.nodes > noaction


class TestTable6:
    def test_columns_exclude_reference(self, dataset):
        columns = ProfileAnalyzer().table6(dataset, reference="Sim1")
        assert [c.other for c in columns] == [p for p in dataset.profiles if p != "Sim1"]

    def test_share_bounds(self, dataset):
        for column in ProfileAnalyzer().table6(dataset):
            for share in (
                column.fp_children,
                column.tp_children,
                column.fp_parent,
                column.tp_parent,
            ):
                assert 0.0 <= share.none <= 1.0
                assert 0.0 <= share.perfect <= 1.0
                assert share.perfect + share.none <= 1.0 + 1e-9

    def test_fp_parents_more_stable_than_tp(self, dataset):
        for column in ProfileAnalyzer().table6(dataset):
            assert column.fp_parent.perfect >= column.tp_parent.perfect

    def test_unknown_profile_rejected(self, dataset):
        with pytest.raises(AnalysisError):
            ProfileAnalyzer().compare_pair(dataset, "Sim1", "Nope")


class TestSameConfiguration:
    def test_upper_levels_similarity_bounds(self, dataset):
        # The paper's ordering (upper .92 > deeper .75) needs deep trees,
        # which the small fixture rarely produces; the bench asserts it at
        # scale. Here we check the computation is sane.
        upper, deeper = ProfileAnalyzer().same_configuration_similarity(dataset)
        assert 0.0 <= deeper <= 1.0
        assert 0.4 < upper <= 1.0


class TestInteractionEffect:
    def test_more_nodes_with_interaction(self, dataset):
        effect = ProfileAnalyzer().interaction_effect(dataset)
        # Paper: Sim1 has 34% more nodes, 36% more third-party nodes.
        assert effect["node_increase"] > 0.1
        assert effect["third_party_increase"] > 0.1

    def test_unknown_profile_rejected(self, dataset):
        with pytest.raises(AnalysisError, match="'Nope'"):
            ProfileAnalyzer().interaction_effect(dataset, noaction="Nope")

    def test_depth_test_runs(self, dataset):
        # Significance needs the bench-scale crawl; on the small fixture we
        # check the test executes and the direction matches the paper
        # (interaction profiles reach deeper levels).
        result = ProfileAnalyzer().interaction_depth_test(dataset)
        assert result.test_name == "mann-whitney"
        assert 0.0 <= result.p_value <= 1.0
        depths = {}
        for profile in ("Sim1", "NoAction"):
            values = [
                node.depth
                for entry in dataset
                for node in entry.comparison.trees[profile].nodes()
            ]
            depths[profile] = sum(values) / len(values)
        assert depths["Sim1"] >= depths["NoAction"] - 0.3
