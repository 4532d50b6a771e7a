"""Integration tests: every experiment runs and renders on a small pipeline."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, run_pipeline


@pytest.fixture(scope="module")
def ctx():
    return run_pipeline(ExperimentConfig(seed=7, sites_per_bucket=1, pages_per_site=3))


class TestPipeline:
    def test_crawl_completed(self, ctx):
        assert ctx.summary.sites_crawled >= 4
        assert ctx.summary.total_visits > 0

    def test_dataset_vetted(self, ctx):
        assert len(ctx.dataset) > 0
        for entry in ctx.dataset:
            assert len(entry.comparison.trees) == 5

    def test_cache_reuses_context(self, ctx):
        again = run_pipeline(ExperimentConfig(seed=7, sites_per_bucket=1, pages_per_site=3))
        assert again is ctx

    def test_profile_names(self, ctx):
        assert ctx.profile_names == ["Old", "Sim1", "Sim2", "NoAction", "Headless"]


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment_runs_and_renders(ctx, experiment_id):
    module = ALL_EXPERIMENTS[experiment_id]
    result = module.run(ctx)
    text = module.render(result)
    assert isinstance(text, str)
    assert len(text) > 40


class TestPaperShapesAtExperimentScale:
    """The qualitative statements each experiment must reproduce."""

    def test_table2_presence_shape(self, ctx):
        from repro.experiments import table2

        result = table2.run(ctx)
        overview = result.overview
        assert overview.present_in_all_share > overview.present_in_one_share * 0.5
        assert 2.0 < overview.mean_presence <= 5.0

    def test_table3_party_ordering(self, ctx):
        from repro.experiments import table3

        rows = {row.label: row for row in table3.run(ctx).rows}
        assert rows["first-party nodes"].similarity > rows["third-party nodes"].similarity

    def test_table5_noaction_smallest(self, ctx):
        from repro.experiments import table5

        rows = {row.profile: row for row in table5.run(ctx).rows}
        for name in ("Old", "Sim1", "Sim2", "Headless"):
            assert rows[name].nodes > rows["NoAction"].nodes
            assert rows[name].tracker > rows["NoAction"].tracker

    def test_table6_noaction_most_divergent(self, ctx):
        from repro.experiments import table6

        result = table6.run(ctx)
        columns = {c.other: c for c in result.columns}
        # Headless and Sim2 behave like the reference; NoAction diverges more
        # in third-party children (paper Table 6).
        assert (
            columns["NoAction"].tp_children.perfect
            <= columns["Sim2"].tp_children.perfect + 0.05
        )

    def test_case_tracking_ordering(self, ctx):
        from repro.experiments import case_tracking

        report = case_tracking.run(ctx).report
        assert (
            report.child_similarity_tracking.mean
            < report.child_similarity_non_tracking.mean
        )

    def test_case_unique_third_party_dominated(self, ctx):
        from repro.experiments import case_unique

        report = case_unique.run(ctx).report
        assert report.third_party_share > 0.6

    def test_ablation_raw_urls_inflate_differences(self, ctx):
        from repro.experiments import ablations

        result = ablations.run(ctx)
        assert (
            result.normalization.raw_variation
            > result.normalization.normalized_variation
        )
        # Disabling stack/redirect attribution flattens trees.
        assert (
            result.attribution.frames_only_mean_depth
            < result.attribution.full_mean_depth
        )
        assert (
            result.attribution.frames_only_root_children
            > result.attribution.full_root_children
        )


class TestCli:
    def test_main_runs_selected(self, capsys):
        from repro.experiments.__main__ import main

        code = main(
            [
                "--seed", "7",
                "--sites-per-bucket", "1",
                "--pages-per-site", "3",
                "--only", "table2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[table2]" in out
        assert "Table 2" in out

    def test_failing_experiment_does_not_stop_the_others(
        self, monkeypatch, capsys
    ):
        from repro.errors import AnalysisError
        from repro.experiments import table2, table3
        from repro.experiments.__main__ import main

        def fail(ctx):
            raise AnalysisError("no comparable pages")

        config = ExperimentConfig(seed=7, sites_per_bucket=1, pages_per_site=3)
        rendered = table3.render(table3.run(run_pipeline(config)))
        monkeypatch.setattr(table2, "run", fail)
        code = main(
            [
                "--seed", "7",
                "--sites-per-bucket", "1",
                "--pages-per-site", "3",
                "--only", "table2,table3",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: table2: no comparable pages\n"
        assert "[table2]" in captured.out
        assert f"[table3]\n{'=' * 70}\n{rendered}\n\n" in captured.out

    def test_unknown_id_rejected(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "nonsense"])
