"""Deeper assertions for the extension experiments (beyond the smoke run)."""

import pytest

from repro.analysis import AnalysisDataset, PageComparison, TrackingAnalyzer
from repro.blocklist import build_filter_list
from repro.browser.profile import PAPER_PROFILES
from repro.bundle import record_from_store
from repro.cli import main as cli_main
from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.experiments import (
    ALL_EXPERIMENTS,
    ExperimentConfig,
    ExperimentContext,
    ablation_blocklist,
    ablation_timeout,
    ablations,
    case_cookies,
    implicit_trust,
    replication,
    run_pipeline,
    security_headers,
    study_comparability,
    variance_metric,
)
from repro.stats.descriptive import ratio, safe_mean
from repro.trees import DependencyTree, TreeBuilder
from repro.trees.builder import resolve_parents
from repro.trees.normalize import UrlNormalizer
from repro.web import WebGenerator


@pytest.fixture(scope="module")
def ctx():
    return run_pipeline(ExperimentConfig(seed=7, sites_per_bucket=1, pages_per_site=3))


class TestVarianceMetric:
    def test_structure(self, ctx):
        result = variance_metric.run(ctx)
        assert 0.0 <= result.fluctuation.mean <= 1.0
        assert result.most_stable.score <= result.most_fluctuating.score
        assert result.coverage_curve[5] == pytest.approx(1.0)
        point, low, high = result.child_similarity_ci
        assert low <= point <= high

    def test_render_mentions_coverage(self, ctx):
        text = variance_metric.render(variance_metric.run(ctx))
        assert "coverage" in text
        assert "fluctuation index" in text


class TestReplication:
    def test_within_at_least_between(self, ctx):
        result = replication.run(ctx)
        assert result.report.within.mean >= result.report.between.mean - 0.05
        assert 0.0 <= result.report.noise_share <= 1.0

    def test_render(self, ctx):
        text = replication.render(replication.run(ctx))
        assert "within-setup" in text
        assert "Web noise" in text


class TestSecurityHeaders:
    def test_all_headers_reported(self, ctx):
        result = security_headers.run(ctx)
        assert set(result.report.adoption) == {
            "strict-transport-security",
            "content-security-policy",
            "x-frame-options",
            "x-content-type-options",
            "referrer-policy",
        }

    def test_render_contains_table(self, ctx):
        text = security_headers.render(security_headers.run(ctx))
        assert "presence lottery" in text
        assert "inconsistent security header" in text


class TestImplicitTrust:
    def test_shares_sum(self, ctx):
        result = implicit_trust.run(ctx)
        total = (
            result.report.explicit_third_party_share
            + result.report.implicit_third_party_share
        )
        assert total == pytest.approx(1.0)

    def test_graph_nontrivial(self, ctx):
        result = implicit_trust.run(ctx)
        assert result.graph_nodes > 3
        assert result.graph_edges > 3


class TestStudyComparability:
    def test_rerun_is_a_new_crawl_of_the_same_sites(self, ctx, monkeypatch):
        datasets = []
        crawl_dataset = study_comparability._crawl_dataset

        def recording(*args, **kwargs):
            datasets.append(crawl_dataset(*args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(study_comparability, "_crawl_dataset", recording)
        study_comparability.run(ctx)
        reference, rerun = datasets[:2]

        def trees(dataset):
            return {
                (entry.page_url, profile): tree.keys()
                for entry in dataset
                for profile, tree in entry.comparison.trees.items()
            }

        assert set(rerun.sites()) == set(reference.sites())
        assert trees(rerun) != trees(reference)


class TestTimeoutAblation:
    def test_monotone_success(self, ctx):
        result = ablation_timeout.run(ctx)
        rates = [point.success_rate for point in result.points]
        assert rates == sorted(rates)

    def test_stateful_more_cookies(self, ctx):
        result = ablation_timeout.run(ctx)
        state = result.statefulness
        assert state.stateful_cookies_per_visit >= state.stateless_cookies_per_visit


class TestBlocklistAblation:
    def test_four_configurations(self, ctx):
        result = ablation_blocklist.run(ctx)
        assert len(result.points) == 4
        names = [point.name for point in result.points]
        assert names[0] == "EasyList (paper)"

    def test_builds_no_tree_and_aligns_no_page(self, ctx, monkeypatch):
        def refuse(what):
            def raiser(*args, **kwargs):
                raise AssertionError(f"{what} called")

            return raiser

        monkeypatch.setattr(TreeBuilder, "build", refuse("TreeBuilder.build"))
        monkeypatch.setattr(PageComparison, "__init__", refuse("PageComparison"))
        assert len(ablation_blocklist.run(ctx).points) == 4

    def test_point_equals_the_per_tree_union(self, ctx):
        for name, filter_list in ablation_blocklist._variants(ctx).items():
            nodes = tracking = 0
            child_similarities = []
            for comparison in ctx.dataset.comparisons():
                keys = frozenset().union(
                    *(tree.tracking_keys(filter_list) for tree in comparison.tree_list())
                )
                nodes += len(comparison)
                tracking += len(keys)
                child_similarities.extend(
                    node.child_similarity()
                    for node in comparison.nodes()
                    if node.key in keys and node.has_children
                )
            assert tracking
            assert ablation_blocklist._point(
                name, filter_list, ctx.dataset
            ) == ablation_blocklist.ListPoint(
                name=name,
                filter_count=len(filter_list),
                tracking_share=ratio(tracking, nodes),
                tracking_child_similarity=safe_mean(child_similarities),
            ), name

    def test_generic_only_weakest(self, ctx):
        result = ablation_blocklist.run(ctx)
        points = {point.name: point for point in result.points}
        assert (
            points["generic rules only"].tracking_share
            <= points["EasyList (paper)"].tracking_share
        )

    def test_combined_superset_share(self, ctx):
        result = ablation_blocklist.run(ctx)
        points = {point.name: point for point in result.points}
        assert (
            points["EasyList + EasyPrivacy"].tracking_share
            >= points["EasyList (paper)"].tracking_share - 1e-9
        )


def _attached_tree(visit, requests, normalizer, frames_only):
    """The tree ``DependencyTree.attach`` builds from the resolver's output."""
    normalize = normalizer.normalize
    tree = DependencyTree(normalize(visit.page_url), visit.profile_name, visit.visit_id)
    for request, resource_type, key, parent in resolve_parents(
        tree.page_url, requests, normalize, tree, frames_only=frames_only
    ):
        tree.attach(key, resource_type, tree.node(parent), request.url, request.request_id)
    return tree


def _assert_recipes_equal_a_page_build(ctx):
    """Both recipes' statistics, for each vetted page, equal those read off
    trees that ``attach`` builds from the resolver's output; the raw-URL
    key sets also equal a raw-URL ``TreeBuilder`` build."""
    include_partial = ctx.dataset.include_partial
    profiles = ctx.dataset.profiles
    store = ctx.store
    raw_builder = TreeBuilder(UrlNormalizer(strip_query_values=False))
    expected = []
    for page in store.pages_crawled_by_all(profiles, include_partial=include_partial):
        visits = store.successful_visits_for_page(
            page, profiles, include_partial=include_partial
        )
        built = raw_builder.build_visits(store, visits, allow_partial=include_partial)
        stats = {}
        for profile, visit in visits.items():
            requests = store.requests_for_visit(visit.visit_id)
            raw = _attached_tree(
                visit, requests, UrlNormalizer(strip_query_values=False), False
            )
            frames = _attached_tree(visit, requests, UrlNormalizer(), True)
            assert raw.keys() == built[profile].keys()
            stats[profile] = (
                frozenset(raw.keys()),
                frames.max_depth,
                len(frames.root.children),
            )
        expected.append(stats)
    assert len(expected) == len(ctx.dataset) > 1
    assert list(ablations._page_recipe_stats(ctx)) == expected


class TestAblationsReadEachVisitOnce:
    def test_one_request_read_per_tree(self, ctx, monkeypatch):
        visit_ids = [
            tree.visit_id for entry in ctx.dataset for tree in entry.comparison.tree_list()
        ]
        reads = []
        read_requests = MeasurementStore.requests_for_visit

        def spy(store, visit_id):
            reads.append(visit_id)
            return read_requests(store, visit_id)

        monkeypatch.setattr(MeasurementStore, "requests_for_visit", spy)
        ablations.run(ctx)
        assert sorted(reads) == sorted(visit_ids)  # visit ids are unique

    def test_recipes_equal_a_page_build(self, ctx):
        _assert_recipes_equal_a_page_build(ctx)

    def test_builds_no_tree(self, ctx, monkeypatch):
        expected = ablations.render(ablations.run(ctx))

        def refuse(what):
            def raiser(*args, **kwargs):
                raise AssertionError(f"{what} called")

            return raiser

        monkeypatch.setattr(TreeBuilder, "build", refuse("TreeBuilder.build"))
        monkeypatch.setattr(DependencyTree, "__init__", refuse("DependencyTree"))
        assert ablations.render(ablations.run(ctx)) == expected


class TestAblationsFollowIncludePartial:
    """Under ``--include-partial`` the ablations analyse the same pages as
    every other experiment: the context's dataset."""

    @pytest.fixture(scope="class")
    def salvage_store(self):
        store = MeasurementStore()
        Commander(
            WebGenerator(2023), store, max_pages_per_site=3, salvage_partial=True
        ).run(sample_paper_buckets(2023, per_bucket=2))
        yield store
        store.close()

    def test_paper_row_is_the_context_dataset(self, salvage_store):
        ctx = ExperimentContext.from_store(
            salvage_store,
            seed=2023,
            filter_list=build_filter_list(WebGenerator(2023).ecosystem),
            include_partial=True,
        )
        strict = AnalysisDataset.from_store(salvage_store)
        assert (len(strict), len(ctx.dataset)) == (25, 29)
        paper = ablation_blocklist.run(ctx).points[0]
        assert paper.name == "EasyList (paper)"
        assert (
            paper.tracking_share
            == TrackingAnalyzer().analyze(ctx.dataset).tracking_node_share
        )
        result = ablations.run(ctx)
        assert (
            result.attribution.frames_only_mean_depth
            < result.attribution.full_mean_depth
        )

    def test_recipes_build_the_partial_visits(self, salvage_store):
        ctx = ExperimentContext.from_store(
            salvage_store,
            seed=2023,
            filter_list=build_filter_list(WebGenerator(2023).ecosystem),
            include_partial=True,
        )
        _assert_recipes_equal_a_page_build(ctx)


class TestBundleReplayKeepsCrawlProfiles:
    """A replayed context analyses the profiles the crawl ran, in crawl
    order, as the live context that recorded it does — and so does the
    command line, over the bundle and over a db of the same crawl."""

    def test_replay_renders_like_live(self, tmp_path, capsys):
        live = ExperimentContext(
            ExperimentConfig(
                seed=7,
                sites_per_bucket=1,
                pages_per_site=3,
                profiles=PAPER_PROFILES[1:3],
            )
        )
        record_from_store(
            live.store, seed=7, path=tmp_path / "bundle", generator=live.generator
        )
        replay = ExperimentContext.from_bundle(tmp_path / "bundle")
        assert replay.profile_names == live.profile_names == ["Sim1", "Sim2"]
        assert replay.dataset.profiles == ["Sim1", "Sim2"]
        # Experiments that re-crawl do so with the archived profiles.
        assert replay.config.profiles == live.config.profiles
        rendered = {}
        for name in (
            "ablations",
            "case_cookies",
            "security_headers",
            "replication",
            "ablation_timeout",
            "study_comparability",
        ):
            module = ALL_EXPERIMENTS[name]
            rendered[name] = module.render(module.run(live))
            assert module.render(module.run(replay)) == rendered[name]
        assert case_cookies.run(replay).report.total_cookies > 0

        recrawling = ["replication", "ablation_timeout", "study_comparability"]
        expected = f"dataset: {len(live.dataset)} comparable pages\n\n" + "".join(
            f"{'=' * 70}\n[{name}]\n{'=' * 70}\n{rendered[name]}\n\n"
            for name in recrawling
        )
        db = live.store.snapshot_to(str(tmp_path / "live.sqlite"))
        capsys.readouterr()
        for source in (
            ["--from-bundle", str(tmp_path / "bundle")],
            ["--db", db, "--seed", "7"],
        ):
            argv = ["analyze", *source, "--experiments", ",".join(recrawling)]
            assert cli_main(argv) == 0
            assert capsys.readouterr().out == expected, source
