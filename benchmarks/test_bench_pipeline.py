"""Benchmark: the measurement substrate itself (crawl + tree building).

Not a paper artifact, but the baseline cost every experiment pays: how
fast the synthetic web is crawled and how fast trees are rebuilt from the
store.
"""

from repro.crawler import Commander, MeasurementStore
from repro.trees import TreeBuilder
from repro.web import WebGenerator

from benchmarks.conftest import emit


def test_bench_crawl_site(benchmark):
    """Crawl one site (all five profiles, 3 pages)."""
    generator = WebGenerator(seed=101)

    def crawl():
        store = MeasurementStore()
        commander = Commander(generator, store, max_pages_per_site=3)
        summary = commander.run(ranks=[1])
        return store, summary

    store, summary = benchmark(crawl)
    assert summary.total_visits == 15
    emit(
        "pipeline_crawl",
        f"one site, 3 pages, 5 profiles -> {summary.total_visits} visits, "
        f"{store.request_count()} requests",
    )


def test_bench_tree_building(benchmark, bench_ctx):
    """Rebuild all dependency trees for the vetted pages."""
    store = bench_ctx.store
    profiles = bench_ctx.profile_names

    def build_all():
        builder = TreeBuilder(filter_list=bench_ctx.filter_list)
        return sum(
            tree.node_count
            for page in store.pages_crawled_by_all(profiles)
            for tree in builder.build_visits(
                store, store.successful_visits_for_page(page, profiles)
            ).values()
        )

    total_nodes = benchmark.pedantic(build_all, rounds=3, iterations=1)
    assert total_nodes > 0
    emit("pipeline_trees", f"rebuilt trees with {total_nodes} total nodes")
