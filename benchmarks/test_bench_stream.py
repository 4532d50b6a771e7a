"""Benchmark: phased batch pipeline vs streaming crawl→analysis overlap.

Runs the bench-scale measurement twice end to end — once as the batch
path (sharded crawl barrier, then tree building) and once streamed
(``repro.pipeline.stream``: each shard's store is folded into the
dataset in the parent as it lands, while the crawl workers go on) —
asserts every store row and dataset entry is identical, and ledgers the
streamed throughput (visits/sec) and peak RSS in
``bench_results/stream.txt``.  The wall-clock gate (streamed ≤ batch)
only binds on machines with enough cores for the folds to overlap the
crawl workers; a smaller box just records the ratio.
"""

from __future__ import annotations

import os
import time

from repro.analysis import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.obs.profile import peak_rss_kb
from repro.pipeline import stream_crawl
from repro.web import WebGenerator

from .conftest import emit

SEED = 2023
SITES_PER_BUCKET = 2
PAGES_PER_SITE = 5
WORKERS = 4

TABLES = (
    "visits",
    "http_requests",
    "http_responses",
    "http_redirects",
    "javascript_cookies",
)


def _rows(store, table):
    return store._conn.execute(
        f"SELECT rowid, * FROM {table} ORDER BY rowid"
    ).fetchall()


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


def _batch():
    generator = WebGenerator(SEED)
    store = MeasurementStore()
    ranks = sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
    filter_list = build_filter_list(generator.ecosystem)
    started = time.perf_counter()
    Commander(
        generator, store, max_pages_per_site=PAGES_PER_SITE, workers=WORKERS
    ).run(ranks)
    dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
    return store, dataset, time.perf_counter() - started


def _streamed():
    generator = WebGenerator(SEED)
    store = MeasurementStore()
    ranks = sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
    filter_list = build_filter_list(generator.ecosystem)
    started = time.perf_counter()
    run = stream_crawl(
        generator,
        store,
        ranks,
        max_pages_per_site=PAGES_PER_SITE,
        workers=WORKERS,
        filter_list=filter_list,
    )
    dataset = run.finalize()
    return store, dataset, time.perf_counter() - started, run.stats


def test_bench_stream_pipeline():
    batch_store, batch_dataset, batch_seconds = _batch()
    stream_store, stream_dataset, stream_seconds, stats = _streamed()

    for table in TABLES:
        assert _rows(batch_store, table) == _rows(stream_store, table), table
    assert _fingerprint(batch_dataset) == _fingerprint(stream_dataset)

    visits_per_sec = stats.visits / stream_seconds if stream_seconds else 0.0
    ratio = stream_seconds / batch_seconds if batch_seconds else 0.0
    lines = [
        f"pipeline soak at workers={WORKERS} "
        f"({stats.visits} visits, {len(stream_dataset)} comparable pages)",
        f"  batch    : {batch_seconds:8.2f}s",
        f"  streamed : {stream_seconds:8.2f}s  ({ratio:.2f}x batch, "
        f"{stats.handoffs} handoffs, drain {stats.drain_seconds:.2f}s)",
        f"  visits/sec : {visits_per_sec:8.1f}",
        f"  peak RSS   : {peak_rss_kb()} kB",
    ]
    emit(
        "stream",
        "\n".join(lines),
        seconds=stream_seconds,
        visits_per_second=visits_per_sec,
    )

    assert stats.handoffs > 0
    assert visits_per_sec > 0
    cores = os.cpu_count() or 1
    if cores >= WORKERS:
        # Overlap can only help once the folds and the crawl workers
        # really run concurrently.
        assert stream_seconds <= batch_seconds
