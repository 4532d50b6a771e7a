"""Benchmark: serial vs sharded crawl.

Runs the bench-scale measurement once serially and once with 4 workers,
asserts the stores are content-identical (the determinism guarantee), and
records both wall-clocks in ``bench_results/parallel.txt``.  The speedup
assertion only binds on machines with enough cores — on a 1-core CI box
process parallelism cannot win and we only record the ratio.
"""

from __future__ import annotations

import os
import time

from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
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


def _crawl(workers: int):
    generator = WebGenerator(SEED)
    store = MeasurementStore()
    ranks = sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
    started = time.perf_counter()
    Commander(
        generator, store, max_pages_per_site=PAGES_PER_SITE, workers=workers
    ).run(ranks)
    return store, time.perf_counter() - started


def _rows(store, table):
    return store._conn.execute(f"SELECT rowid, * FROM {table} ORDER BY rowid").fetchall()


def test_bench_parallel_crawl():
    serial_store, serial_seconds = _crawl(workers=1)
    sharded_store, sharded_seconds = _crawl(workers=WORKERS)

    for table in TABLES:
        assert _rows(serial_store, table) == _rows(sharded_store, table), table

    crawl_speedup = serial_seconds / sharded_seconds if sharded_seconds else 0.0
    cores = os.cpu_count() or 1
    lines = [
        f"config: seed={SEED} sites_per_bucket={SITES_PER_BUCKET} "
        f"pages_per_site={PAGES_PER_SITE} workers={WORKERS} cores={cores}",
        f"crawl serial        : {serial_seconds:8.2f} s",
        f"crawl {WORKERS} workers     : {sharded_seconds:8.2f} s  "
        f"(speedup {crawl_speedup:.2f}x)",
        f"visits: {serial_store.visit_count(success_only=False)}, "
        f"requests: {serial_store.request_count()}",
        "stores content-identical across all tables: yes",
    ]
    emit("parallel", "\n".join(lines))

    if cores >= WORKERS:
        assert crawl_speedup >= 1.5, (
            f"expected >= 1.5x crawl speedup with {WORKERS} workers on "
            f"{cores} cores, measured {crawl_speedup:.2f}x"
        )
