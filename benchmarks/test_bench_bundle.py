"""Benchmark: bundle record+replay overhead on crawl+analyze.

Times the bench-scale pipeline twice: plain (crawl, then build the
analysis dataset from the live store) and bundled (the same crawl, then
record the bundle, replay it, and build the dataset from the replayed
store).  The delta is the full price of archiving — serializing every
table, compressing the members, writing the manifest, and reading it
all back — which rides on top of work the plain pipeline does anyway,
so the gate binds at 1.25x.  The run also asserts the fidelity
contract: the replayed dataset has the same shape and the self-diff
reports zero drift.
"""

from __future__ import annotations

import time

from repro.analysis import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.bundle import Bundle, diff_against_store, record_from_store
from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.experiments import ExperimentContext
from repro.web import WebGenerator

from .conftest import emit

SEED = 2023
SITES_PER_BUCKET = 2
PAGES_PER_SITE = 5
REPEATS = 3


def _crawl():
    generator = WebGenerator(SEED)
    store = MeasurementStore()
    ranks = sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
    Commander(generator, store, max_pages_per_site=PAGES_PER_SITE).run(ranks)
    return generator, store


def _plain_pipeline():
    started = time.perf_counter()
    generator, store = _crawl()
    filter_list = build_filter_list(generator.ecosystem)
    dataset = AnalysisDataset.from_store(store, filter_list=filter_list)
    seconds = time.perf_counter() - started
    store.close()
    return dataset, seconds


def _bundled_pipeline(workdir):
    started = time.perf_counter()
    generator, store = _crawl()
    # Reuse the crawl's generator: its site cache is warm, which is the
    # position every record-after-crawl caller is in.
    bundle = record_from_store(
        store, seed=SEED, path=workdir / "crawl", generator=generator
    )
    store.close()
    reopened = Bundle.open(workdir / "crawl")
    dataset = ExperimentContext.from_bundle(reopened).dataset
    seconds = time.perf_counter() - started
    return reopened, dataset, seconds


def test_bench_bundle_overhead(tmp_path):
    # Interleaved best-of-N: alternating the variants spreads machine
    # drift across both, so the ratio is steadier than back-to-back runs.
    plain_seconds = None
    plain_dataset = None
    bundled_seconds = None
    bundle = None
    bundled_dataset = None
    for attempt in range(REPEATS):
        plain_dataset, seconds = _plain_pipeline()
        plain_seconds = (
            seconds if plain_seconds is None else min(plain_seconds, seconds)
        )
        workdir = tmp_path / f"run-{attempt}"
        workdir.mkdir()
        bundle, bundled_dataset, seconds = _bundled_pipeline(workdir)
        bundled_seconds = (
            seconds if bundled_seconds is None else min(bundled_seconds, seconds)
        )

    # Fidelity first: the archive must change nothing about the analysis.
    assert len(bundled_dataset) == len(plain_dataset)
    assert bundled_dataset.profiles == plain_dataset.profiles
    assert bundled_dataset.node_count() == plain_dataset.node_count()
    with bundle.replay() as replayed:
        report = diff_against_store(bundle, replayed)
    assert report.clean

    table_rows = sum(
        entry.rows or 0 for entry in bundle.manifest.table_members()
    )
    raw_bytes = sum(entry.raw_size for entry in bundle.manifest.members)
    stored_bytes = sum(
        path.stat().st_size for path in (bundle.path / "objects").iterdir()
    )
    overhead = bundled_seconds / plain_seconds if plain_seconds else 1.0
    lines = [
        f"config: seed={SEED} sites_per_bucket={SITES_PER_BUCKET} "
        f"pages_per_site={PAGES_PER_SITE} best-of-{REPEATS}",
        f"crawl+analyze, plain          : {plain_seconds:8.3f} s",
        f"crawl+record+replay+analyze   : {bundled_seconds:8.3f} s",
        f"overhead                      : {overhead:8.3f}x (gate < 1.25x)",
        f"bundle: {table_rows} table rows, {raw_bytes} B raw "
        f"-> {stored_bytes} B compressed",
        "self-replay fidelity: zero drift",
    ]
    emit("bundle", "\n".join(lines))

    assert overhead < 1.25, (
        f"bundle record+replay overhead {overhead:.3f}x exceeds the 1.25x gate"
    )
