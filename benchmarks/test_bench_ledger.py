"""Benchmark: run-ledger + profiler overhead on the crawl hot path.

Runs the bench-scale crawl with telemetry fully off and with the full
ledger stack on (tracer + metrics + run-record append per crawl), checks
the appended records agree on their deterministic section across
repeats, and gates the overhead ratio at 1.25x — the ledger is a
bookkeeping layer and must stay invisible next to the crawl itself.
"""

from __future__ import annotations

import time

from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.obs import NULL_OBS, ObsContext, RunLedger
from repro.web import WebGenerator

from .conftest import emit

SEED = 2023
SITES_PER_BUCKET = 2
PAGES_PER_SITE = 5
REPEATS = 3


def _crawl(obs):
    generator = WebGenerator(SEED)
    store = MeasurementStore()
    ranks = sample_paper_buckets(SEED, per_bucket=SITES_PER_BUCKET)
    started = time.perf_counter()
    Commander(
        generator, store, max_pages_per_site=PAGES_PER_SITE, obs=obs
    ).run(ranks)
    return store, time.perf_counter() - started


def _best_of(make_obs):
    """Best-of-N wall clock (minimum filters scheduler noise)."""
    best_seconds, store = None, None
    for _ in range(REPEATS):
        if store is not None:
            store.close()
        store, seconds = _crawl(make_obs())
        best_seconds = seconds if best_seconds is None else min(best_seconds, seconds)
    return store, best_seconds


def test_bench_ledger_overhead(tmp_path):
    plain_store, plain_seconds = _best_of(lambda: NULL_OBS)
    ledger = RunLedger(tmp_path / "ledger")
    traced_store, traced_seconds = _best_of(
        lambda: ObsContext.create(seed=SEED, ledger=ledger)
    )

    # The ledger must observe the crawl, not perturb it.
    plain_rows = plain_store._conn.execute(
        "SELECT * FROM visits ORDER BY visit_id"
    ).fetchall()
    traced_rows = traced_store._conn.execute(
        "SELECT * FROM visits ORDER BY visit_id"
    ).fetchall()
    assert plain_rows == traced_rows

    # One record per instrumented crawl; the real clock makes their
    # measured sections differ, but provenance must not move between
    # repeats of the same seed and config.
    entries = ledger.entries()
    assert len(entries) == REPEATS
    assert len({entry.provenance_id for entry in entries}) == 1
    record = ledger.load("latest")
    assert record.kind == "crawl"
    assert record.measured["clock"] == "system"

    overhead = traced_seconds / plain_seconds if plain_seconds else 1.0
    lines = [
        f"config: seed={SEED} sites_per_bucket={SITES_PER_BUCKET} "
        f"pages_per_site={PAGES_PER_SITE} best-of-{REPEATS}",
        f"crawl, no telemetry       : {plain_seconds:8.3f} s",
        f"crawl, ledger + profiler  : {traced_seconds:8.3f} s",
        f"overhead                  : {overhead:8.3f}x (target < 1.05x, gate < 1.25x)",
        f"records appended          : {len(entries)} "
        f"(provenance stable: yes)",
    ]
    emit("ledger", "\n".join(lines), seconds=traced_seconds)
    plain_store.close()
    traced_store.close()

    assert overhead < 1.25, (
        f"ledger + profiler overhead {overhead:.3f}x exceeds the 1.25x gate"
    )
