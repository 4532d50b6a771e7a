"""Benchmark: live-monitor overhead on the instrumented crawl.

Runs the bench-scale crawl once with plain telemetry (tracer + metrics)
and once with the full streaming monitor attached (event bus + the
``Monitor.for_crawl`` detector set), asserts the stored measurements and
the plain telemetry are unaffected, and records the overhead ratio in
``bench_results/monitor.txt``.  The gate binds at 1.25x: the monitor is
a per-visit constant-work subscriber, so anything past that means an
accidentally quadratic detector.
"""

from __future__ import annotations

import time

from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.obs import EventStream, Monitor, ObsContext, default_expected_failure_rate
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


def _monitored_obs():
    obs = ObsContext.create(seed=SEED, stream=EventStream())
    obs.attach_monitor(
        Monitor.for_crawl(expected_rate=default_expected_failure_rate())
    )
    return obs


def _best_of(make_obs):
    """Best-of-N wall clock (minimum filters scheduler noise)."""
    best_seconds, best = None, None
    for _ in range(REPEATS):
        if best is not None:
            best[0].close()
        obs = make_obs()
        store, seconds = _crawl(obs)
        best = (store, obs)
        best_seconds = seconds if best_seconds is None else min(best_seconds, seconds)
    return best[0], best[1], best_seconds


def test_bench_monitor_overhead():
    plain_store, plain_obs, plain_seconds = _best_of(
        lambda: ObsContext.create(seed=SEED)
    )
    watched_store, watched_obs, watched_seconds = _best_of(_monitored_obs)

    # The monitor must observe the crawl, not perturb it: stored rows and
    # the plain telemetry channels are byte-identical either way.
    plain_rows = plain_store._conn.execute(
        "SELECT * FROM visits ORDER BY visit_id"
    ).fetchall()
    watched_rows = watched_store._conn.execute(
        "SELECT * FROM visits ORDER BY visit_id"
    ).fetchall()
    assert plain_rows == watched_rows
    assert plain_obs.metrics.to_json() == watched_obs.metrics.to_json()

    # One event per stored visit.
    monitor = watched_obs.monitor
    assert monitor.events_seen == watched_store.visit_count() > 0

    overhead = watched_seconds / plain_seconds if plain_seconds else 1.0
    lines = [
        f"config: seed={SEED} sites_per_bucket={SITES_PER_BUCKET} "
        f"pages_per_site={PAGES_PER_SITE} best-of-{REPEATS}",
        f"crawl, telemetry only   : {plain_seconds:8.3f} s",
        f"crawl, monitor attached : {watched_seconds:8.3f} s",
        f"overhead                : {overhead:8.3f}x (target < 1.05x, gate < 1.25x)",
        f"events monitored        : {monitor.events_seen}",
        f"alerts raised           : {len(monitor.alerts)}",
        "stored visits and metrics identical with and without monitor: yes",
    ]
    emit("monitor", "\n".join(lines), seconds=watched_seconds)
    plain_store.close()
    watched_store.close()

    assert overhead < 1.25, (
        f"monitor overhead {overhead:.3f}x exceeds the 1.25x gate"
    )
