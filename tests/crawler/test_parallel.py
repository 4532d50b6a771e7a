"""Determinism suite for the sharded crawl (and batched storage).

The contract under test: ``Commander(workers=N)`` produces a store whose
*content* is bit-identical to the serial crawl — same rows, same visit
ids, same timestamps — for every table, because visit ids and clocks are
scheduled deterministically per ``(site, profile, page, repeat)`` rather
than allocated in execution order.  A sharded crawl hands each shard's
store to ``on_shard`` as it lands, and a failing shard or consumer stops
the crawl without starting the shards still queued.
"""

import functools
import sqlite3
import tempfile
import time
from pathlib import Path

import pytest

import repro.crawler.commander as commander_module
from repro.browser.profile import PROFILE_SIM1, PROFILE_SIM2
from repro.crawler import Commander, MeasurementStore
from repro.crawler.commander import SHARDS_PER_WORKER
from repro.errors import CrawlError
from repro.web import WebConfig, WebGenerator

RANKS = [1, 2, 6001]

TABLES = (
    "visits",
    "http_requests",
    "http_responses",
    "http_redirects",
    "javascript_cookies",
)


def crawl(workers, seed=21, ranks=RANKS, repeat_visits=1):
    generator = WebGenerator(seed, config=WebConfig(subpages_per_site=3))
    store = MeasurementStore()
    summary = Commander(
        generator,
        store,
        max_pages_per_site=3,
        workers=workers,
        repeat_visits=repeat_visits,
    ).run(ranks=ranks)
    return generator, store, summary


def table_rows(store, table):
    # rowid included: shards must merge back in the exact physical row
    # order the serial crawl writes, so even a raw `sqlite3 .dump` of the
    # two stores is byte-identical.
    return store._conn.execute(f"SELECT rowid, * FROM {table} ORDER BY rowid").fetchall()


class TestShardedCrawlDeterminism:
    def test_two_workers_store_identical_to_serial(self):
        # workers=2 runs inside the tier-1 suite so the multiprocessing
        # path cannot rot unnoticed.
        _, serial_store, serial_summary = crawl(workers=1)
        _, sharded_store, sharded_summary = crawl(workers=2)
        for table in TABLES:
            assert table_rows(serial_store, table) == table_rows(sharded_store, table)
        assert serial_summary.visits == sharded_summary.visits
        assert serial_summary.successes == sharded_summary.successes
        assert serial_summary.sites_crawled == sharded_summary.sites_crawled
        assert serial_summary.pages_discovered == sharded_summary.pages_discovered

    def test_four_workers_store_identical_to_serial(self):
        _, serial_store, _ = crawl(workers=1)
        _, sharded_store, _ = crawl(workers=4)
        for table in TABLES:
            assert table_rows(serial_store, table) == table_rows(sharded_store, table)

    def test_more_workers_than_sites(self):
        _, serial_store, _ = crawl(workers=1, ranks=[1, 2])
        _, sharded_store, summary = crawl(workers=8, ranks=[1, 2])
        assert summary.sites_crawled == 2
        for table in TABLES:
            assert table_rows(serial_store, table) == table_rows(sharded_store, table)

    def test_repeat_visits_identical(self):
        _, serial_store, _ = crawl(workers=1, ranks=[1, 2], repeat_visits=2)
        _, sharded_store, _ = crawl(workers=2, ranks=[1, 2], repeat_visits=2)
        assert table_rows(serial_store, "visits") == table_rows(sharded_store, "visits")

    def test_visit_ids_contiguous_from_one(self):
        _, store, summary = crawl(workers=2)
        ids = [v.visit_id for v in store.iter_visits(success_only=False)]
        assert ids == list(range(1, summary.total_visits + 1))

    def test_two_profile_shard(self):
        serial, sharded = MeasurementStore(), MeasurementStore()
        for store, workers in ((serial, 1), (sharded, 3)):
            Commander(
                WebGenerator(33, config=WebConfig(subpages_per_site=2)),
                store,
                profiles=(PROFILE_SIM1, PROFILE_SIM2),
                max_pages_per_site=2,
                workers=workers,
            ).run(ranks=[1, 5, 9])
        for table in TABLES:
            assert table_rows(serial, table) == table_rows(sharded, table)

    def test_invalid_workers_rejected(self):
        generator = WebGenerator(21)
        with pytest.raises(CrawlError):
            Commander(generator, MeasurementStore(), workers=0)


_REAL_CRAWL_SITES = commander_module._crawl_sites


def _marked_shard(
    generator, store, profiles, schedules, *, markers, fail=False, release=None, **kwargs
):
    """Shard body that leaves a marker when it starts.

    Shard 0 (the one holding the first scheduled site) raises at once
    with ``fail``; with ``release``, it first waits up to 10 s for that
    file to exist, and leaves a ``timed-out`` marker if it never does.
    """
    Path(markers, f"rank-{schedules[0].rank}").touch()
    if schedules[0].visit_base == 1:
        if fail:
            raise CrawlError("injected failure in shard 0")
        if release is not None:
            deadline = time.monotonic() + 10
            while not Path(release).exists():
                if time.monotonic() > deadline:
                    Path(markers, "timed-out").touch()
                    break
                time.sleep(0.01)
    time.sleep(0.5)
    return _REAL_CRAWL_SITES(generator, store, profiles, schedules, **kwargs)


class TestShardHandoff:
    def test_on_shard_fires_once_per_shard_with_a_readable_store(self):
        handoffs = []

        def on_shard(handoff):
            ranks = handoff.store.ranks()
            planned = sorted(handoff.ranks)
            handoffs.append((handoff.index, handoff.store, ranks, planned))

        _, serial_store, _ = crawl(workers=1)
        generator = WebGenerator(21, config=WebConfig(subpages_per_site=3))
        store = MeasurementStore()
        summary = Commander(
            generator, store, max_pages_per_site=3, workers=2
        ).run(RANKS, on_shard=on_shard)
        shards = min(2 * SHARDS_PER_WORKER, summary.sites_crawled)
        assert sorted(index for index, _, _, _ in handoffs) == list(range(shards))
        for _, shard_store, ranks, planned in handoffs:
            assert ranks == planned
            with pytest.raises(sqlite3.ProgrammingError):
                shard_store.sites()  # closed once the shards are merged
        for table in TABLES:
            assert table_rows(serial_store, table) == table_rows(store, table)

    def test_on_shard_sees_each_shard_as_it_lands(self, tmp_path, monkeypatch):
        # Shard 0 holds back until ``on_shard`` has seen another shard, so
        # a crawl that hands shards over only in layout order (a
        # ``pool.map`` barrier) stalls shard 0 into its timeout.
        release = tmp_path / "release"
        monkeypatch.setattr(
            commander_module,
            "_crawl_sites",
            functools.partial(_marked_shard, markers=tmp_path, release=release),
        )
        handed_off = []

        def on_shard(handoff):
            handed_off.append(handoff.index)
            if handoff.index != 0:
                release.touch()

        Commander(
            WebGenerator(21, config=WebConfig(subpages_per_site=1)),
            MeasurementStore(),
            max_pages_per_site=1,
            workers=2,
        ).run([1, 2], on_shard=on_shard)
        assert sorted(handed_off) == [0, 1]
        assert handed_off[0] != 0
        assert not (tmp_path / "timed-out").exists()


class TestFailFast:
    """A failing shard or ``on_shard`` consumer cancels the queued shards."""

    # Two workers lay out one shard per site: 8 shards.
    RANKS = list(range(1, 2 * SHARDS_PER_WORKER + 1))

    @pytest.fixture
    def markers(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("TMPDIR", str(scratch))
        monkeypatch.setattr(tempfile, "tempdir", None)
        markers = tmp_path / "started"
        markers.mkdir()
        return scratch, markers

    def crawl(self, markers, monkeypatch, fail, on_shard=None):
        scratch, started = markers
        monkeypatch.setattr(
            commander_module,
            "_crawl_sites",
            functools.partial(_marked_shard, markers=started, fail=fail),
        )
        commander = Commander(
            WebGenerator(21, config=WebConfig(subpages_per_site=1)),
            MeasurementStore(),
            max_pages_per_site=1,
            workers=2,
        )
        with pytest.raises(CrawlError, match="injected failure"):
            commander.run(self.RANKS, on_shard=on_shard)
        assert len(list(started.iterdir())) < len(self.RANKS)
        assert list(scratch.glob("repro-crawl-*")) == []

    def test_failing_shard_cancels_queued_shards(self, markers, monkeypatch):
        self.crawl(markers, monkeypatch, fail=True)

    def test_failing_consumer_cancels_queued_shards(self, markers, monkeypatch):
        def on_shard(handoff):
            raise CrawlError("injected failure in on_shard")

        self.crawl(markers, monkeypatch, fail=False, on_shard=on_shard)
