"""Tests for the semi-parallel commander and crawl clients."""

import pytest

from repro.browser.profile import PAPER_PROFILES, PROFILE_SIM1, PROFILE_SIM2
from repro.crawler.client import CrawlClient
from repro.crawler.commander import Commander, run_measurement
from repro.crawler.storage import MeasurementStore
from repro.errors import CrawlError
from repro.web import WebConfig, WebGenerator


@pytest.fixture()
def small_crawl():
    gen = WebGenerator(seed=21, config=WebConfig(subpages_per_site=3))
    store = MeasurementStore()
    commander = Commander(gen, store, max_pages_per_site=3)
    summary = commander.run(ranks=[1, 2])
    return gen, store, summary


class TestCommander:
    def test_all_profiles_visit_all_pages(self, small_crawl):
        _, store, summary = small_crawl
        assert summary.sites_crawled == 2
        for profile in PAPER_PROFILES:
            assert store.visit_count(profile=profile.name) == summary.pages_discovered

    def test_visit_ids_globally_unique(self, small_crawl):
        _, store, _ = small_crawl
        ids = [v.visit_id for v in store.iter_visits(success_only=False)]
        assert len(ids) == len(set(ids))

    def test_success_rate_reasonable(self, small_crawl):
        _, _, summary = small_crawl
        for profile in PAPER_PROFILES:
            assert summary.success_rate(profile.name) >= 0.6

    def test_site_level_synchronization(self):
        # After the crawl, all clients saw the same number of visits.
        gen = WebGenerator(seed=22, config=WebConfig(subpages_per_site=2))
        store = MeasurementStore()
        commander = Commander(gen, store, profiles=(PROFILE_SIM1, PROFILE_SIM2))
        summary = commander.run(ranks=[1])
        assert summary.visits["Sim1"] == summary.visits["Sim2"]

    def test_duplicate_profile_names_rejected(self):
        gen = WebGenerator(seed=22)
        with pytest.raises(CrawlError):
            Commander(gen, MeasurementStore(), profiles=(PROFILE_SIM1, PROFILE_SIM1))

    def test_no_profiles_rejected(self):
        gen = WebGenerator(seed=22)
        with pytest.raises(CrawlError):
            Commander(gen, MeasurementStore(), profiles=())


class TestRunMeasurement:
    def test_one_shot(self):
        store = run_measurement(
            seed=30,
            ranks=[1],
            profiles=(PROFILE_SIM1, PROFILE_SIM2),
            max_pages_per_site=2,
        )
        assert store.visit_count() == 4  # 2 pages x 2 profiles
        assert set(store.profiles()) == {"Sim1", "Sim2"}


class TestCrawlClient:
    def test_clock_advances(self):
        gen = WebGenerator(seed=23, config=WebConfig(subpages_per_site=2))
        client = CrawlClient(PROFILE_SIM1, seed=23)
        site = gen.site(1)
        before = client.clock
        result = client.visit_page(
            site.landing_page, site=site.domain, site_rank=1, visit_id=1
        )
        assert client.clock > before
        assert client.clock >= result.visit.started_at + result.visit.duration

    def test_synchronize_only_moves_forward(self):
        client = CrawlClient(PROFILE_SIM1, seed=23)
        client.clock = 100.0
        client.synchronize(50.0)
        assert client.clock == 100.0
        client.synchronize(150.0)
        assert client.clock == 150.0

