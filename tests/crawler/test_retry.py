"""The retry layer: deterministic re-crawling of transient failures.

Contract under test (ISSUE: fault injection with retry + salvage):

* With retries enabled, ``workers=N`` still produces a store that is
  bit-identical to the serial crawl — retry visit ids come from per-site
  sub-blocks and backoff draws from ``(seed, profile, rank, attempt)``,
  never from execution order.
* Retryability is per-reason: transient faults retry, persistent
  ``dns-error`` does not.
* Salvaged partial visits are stored flagged ``partial`` and stay out of
  the analysis unless explicitly included.
"""

import pytest

from repro.analysis import AnalysisDataset
from repro.browser.network import VisitRecord, VisitResult
from repro.browser.profile import PROFILE_SIM1
from repro.crawler import Commander, MeasurementStore, NO_RETRIES, RetryPolicy
from repro.crawler.client import CrawlClient
from repro.devtools.clock import FakeClock
from repro.errors import CrawlError
from repro.obs import ObsContext
from repro.rng import child_rng
from repro.web import WebConfig, WebGenerator
from repro.web.faults import DNS_ERROR, STALL_TIMEOUT, TRANSIENT_FAULTS

RANKS = [1, 2, 6001]

TABLES = (
    "visits",
    "http_requests",
    "http_responses",
    "http_redirects",
    "javascript_cookies",
)

#: Seed 7 yields recovered visits in two profiles within three sites.
RETRY_SEED = 7
#: Seed 42 yields stall-timeouts whose salvage expands the vetted page set.
SALVAGE_SEED = 42


def crawl(workers, seed=RETRY_SEED, retries=2, salvage=True, ranks=RANKS):
    generator = WebGenerator(seed, config=WebConfig(subpages_per_site=3))
    store = MeasurementStore()
    summary = Commander(
        generator,
        store,
        max_pages_per_site=3,
        workers=workers,
        retry_policy=RetryPolicy.with_retries(retries),
        salvage_partial=salvage,
    ).run(ranks=ranks)
    return generator, store, summary


def table_rows(store, table):
    # rowid included: retry rounds append id sub-blocks per profile, and
    # the site batch must still hit the store in ascending visit-id order
    # so the shard merge reproduces the serial physical row order.
    return store._conn.execute(
        f"SELECT rowid, * FROM {table} ORDER BY rowid"
    ).fetchall()


class TestRetryPolicy:
    def test_no_retries_is_disabled(self):
        assert NO_RETRIES.max_attempts == 1
        assert not NO_RETRIES.enabled

    def test_with_retries_adds_attempts(self):
        policy = RetryPolicy.with_retries(2)
        assert policy.max_attempts == 3
        assert policy.enabled

    def test_invalid_parameters_rejected(self):
        with pytest.raises(CrawlError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(CrawlError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(CrawlError):
            RetryPolicy(backoff_jitter=-0.1)
        with pytest.raises(CrawlError):
            RetryPolicy.with_retries(-1)

    def test_transient_reasons_are_retryable(self):
        policy = RetryPolicy.with_retries(1)
        for reason in sorted(TRANSIENT_FAULTS):
            assert policy.is_retryable(reason), reason

    def test_persistent_dns_error_is_not_retryable(self):
        policy = RetryPolicy.with_retries(3)
        assert not policy.is_retryable(DNS_ERROR)
        assert not policy.should_retry(DNS_ERROR, attempt=1)

    def test_unknown_and_missing_reasons_are_not_retryable(self):
        policy = RetryPolicy.with_retries(1)
        assert not policy.is_retryable(None)
        assert not policy.is_retryable("power-outage")

    def test_should_retry_respects_attempt_cap(self):
        policy = RetryPolicy.with_retries(2)  # attempts 1..3
        assert policy.should_retry(STALL_TIMEOUT, attempt=1)
        assert policy.should_retry(STALL_TIMEOUT, attempt=2)
        assert not policy.should_retry(STALL_TIMEOUT, attempt=3)

    def test_backoff_is_deterministic_and_grows(self):
        policy = RetryPolicy.with_retries(3)
        draws = [
            policy.backoff_seconds(attempt, child_rng(1, "t", attempt))
            for attempt in (2, 3, 4)
        ]
        again = [
            policy.backoff_seconds(attempt, child_rng(1, "t", attempt))
            for attempt in (2, 3, 4)
        ]
        assert draws == again
        for attempt, value in zip((2, 3, 4), draws):
            base = policy.backoff_base * policy.backoff_factor ** (attempt - 2)
            assert base <= value <= base + policy.backoff_jitter

    def test_backoff_rejects_first_attempt(self):
        with pytest.raises(CrawlError):
            RetryPolicy.with_retries(1).backoff_seconds(1, child_rng(1, "t"))


class TestRetryDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        _, store, summary = crawl(workers=1)
        yield store, summary
        store.close()

    @pytest.fixture(scope="class")
    def sharded(self):
        _, store, summary = crawl(workers=4)
        yield store, summary
        store.close()

    def test_sharded_store_identical_to_serial(self, serial, sharded):
        for table in TABLES:
            assert table_rows(serial[0], table) == table_rows(sharded[0], table)

    def test_summary_counters_identical(self, serial, sharded):
        assert serial[1].retries == sharded[1].retries
        assert serial[1].recovered == sharded[1].recovered
        assert serial[1].failures == sharded[1].failures

    def test_crawl_actually_recovered_visits(self, serial):
        store, summary = serial
        assert sum(summary.recovered.values()) > 0
        recovered = dict(
            store._conn.execute(
                "SELECT profile, COUNT(*) FROM visits "
                "WHERE success = 1 AND attempt > 1 GROUP BY profile"
            ).fetchall()
        )
        assert summary.recovered == {
            profile: recovered.get(profile, 0) for profile in store.profiles()
        }

    def test_every_retry_has_a_failed_earlier_attempt(self, serial):
        store, _ = serial
        retried = store._conn.execute(
            "SELECT profile, page_url, attempt FROM visits WHERE attempt > 1"
        ).fetchall()
        assert retried
        for profile, page_url, attempt in retried:
            prior = store._conn.execute(
                "SELECT success, failure_reason FROM visits "
                "WHERE profile = ? AND page_url = ? AND attempt = ?",
                (profile, page_url, attempt - 1),
            ).fetchone()
            assert prior is not None
            assert prior[0] == 0
            assert prior[1] in TRANSIENT_FAULTS

    def test_first_attempt_layout_against_no_retry_crawl(self):
        # Retry sub-blocks extend each site's id block after the
        # first-attempt slots.  The first scheduled site's block starts
        # at id 1 under either layout, so its attempt-1 rows — ids,
        # outcomes, clocks — are identical to a no-retry crawl; later
        # sites keep the same page plan but shift to wider id blocks.
        _, plain_store, _ = crawl(workers=1, retries=0, salvage=False)
        _, retry_store, _ = crawl(workers=1)
        first_site_query = (
            "SELECT * FROM visits WHERE site_rank = ? AND attempt = 1 "
            "ORDER BY visit_id"
        )
        assert plain_store._conn.execute(
            first_site_query, (RANKS[0],)
        ).fetchall() == retry_store._conn.execute(
            first_site_query, (RANKS[0],)
        ).fetchall()
        plan_query = (
            "SELECT profile, page_url FROM visits WHERE attempt = 1 "
            "ORDER BY visit_id"
        )
        assert (
            plain_store._conn.execute(plan_query).fetchall()
            == retry_store._conn.execute(plan_query).fetchall()
        )
        plain_store.close()
        retry_store.close()


class TestRetryTelemetry:
    def crawl_with_obs(self, workers):
        obs = ObsContext.create(seed=11, clock=FakeClock())
        store = MeasurementStore()
        summary = Commander(
            WebGenerator(11),
            store,
            max_pages_per_site=3,
            workers=workers,
            obs=obs,
            retry_policy=RetryPolicy.with_retries(2),
            salvage_partial=True,
        ).run([1, 2, 3, 5, 8])
        store.close()
        return obs, summary

    def test_trace_and_metrics_byte_identical(self):
        serial_obs, serial_summary = self.crawl_with_obs(workers=1)
        sharded_obs, sharded_summary = self.crawl_with_obs(workers=4)
        assert serial_obs.tracer.to_jsonl() == sharded_obs.tracer.to_jsonl()
        assert serial_obs.metrics.to_json() == sharded_obs.metrics.to_json()
        assert serial_summary.retries == sharded_summary.retries

    def test_retry_spans_and_counters_match_summary(self):
        obs, summary = self.crawl_with_obs(workers=1)
        assert sum(summary.retries.values()) > 0
        retry_spans = [r for r in obs.tracer.records if r.name == "retry"]
        assert retry_spans
        assert sum(span.attrs["queued"] for span in retry_spans) == sum(
            summary.retries.values()
        )
        for span in retry_spans:
            assert span.key.startswith("site:")
            assert span.attrs["attempt"] >= 2
        for profile in summary.visits:
            assert (
                obs.metrics.get("crawl.retries", profile=profile).value
                == summary.retries[profile]
            )
            assert (
                obs.metrics.get("crawl.recovered", profile=profile).value
                == summary.recovered[profile]
            )


class TestPartialSalvage:
    @pytest.fixture(scope="class")
    def salvaged(self):
        # No retries: a stalled page stays failed, so its salvaged traffic
        # is the only record of it — the interesting case for analysis.
        _, store, summary = crawl(
            workers=1, seed=SALVAGE_SEED, retries=0, salvage=True
        )
        yield store, summary
        store.close()

    def test_salvaged_visits_keep_their_traffic(self, salvaged):
        store, _ = salvaged
        partials = store._conn.execute(
            "SELECT visit_id FROM visits WHERE partial = 1"
        ).fetchall()
        assert partials
        for (visit_id,) in partials:
            visit = store.visit(visit_id)
            assert not visit.success
            assert visit.failure_reason == STALL_TIMEOUT
            assert store.requests_for_visit(visit_id)

    def test_without_salvage_failed_visits_store_no_traffic(self):
        _, store, _ = crawl(
            workers=1, seed=SALVAGE_SEED, retries=0, salvage=False
        )
        assert (
            store._conn.execute(
                "SELECT COUNT(*) FROM visits WHERE partial = 1"
            ).fetchone()[0]
            == 0
        )
        failed = store._conn.execute(
            "SELECT visit_id FROM visits WHERE success = 0"
        ).fetchall()
        assert failed
        for (visit_id,) in failed:
            assert store.requests_for_visit(visit_id) == []
        store.close()

    def test_dataset_excludes_partials_by_default(self, salvaged):
        store, _ = salvaged
        default = AnalysisDataset.from_store(store)
        included = AnalysisDataset.from_store(store, include_partial=True)
        assert len(included) > len(default)
        default_pages = {entry.page_url for entry in default}
        for entry in included:
            if entry.page_url not in default_pages:
                break
        else:  # pragma: no cover - guarded by the length assertion
            raise AssertionError("include_partial added no pages")

    def test_partial_pages_match_store_vetting(self, salvaged):
        store, _ = salvaged
        profiles = store.profiles()
        included = AnalysisDataset.from_store(store, include_partial=True)
        assert [entry.page_url for entry in included] == (
            store.pages_crawled_by_all(profiles, include_partial=True)
        )


def _visit(visit_id, success, attempt, partial=False):
    return VisitResult(
        visit=VisitRecord(
            visit_id=visit_id,
            profile_name="Sim1",
            site="e.com",
            site_rank=1,
            page_url="https://e.com/",
            success=success,
            started_at=float(visit_id),
            duration=1.0,
            failure_reason=None if success else STALL_TIMEOUT,
            attempt=attempt,
            partial=partial,
        )
    )


class TestEarliestAttemptWins:
    def test_order_by_visit_id_not_physical_order(self):
        # Physical insertion order deliberately scrambled: the query must
        # order by visit id, where the earliest successful attempt lives.
        store = MeasurementStore()
        store.store_visit(_visit(30, success=True, attempt=3))
        store.store_visit(_visit(10, success=False, attempt=1, partial=True))
        store.store_visit(_visit(20, success=True, attempt=2))
        chosen = store.successful_visits_for_page("https://e.com/", ["Sim1"])
        assert chosen["Sim1"].visit_id == 20
        assert chosen["Sim1"].attempt == 2
        store.close()

    def test_success_preferred_over_earlier_partial(self):
        store = MeasurementStore()
        store.store_visit(_visit(30, success=True, attempt=3))
        store.store_visit(_visit(10, success=False, attempt=1, partial=True))
        chosen = store.successful_visits_for_page(
            "https://e.com/", ["Sim1"], include_partial=True
        )
        assert chosen["Sim1"].visit_id == 30
        store.close()

    def test_partial_used_only_without_any_success(self):
        store = MeasurementStore()
        store.store_visit(_visit(10, success=False, attempt=1, partial=True))
        assert store.successful_visits_for_page("https://e.com/", ["Sim1"]) == {}
        chosen = store.successful_visits_for_page(
            "https://e.com/", ["Sim1"], include_partial=True
        )
        assert chosen["Sim1"].visit_id == 10
        assert chosen["Sim1"].partial
        store.close()


class TestClockAccounting:
    """Regression for the double-counted post-failure clock hold.

    A visit's duration already includes the browser hold (a stall bills
    the full timeout, other faults their seeded sub-timeout duration);
    the client may add only its navigation think time of 0.2–2.0 s on
    top.  The old code added another ``uniform(0, timeout/2)`` after
    every failure, inflating failed-profile clocks by minutes per site.
    """

    def _drift(self, page, visit_id):
        client = CrawlClient(PROFILE_SIM1, seed=3)
        client.begin_site(1, start_time=0.0)
        before = client.clock
        result = client.visit_page(page, site="e.com", site_rank=1, visit_id=visit_id)
        overhead = client.clock - before - result.visit.duration
        return result, overhead

    def test_failed_visit_advances_clock_by_duration_plus_think_time(self):
        generator = WebGenerator(3, config=WebConfig(page_fail_probability=1.0))
        page = generator.site(1).landing_page
        result, overhead = self._drift(page, visit_id=1)
        assert not result.success
        assert 0.2 <= overhead <= 2.0

    def test_successful_visit_same_accounting(self):
        generator = WebGenerator(3, config=WebConfig(page_fail_probability=0.0))
        page = generator.site(1).landing_page
        for visit_id in range(1, 40):
            result, overhead = self._drift(page, visit_id=visit_id)
            if not result.success:  # injected crawler fault; same contract
                assert 0.2 <= overhead <= 2.0
                continue
            assert 0.2 <= overhead <= 2.0
            break
