"""The observability determinism contract, pinned.

Under ``FakeClock`` a run's trace JSONL and merged metrics JSON must be
*byte-identical* at any worker count: span ids derive from the seed
and span keys, workers record into private tracers whose subtrees the
parent adopts in schedule order, and metrics merge by summation of
integers only — also when shard stores are folded into the dataset as
they land.
"""

import pytest

from repro.analysis.dataset import AnalysisDataset
from repro.crawler.commander import Commander
from repro.crawler.storage import MeasurementStore
from repro.devtools.clock import FakeClock
from repro.obs import ObsContext
from repro.pipeline import stream_crawl
from repro.web import WebGenerator

RANKS = [1, 2, 3, 5, 8]
SEED = 11


def crawl(workers):
    obs = ObsContext.create(seed=SEED, clock=FakeClock())
    store = MeasurementStore(obs=obs)
    commander = Commander(
        WebGenerator(SEED),
        store,
        max_pages_per_site=3,
        workers=workers,
        obs=obs,
    )
    summary = commander.run(RANKS)
    return obs, store, summary


class TestCrawlTelemetryDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        obs, store, summary = crawl(workers=1)
        yield obs, store, summary
        store.close()

    @pytest.fixture(scope="class")
    def sharded(self):
        obs, store, summary = crawl(workers=4)
        yield obs, store, summary
        store.close()

    def test_trace_bytes_identical(self, serial, sharded):
        assert serial[0].tracer.to_jsonl() == sharded[0].tracer.to_jsonl()

    def test_metrics_bytes_identical(self, serial, sharded):
        assert serial[0].metrics.to_json() == sharded[0].metrics.to_json()

    def test_failure_breakdown_identical(self, serial, sharded):
        assert serial[2].failures == sharded[2].failures

    def test_metrics_agree_with_summary(self, serial):
        obs, _, summary = serial
        for profile, count in summary.visits.items():
            assert obs.metrics.get("crawl.visits", profile=profile).value == count
        for profile, reasons in summary.failures.items():
            for reason, count in reasons.items():
                counter = obs.metrics.get(
                    "crawl.failures", profile=profile, reason=reason
                )
                assert counter.value == count

    def test_storage_batches_once_per_site(self, serial):
        obs = serial[0]
        assert obs.metrics.get("storage.batches").value == len(RANKS)

    def test_trace_has_one_site_span_per_rank(self, serial):
        records = serial[0].tracer.records
        site_keys = [record.key for record in records if record.name == "site"]
        assert site_keys == [f"site:{rank}" for rank in RANKS]


class TestDatasetTelemetryDeterminism:
    def build(self):
        obs, store, _ = crawl(workers=1)
        dataset = AnalysisDataset.from_store(store, obs=obs)
        store.close()
        return obs, dataset

    def test_shard_folds_do_not_change_telemetry(self):
        serial_obs, serial_dataset = self.build()
        folded_obs = ObsContext.create(seed=SEED, clock=FakeClock())
        with MeasurementStore(obs=folded_obs) as store:
            run = stream_crawl(
                WebGenerator(SEED),
                store,
                RANKS,
                max_pages_per_site=3,
                workers=4,
                obs=folded_obs,
            )
            folded_dataset = run.finalize()
        assert run.stats.handoffs > 0
        assert len(serial_dataset) == len(folded_dataset)
        assert serial_obs.metrics.to_json() == folded_obs.metrics.to_json()
        assert serial_obs.tracer.to_jsonl() == folded_obs.tracer.to_jsonl()

    def test_tree_histograms_cover_every_built_tree(self):
        obs, dataset = self.build()
        built = obs.metrics.get("trees.built").value
        nodes = obs.metrics.get("trees.nodes")
        assert built > 0
        assert nodes.count == built
        # One tree per profile per comparable page.
        assert built >= len(dataset) * len(dataset.profiles)


class TestSummaryFailureBreakdown:
    def test_failures_sum_to_failure_counts(self):
        _, store, summary = crawl(workers=1)
        store.close()
        for profile, visits in summary.visits.items():
            successes = summary.successes.get(profile, 0)
            reasons = summary.failures.get(profile, {})
            assert visits - successes == sum(reasons.values())

    def test_helpers_read_the_breakdown(self):
        _, store, summary = crawl(workers=1)
        store.close()
        for profile in summary.visits:
            timeouts = summary.failures.get(profile, {}).get("stall-timeout", 0)
            assert summary.timeout_count(profile) == timeouts
            assert summary.failure_count(profile) == sum(
                summary.failures.get(profile, {}).values()
            )
