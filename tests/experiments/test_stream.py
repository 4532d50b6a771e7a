"""Streamed-vs-batch byte-identity suite.

The streaming pipeline's whole contract is "different schedule, same
bytes": folding each crawl shard into the dataset as it lands must not
change a single stored row, dataset entry, metric, span, or
ledger-deterministic field relative to the phased batch path — at any
worker count, with retries and partial-visit salvage enabled.  An
inline crawl (``workers=1``) forks nothing and hands off nothing.
"""

import json
import multiprocessing.process

import pytest

import repro.crawler.commander as commander_module
from repro.analysis.dataset import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
from repro.crawler.retry import RetryPolicy
from repro.devtools.clock import FakeClock
from repro.experiments.runner import ExperimentConfig, ExperimentContext
from repro.obs import ObsContext, RunLedger
from repro.pipeline import stream_crawl
from repro.web import WebGenerator

RANKS = [1, 2, 3, 6001, 12000]
RETRIES = RetryPolicy(max_attempts=3)


def table_dump(store):
    """Physical row-order dump of every store table."""
    return {
        table: list(store.iter_table_rows(table))
        for table in MeasurementStore.table_names()
    }


def dataset_fingerprint(dataset):
    return [
        (
            entry.site,
            entry.site_rank,
            entry.page_url,
            entry.comparison.profiles,
            tuple((node.key, node.views) for node in entry.comparison.nodes()),
        )
        for entry in dataset.entries
    ], list(dataset.profiles)


def run_batch(workers):
    obs = ObsContext.create(seed=11, clock=FakeClock())
    store = MeasurementStore(obs=obs)
    Commander(
        WebGenerator(11),
        store,
        max_pages_per_site=3,
        workers=workers,
        obs=obs,
        retry_policy=RETRIES,
        salvage_partial=True,
    ).run(RANKS)
    dataset = AnalysisDataset.from_store(store, obs=obs)
    return store, dataset, obs


def run_streamed(workers):
    obs = ObsContext.create(seed=11, clock=FakeClock())
    store = MeasurementStore(obs=obs)
    run = stream_crawl(
        WebGenerator(11),
        store,
        RANKS,
        max_pages_per_site=3,
        workers=workers,
        obs=obs,
        retry_policy=RETRIES,
        salvage_partial=True,
    )
    return store, run.finalize(), obs, run


class TestStreamedEqualsBatch:
    @pytest.fixture(scope="class")
    def batch(self):
        return run_batch(workers=1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_byte_identity(self, batch, workers):
        batch_store, batch_dataset, batch_obs = batch
        store, dataset, obs, run = run_streamed(workers)
        assert table_dump(store) == table_dump(batch_store)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(batch_dataset)
        assert obs.tracer.to_jsonl() == batch_obs.tracer.to_jsonl()
        assert obs.metrics.to_json() == batch_obs.metrics.to_json()
        # One shard per site at 4 workers (16 slots > 5 sites); an inline
        # crawl hands off nothing and folds the merged store at finalize.
        expected = 0 if workers == 1 else run.summary.sites_crawled
        assert run.stats.handoffs == expected

    def test_streamed_workers_1_vs_4_identical(self):
        one = run_streamed(1)
        four = run_streamed(4)
        assert table_dump(one[0]) == table_dump(four[0])
        assert dataset_fingerprint(one[1]) == dataset_fingerprint(four[1])
        assert one[2].tracer.to_jsonl() == four[2].tracer.to_jsonl()
        assert one[2].metrics.to_json() == four[2].metrics.to_json()


class TestStreamedPipelineLedger:
    """The full experiment pipeline: inline vs sharded-and-folded records."""

    CONFIG = dict(seed=7, sites_per_bucket=2, pages_per_site=3)

    def run(self, tmp_path, workers, name):
        obs = ObsContext.create(
            seed=7, clock=FakeClock(), ledger=RunLedger(str(tmp_path / name))
        )
        ctx = ExperimentContext(
            ExperimentConfig(workers=workers, **self.CONFIG), obs=obs
        )
        entry = obs.ledger.entries()[-1]
        return ctx, obs, entry, obs.ledger.load(entry.run_id)

    def test_deterministic_section_and_provenance_match(self, tmp_path):
        _, batch_obs, batch_entry, batch_record = self.run(tmp_path, 1, "inline")
        for workers in (2, 4):
            ctx, obs, entry, record = self.run(
                tmp_path, workers, f"workers-{workers}"
            )
            assert obs.tracer.to_jsonl() == batch_obs.tracer.to_jsonl()
            assert obs.metrics.to_json() == batch_obs.metrics.to_json()
            assert record.deterministic_json() == batch_record.deterministic_json()
            assert entry.provenance_id == batch_entry.provenance_id
            # The crawl's own record too: shards folded while the crawl
            # runs must not leak tree metrics into its snapshot.
            assert [e.provenance_id for e in obs.ledger.entries()] == [
                e.provenance_id for e in batch_obs.ledger.entries()
            ]
            assert (entry.kind, entry.label) == (
                batch_entry.kind,
                batch_entry.label,
            )

    def test_overlap_stats_live_in_measured_section_only(self, tmp_path):
        ctx, _, _, record = self.run(tmp_path, 4, "measured")
        stream_block = record.measured["stream"]
        assert stream_block["handoffs"] == ctx.summary.sites_crawled
        assert stream_block["visits"] > 0
        # FakeClock: rates are deterministic zeros, never wall-clock noise.
        assert stream_block["visits_per_sec"] == 0.0
        assert "stream" not in json.loads(record.deterministic_json())


@pytest.fixture
def no_processes(monkeypatch):
    """Make any attempt to start a process (or a crawl pool) raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("an inline run must not start a process")

    monkeypatch.setattr(commander_module, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


class TestInlineExecutionContract:
    """``workers=1`` runs the one shard-and-fold path without a process."""

    def test_commander_never_hands_off(self, no_processes):
        handoffs = []
        store = MeasurementStore()
        Commander(WebGenerator(11), store, max_pages_per_site=3).run(
            RANKS, on_shard=handoffs.append
        )
        reference = MeasurementStore()
        Commander(WebGenerator(11), reference, max_pages_per_site=3).run(RANKS)
        assert handoffs == []
        assert table_dump(store) == table_dump(reference)

    def test_stream_crawl_equals_crawl_then_from_store(self, no_processes):
        generator = WebGenerator(11)
        filter_list = build_filter_list(generator.ecosystem)
        store = MeasurementStore()
        run = stream_crawl(
            generator, store, RANKS, max_pages_per_site=3, filter_list=filter_list
        )
        assert run.stats.handoffs == 0
        dataset = run.finalize()
        reference = MeasurementStore()
        Commander(WebGenerator(11), reference, max_pages_per_site=3).run(RANKS)
        assert table_dump(store) == table_dump(reference)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(
            AnalysisDataset.from_store(reference, filter_list=filter_list)
        )

    def test_experiment_context_equals_crawl_then_from_store(self, no_processes):
        config = ExperimentConfig()
        ctx = ExperimentContext(config)
        generator = WebGenerator(config.seed)
        reference = MeasurementStore()
        Commander(
            generator, reference, max_pages_per_site=config.pages_per_site
        ).run(sample_paper_buckets(config.seed, per_bucket=config.sites_per_bucket))
        assert table_dump(ctx.store) == table_dump(reference)
        assert dataset_fingerprint(ctx.dataset) == dataset_fingerprint(
            AnalysisDataset.from_store(
                reference, filter_list=build_filter_list(generator.ecosystem)
            )
        )
