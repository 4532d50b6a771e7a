"""The four perf workloads: what each repetition runs, and its output checks.

Every workload is a closed loop: one caller runs a repetition, checks
nothing inside the timed region, and starts the next one when the last
returned.  A workload splits into

* ``setup(seed, scale, work_dir)`` — the inputs that stay fixed across
  repetitions (for ``analyze``: the crawl and its recorded bundle);
* ``run(state)`` — one timed repetition;
* ``summarize(state, output)`` — untimed: output digests and work counts
  of one repetition, after which the repetition's resources are closed;
* ``reference(state)`` — untimed, once per run: digests an independent
  path must reproduce (the live store a bundle was recorded from, or the
  serial crawl a sharded one must equal).

The program only ever sees the generated inputs; the seed picks the
synthetic web and the sampled site ranks.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.analysis import AnalysisDataset
from repro.blocklist import build_filter_list
from repro.bundle import Bundle, record_from_store
from repro.bundle.bundle import encode_table
from repro.crawler import Commander, MeasurementStore, RetryPolicy, sample_paper_buckets
from repro.experiments import ALL_EXPERIMENTS, ExperimentConfig, ExperimentContext
from repro.obs import (
    EventStream,
    Monitor,
    ObsContext,
    RunLedger,
    default_expected_failure_rate,
)
from repro.web import WebGenerator

from .layers import ANALYSIS_EXPERIMENTS

#: Processes of the ``parallel`` workload's crawl pool and analysis pool.
PARALLEL_WORKERS = 2


@dataclass(frozen=True)
class Scale:
    """Crawl size: ``5 buckets × sites_per_bucket`` sites × pages × 5 profiles."""

    sites_per_bucket: int = 2
    pages_per_site: int = 5


@dataclass
class RepResult:
    """What one repetition produced: digests to check, work to count.

    ``visits`` and ``requests`` count what the repetition processed: the
    crawled ones, or for ``analyze`` those whose trees form the dataset.
    ``pages`` are comparable pages (pages planned, for ``crawl``) and
    ``nodes`` aligned nodes (0 for ``crawl``).
    """

    digests: Dict[str, str]
    visits: int
    requests: int
    pages: int
    nodes: int


# -- digests ------------------------------------------------------------------


def store_digest(store: MeasurementStore) -> str:
    """sha256 over every table's rows in physical order."""
    hasher = hashlib.sha256()
    for table in store.table_names():
        hasher.update(table.encode("utf-8"))
        hasher.update(encode_table(store.iter_table_rows(table)))
    return hasher.hexdigest()


def dataset_digest(dataset: AnalysisDataset) -> str:
    """sha256 over each entry's page, site, rank and aligned nodes.

    A node contributes its key, presence count, and per-profile depth and
    tracking flag (``None`` where the profile lacks the node).
    """
    hasher = hashlib.sha256()
    for entry in dataset.entries:
        hasher.update(repr((entry.page_url, entry.site, entry.site_rank)).encode("utf-8"))
        for node in entry.comparison.nodes():
            views = tuple(
                None if view is None else (view.depth, view.is_tracking)
                for view in node.views
            )
            hasher.update(repr((node.key, node.presence_count, views)).encode("utf-8"))
    return hasher.hexdigest()


def text_digest(texts: List[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


# -- crawl ----------------------------------------------------------------------


@dataclass
class CrawlState:
    seed: int
    scale: Scale
    ranks: List[int]


def crawl_setup(seed: int, scale: Scale, work_dir: Path) -> CrawlState:
    return CrawlState(
        seed, scale, sample_paper_buckets(seed, per_bucket=scale.sites_per_bucket)
    )


def crawl_run(state: CrawlState):
    store = MeasurementStore()
    summary = Commander(
        WebGenerator(state.seed), store, max_pages_per_site=state.scale.pages_per_site
    ).run(state.ranks)
    return store, summary


def crawl_summarize(state: CrawlState, output) -> RepResult:
    store, summary = output
    with store:
        return RepResult(
            digests={"store": store_digest(store)},
            visits=summary.total_visits,
            requests=store.request_count(),
            pages=summary.pages_discovered,
            nodes=0,
        )


# -- analyze --------------------------------------------------------------------


@dataclass
class AnalyzeState:
    live: MeasurementStore
    generator: WebGenerator
    bundle_path: Path
    #: ``bundle.record.s`` and ``bundle.compressed_bytes`` of the set-up.
    extra: Dict[str, float]

    def close(self) -> None:
        self.live.close()


def analyze_setup(seed: int, scale: Scale, work_dir: Path) -> AnalyzeState:
    generator = WebGenerator(seed)
    live = MeasurementStore()
    Commander(generator, live, max_pages_per_site=scale.pages_per_site).run(
        sample_paper_buckets(seed, per_bucket=scale.sites_per_bucket)
    )
    bundle_path = work_dir / "bundle"
    shutil.rmtree(bundle_path, ignore_errors=True)
    started = time.perf_counter()
    bundle = record_from_store(live, seed=seed, path=bundle_path, generator=generator)
    record_seconds = time.perf_counter() - started
    compressed = sum(path.stat().st_size for path in (bundle.path / "objects").iterdir())
    return AnalyzeState(
        live,
        generator,
        bundle_path,
        {"bundle.record.s": record_seconds, "bundle.compressed_bytes": float(compressed)},
    )


def analyze_run(state: AnalyzeState):
    """Replay the bundle, then run and render every experiment.

    A repetition takes seconds, so it yields between its 22 steps and the
    harness gauges the host's speed at each (see ``harness.py``).
    """
    ctx = ExperimentContext.from_bundle(Bundle.open(state.bundle_path))
    texts = []
    for experiment_id in ANALYSIS_EXPERIMENTS:
        yield
        module = ALL_EXPERIMENTS[experiment_id]
        texts.append(module.render(module.run(ctx)))
    return ctx, texts


def analyze_summarize(state: AnalyzeState, output) -> RepResult:
    ctx, texts = output
    with ctx.store:
        return RepResult(
            digests={
                "store": store_digest(ctx.store),
                "dataset": dataset_digest(ctx.dataset),
                "output": text_digest(texts),
            },
            visits=sum(len(entry.comparison.trees) for entry in ctx.dataset),
            requests=sum(
                len(ctx.store.requests_for_visit(tree.visit_id))
                for entry in ctx.dataset
                for tree in entry.comparison.tree_list()
            ),
            pages=len(ctx.dataset),
            nodes=ctx.dataset.node_count(),
        )


def analyze_reference(state: AnalyzeState) -> Dict[str, str]:
    """The live store the bundle was recorded from, and its dataset."""
    dataset = AnalysisDataset.from_store(
        state.live, filter_list=build_filter_list(state.generator.ecosystem)
    )
    return {"store": store_digest(state.live), "dataset": dataset_digest(dataset)}


# -- observed -------------------------------------------------------------------


@dataclass
class ObservedState:
    seed: int
    scale: Scale
    ranks: List[int]
    ledger_dir: Path


def observed_setup(seed: int, scale: Scale, work_dir: Path) -> ObservedState:
    ledger_dir = work_dir / "ledger"
    shutil.rmtree(ledger_dir, ignore_errors=True)
    return ObservedState(
        seed,
        scale,
        sample_paper_buckets(seed, per_bucket=scale.sites_per_bucket),
        ledger_dir,
    )


def observed_run(state: ObservedState):
    generator = WebGenerator(state.seed)
    obs = ObsContext.create(
        seed=state.seed, ledger=RunLedger(state.ledger_dir), stream=EventStream()
    )
    obs.attach_monitor(Monitor.for_crawl(expected_rate=default_expected_failure_rate()))
    store = MeasurementStore(obs=obs)
    summary = Commander(
        generator,
        store,
        max_pages_per_site=state.scale.pages_per_site,
        obs=obs,
        retry_policy=RetryPolicy(max_attempts=3),
        salvage_partial=True,
        stateful=True,
    ).run(state.ranks)
    dataset = AnalysisDataset.from_store(
        store,
        filter_list=build_filter_list(generator.ecosystem),
        include_partial=True,
        obs=obs,
    )
    return store, summary, dataset, obs


def observed_summarize(state: ObservedState, output) -> RepResult:
    store, summary, dataset, obs = output
    with store:
        return RepResult(
            digests={
                "store": store_digest(store),
                "dataset": dataset_digest(dataset),
                "metrics": hashlib.sha256(obs.metrics.to_json().encode("utf-8")).hexdigest(),
                "ledger": obs.ledger.entries()[-1].provenance_id,
            },
            visits=summary.total_visits,
            requests=store.request_count(),
            pages=len(dataset),
            nodes=dataset.node_count(),
        )


# -- parallel -------------------------------------------------------------------


@dataclass
class ParallelState:
    seed: int
    scale: Scale
    config: ExperimentConfig


def parallel_setup(seed: int, scale: Scale, work_dir: Path) -> ParallelState:
    return ParallelState(
        seed,
        scale,
        ExperimentConfig(
            seed=seed,
            sites_per_bucket=scale.sites_per_bucket,
            pages_per_site=scale.pages_per_site,
            workers=PARALLEL_WORKERS,
            jobs=PARALLEL_WORKERS,
            stream=True,
        ),
    )


def parallel_run(state: ParallelState):
    return ExperimentContext(state.config)


def parallel_summarize(state: ParallelState, ctx) -> RepResult:
    with ctx.store:
        return RepResult(
            digests={"store": store_digest(ctx.store), "dataset": dataset_digest(ctx.dataset)},
            visits=ctx.summary.total_visits,
            requests=ctx.store.request_count(),
            pages=len(ctx.dataset),
            nodes=ctx.dataset.node_count(),
        )


def parallel_reference(state: ParallelState) -> Dict[str, str]:
    """The serial crawl and dataset the sharded, streamed run must equal."""
    generator = WebGenerator(state.seed)
    with MeasurementStore() as store:
        Commander(
            generator, store, max_pages_per_site=state.scale.pages_per_site
        ).run(sample_paper_buckets(state.seed, per_bucket=state.scale.sites_per_bucket))
        dataset = AnalysisDataset.from_store(
            store, filter_list=build_filter_list(generator.ecosystem)
        )
        return {"store": store_digest(store), "dataset": dataset_digest(dataset)}


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    run: Callable
    summarize: Callable
    reference: Optional[Callable] = None
    workers: int = 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "crawl",
            "serial crawl into an in-memory store: web generation, rng, "
            "engine and store writes; no tree building",
            crawl_setup,
            crawl_run,
            crawl_summarize,
        ),
        Workload(
            "analyze",
            "replay a recorded crawl and run the 21 experiments that do not "
            "re-crawl: store reads, trees, blocklist, comparison; no engine",
            analyze_setup,
            analyze_run,
            analyze_summarize,
            analyze_reference,
        ),
        Workload(
            "observed",
            "the crawl with telemetry, event stream, monitor, ledger, retries, "
            "salvage and stateful jars, then the partial-visit dataset",
            observed_setup,
            observed_run,
            observed_summarize,
        ),
        Workload(
            "parallel",
            "crawl sharded over 2 worker processes, streamed into 2 tree-building "
            "processes: the pool, shard merge and stream fold",
            parallel_setup,
            parallel_run,
            parallel_summarize,
            parallel_reference,
            workers=PARALLEL_WORKERS,
        ),
    )
}
