"""The end-to-end experiment pipeline.

One :class:`ExperimentContext` holds everything the per-table/figure
experiment modules need: the synthetic web, the crawl results, the filter
list, and the vetted analysis dataset.  Pipelines are cached per config so
that the benchmark suite crawls once and reuses the data across all
tables and figures — the same economy the paper's own evaluation has
(one measurement, many analyses).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..blocklist import FilterList, build_filter_list
from ..blocklist.easylist import generate_easylist
from ..browser.profile import BrowserProfile, PAPER_PROFILES, profile_by_name
from ..crawler import CrawlSummary, MeasurementStore, sample_paper_buckets
from ..analysis import AnalysisDataset
from ..obs import NULL_OBS, ObsContext
from ..obs.ledger import build_run_record
from ..pipeline import stream_crawl
from ..web import WebConfig, WebGenerator


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale knobs for a reproduction run.

    The defaults give a crawl of ``5 buckets × sites_per_bucket`` sites ×
    ``pages_per_site`` pages × 5 profiles — seconds on a laptop.  The
    paper-scale equivalent is ``sites_per_bucket=5000, pages_per_site=25``.

    ``workers`` shards the crawl across processes (default: inline) and
    never changes any stored or analyzed value (the crawl is
    deterministic per site, see :mod:`repro.crawler.commander`); every
    run goes through :func:`~repro.pipeline.stream_crawl`, which folds
    each shard into the dataset as it lands.  ``jobs`` and ``stream``
    select nothing: they are accepted for callers that still pass them.
    """

    seed: int = 2023
    sites_per_bucket: int = 3
    pages_per_site: int = 4
    profiles: Tuple[BrowserProfile, ...] = PAPER_PROFILES
    web_config: WebConfig = field(default_factory=WebConfig)
    workers: int = 1
    jobs: int = 1
    stream: bool = False

    def __post_init__(self) -> None:
        if self.sites_per_bucket < 1 or self.pages_per_site < 1:
            raise ValueError("scale parameters must be >= 1")
        if self.workers < 1 or self.jobs < 1:
            raise ValueError("workers and jobs must be >= 1")


def resolved_pipeline_config(config: ExperimentConfig) -> Dict[str, object]:
    """The pipeline knobs that shape the data, as a JSON-safe document.

    This is what the run ledger hashes as the pipeline's configuration
    identity.  ``workers`` (like the inert ``jobs`` and ``stream``) is
    deliberately absent: sharding must not change any stored or analyzed
    value, so two runs that differ only in execution layout hash (and
    diff) as the same setup.
    """
    return {
        "seed": config.seed,
        "sites_per_bucket": config.sites_per_bucket,
        "pages_per_site": config.pages_per_site,
        "profiles": [profile.name for profile in config.profiles],
        "web_config": asdict(config.web_config),
    }


def _filter_list_version(text: str) -> str:
    """Same identity a bundle manifest stamps: sha256 of the document."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ExperimentContext:
    """The materialized pipeline for one config."""

    def __init__(
        self, config: ExperimentConfig, obs: Optional[ObsContext] = None
    ) -> None:
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        self.profile_names: List[str] = [profile.name for profile in config.profiles]
        spans_before = len(self.obs.tracer.records)
        with self.obs.tracer.span("pipeline", key="pipeline"):
            self.generator = WebGenerator(config.seed, config=config.web_config)
            self.store = MeasurementStore()
            self.ranks: List[int] = sample_paper_buckets(
                config.seed, per_bucket=config.sites_per_bucket
            )
            # Shards are classified as they land, so the filter list is
            # built ahead of the crawl; its span keeps the canonical
            # post-crawl slot, so traces are the same at any worker count.
            filter_list = build_filter_list(self.generator.ecosystem)
            stream_run = stream_crawl(
                self.generator,
                self.store,
                self.ranks,
                profiles=config.profiles,
                max_pages_per_site=config.pages_per_site,
                workers=config.workers,
                filter_list=filter_list,
                obs=self.obs,
            )
            self.summary: CrawlSummary = stream_run.summary
            with self.obs.tracer.span("filter-list", key="filter-list"):
                self.filter_list: FilterList = filter_list
            self.dataset: AnalysisDataset = stream_run.finalize()
        if self.obs.ledger is not None:
            self.obs.ledger.append(
                build_run_record(
                    "pipeline",
                    seed=config.seed,
                    config=resolved_pipeline_config(config),
                    obs=self.obs,
                    records=self.obs.tracer.records[spans_before:],
                    primary_phase="pipeline",
                    outcomes=self.store.outcomes(),
                    filter_list_version=_filter_list_version(
                        generate_easylist(self.generator.ecosystem)
                    ),
                    store_schema_version=self.store.schema_version,
                    # Layout observations are measured-section only: runs
                    # of one config at any worker count share their
                    # deterministic section (and provenance id), so
                    # ledger baselines apply across layouts.
                    extra_measured=stream_run.stats.measured_payload(),
                )
            )

    @classmethod
    def from_store(
        cls,
        store: MeasurementStore,
        *,
        seed: int,
        filter_list: FilterList,
        obs: Optional[ObsContext] = None,
        include_partial: bool = False,
    ) -> "ExperimentContext":
        """The one context over a stored crawl (a db or a replayed bundle).

        Nothing is crawled: the profiles (crawl order), ranks and
        pages-per-site cap come from the store, the web generator from
        ``seed``, and ``filter_list`` classifies the dataset.  Experiments
        that re-crawl therefore re-crawl with the stored profiles, as the
        live context does.  ``summary`` is ``None``.
        """
        ctx = cls.__new__(cls)
        ctx.obs = obs if obs is not None else NULL_OBS
        ctx.profile_names = store.profiles_in_crawl_order()
        ctx.config = ExperimentConfig(
            seed=seed,
            pages_per_site=store.pages_per_site_cap(),
            profiles=tuple(profile_by_name(name) for name in ctx.profile_names),
        )
        ctx.generator = WebGenerator(seed)
        ctx.store = store
        ctx.ranks = store.ranks()
        ctx.summary = None
        ctx.filter_list = filter_list
        ctx.dataset = AnalysisDataset.from_store(
            store, filter_list=filter_list, obs=ctx.obs, include_partial=include_partial
        )
        return ctx

    @classmethod
    def from_bundle(cls, bundle, obs: Optional[ObsContext] = None) -> "ExperimentContext":
        """Replay a recorded bundle (or a path to one) into :meth:`from_store`.

        The store replays in memory and the archived filter list
        classifies it.  A bundle archives exactly what :meth:`from_store`
        reads, so the replayed context equals the live one.
        """
        from ..bundle import Bundle  # deferred: repro.bundle imports crawler too

        if not isinstance(bundle, Bundle):
            bundle = Bundle.open(bundle)
        obs = obs if obs is not None else NULL_OBS
        spans_before = len(obs.tracer.records)
        with obs.tracer.span("pipeline", key="pipeline"):
            store = bundle.replay(obs=obs)
            with obs.tracer.span("filter-list", key="filter-list"):
                filter_list = FilterList.from_text(bundle.filter_list_text())
            ctx = cls.from_store(
                store, seed=bundle.seed, filter_list=filter_list, obs=obs
            )
        if obs.ledger is not None:
            obs.ledger.append(
                build_run_record(
                    "pipeline",
                    seed=bundle.seed,
                    config=resolved_pipeline_config(ctx.config),
                    obs=obs,
                    records=obs.tracer.records[spans_before:],
                    label="from-bundle",
                    primary_phase="pipeline",
                    outcomes=store.outcomes(),
                    filter_list_version=bundle.manifest.filter_list_version,
                    store_schema_version=store.schema_version,
                    bundle_digest=bundle.manifest.digest(),
                )
            )
        return ctx


_CACHE: Dict[ExperimentConfig, ExperimentContext] = {}


def run_pipeline(
    config: Optional[ExperimentConfig] = None,
    obs: Optional[ObsContext] = None,
) -> ExperimentContext:
    """Run (or reuse) the pipeline for ``config``.

    An *enabled* observability context bypasses the cache: telemetry has
    to describe work that actually ran, and cached contexts may have been
    built without (or with someone else's) instrumentation.  A recorded
    crawl replays through :meth:`ExperimentContext.from_bundle` instead.
    """
    config = config or ExperimentConfig()
    if obs is not None and obs.enabled:
        return ExperimentContext(config, obs=obs)
    if config not in _CACHE:
        _CACHE[config] = ExperimentContext(config)
    return _CACHE[config]


def clear_cache() -> None:
    """Drop all cached pipelines (tests use this for isolation)."""
    _CACHE.clear()
