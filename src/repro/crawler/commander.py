"""The commander: semi-parallel crawl orchestration (paper Appendix C).

The commander administers the experiment: it supplies each site's page set
to all clients at once (site-level synchronization) and waits until every
client finished the site before moving on.  Page visits within a site are
*not* synchronized — each client works through the pages at its own pace —
which is exactly the paper's "semi-parallel" design.

The commander also runs the discovery pre-crawl and consolidates all
results into the :class:`~repro.crawler.storage.MeasurementStore`.

Scaling
-------
``Commander(workers=N)`` lays the site ranks out in
``min(N × SHARDS_PER_WORKER, sites)`` shards crawled by ``N`` worker
processes, each running its own clients into a private on-disk
:class:`MeasurementStore` shard; the parent merges the shards afterwards.
``workers=1`` crawls inline, in the calling process.
The sharded crawl is **bit-identical** to the serial one because every
stored value is a pure function of ``(seed, rank, profile, page, repeat)``:

* visit ids come from a deterministic schedule computed in a cheap
  discovery-only planning pass (contiguous id blocks per site, in rank
  order — the same ids the serial loop hands out);
* each site gets a scheduled start barrier, and every client re-anchors
  its clock and think-time RNG per ``(site, profile)``
  (:meth:`CrawlClient.begin_site`), so timestamps do not depend on which
  shard — or which predecessor sites — a worker happens to run.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..browser.profile import BrowserProfile, PAPER_PROFILES
from ..errors import CrawlError
from ..obs import NULL_OBS, ObsConfig, ObsContext, VISIT_SECONDS_BUCKETS
from ..obs.ledger import build_run_record, outcomes_from_summary
from ..obs.stream import KIND_SITE_END, KIND_SITE_START, KIND_VISIT, StreamEvent
from ..obs.trace import SpanRecord, split_roots
from ..rng import child_rng
from ..web.sitegen import WebGenerator
from .client import ClientStats, CrawlClient, SiteVisitPlan
from .discovery import DiscoveryResult, discover_pages
from .retry import NO_RETRIES, RetryPolicy
from .storage import MeasurementStore
from .tranco import RankedList

#: Scheduled wall-clock spacing between consecutive sites: a nominal
#: per-visit cost used only to lay out site start barriers.  Any constant
#: works for correctness (both execution modes use the same schedule).
_NOMINAL_VISIT_SECONDS = 5.0

#: Shards per crawl worker.  Finer shards hand off earlier (a streaming
#: consumer starts on the first while most of the crawl still runs) at a
#: small per-shard cost; the layout cannot change any output.
SHARDS_PER_WORKER = 4


@dataclass
class CrawlSummary:
    """Aggregate outcome of a crawl, per profile and overall.

    ``failures`` maps profile → failure reason → count over the
    :mod:`repro.web.faults` taxonomy, the breakdown the paper's Table 1
    accounts for before trusting any similarity number.  Historically the
    sharded aggregation collapsed this to bare ``(visits, successes)``
    tuples and the reasons were lost; they now ride up from every
    :class:`~repro.crawler.client.ClientStats`.  ``retries`` counts visit
    attempts beyond the first per profile; ``recovered`` the retried
    visits that succeeded.
    """

    sites_planned: int = 0
    sites_crawled: int = 0
    pages_discovered: int = 0
    visits: Dict[str, int] = field(default_factory=dict)
    successes: Dict[str, int] = field(default_factory=dict)
    failures: Dict[str, Dict[str, int]] = field(default_factory=dict)
    retries: Dict[str, int] = field(default_factory=dict)
    recovered: Dict[str, int] = field(default_factory=dict)

    def success_rate(self, profile: str) -> float:
        visits = self.visits.get(profile, 0)
        return self.successes.get(profile, 0) / visits if visits else 0.0

    def failure_count(self, profile: str, reason: Optional[str] = None) -> int:
        reasons = self.failures.get(profile, {})
        if reason is None:
            return sum(reasons.values())
        return reasons.get(reason, 0)

    def timeout_count(self, profile: str) -> int:
        # "stall-timeout" is the taxonomy name; "timeout" the pre-taxonomy
        # one (still possible in stores written by older crawls).
        return self.failure_count(profile, "stall-timeout") + self.failure_count(
            profile, "timeout"
        )

    def retry_count(self, profile: str) -> int:
        return self.retries.get(profile, 0)

    def recovered_count(self, profile: str) -> int:
        return self.recovered.get(profile, 0)

    @property
    def total_visits(self) -> int:
        return sum(self.visits.values())


@dataclass(frozen=True)
class SiteSchedule:
    """The deterministic execution slot of one site in a crawl.

    ``visit_base`` is the first visit id of the site's contiguous id block
    (profile-major: profile index, then page index, then repeat), and
    ``site_start`` the scheduled clock barrier all clients synchronize to.
    Both are pure functions of the plan, never of execution order — the
    invariant the sharded crawl rests on.
    """

    rank: int
    page_count: int
    visit_base: int
    site_start: float


@dataclass(frozen=True)
class ShardHandoff:
    """One finished crawl shard, handed to a streaming consumer.

    Delivered by :meth:`Commander.run` the moment a shard's store lands
    on disk — *completion* order, which varies run to run.  ``index`` is
    the shard's deterministic position in the layout and ``schedules``
    its sites in schedule-rank order, so consumers can restore any
    deterministic order they need.  ``store`` is the shard's store, open
    read-only; the commander closes it after the shard merge, so a
    consumer reads it during the callback.
    """

    index: int
    store: MeasurementStore
    schedules: Tuple[SiteSchedule, ...]

    @property
    def ranks(self) -> Tuple[int, ...]:
        return tuple(schedule.rank for schedule in self.schedules)


class Commander:
    """Runs a full measurement: discovery, then the semi-parallel crawl.

    Parameters mirror the paper's configuration: the profiles to run, pages
    per site (25 in the paper), the per-visit timeout (30 s), stateless or
    stateful cookie handling, and how many times each profile visits each
    page (``repeat_visits``; the paper visits once).  ``workers`` shards
    the site ranks across that many processes; any value produces the same
    store content (see module docstring).
    """

    def __init__(
        self,
        generator: WebGenerator,
        store: MeasurementStore,
        profiles: Sequence[BrowserProfile] = PAPER_PROFILES,
        max_pages_per_site: int = 25,
        timeout: float = 30.0,
        stateful: bool = False,
        repeat_visits: int = 1,
        workers: int = 1,
        obs: Optional[ObsContext] = None,
        retry_policy: Optional[RetryPolicy] = None,
        salvage_partial: bool = False,
    ) -> None:
        if not profiles:
            raise CrawlError("at least one profile is required")
        names = [profile.name for profile in profiles]
        if len(set(names)) != len(names):
            raise CrawlError("profile names must be unique")
        self.generator = generator
        self.store = store
        self.profiles = tuple(profiles)
        self.max_pages_per_site = max_pages_per_site
        self.timeout = timeout
        self.stateful = stateful
        if repeat_visits < 1:
            raise CrawlError("repeat_visits must be >= 1")
        self.repeat_visits = repeat_visits
        if workers < 1:
            raise CrawlError("workers must be >= 1")
        self.workers = workers
        self.obs = obs if obs is not None else NULL_OBS
        self.retry_policy = retry_policy if retry_policy is not None else NO_RETRIES
        self.salvage_partial = salvage_partial

    # -- pipeline ----------------------------------------------------------

    def run(
        self,
        ranks: Sequence[int],
        *,
        on_shard: Optional[Callable[[ShardHandoff], None]] = None,
    ) -> CrawlSummary:
        """Crawl the sites at ``ranks`` with all profiles; returns a summary.

        When the observability context carries a run ledger, the crawl
        appends a ``kind="crawl"`` run record after its crawl span
        closes — provenance, per-phase profile, metrics snapshot, and the
        per-profile outcome breakdown, diffable against any other run.

        ``on_shard`` opts into streaming consumption: a sharded crawl
        invokes it in this process with a :class:`ShardHandoff` as each
        shard's store lands, while the other shards keep crawling.  A
        crawl that runs inline (``workers=1``, or a single site) never
        calls it; ``self.store`` then holds every row when ``run``
        returns.  Neither path can change any stored or recorded value
        (see the module docstring).
        """
        tracer = self.obs.tracer
        spans_before = len(tracer.records)
        with tracer.span("crawl", key="crawl") as crawl_span:
            with tracer.span("plan", key="plan") as plan_span:
                schedules, plans = self._schedule(ranks)
                plan_span.set("sites", len(schedules))
                plan_span.set(
                    "pages", sum(item.page_count for item in schedules)
                )
            summary = CrawlSummary(
                sites_planned=len(ranks),
                sites_crawled=len(schedules),
                pages_discovered=sum(item.page_count for item in schedules),
            )
            if self.workers <= 1 or len(schedules) <= 1:
                stats = _crawl_sites(
                    self.generator,
                    self.store,
                    self.profiles,
                    schedules,
                    timeout=self.timeout,
                    stateful=self.stateful,
                    repeat_visits=self.repeat_visits,
                    max_pages_per_site=self.max_pages_per_site,
                    plans=plans,
                    obs=self.obs,
                    retry_policy=self.retry_policy,
                    salvage_partial=self.salvage_partial,
                )
            else:
                stats = self._run_sharded(schedules, on_shard=on_shard)
            for name, client_stats in stats.items():
                summary.visits[name] = client_stats.visits
                summary.successes[name] = client_stats.successes
                summary.failures[name] = dict(
                    sorted(client_stats.failure_reasons.items())
                )
                summary.retries[name] = client_stats.retries
                summary.recovered[name] = client_stats.recovered
            # Deterministic attrs only: worker count must not leak into
            # the trace, or byte-identity across worker counts breaks.
            crawl_span.set("sites", summary.sites_crawled)
            crawl_span.set("visits", summary.total_visits)
        if self.obs.monitor is not None:
            self.obs.monitor.finish()
        if self.obs.ledger is not None:
            self.obs.ledger.append(
                build_run_record(
                    "crawl",
                    seed=self.generator.seed,
                    config=self.resolved_config(ranks),
                    obs=self.obs,
                    records=tracer.records[spans_before:],
                    primary_phase="crawl",
                    outcomes=outcomes_from_summary(summary),
                    store_schema_version=self.store.schema_version,
                    alerts=(
                        self.obs.monitor.alerts_payload()
                        if self.obs.monitor is not None
                        else None
                    ),
                )
            )
        return summary

    def resolved_config(self, ranks: Sequence[int]) -> Dict[str, object]:
        """The resolved measurement configuration this crawl runs.

        Everything that can change a stored value is here; ``workers``
        deliberately is not — the sharding contract guarantees any worker
        count produces identical results, so ledger records from
        different worker counts must hash identically.
        """
        return {
            "seed": self.generator.seed,
            "ranks": list(ranks),
            "pages_per_site": self.max_pages_per_site,
            "profiles": [profile.name for profile in self.profiles],
            "timeout": self.timeout,
            "stateful": self.stateful,
            "repeat_visits": self.repeat_visits,
            "retries": self.retry_policy.max_attempts - 1,
            "salvage_partial": self.salvage_partial,
        }

    def discover(self, ranks: Sequence[int]) -> List[DiscoveryResult]:
        """Run only the discovery pre-crawl (useful for inspection)."""
        return [
            discover_pages(self.generator.site(rank), self.max_pages_per_site)
            for rank in ranks
        ]

    def ranked_list(self, ranks: Sequence[int]) -> RankedList:
        """The Tranco-style list backing this crawl."""
        return RankedList.from_generator(self.generator, ranks)

    # -- internals ---------------------------------------------------------

    def _schedule(
        self, ranks: Sequence[int]
    ) -> Tuple[List[SiteSchedule], Dict[int, SiteVisitPlan]]:
        """The planning pass: discovery only, no visits.

        Allocates each plannable site a contiguous visit-id block and a
        scheduled start time, cumulatively in rank order — exactly the ids
        the historical serial loop handed out.  With retries enabled the
        block is ``max_attempts`` times wider, laid out round-major: all
        attempt-1 ids first (identical to the no-retry layout), then the
        attempt-2 sub-block, and so on — so enabling retries never renames
        a first-attempt visit.
        """
        schedules: List[SiteSchedule] = []
        plans: Dict[int, SiteVisitPlan] = {}
        visit_base = 1
        site_start = 0.0
        for rank in ranks:
            plan = _plan_site(self.generator, rank, self.max_pages_per_site)
            if plan is None:
                continue
            schedules.append(
                SiteSchedule(
                    rank=rank,
                    page_count=plan.page_count,
                    visit_base=visit_base,
                    site_start=site_start,
                )
            )
            plans[rank] = plan
            site_visits = len(self.profiles) * plan.page_count * self.repeat_visits
            visit_base += site_visits * self.retry_policy.max_attempts
            site_start += plan.page_count * self.repeat_visits * _NOMINAL_VISIT_SECONDS
        return schedules, plans

    def _run_sharded(
        self,
        schedules: Sequence[SiteSchedule],
        *,
        on_shard: Optional[Callable[[ShardHandoff], None]] = None,
    ) -> Dict[str, ClientStats]:
        """Fan the schedule out to worker processes and merge their shards.

        Workers record telemetry into private tracers/registries; the
        parent re-attaches per-site span subtrees in schedule order and
        merges metrics by summation, so the consolidated telemetry — like
        the consolidated store — is identical to a serial run's.

        Shards are consumed as they complete (no ``pool.map`` barrier):
        results land in a layout-indexed list, so every downstream step —
        store merge, span adoption, event replay, metric merge — still
        runs in deterministic layout order while ``on_shard`` sees each
        shard the moment it finishes.  When a shard or ``on_shard``
        raises, the shards that have not started are cancelled, so the
        error surfaces without crawling the rest.
        """
        count = min(self.workers * SHARDS_PER_WORKER, len(schedules))
        shards = [list(schedules[index::count]) for index in range(count)]
        tmpdir = tempfile.mkdtemp(prefix="repro-crawl-")
        shard_stores: List[Optional[MeasurementStore]] = [None] * count
        try:
            specs = [
                _ShardSpec(
                    db_path=os.path.join(tmpdir, f"shard-{index}.sqlite"),
                    seed=self.generator.seed,
                    web_config=self.generator.config,
                    ecosystem_config=self.generator.ecosystem_config,
                    profiles=self.profiles,
                    schedules=tuple(shard),
                    timeout=self.timeout,
                    stateful=self.stateful,
                    repeat_visits=self.repeat_visits,
                    max_pages_per_site=self.max_pages_per_site,
                    obs_config=self.obs.config(),
                    retry_policy=self.retry_policy,
                    salvage_partial=self.salvage_partial,
                )
                for index, shard in enumerate(shards)
            ]
            shard_results: List[Optional[_ShardResult]] = [None] * len(specs)
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(specs)))
            try:
                futures = {
                    pool.submit(_crawl_shard, spec): index
                    for index, spec in enumerate(specs)
                }
                for future in as_completed(futures):
                    index = futures[future]
                    shard_results[index] = future.result()
                    shard_stores[index] = MeasurementStore.open_readonly(
                        specs[index].db_path
                    )
                    if on_shard is not None:
                        on_shard(
                            ShardHandoff(
                                index=index,
                                store=shard_stores[index],
                                schedules=specs[index].schedules,
                            )
                        )
            finally:
                # Every future is done on success; on an error this drops
                # the queued shards instead of crawling them first.
                pool.shutdown(cancel_futures=True)
            self.store.merge_shards(shard_stores)
        finally:
            for shard_store in shard_stores:
                if shard_store is not None:
                    shard_store.close()
            shutil.rmtree(tmpdir, ignore_errors=True)
        if self.obs.tracer.enabled:
            site_spans: Dict[int, List[SpanRecord]] = {}
            for result in shard_results:
                for group in split_roots(result.spans):
                    rank = group[0].attrs.get("rank")
                    if isinstance(rank, int):
                        site_spans[rank] = group
            for schedule in schedules:
                self.obs.tracer.adopt(site_spans.get(schedule.rank, []))
        if self.obs.stream.enabled:
            # Replay worker event buffers grouped by site rank, in
            # schedule order — the event-stream analogue of span
            # adoption above.  Workers apply the same per-scope cap, so
            # republishing never re-drops; worker-side drop counts are
            # merged instead.
            site_events: Dict[int, List[StreamEvent]] = {}
            for result in shard_results:
                for event in result.events:
                    if event.site_rank is not None:
                        site_events.setdefault(event.site_rank, []).append(event)
                self.obs.stream.merge_dropped(result.dropped)
            for schedule in schedules:
                for event in site_events.get(schedule.rank, []):
                    self.obs.stream.publish(event)
        if self.obs.metrics.enabled:
            self.obs.metrics.merge_all(
                result.metrics for result in shard_results if result.metrics
            )
        totals: Dict[str, ClientStats] = {
            profile.name: ClientStats() for profile in self.profiles
        }
        for result in shard_results:
            for name, stats in result.stats.items():
                totals[name].merge(stats)
        return totals


@dataclass(frozen=True)
class _ShardSpec:
    """Everything a worker process needs to crawl its shard (picklable)."""

    db_path: str
    seed: int
    web_config: object
    ecosystem_config: object
    profiles: Tuple[BrowserProfile, ...]
    schedules: Tuple[SiteSchedule, ...]
    timeout: float
    stateful: bool
    repeat_visits: int
    max_pages_per_site: int
    obs_config: Optional[ObsConfig] = None
    retry_policy: RetryPolicy = NO_RETRIES
    salvage_partial: bool = False


@dataclass
class _ShardResult:
    """What a worker sends back: outcomes plus its shard's telemetry."""

    stats: Dict[str, ClientStats]
    spans: List[SpanRecord] = field(default_factory=list)
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    events: List[StreamEvent] = field(default_factory=list)
    dropped: Dict[str, int] = field(default_factory=dict)


def _plan_site(
    generator: WebGenerator, rank: int, max_pages_per_site: int
) -> Optional[SiteVisitPlan]:
    site = generator.site(rank)
    discovery = discover_pages(site, max_pages_per_site)
    pages = [site.page_for(url) for url in discovery.pages]
    pages = [page for page in pages if page is not None]
    if not pages:
        return None
    return SiteVisitPlan(site=site.domain, rank=rank, pages=pages)


def _crawl_sites(
    generator: WebGenerator,
    store: MeasurementStore,
    profiles: Sequence[BrowserProfile],
    schedules: Sequence[SiteSchedule],
    *,
    timeout: float,
    stateful: bool,
    repeat_visits: int,
    max_pages_per_site: int,
    plans: Optional[Dict[int, SiteVisitPlan]] = None,
    obs: ObsContext = NULL_OBS,
    retry_policy: RetryPolicy = NO_RETRIES,
    salvage_partial: bool = False,
) -> Dict[str, ClientStats]:
    """Crawl ``schedules`` into ``store``; shared by serial path and workers.

    Visit ids are taken from each schedule's block, profile-major within
    each attempt round; all of a site's results are written in one batched
    transaction, sorted by visit id so shard streams stay ascending for the
    merge.  Returns the per-profile :class:`ClientStats` (visit/success
    counters plus the failure-reason breakdown and retry counters).

    Retries run after the site's first-attempt pass, per profile, in visit
    id order; the backoff jitter stream is anchored per ``(profile, rank,
    attempt)`` — see :mod:`repro.crawler.retry` for why that keeps serial
    and sharded crawls byte-identical.

    Telemetry is keyed by ``(site, profile)`` — site spans carry their
    rank, per-visit counters are labeled by profile — so the recorded
    stream is a pure function of the schedule, not of shard layout.
    """
    tracer, metrics, stream = obs.tracer, obs.metrics, obs.stream
    clients = {
        profile.name: CrawlClient(
            profile,
            seed=generator.seed,
            timeout=timeout,
            stateful=stateful,
            salvage_partial=salvage_partial,
        )
        for profile in profiles
    }
    visit_counters = {
        profile.name: metrics.counter("crawl.visits", profile=profile.name)
        for profile in profiles
    }
    success_counters = {
        profile.name: metrics.counter("crawl.successes", profile=profile.name)
        for profile in profiles
    }
    retry_counters = {
        profile.name: metrics.counter("crawl.retries", profile=profile.name)
        for profile in profiles
    }
    recovered_counters = {
        profile.name: metrics.counter("crawl.recovered", profile=profile.name)
        for profile in profiles
    }
    duration_histogram = metrics.histogram(
        "crawl.visit_seconds", VISIT_SECONDS_BUCKETS
    )

    def observe(profile_name: str, result, attempt: int) -> None:
        if stream.enabled:
            visit = result.visit
            stream.publish(
                StreamEvent(
                    kind=KIND_VISIT,
                    site_rank=visit.site_rank,
                    profile=profile_name,
                    payload={
                        "visit_id": visit.visit_id,
                        "page": visit.page_url,
                        "success": visit.success,
                        "reason": visit.failure_reason,
                        "seconds": round(visit.duration, 6),
                        "attempt": attempt,
                        "partial": visit.partial,
                    },
                )
            )
        visit_counters[profile_name].inc()
        duration_histogram.observe(result.visit.duration)
        if attempt > 1:
            retry_counters[profile_name].inc()
        if result.success:
            success_counters[profile_name].inc()
            if attempt > 1:
                recovered_counters[profile_name].inc()
        else:
            metrics.counter(
                "crawl.failures",
                profile=profile_name,
                reason=result.visit.failure_reason or "unknown",
            ).inc()

    for schedule in schedules:
        plan = (
            plans.get(schedule.rank)
            if plans is not None
            else _plan_site(generator, schedule.rank, max_pages_per_site)
        )
        if plan is None:  # cannot happen for a schedule produced by planning
            continue
        batch = []
        site_visits = len(profiles) * plan.page_count * repeat_visits
        counters_before: Dict[str, float] = {}
        if stream.enabled:
            stream.publish(
                StreamEvent(
                    kind=KIND_SITE_START,
                    site_rank=schedule.rank,
                    payload={"site": plan.site, "pages": plan.page_count},
                )
            )
            if metrics.enabled:
                counters_before = dict(metrics.scrape())
        # Site-level barrier: all clients start the site at its scheduled
        # time; stateful jars reset per site (cookies persist between the
        # site's pages).  Page visits then drift per client, unsynchronized.
        with tracer.span(
            "site", key=f"site:{schedule.rank}", rank=schedule.rank
        ) as site_span:
            for profile_index, profile in enumerate(profiles):
                client = clients[profile.name]
                visits_before = client.stats.visits
                successes_before = client.stats.successes
                with tracer.span(
                    "profile",
                    key=f"site:{schedule.rank}/{profile.name}",
                    profile=profile.name,
                ) as profile_span:
                    client.begin_site(schedule.rank, schedule.site_start)
                    # First attempt: the profile's slots within the block,
                    # identical ids to a no-retry crawl.
                    slot = profile_index * plan.page_count * repeat_visits
                    pending: List[Tuple[int, object]] = []
                    for page in plan.pages:
                        for _ in range(repeat_visits):
                            result = client.visit_page(
                                page,
                                site=plan.site,
                                site_rank=plan.rank,
                                visit_id=schedule.visit_base + slot,
                                attempt=1,
                            )
                            batch.append(result)
                            observe(profile.name, result, attempt=1)
                            if not result.success and retry_policy.should_retry(
                                result.visit.failure_reason, 1
                            ):
                                pending.append((slot, page))
                            slot += 1
                    # Retry rounds: failed retryable visits re-run at the
                    # end of the site plan, in visit-id order, with ids
                    # from the round's sub-block.
                    for attempt in range(2, retry_policy.max_attempts + 1):
                        if not pending:
                            break
                        backoff_rng = child_rng(
                            generator.seed,
                            "retry-backoff",
                            profile.name,
                            schedule.rank,
                            attempt,
                        )
                        with tracer.span(
                            "retry",
                            key=f"site:{schedule.rank}/{profile.name}"
                            f"/attempt:{attempt}",
                            attempt=attempt,
                        ) as retry_span:
                            retry_span.set("queued", len(pending))
                            still_failing: List[Tuple[int, object]] = []
                            for retry_slot, page in pending:
                                client.clock += retry_policy.backoff_seconds(
                                    attempt, backoff_rng
                                )
                                result = client.visit_page(
                                    page,
                                    site=plan.site,
                                    site_rank=plan.rank,
                                    visit_id=schedule.visit_base
                                    + (attempt - 1) * site_visits
                                    + retry_slot,
                                    attempt=attempt,
                                )
                                batch.append(result)
                                observe(profile.name, result, attempt=attempt)
                                if not result.success and retry_policy.should_retry(
                                    result.visit.failure_reason, attempt
                                ):
                                    still_failing.append((retry_slot, page))
                            pending = still_failing
                    profile_span.set(
                        "visits", client.stats.visits - visits_before
                    )
                    profile_span.set(
                        "successes", client.stats.successes - successes_before
                    )
            site_span.set("visits", len(batch))
        # Retry rounds interleave id sub-blocks across profiles; the store
        # stream must stay ascending in visit id for the shard merge.
        batch.sort(key=lambda result: result.visit.visit_id)
        store.store_visits(batch)
        if stream.enabled:
            # Site-local counter *deltas* (never cumulative snapshots,
            # which differ between serial and per-shard registries).
            deltas: Dict[str, float] = {}
            if metrics.enabled:
                for key, value in metrics.scrape():
                    delta = value - counters_before.get(key, 0)
                    if delta:
                        deltas[key] = delta
            stream.publish(
                StreamEvent(
                    kind=KIND_SITE_END,
                    site_rank=schedule.rank,
                    payload={
                        "site": plan.site,
                        "visits": len(batch),
                        "successes": sum(
                            1 for result in batch if result.success
                        ),
                        "metrics": deltas,
                    },
                )
            )
    return {name: client.stats for name, client in clients.items()}


def _crawl_shard(spec: _ShardSpec) -> _ShardResult:
    """Worker entry point: crawl one shard into a private on-disk store.

    The worker's tracer has no open span, so its site spans are subtree
    roots — exactly what the parent's :meth:`Tracer.adopt` expects.
    """
    obs = ObsContext.from_config(spec.obs_config)
    generator = WebGenerator(
        spec.seed, config=spec.web_config, ecosystem_config=spec.ecosystem_config
    )
    with MeasurementStore(spec.db_path, obs=obs) as store:
        stats = _crawl_sites(
            generator,
            store,
            spec.profiles,
            spec.schedules,
            timeout=spec.timeout,
            stateful=spec.stateful,
            repeat_visits=spec.repeat_visits,
            max_pages_per_site=spec.max_pages_per_site,
            obs=obs,
            retry_policy=spec.retry_policy,
            salvage_partial=spec.salvage_partial,
        )
    return _ShardResult(
        stats=stats,
        spans=obs.tracer.records,
        metrics=obs.metrics.as_dict() if obs.metrics.enabled else None,
        events=obs.stream.events,
        dropped=obs.stream.dropped,
    )


def run_measurement(
    seed: int,
    ranks: Sequence[int],
    store: Optional[MeasurementStore] = None,
    profiles: Sequence[BrowserProfile] = PAPER_PROFILES,
    max_pages_per_site: int = 25,
    generator: Optional[WebGenerator] = None,
    workers: int = 1,
    obs: Optional[ObsContext] = None,
    retry_policy: Optional[RetryPolicy] = None,
    salvage_partial: bool = False,
) -> MeasurementStore:
    """Convenience one-shot: generate the web, crawl it, return the store."""
    generator = generator or WebGenerator(seed)
    store = store or MeasurementStore(obs=obs)
    commander = Commander(
        generator,
        store,
        profiles=profiles,
        max_pages_per_site=max_pages_per_site,
        workers=workers,
        obs=obs,
        retry_policy=retry_policy,
        salvage_partial=salvage_partial,
    )
    commander.run(ranks)
    return store
