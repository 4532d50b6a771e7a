"""Streaming crawl→analysis: fold each crawl shard as it lands.

The phased pipeline crawls everything, merges, and only then builds the
first tree.  :func:`stream_crawl` removes that barrier for sharded
crawls: the moment a shard's store lands (``Commander.run``'s
``on_shard`` hand-off), this process vets it, builds its trees, and
folds them into a :class:`~repro.analysis.dataset.StreamingDataset`
while the crawl workers keep crawling the other shards.  An inline crawl
(``workers=1``) hands off nothing; its merged store is folded at
finalize, exactly as ``AnalysisDataset.from_store`` does.  Trees are
built only here, in the process that keeps the dataset: shipping built
trees back from a pool costs more to unpickle than building them.

Determinism contract (DESIGN §8)
--------------------------------
Streaming changes *when* work happens, never *what* is produced:

* the merged store is byte-identical to the batch path's (the shard
  merge runs in layout order, exactly as before);
* the finalized dataset is byte-identical (folds are commutative, the
  finalize step restores the batch path's global ``page_url`` order);
* traces and metrics are byte-identical under the deterministic clock
  (fold metrics merge at finalize; the ``dataset`` span is emitted at
  its canonical position);
* ledger records carry the same deterministic section — hand-off
  observations (``stream.*``) live in the *measured* section only,
  because execution layout must never leak into byte-compared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..analysis.dataset import AnalysisDataset, StreamingDataset
from ..blocklist.matcher import FilterList
from ..browser.profile import BrowserProfile, PAPER_PROFILES
from ..crawler.commander import Commander, CrawlSummary, ShardHandoff
from ..crawler.retry import RetryPolicy
from ..crawler.storage import MeasurementStore
from ..devtools.clock import Stopwatch
from ..obs import NULL_OBS, ObsContext
from ..web.sitegen import WebGenerator


@dataclass
class StreamStats:
    """Execution-layout observations of one streamed run.

    Everything here describes *how* the run was laid out, not *what* was
    measured — ledger material for the ratio-compared measured section
    (``stream.*`` keys), never for the deterministic one.
    ``drain_seconds`` is the time this process spent folding shard
    stores inside ``on_shard`` while the crawl ran (0 for an inline
    crawl, whose fold runs at finalize).  Under a ``FakeClock`` the
    timings are zero and the payload is a pure function of the layout.
    """

    handoffs: int = 0
    visits: int = 0
    drain_seconds: float = 0.0
    stream_seconds: float = 0.0

    @property
    def visits_per_sec(self) -> float:
        if self.stream_seconds <= 0:
            return 0.0
        return self.visits / self.stream_seconds

    def measured_payload(self) -> Dict[str, object]:
        """The ``stream`` block merged into a run record's measured section."""
        return {
            "stream": {
                "handoffs": self.handoffs,
                "visits": self.visits,
                "drain_seconds": round(self.drain_seconds, 6),
                "stream_seconds": round(self.stream_seconds, 6),
                "visits_per_sec": round(self.visits_per_sec, 2),
            }
        }


@dataclass
class StreamRun:
    """What :func:`stream_crawl` hands back: the crawl summary, the
    (not yet finalized) dataset fold, the layout stats, and the store.

    The dataset is left un-finalized so callers can interleave their own
    post-crawl steps (the experiment runner emits its ``filter-list``
    span here) before sealing with :meth:`finalize`.
    """

    summary: CrawlSummary
    streaming: StreamingDataset
    stats: StreamStats
    store: MeasurementStore

    def finalize(self) -> AnalysisDataset:
        """Seal the fold; an inline crawl folds the merged store here."""
        return self.streaming.finalize(None if self.stats.handoffs else self.store)


def stream_crawl(
    generator: WebGenerator,
    store: MeasurementStore,
    ranks: Sequence[int],
    *,
    profiles: Sequence[BrowserProfile] = PAPER_PROFILES,
    max_pages_per_site: int = 25,
    timeout: float = 30.0,
    stateful: bool = False,
    repeat_visits: int = 1,
    workers: int = 1,
    filter_list: Optional[FilterList] = None,
    require_all: bool = True,
    include_partial: bool = False,
    obs: Optional[ObsContext] = None,
    retry_policy: Optional[RetryPolicy] = None,
    salvage_partial: bool = False,
) -> StreamRun:
    """Crawl ``ranks`` into ``store`` and fold the analysis dataset.

    ``workers`` sizes the crawl pool (see :class:`Commander`); trees are
    always built in this process.  ``filter_list`` must be supplied up
    front when classification is wanted — shards are classified as they
    land, so there is no post-crawl moment to build it (the experiment
    runner builds it before calling and emits the ``filter-list`` span
    at its canonical post-crawl slot).

    Returns a :class:`StreamRun`; call ``.finalize()`` to obtain the
    batch-identical :class:`~repro.analysis.dataset.AnalysisDataset`.
    """
    obs = obs if obs is not None else NULL_OBS
    commander = Commander(
        generator,
        store,
        profiles=profiles,
        max_pages_per_site=max_pages_per_site,
        timeout=timeout,
        stateful=stateful,
        repeat_visits=repeat_visits,
        workers=workers,
        obs=obs,
        retry_policy=retry_policy,
        salvage_partial=salvage_partial,
    )
    # Sorted names == ``store.profiles()`` on the merged store (every
    # profile records a row per planned page), so the finalized dataset
    # carries the same profile list the batch path derives.
    streaming = StreamingDataset(
        sorted(profile.name for profile in commander.profiles),
        filter_list=filter_list,
        require_all=require_all,
        include_partial=include_partial,
        obs=obs,
    )
    stats = StreamStats()
    watch = Stopwatch(obs.tracer.clock)

    def on_shard(handoff: ShardHandoff) -> None:
        fold_watch = Stopwatch(obs.tracer.clock)
        streaming.fold(handoff.store)
        stats.handoffs += 1
        stats.drain_seconds += fold_watch.elapsed()

    summary = commander.run(ranks, on_shard=on_shard)
    stats.visits = summary.total_visits
    stats.stream_seconds = watch.elapsed()
    return StreamRun(summary=summary, streaming=streaming, stats=stats, store=store)
