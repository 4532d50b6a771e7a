"""The analysis dataset: aligned tree sets for every comparable page.

:class:`AnalysisDataset` is what the evaluation sections operate on — the
vetted collection of :class:`~repro.analysis.comparison.PageComparison`
objects (pages crawled successfully by all profiles) plus site metadata
(rank for the popularity buckets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ..blocklist.matcher import FilterList
from ..crawler.storage import MeasurementStore
from ..errors import AnalysisError, InvalidURLError
from ..obs import (
    NULL_OBS,
    MetricsRegistry,
    ObsContext,
    TREE_DEPTH_BUCKETS,
    TREE_EDGE_BUCKETS,
    TREE_NODE_BUCKETS,
)
from ..trees.builder import TreeBuilder
from ..trees.node import host_of
from ..trees.normalize import NormalizationStats
from ..trees.tree import DependencyTree
from .comparison import NodeComparison, PageComparison


@dataclass(frozen=True)
class PageEntry:
    """One comparable page: its comparison object and crawl metadata."""

    comparison: PageComparison
    site: str
    site_rank: int

    @property
    def page_url(self) -> str:
        return self.comparison.page_url


class AnalysisDataset:
    """All comparable pages of one measurement run.

    A built dataset is never mutated: experiments share it.  Its tracking
    flags are classified once, by the filter list it was built with; an
    analysis under another list reads that list's
    :func:`~repro.trees.tree.tracking_keys` over a page's tree nodes,
    which writes nothing.  A dataset built from a store also keeps two
    facts about that build: ``normalization``, the URL normalizer's
    counts over every tree built (``None`` for :meth:`from_tree_sets`),
    and ``include_partial``, whether salvaged partial visits could stand
    in for successes.  ``ablations`` reads ``normalization`` rather than
    build this dataset's trees again.
    """

    def __init__(
        self,
        entries: Sequence[PageEntry],
        profiles: Sequence[str],
        normalization: Optional[NormalizationStats] = None,
        include_partial: bool = False,
    ) -> None:
        if not profiles:
            raise AnalysisError("dataset needs profile names")
        self.entries: List[PageEntry] = list(entries)
        self.profiles: List[str] = list(profiles)
        self.normalization = normalization
        self.include_partial = include_partial

    # -- construction --------------------------------------------------------

    @classmethod
    def from_store(
        cls,
        store: MeasurementStore,
        filter_list: Optional[FilterList] = None,
        profiles: Optional[Sequence[str]] = None,
        require_all: bool = True,
        obs: Optional[ObsContext] = None,
        include_partial: bool = False,
    ) -> "AnalysisDataset":
        """Build trees for every vetted page and align them.

        This is the paper's pipeline step between crawling and analysis:
        only pages successfully crawled by all profiles are kept.
        ``include_partial`` lets salvaged partial visits stand in for
        missing successes (default: excluded, matching the paper).  The
        build is a :class:`StreamingDataset` fold of this one store.
        """
        return StreamingDataset(
            list(profiles) if profiles is not None else store.profiles(),
            filter_list=filter_list,
            require_all=require_all,
            include_partial=include_partial,
            obs=obs,
        ).finalize(store)

    @classmethod
    def from_tree_sets(
        cls,
        tree_sets: Sequence[Mapping[str, DependencyTree]],
        site_ranks: Optional[Mapping[str, int]] = None,
    ) -> "AnalysisDataset":
        """Build a dataset directly from per-page tree mappings (tests)."""
        if not tree_sets:
            raise AnalysisError("no tree sets supplied")
        profiles = sorted(tree_sets[0])
        entries = []
        for trees in tree_sets:
            comparison = PageComparison(trees)
            site = _site_of(comparison.page_url)
            rank = (site_ranks or {}).get(site, 1)
            entries.append(PageEntry(comparison=comparison, site=site, site_rank=rank))
        return cls(entries, profiles)

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[PageEntry]:
        return iter(self.entries)

    def comparisons(self) -> List[PageComparison]:
        return [entry.comparison for entry in self.entries]

    def iter_nodes(self) -> Iterator[NodeComparison]:
        """Stream every aligned node of every page."""
        for entry in self.entries:
            yield from entry.comparison.nodes()

    def node_count(self) -> int:
        return sum(len(entry.comparison) for entry in self.entries)

    def sites(self) -> Dict[str, int]:
        """Site → rank for all sites in the dataset."""
        return {entry.site: entry.site_rank for entry in self.entries}


class StreamingDataset:
    """The one way a dataset is built: a commutative fold of stores.

    :meth:`fold` vets one store and builds its pages' trees;
    :meth:`finalize` seals the fold into an :class:`AnalysisDataset`.
    ``AnalysisDataset.from_store`` folds a single store inside
    :meth:`finalize`; the streaming pipeline folds each crawl shard's
    store as it lands, in *completion* order, which varies run to run.
    The result is the same either way:

    * sites partition pages and every site lives entirely in one shard,
      so vetting a shard store (:meth:`MeasurementStore.pages_crawled_by_all`)
      yields exactly that shard's slice of the global vetting;
    * entries sort by ``page_url``, the order the vetting query of a
      single store yields (page URLs are unique across shards, so the
      sort is total);
    * tree metrics are recorded at finalize, from the finalized entries'
      trees, so folds made while a crawl still runs never show in the
      crawl's metrics or run record;
    * the normalizer's counts, which the dataset keeps, are sums per
      call (per distinct URL for ``unparseable``), so no fold order or
      worker count moves them;
    * the ``dataset`` span and its counters are emitted at finalize,
      in their canonical slot.
    """

    def __init__(
        self,
        profile_names: Sequence[str],
        filter_list: Optional[FilterList] = None,
        require_all: bool = True,
        include_partial: bool = False,
        obs: Optional[ObsContext] = None,
    ) -> None:
        if not profile_names:
            raise AnalysisError("dataset needs profile names")
        self.profile_names = list(profile_names)
        self.require_all = require_all
        self.include_partial = include_partial
        self.obs = obs if obs is not None else NULL_OBS
        self._builder = TreeBuilder(filter_list=filter_list)
        self._entries: List[PageEntry] = []
        self._pages_vetted = 0
        self._finalized = False

    def fold(self, store: MeasurementStore) -> None:
        """Vet ``store`` and add its pages' entries (any order; commutative)."""
        if self._finalized:
            raise AnalysisError("streaming dataset is already finalized")
        profile_names = self.profile_names
        include_partial = self.include_partial
        pages = (
            store.pages_crawled_by_all(profile_names, include_partial=include_partial)
            if self.require_all
            else store.pages()
        )
        for page_url in pages:
            visits = store.successful_visits_for_page(
                page_url, profile_names, include_partial=include_partial
            )
            trees = self._builder.build_visits(
                store, visits, allow_partial=include_partial
            )
            if self.require_all and len(trees) != len(profile_names):
                continue
            if not trees:
                continue
            visit = next(iter(visits.values()))
            self._entries.append(
                PageEntry(
                    comparison=PageComparison(trees),
                    site=visit.site,
                    site_rank=visit.site_rank,
                )
            )
        self._pages_vetted += len(pages)

    def finalize(self, store: Optional[MeasurementStore] = None) -> AnalysisDataset:
        """Seal the fold, first folding ``store`` inside the ``dataset`` span."""
        if self._finalized:
            raise AnalysisError("streaming dataset is already finalized")
        obs = self.obs
        with obs.tracer.span("dataset", key="dataset") as span:
            if store is not None:
                self.fold(store)
            self._finalized = True
            self._entries.sort(key=lambda entry: entry.page_url)
            span.set("pages", self._pages_vetted)
            span.set("entries", len(self._entries))
            metrics = obs.metrics
            if metrics.enabled:
                _record_tree_metrics(metrics, self._entries)
                metrics.counter("dataset.pages_vetted").inc(self._pages_vetted)
                metrics.counter("dataset.entries").inc(len(self._entries))
        return AnalysisDataset(
            self._entries,
            self.profile_names,
            normalization=self._builder.normalizer.stats,
            include_partial=self.include_partial,
        )


def _record_tree_metrics(
    metrics: MetricsRegistry, entries: Sequence[PageEntry]
) -> None:
    """Record a dataset's tree metrics, once, from its entries' trees.

    A fold keeps every tree it builds (vetting and tree building read
    the same usable visits), so these are the metrics of every tree
    built, whichever folds built them.
    """
    trees = [tree for entry in entries for tree in entry.comparison.trees.values()]
    if not trees:
        return
    metrics.counter("trees.built").inc(len(trees))
    nodes = metrics.histogram("trees.nodes", TREE_NODE_BUCKETS)
    edges = metrics.histogram("trees.edges", TREE_EDGE_BUCKETS)
    depths = metrics.histogram("trees.depth", TREE_DEPTH_BUCKETS)
    for tree in trees:
        nodes.observe(tree.node_count)
        edges.observe(tree.node_count - 1)
        depths.observe(tree.max_depth)


def _site_of(page_url: str) -> str:
    """The site (registrable domain) a page URL belongs to.

    Routed through the shared URL model so ``user:pw@`` and ``:port``
    never leak into site keys — the hand parser this replaces kept both,
    splitting one site's pages into distinct groups the moment any URL
    carried credentials or an explicit port.  Inputs the strict parser
    rejects (bare hosts, odd schemes in test fixtures, an unclosed IPv6
    bracket) degrade to :func:`~repro.trees.node.host_of`'s host
    isolation before the PSL lookup; a bare host is read as an authority.
    """
    from ..web import psl
    from ..web.url import URL

    try:
        url = URL.parse(page_url)
    except InvalidURLError:
        host = host_of(page_url if "://" in page_url else "://" + page_url)
        return psl.registrable_domain(host) or host
    return url.site or url.host
