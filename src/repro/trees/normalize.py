"""URL normalization for node identity (paper §3.2).

Similar resources are often loaded via different URLs because session
identifiers or fingerprints ride along as query parameters.  The paper
therefore identifies a node by its URL *with query values stripped but
query keys kept*: ``foo.com/a.js?s_id=1234`` and ``foo.com/a.js?s_id=abcd``
become the same node ``foo.com/a.js?s_id=``.  This step runs during
analysis, not during measurement — raw URLs stay in the store.

The paper reports having to apply this to 40% of observed URLs;
:class:`NormalizationStats` tracks the same ratio for our runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from ..errors import InvalidURLError
from ..web.url import URL

#: Distinct raw URLs whose node keys stay memoized process-wide; one
#: dataset build of the benchmark crawl sees about 4k.
_CACHE_SIZE = 1 << 15


@dataclass
class NormalizationStats:
    """Counts how often normalization actually changed a URL."""

    total: int = 0
    changed: int = 0
    unparseable: int = 0

    @property
    def changed_ratio(self) -> float:
        return self.changed / self.total if self.total else 0.0


class UrlNormalizer:
    """Normalizes URLs to node keys, with memoization and stats.

    ``strip_query_values=False`` turns normalization off (identity mapping
    modulo parsing), which the ablation benchmark uses to show how raw URLs
    inflate tree differences (paper §6).

    Each normalizer keeps its own raw URL → key map, which is what the
    stats count against; beneath it, the pure mapping is memoized for the
    whole process, so repeated dataset builds parse each URL once.
    """

    def __init__(self, strip_query_values: bool = True) -> None:
        self.strip_query_values = strip_query_values
        self.stats = NormalizationStats()
        self._cache: Dict[str, str] = {}

    def normalize(self, raw_url: str) -> str:
        """Return the node key for ``raw_url``.

        Unparseable URLs are returned unchanged (and counted); analysis
        must never crash on odd traffic.
        """
        key = self._cache.get(raw_url)
        if key is None:
            key = _node_key(raw_url, self.strip_query_values)
            if key is None:
                self.stats.unparseable += 1
                key = raw_url
            self._cache[raw_url] = key
        self.stats.total += 1
        if key != raw_url:
            self.stats.changed += 1
        return key

    @staticmethod
    def parse(raw_url: str) -> Optional[URL]:
        """Parse ``raw_url`` leniently; ``None`` when unparseable."""
        try:
            return URL.parse(raw_url)
        except InvalidURLError:
            return None


@lru_cache(maxsize=_CACHE_SIZE)
def _node_key(raw_url: str, strip_query_values: bool) -> Optional[str]:
    """The node key of ``raw_url``, or ``None`` when it does not parse."""
    url = UrlNormalizer.parse(raw_url)
    if url is None:
        return None
    return str(url.strip_query_values() if strip_query_values else url)


def normalize_url(raw_url: str, strip_query_values: bool = True) -> str:
    """One-shot normalization; the throwaway normalizer's stats are dropped."""
    return UrlNormalizer(strip_query_values=strip_query_values).normalize(raw_url)
