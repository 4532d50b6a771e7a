"""Filter-list matching: is a request a tracking request?

:class:`FilterList` evaluates a URL (plus request context) against the
parsed filters with EasyList semantics: a blocking filter must match and
no exception filter may match.  Filters anchored to a domain (``||``)
are indexed by host suffix so that the common case — checking a URL
against a large list — touches only a handful of candidate filters.
A list never changes once built, so it also remembers each verdict.
A URL's host and a host's suffixes are pure functions of one string, so
they are parsed once per process, in bounded module-level memos that
every list shares (DESIGN §6.6); verdicts stay per list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from ..web import psl
from ..web.resources import ResourceType
from .parser import Filter, parse_filter_list

#: Distinct URL strings (and hosts) whose parses stay memoized; one
#: `analyze` repetition of the benchmark crawl classifies about 3.8k URLs.
_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class MatchContext:
    """Everything besides the URL that filter options may consult.

    :meth:`FilterList.match` keys its memo on every field, so a new field
    must join that key.
    """

    resource_type: ResourceType = ResourceType.OTHER
    page_url: Optional[str] = None

    @property
    def page_host(self) -> Optional[str]:
        if self.page_url is None:
            return None
        return _host(self.page_url) or None


@dataclass(frozen=True)
class MatchResult:
    """The verdict for one URL."""

    blocked: bool
    matched_filter: Optional[Filter] = None
    exception_filter: Optional[Filter] = None


#: The verdict for a URL no blocking filter matches (most URLs), shared.
_UNLISTED = MatchResult(blocked=False)


class FilterList:
    """A compiled filter list with domain-anchored indexing.

    Verdicts are memoized per URL and :class:`MatchContext` fields, for
    as long as the list lives.
    """

    def __init__(self, filters: Sequence[Filter]) -> None:
        self._anchored_blocking: Dict[str, List[Filter]] = {}
        self._generic_blocking: List[Filter] = []
        self._anchored_exceptions: Dict[str, List[Filter]] = {}
        self._generic_exceptions: List[Filter] = []
        for flt in filters:
            if flt.is_exception:
                anchored, generic = self._anchored_exceptions, self._generic_exceptions
            else:
                anchored, generic = self._anchored_blocking, self._generic_blocking
            if flt.anchor_domain:
                anchored.setdefault(flt.anchor_domain, []).append(flt)
            else:
                generic.append(flt)
        self._size = len(filters)
        self._verdicts: Dict[Tuple[str, ResourceType, Optional[str]], MatchResult] = {}

    def __len__(self) -> int:
        return self._size

    @classmethod
    def from_text(cls, text: str) -> "FilterList":
        """Compile a filter list document."""
        return cls(parse_filter_list(text))

    # -- matching ----------------------------------------------------------

    def match(self, url: str, context: Optional[MatchContext] = None) -> MatchResult:
        """Full evaluation: blocking filters, then exceptions (memoized)."""
        context = context or MatchContext()
        key = (url, context.resource_type, context.page_url)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._evaluate(url, context)
        return verdict

    def is_tracking(
        self,
        url: str,
        resource_type: ResourceType = ResourceType.OTHER,
        page_url: Optional[str] = None,
    ) -> bool:
        """The paper's classifier: URL on the list → tracking request."""
        return self.match(
            url, MatchContext(resource_type=resource_type, page_url=page_url)
        ).blocked

    # -- internals ---------------------------------------------------------

    def _evaluate(self, url: str, context: MatchContext) -> MatchResult:
        # Both hosts are looked up once per verdict, not once per filter tried.
        host = _host(url)
        page_host = context.page_host
        blocking = self._first_match(
            url, host, context.resource_type, page_host,
            self._anchored_blocking, self._generic_blocking,
        )
        if blocking is None:
            return _UNLISTED
        exception = self._first_match(
            url, host, context.resource_type, page_host,
            self._anchored_exceptions, self._generic_exceptions,
        )
        if exception is not None:
            return MatchResult(blocked=False, matched_filter=blocking, exception_filter=exception)
        return MatchResult(blocked=True, matched_filter=blocking)

    def _first_match(
        self,
        url: str,
        host: str,
        resource_type: ResourceType,
        page_host: Optional[str],
        anchored: Dict[str, List[Filter]],
        generic: List[Filter],
    ) -> Optional[Filter]:
        for candidate_domain in _host_suffixes(host):
            for flt in anchored.get(candidate_domain, ()):
                if self._filter_matches(flt, url, host, resource_type, page_host):
                    return flt
        for flt in generic:
            if self._filter_matches(flt, url, host, resource_type, page_host):
                return flt
        return None

    def _filter_matches(
        self,
        flt: Filter,
        url: str,
        host: str,
        resource_type: ResourceType,
        page_host: Optional[str],
    ) -> bool:
        options = flt.options
        if not options.allows_type(resource_type):
            return False
        if options.third_party is not None:
            is_third = page_host is not None and not psl.same_site(host, page_host)
            if not options.allows_party(is_third):
                return False
        if not options.allows_page_domain(page_host):
            return False
        return flt.matches_url(url)


@lru_cache(maxsize=_CACHE_SIZE)
def _host(url: str) -> str:
    """The lower-cased host of ``url``; empty when it has none or its
    authority does not parse (``http://[::1/``), as for ``"not a url"``."""
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


@lru_cache(maxsize=_CACHE_SIZE)
def _host_suffixes(host: str) -> Tuple[str, ...]:
    """All dot-suffixes of a host (``a.b.c`` → ``a.b.c``, ``b.c``, ``c``)."""
    if not host:
        return ()
    labels = host.split(".")
    return tuple(".".join(labels[i:]) for i in range(len(labels)))
