"""A small, strict URL model used throughout the reproduction.

``urllib.parse`` is flexible but permissive; web-measurement analysis wants
a canonical, hashable representation with explicit query-parameter access
(the paper's URL normalization drops query *values* while keeping keys).
:class:`URL` is an immutable value object providing exactly that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple
from urllib.parse import quote, unquote, urlsplit

from ..errors import InvalidURLError
from . import psl

_ALLOWED_SCHEMES = frozenset({"http", "https", "ws", "wss"})

#: Query parameters as an ordered tuple of (key, value) pairs. Values may be
#: empty strings, which is how normalized URLs represent stripped values.
QueryPairs = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True, order=True)
class URL:
    """An immutable parsed URL.

    Attributes mirror the generic URI components the analysis needs.  The
    fragment is intentionally dropped: fragments never reach the network and
    OpenWPM does not record them.  ``str(url)`` is computed once per
    instance.
    """

    scheme: str
    host: str
    path: str = "/"
    query: QueryPairs = field(default_factory=tuple)
    port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scheme not in _ALLOWED_SCHEMES:
            raise InvalidURLError(f"unsupported scheme: {self.scheme!r}")
        if not self.host:
            raise InvalidURLError("URL host must be non-empty")
        if not self.path.startswith("/"):
            raise InvalidURLError(f"path must start with '/': {self.path!r}")

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, raw: str) -> "URL":
        """Parse ``raw`` into a :class:`URL`.

        Raises :class:`~repro.errors.InvalidURLError` for relative URLs,
        unsupported schemes, empty hosts, or an authority ``urlsplit``
        rejects.  Equal strings (after stripping surrounding whitespace)
        share one memoized instance, so compare URLs with ``==``, never
        with ``is`` (DESIGN §6.6).
        """
        if not isinstance(raw, str) or not raw.strip():
            raise InvalidURLError(f"not a URL: {raw!r}")
        return _parse(raw.strip())

    # -- derived properties ------------------------------------------------

    @property
    def site(self) -> Optional[str]:
        """The registrable domain (eTLD+1), the paper's *site*."""
        return psl.registrable_domain(self.host)

    @property
    def origin(self) -> str:
        """Scheme + host (+ explicit port), RFC 6454-style.

        An IPv6 host is bracketed, so the origin parses back.
        """
        host = f"[{self.host}]" if ":" in self.host else self.host
        if self.port is not None and self.port != _default_port(self.scheme):
            return f"{self.scheme}://{host}:{self.port}"
        return f"{self.scheme}://{host}"

    @property
    def decoded_path(self) -> str:
        """The path with *all* percent-escapes decoded — display only.

        The canonical :attr:`path` keeps encoded separators (``%2F`` etc.)
        so that distinct resources stay distinct nodes; use this property
        when rendering for humans.
        """
        return unquote(self.path)

    @property
    def query_string(self) -> str:
        """The serialized query string (no leading '?')."""
        return "&".join(
            f"{quote(key, safe='')}={quote(value, safe='')}" if value else f"{quote(key, safe='')}="
            for key, value in self.query
        )

    def query_keys(self) -> Tuple[str, ...]:
        """Return the query parameter keys in order."""
        return tuple(key for key, _ in self.query)

    def get_param(self, key: str) -> Optional[str]:
        """Return the first value of query parameter ``key``, if present."""
        for name, value in self.query:
            if name == key:
                return value
        return None

    # -- transformation ----------------------------------------------------

    def with_param(self, key: str, value: str) -> "URL":
        """Return a copy with ``key=value`` appended to the query."""
        return replace(self, query=self.query + ((key, value),))

    def without_query(self) -> "URL":
        """Return a copy with the query removed entirely."""
        return replace(self, query=())

    def strip_query_values(self) -> "URL":
        """Return a copy keeping query *keys* but dropping their values.

        This is the paper's normalization (§3.2): session identifiers and
        fingerprints live in query values, so ``foo.com/a.js?s_id=1234``
        and ``foo.com/a.js?s_id=abcd`` must compare equal.
        """
        return replace(self, query=tuple((key, "") for key, _ in self.query))

    def is_same_site(self, other: "URL") -> bool:
        """True when both URLs belong to the same eTLD+1."""
        return psl.same_site(self.host, other.host)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        return self._serialized

    @cached_property
    def _serialized(self) -> str:
        query = self.query_string
        suffix = f"?{query}" if query else ""
        # '%' is safe: every '%' in a canonical path already is (part of) a
        # percent-escape, so re-quoting must not double-encode it.
        return f"{self.origin}{quote(self.path, safe='/%')}{suffix}"


#: Distinct URL strings whose parses stay memoized; one benchmark crawl's
#: site generation parses about 1.4k.
_CACHE_SIZE = 8192


@lru_cache(maxsize=_CACHE_SIZE)
def _parse(raw: str) -> URL:
    """Parse a stripped, non-empty string; memoized for :meth:`URL.parse`."""
    try:
        parts = urlsplit(raw)
    except ValueError as exc:  # an unclosed IPv6 bracket, an NFKC-invalid host
        raise InvalidURLError(f"bad authority in {raw!r}") from exc
    if not parts.scheme:
        raise InvalidURLError(f"relative URL: {raw!r}")
    scheme = parts.scheme.lower()
    if scheme not in _ALLOWED_SCHEMES:
        raise InvalidURLError(f"unsupported scheme in {raw!r}")
    host = (parts.hostname or "").lower()
    if not host:
        raise InvalidURLError(f"URL without host: {raw!r}")
    try:
        port = parts.port
    except ValueError as exc:
        raise InvalidURLError(f"bad port in {raw!r}") from exc
    path = _canonical_path(parts.path) or "/"
    if not path.startswith("/"):
        path = "/" + path
    query = _parse_query(parts.query)
    return URL(scheme=scheme, host=host, path=path, query=query, port=port)


def _default_port(scheme: str) -> int:
    return {"http": 80, "https": 443, "ws": 80, "wss": 443}[scheme]


#: Percent-escapes that MUST stay encoded in a canonical path: decoding them
#: would change the URL's structure ('/', '?', '#') or make re-encoding
#: ambiguous ('%').  ``http://x.com/a%2Fb`` and ``http://x.com/a/b`` name
#: *different* resources and must stay different nodes.
_STRUCTURAL_ESCAPE = re.compile(r"%(2F|3F|23|25)", re.IGNORECASE)


def _canonical_path(raw_path: str) -> str:
    """Decode a raw path's percent-escapes except the structural ones.

    Cosmetic escapes (``%20``, ``%41``...) are decoded so spelling variants
    compare equal; structural escapes are kept, uppercased for stability.
    The result round-trips: parsing ``str(url)`` reproduces the same path.
    """
    parts = _STRUCTURAL_ESCAPE.split(raw_path)
    # split() with one capture group alternates [text, escape, text, ...].
    return "".join(
        f"%{piece.upper()}" if index % 2 else unquote(piece)
        for index, piece in enumerate(parts)
    )


def _parse_query(raw_query: str) -> QueryPairs:
    if not raw_query:
        return ()
    pairs: List[Tuple[str, str]] = []
    for chunk in raw_query.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        pairs.append((unquote(key), unquote(value)))
    return tuple(pairs)
