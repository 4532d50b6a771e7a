"""A compact public-suffix list and eTLD+1 ("site") extraction.

The paper uses the term *site* for the registrable part of a domain — the
"extended Top Level Domain plus one" (eTLD+1).  Real studies consult the
Mozilla Public Suffix List; shipping the full list offline is unnecessary
for the reproduction, so we embed the suffixes that actually occur in the
synthetic web plus the most common real-world ones, and fall back to the
last label for unknown TLDs (the PSL's own default rule).

The module intentionally mirrors the semantics of the real PSL algorithm:

* the longest matching suffix rule wins;
* wildcard rules (``*.ck``) match any single extra label;
* exception rules (``!www.ck``) override a wildcard;
* if nothing matches, the public suffix is the final label.

IP literals are not domain names: they have neither a public suffix nor a
registrable domain, and :func:`same_site` compares them (like any host
without a registrable domain) by equality, as HTML's *schemelessly same
site* does.  Both lookups are pure functions of the host string and are
memoized: an analysis asks about the same few dozen hosts again and again.
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache
from typing import FrozenSet, Optional, Tuple

#: Plain suffix rules (a pragmatic subset of the real list).
_SUFFIXES: FrozenSet[str] = frozenset(
    {
        # Generic TLDs.
        "com", "org", "net", "edu", "gov", "mil", "int", "info", "biz",
        "io", "co", "me", "tv", "cc", "ws", "app", "dev", "xyz", "site",
        "online", "store", "shop", "blog", "cloud", "ai", "news", "agency",
        # Country TLDs.
        "de", "uk", "fr", "nl", "it", "es", "pl", "ru", "cn", "jp", "kr",
        "br", "in", "au", "ca", "us", "ch", "at", "be", "se", "no", "dk",
        "fi", "cz", "gr", "pt", "ie", "hu", "ro", "tr", "mx", "ar", "cl",
        # Second-level public suffixes.
        "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
        "com.au", "net.au", "org.au", "edu.au", "gov.au",
        "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
        "com.br", "net.br", "org.br", "gov.br",
        "co.in", "net.in", "org.in", "gen.in", "firm.in",
        "com.cn", "net.cn", "org.cn", "gov.cn",
        "co.kr", "or.kr", "ne.kr",
        "com.mx", "org.mx", "net.mx",
        "com.ar", "com.tr", "com.pl", "com.ru",
        "co.nz", "net.nz", "org.nz",
        "co.za", "org.za", "web.za",
        # Hosting suffixes treated as public by the real PSL.
        "github.io", "gitlab.io", "herokuapp.com", "appspot.com",
        "cloudfront.net", "amazonaws.com", "azurewebsites.net",
        "fastly.net", "netlify.app", "web.app", "firebaseapp.com",
    }
)

#: Wildcard rules: ``*.suffix`` — any single label under these is public.
_WILDCARDS: FrozenSet[str] = frozenset({"ck", "er", "fj", "kawasaki.jp"})

#: Exceptions to wildcard rules (registrable despite the wildcard).
_EXCEPTIONS: FrozenSet[str] = frozenset({"www.ck", "city.kawasaki.jp"})


#: Distinct hosts whose lookups stay memoized (far more than one crawl sees).
_CACHE_SIZE = 4096


def _labels(host: str) -> Tuple[str, ...]:
    return tuple(part for part in host.lower().strip(".").split(".") if part)


def _is_ip_literal(labels: Tuple[str, ...]) -> bool:
    try:
        ipaddress.ip_address(".".join(labels).strip("[]"))
    except ValueError:
        return False
    return True


@lru_cache(maxsize=_CACHE_SIZE)
def public_suffix(host: str) -> Optional[str]:
    """Return the public suffix of ``host``, or ``None`` for empty input
    and IP literals.

    >>> public_suffix("foo.example.co.uk")
    'co.uk'
    >>> public_suffix("example.com")
    'com'
    >>> public_suffix("weird.tldthatdoesnotexist")
    'tldthatdoesnotexist'
    """
    labels = _labels(host)
    if not labels or _is_ip_literal(labels):
        return None
    # Exception rules beat wildcards: the matched exception's *parent* is the
    # public suffix.
    for start in range(len(labels)):
        candidate = ".".join(labels[start:])
        if candidate in _EXCEPTIONS:
            return ".".join(labels[start + 1 :])
    # Wildcard rules make one extra label public.
    for start in range(len(labels)):
        candidate = ".".join(labels[start:])
        if candidate in _WILDCARDS and start >= 1:
            return ".".join(labels[start - 1 :])
    # Longest plain rule wins.
    for start in range(len(labels)):
        candidate = ".".join(labels[start:])
        if candidate in _SUFFIXES:
            return candidate
    # Default rule: the final label is public.
    return labels[-1]


@lru_cache(maxsize=_CACHE_SIZE)
def registrable_domain(host: str) -> Optional[str]:
    """Return the eTLD+1 for ``host`` (the paper's *site*), if one exists.

    A bare public suffix or an IP literal has no registrable domain and
    yields ``None``.

    >>> registrable_domain("tracker.cdn.ads-example.com")
    'ads-example.com'
    >>> registrable_domain("foo.example.co.uk")
    'example.co.uk'
    >>> registrable_domain("co.uk") is None
    True
    """
    labels = _labels(host)
    if not labels:
        return None
    suffix = public_suffix(host)
    if suffix is None:
        return None
    suffix_labels = suffix.split(".") if suffix else []
    if len(labels) <= len(suffix_labels):
        return None
    keep = len(suffix_labels) + 1
    return ".".join(labels[-keep:])


def same_site(host_a: str, host_b: str) -> bool:
    """Return True when both hosts share the same registrable domain.

    This is the paper's first-party test: a resource is *first party* when
    its eTLD+1 equals the visited site's eTLD+1.  A host without one (an IP
    literal, ``localhost``, a bare public suffix) is same-site only with
    itself.
    """
    site_a = registrable_domain(host_a)
    site_b = registrable_domain(host_b)
    if site_a is None or site_b is None:
        name_a = ".".join(_labels(host_a))
        return bool(name_a) and name_a == ".".join(_labels(host_b))
    return site_a == site_b
