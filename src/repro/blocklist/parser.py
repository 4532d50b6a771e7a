"""Parsing of Adblock-Plus filter syntax (the EasyList format).

The paper classifies a request as *tracking* when its URL matches EasyList.
We implement the practically relevant subset of ABP syntax so the
classification runs through real filter-matching code:

* comments (``!``) and the ``[Adblock Plus 2.0]`` header;
* blocking filters: substring patterns with ``*`` wildcards, the ``^``
  separator placeholder, ``||`` domain anchors and ``|`` start/end anchors;
* exception filters (``@@`` prefix);
* options after ``$``: ``third-party``/``~third-party``, resource-type
  options (``script``, ``image``, ``stylesheet``, ``xmlhttprequest``,
  ``subdocument``, ``websocket``, ``ping``, ``media``, ``font``, ``other``)
  and ``domain=a.com|~b.com``;
* element-hiding rules (``##``/``#@#``) are recognized and skipped — they
  affect rendering, not requests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..errors import FilterParseError
from ..web.resources import ResourceType

#: ABP type option name → our resource types.
_TYPE_OPTIONS = {
    "script": (ResourceType.SCRIPT,),
    "image": (ResourceType.IMAGE, ResourceType.IMAGESET),
    "stylesheet": (ResourceType.STYLESHEET,),
    "xmlhttprequest": (ResourceType.XHR,),
    "subdocument": (ResourceType.SUB_FRAME,),
    "document": (ResourceType.MAIN_FRAME,),
    "websocket": (ResourceType.WEBSOCKET,),
    "ping": (ResourceType.BEACON,),
    "beacon": (ResourceType.BEACON,),
    "media": (ResourceType.MEDIA,),
    "font": (ResourceType.FONT,),
    "other": (ResourceType.OTHER, ResourceType.CSP_REPORT),
}


@dataclass(frozen=True)
class FilterOptions:
    """Parsed ``$option`` constraints for one filter."""

    third_party: Optional[bool] = None
    include_types: FrozenSet[ResourceType] = frozenset()
    exclude_types: FrozenSet[ResourceType] = frozenset()
    include_domains: Tuple[str, ...] = ()
    exclude_domains: Tuple[str, ...] = ()

    def allows_type(self, resource_type: ResourceType) -> bool:
        if not (self.include_types or self.exclude_types):
            return True  # no type option: skip hashing the type
        if self.include_types and resource_type not in self.include_types:
            return False
        if resource_type in self.exclude_types:
            return False
        return True

    def allows_party(self, is_third_party: bool) -> bool:
        if self.third_party is None:
            return True
        return self.third_party == is_third_party

    def allows_page_domain(self, page_domain: Optional[str]) -> bool:
        if not (self.include_domains or self.exclude_domains):
            return True
        if page_domain is None:
            return not self.include_domains
        page_domain = page_domain.lower()
        if any(_domain_matches(page_domain, dom) for dom in self.exclude_domains):
            return False
        if self.include_domains:
            return any(_domain_matches(page_domain, dom) for dom in self.include_domains)
        return True


def _domain_matches(host: str, rule_domain: str) -> bool:
    return host == rule_domain or host.endswith("." + rule_domain)


@dataclass(frozen=True)
class Filter:
    """One compiled URL filter."""

    raw: str
    pattern: str
    is_exception: bool
    options: FilterOptions
    regex: "re.Pattern[str]" = field(repr=False, compare=False, default=None)  # type: ignore[assignment]
    anchor_domain: Optional[str] = None

    def matches_url(self, url: str) -> bool:
        return self.regex.search(url) is not None


def parse_filter(line: str) -> Optional[Filter]:
    """Parse one filter line; returns ``None`` for non-request rules.

    Raises :class:`~repro.errors.FilterParseError` for malformed options.
    """
    line = line.strip()
    if not line or line.startswith("!") or line.startswith("["):
        return None
    if "##" in line or "#@#" in line or "#?#" in line:
        return None  # element hiding — out of scope for request blocking
    is_exception = line.startswith("@@")
    body = line[2:] if is_exception else line
    pattern, _, options_text = body.partition("$")
    if not pattern:
        raise FilterParseError(f"empty pattern in filter: {line!r}")
    options = _parse_options(options_text, line)
    regex = re.compile(_pattern_to_regex(pattern))
    return Filter(
        raw=line,
        pattern=pattern,
        is_exception=is_exception,
        options=options,
        regex=regex,
        anchor_domain=_extract_anchor_domain(pattern),
    )


def parse_filter_list(text: str) -> List[Filter]:
    """Parse a full list document; bad lines raise, non-rules are skipped."""
    filters = []
    for line in text.splitlines():
        parsed = parse_filter(line)
        if parsed is not None:
            filters.append(parsed)
    return filters


def _parse_options(options_text: str, line: str) -> FilterOptions:
    if not options_text:
        return FilterOptions()
    third_party: Optional[bool] = None
    include_types: set = set()
    exclude_types: set = set()
    include_domains: List[str] = []
    exclude_domains: List[str] = []
    for option in options_text.split(","):
        option = option.strip()
        if not option:
            continue
        lowered = option.lower()
        if lowered == "third-party":
            third_party = True
        elif lowered == "~third-party":
            third_party = False
        elif lowered.startswith("domain="):
            for domain in option[len("domain=") :].split("|"):
                domain = domain.strip().lower()
                if domain.startswith("~"):
                    exclude_domains.append(domain[1:])
                elif domain:
                    include_domains.append(domain)
        elif lowered.startswith("~") and lowered[1:] in _TYPE_OPTIONS:
            exclude_types.update(_TYPE_OPTIONS[lowered[1:]])
        elif lowered in _TYPE_OPTIONS:
            include_types.update(_TYPE_OPTIONS[lowered])
        else:
            raise FilterParseError(f"unsupported option {option!r} in {line!r}")
    return FilterOptions(
        third_party=third_party,
        include_types=frozenset(include_types),
        exclude_types=frozenset(exclude_types),
        include_domains=tuple(include_domains),
        exclude_domains=tuple(exclude_domains),
    )


def _pattern_to_regex(pattern: str) -> str:
    """Translate an ABP pattern into a Python regex (standard translation)."""
    # Handle anchors before escaping.
    start_domain_anchor = pattern.startswith("||")
    if start_domain_anchor:
        pattern = pattern[2:]
    start_anchor = pattern.startswith("|")
    if start_anchor:
        pattern = pattern[1:]
    end_anchor = pattern.endswith("|")
    if end_anchor:
        pattern = pattern[:-1]

    out: List[str] = []
    for char in pattern:
        if char == "*":
            out.append(".*")
        elif char == "^":
            # Separator: anything but letters, digits, or _-.% — or the end.
            out.append(r"(?:[^\w\-.%]|$)")
        else:
            out.append(re.escape(char))
    body = "".join(out)
    if start_domain_anchor:
        body = r"^[a-z][a-z0-9+\-.]*://(?:[^/?#]*\.)?" + body
    elif start_anchor:
        body = "^" + body
    if end_anchor:
        body += "$"
    return body


def _extract_anchor_domain(pattern: str) -> Optional[str]:
    """The literal host prefix of a ``||domain`` pattern, for indexing."""
    if not pattern.startswith("||"):
        return None
    rest = pattern[2:]
    for index, char in enumerate(rest):
        if char in "^/*|?":
            rest = rest[:index]
            break
    return rest.lower() or None
