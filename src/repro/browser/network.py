"""Instrumentation records emitted by a page visit.

These mirror the OpenWPM tables the paper consumes: ``http_requests``
(with frame ids and call stacks), ``http_redirects``, ``javascript_cookies``,
and the visit bookkeeping table.  Everything downstream — storage, tree
building, analysis — works from these records only, never from blueprint
internals, so the analysis honestly reconstructs structure from observed
traffic as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .callstack import CallStack, EMPTY_STACK


@dataclass(frozen=True)
class RequestRecord:
    """One observed HTTP(S)/WebSocket request."""

    request_id: int
    visit_id: int
    url: str
    top_level_url: str
    resource_type: str
    frame_id: int
    parent_frame_id: Optional[int]
    timestamp: float
    call_stack: CallStack = EMPTY_STACK
    redirect_from: Optional[int] = None
    during_interaction: bool = False


@dataclass(frozen=True)
class ResponseRecord:
    """The response observed for one request (status + headers)."""

    visit_id: int
    request_id: int
    status: int
    headers: Tuple[Tuple[str, str], ...] = ()

    def header(self, name: str) -> Optional[str]:
        """Case-insensitive single-header lookup."""
        lowered = name.lower()
        for key, value in self.headers:
            if key.lower() == lowered:
                return value
        return None


@dataclass(frozen=True)
class RedirectRecord:
    """One HTTP redirect hop: request ``from_request_id`` became ``to_request_id``."""

    visit_id: int
    from_request_id: int
    to_request_id: int
    from_url: str
    to_url: str
    status: int = 302


@dataclass(frozen=True)
class CookieRecord:
    """A cookie as observed at the end of a visit."""

    visit_id: int
    name: str
    domain: str
    path: str
    value: str
    secure: bool
    http_only: bool
    same_site: str
    set_by_url: str

    @property
    def identity(self) -> Tuple[str, str, str]:
        return (self.name, self.domain, self.path)


@dataclass(frozen=True)
class VisitRecord:
    """Bookkeeping for one page visit by one profile."""

    visit_id: int
    profile_name: str
    site: str
    site_rank: int
    page_url: str
    success: bool
    started_at: float
    duration: float
    failure_reason: Optional[str] = None
    #: 1-based attempt number; >1 means the retry layer re-ran the visit.
    attempt: int = 1
    #: A failed stall-timeout visit whose pre-deadline traffic was kept.
    partial: bool = False


@dataclass(frozen=True)
class VisitResult:
    """Everything one visit produced."""

    visit: VisitRecord
    requests: Tuple[RequestRecord, ...] = ()
    responses: Tuple[ResponseRecord, ...] = ()
    redirects: Tuple[RedirectRecord, ...] = ()
    cookies: Tuple[CookieRecord, ...] = ()

    @property
    def success(self) -> bool:
        return self.visit.success

    def request_count(self) -> int:
        return len(self.requests)


@dataclass
class RequestIdAllocator:
    """Hands out monotonically increasing request ids within a visit."""

    next_id: int = field(default=1)

    def allocate(self) -> int:
        rid = self.next_id
        self.next_id += 1
        return rid
