"""Bounded, deterministic event bus for live crawl telemetry.

The stream is the in-flight view of the crawl's stored visits: one
``visit`` :class:`StreamEvent` per stored visit row, built by
:func:`visit_event`, flows through an :class:`EventStream` to the
rolling-window detectors in :mod:`repro.obs.monitor`.

Determinism contract (extends DESIGN §6):

* **Stored visits in visit-id order.**  A serial crawl publishes each
  site's visits right after storing the site's batch, sorted by visit
  id; a sharded crawl publishes the merged store's visits after the
  shard merge; a recorded crawl (a db or a bundle replay) publishes its
  store's visits.  All three read the same rows in the same order, so
  the sequence is byte-identical whether the crawl ran serially,
  sharded, or was replayed.
* **Scoped bounds.**  The bus is bounded *per scope* (one scope per site
  rank), never globally, so "which events survive" is a pure function
  of that site's own event sequence.
* **Deterministic payloads.**  Payload values are columns of the stored
  visit (simulated durations, outcome flags) — never wall-clock
  readings, PIDs, or paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Per-scope event capacity.  One scope is one site; the cap bounds
#: memory per site independently of shard layout.
DEFAULT_SCOPE_CAPACITY = 10_000

#: Scope key used for events that are not tied to a site rank.
RUN_SCOPE = "run"

#: The kind of the event published per stored visit.
KIND_VISIT = "visit"


@dataclass(frozen=True)
class StreamEvent:
    """One telemetry event.

    ``site_rank`` is ``None`` for events not tied to a site.
    ``payload`` must hold JSON-safe, deterministic values only.
    """

    kind: str
    site_rank: Optional[int] = None
    profile: str = ""
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_json(self) -> str:
        body = {
            "kind": self.kind,
            "site_rank": self.site_rank,
            "profile": self.profile,
            "payload": dict(self.payload),
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))


def visit_event(visit) -> StreamEvent:
    """The ``visit`` event for one stored visit (a ``VisitRecord``)."""
    return StreamEvent(
        kind=KIND_VISIT,
        site_rank=visit.site_rank,
        profile=visit.profile_name,
        payload={
            "visit_id": visit.visit_id,
            "page": visit.page_url,
            "success": visit.success,
            "reason": visit.failure_reason,
            "seconds": round(visit.duration, 6),
            "attempt": visit.attempt,
            "partial": visit.partial,
        },
    )


class EventStream:
    """Bounded publish/subscribe bus with per-scope drop accounting.

    Subscribers are dispatched synchronously, in subscription order, for
    every accepted event; dropped events (scope over capacity) are
    counted per scope and never dispatched.  :attr:`events` buffers every
    accepted event.
    """

    def __init__(
        self,
        enabled: bool = True,
        scope_capacity: int = DEFAULT_SCOPE_CAPACITY,
    ) -> None:
        self.enabled = enabled
        self.scope_capacity = scope_capacity
        self.events: List[StreamEvent] = []
        self.dropped: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        self._subscribers: List[Callable[[StreamEvent], None]] = []

    @classmethod
    def disabled(cls) -> "EventStream":
        return cls(enabled=False)

    def subscribe(self, callback: Callable[[StreamEvent], None]) -> None:
        """Register a consumer called for every accepted event."""
        self._subscribers.append(callback)

    @staticmethod
    def scope_key(event: StreamEvent) -> str:
        return RUN_SCOPE if event.site_rank is None else str(event.site_rank)

    def publish(self, event: StreamEvent) -> bool:
        """Accept (dispatch + buffer) or drop ``event``.

        Returns ``True`` when the event was accepted.  The decision is a
        pure function of the event's scope and that scope's prior event
        count, so serial and sharded runs drop identically.
        """
        if not self.enabled:
            return False
        scope = self.scope_key(event)
        seen = self._counts.get(scope, 0)
        if seen >= self.scope_capacity:
            self.dropped[scope] = self.dropped.get(scope, 0) + 1
            return False
        self._counts[scope] = seen + 1
        self.events.append(event)
        for callback in self._subscribers:
            callback(event)
        return True

    def dropped_total(self) -> int:
        return sum(self.dropped.values())

    def counts(self) -> Tuple[Tuple[str, int], ...]:
        """Deterministic (scope, accepted-count) view, sorted by scope."""
        return tuple((scope, self._counts[scope]) for scope in sorted(self._counts))
