"""Deterministic event bus for live crawl telemetry.

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
* **Deterministic payloads.**  Payload values are columns of the stored
  visit (simulated durations, outcome flags) — never wall-clock
  readings, PIDs, or paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional

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
    """Publish/subscribe bus: subscribers are dispatched synchronously, in
    subscription order, for every published event.

    The stream keeps no events: the store holds the visits they were
    built from (:func:`~repro.obs.monitor.events_from_store` reads them
    back).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._subscribers: List[Callable[[StreamEvent], None]] = []

    @classmethod
    def disabled(cls) -> "EventStream":
        return cls(enabled=False)

    def subscribe(self, callback: Callable[[StreamEvent], None]) -> None:
        """Register a consumer called for every published event."""
        self._subscribers.append(callback)

    def publish(self, event: StreamEvent) -> bool:
        """Dispatch ``event``; returns whether the stream is enabled."""
        if not self.enabled:
            return False
        for callback in self._subscribers:
            callback(event)
        return True
