"""Span tracing with deterministic span ids and injectable time.

A :class:`Span` is one timed unit of pipeline work (a crawl stage, one
site, one experiment); spans nest via a per-tracer stack, forming a tree.
Two properties make traces from this module *auditable* rather than
merely decorative:

* **Deterministic identity.**  A span id is
  ``derive_seed(tracer seed, "span", key, occurrence)`` — a pure function
  of the experiment seed and the span's logical identity, never of memory
  addresses, PIDs, or wall clock.  Instrumentation passes a unique ``key``
  (``site:42``, ``experiment:table2``); the occurrence counter only
  disambiguates genuinely repeated keys.
* **Injectable time.**  Timestamps come from a
  :class:`repro.devtools.clock.Clock`.  Under :class:`FakeClock` the whole
  trace — ids, timestamps, order — is byte-identical at any worker count,
  which is exactly what the determinism tests pin.

Sharded workers record into private tracers (no active parent span, so
their site spans are roots); the parent re-attaches those subtrees under
its own crawl span with :meth:`Tracer.adopt`, in schedule order, making
the final trace independent of shard layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..devtools.clock import Clock, SystemClock
from ..errors import ObsError, ReproError
from ..rng import derive_seed

AttrValue = Union[str, int, float, bool]


@dataclass
class SpanRecord:
    """One completed (or in-flight) span.  Picklable for worker transport."""

    span_id: str
    parent_id: Optional[str]
    name: str
    key: str
    start: float
    end: float = 0.0
    attrs: Dict[str, AttrValue] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> str:
        payload = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "key": self.key,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "SpanRecord":
        try:
            payload = json.loads(line)
            return cls(
                span_id=payload["span_id"],
                parent_id=payload["parent_id"],
                name=payload["name"],
                key=payload["key"],
                start=payload["start"],
                end=payload["end"],
                attrs=dict(payload["attrs"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ObsError(f"malformed trace line: {line!r} ({exc})") from exc


class Span:
    """Context-manager handle over an open :class:`SpanRecord`."""

    __slots__ = ("_tracer", "record")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self.record = record

    @property
    def span_id(self) -> str:
        return self.record.span_id

    def set(self, name: str, value: AttrValue) -> None:
        """Attach an attribute; keep values deterministic (no PIDs/paths)."""
        self.record.attrs[name] = value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "status" not in self.record.attrs:
            self.record.attrs["status"] = "error"
            if isinstance(exc, ReproError):
                reason = (
                    getattr(exc, "failure_reason", "")
                    or getattr(exc, "reason", "")
                    or type(exc).__name__
                )
                self.record.attrs["failure_reason"] = reason
            else:
                self.record.attrs["error"] = type(exc).__name__
        self._tracer._finish(self, unwind=exc is not None)


class NullSpan:
    """The shared no-op span a disabled tracer hands out."""

    __slots__ = ()
    span_id = ""

    def set(self, name: str, value: AttrValue) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = NullSpan()


class Tracer:
    """Records spans for one process (or one shard worker).

    ``seed`` feeds span-id derivation; instrumented code receives the
    experiment seed so traces of the same experiment are comparable
    run-to-run.  ``clock`` defaults to the sanctioned
    :class:`SystemClock`; tests inject :class:`FakeClock`.
    """

    def __init__(
        self,
        seed: int = 0,
        clock: Optional[Clock] = None,
        enabled: bool = True,
    ) -> None:
        self.seed = seed
        self.clock = clock if clock is not None else SystemClock()
        self.enabled = enabled
        self.records: List[SpanRecord] = []
        self._stack: List[SpanRecord] = []
        self._occurrences: Dict[str, int] = {}

    @classmethod
    def disabled(cls) -> "Tracer":
        return cls(enabled=False)

    # -- recording ---------------------------------------------------------

    def span(
        self, name: str, key: Optional[str] = None, **attrs: AttrValue
    ) -> Union[Span, NullSpan]:
        """Open a span; use as ``with tracer.span("crawl", key="crawl"):``.

        ``key`` is the span's stable identity (defaults to ``name``); give
        every distinct unit of work a distinct key so ids stay pure
        functions of the plan rather than of execution order.
        """
        if not self.enabled:
            return _NULL_SPAN
        span_key = key if key is not None else name
        occurrence = self._occurrences.get(span_key, 0)
        self._occurrences[span_key] = occurrence + 1
        record = SpanRecord(
            span_id=f"{derive_seed(self.seed, 'span', span_key, occurrence):016x}",
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            key=span_key,
            start=self.clock.now(),
            attrs=dict(attrs),
        )
        # Records live in *start* order: parents precede children, and the
        # order matches the deterministic schedule, not completion races.
        self.records.append(record)
        self._stack.append(record)
        return Span(self, record)

    def _finish(self, span: Span, unwind: bool = False) -> None:
        """Close ``span``; with ``unwind`` (exception exits), also close any
        descendants the exception left open, marking them ``status="error"``.

        Spans are appended to :attr:`records` when they *open*, so a span
        abandoned by an exception is never dropped from the JSONL — but
        without unwinding it would stay open (``end == 0``) and poison the
        stack for every later close.
        """
        record = span.record
        if not any(entry is record for entry in self._stack):
            raise ObsError(
                f"span {record.key!r} closed out of order; spans must "
                "nest (use `with` blocks)"
            )
        if self._stack[-1] is not record and not unwind:
            raise ObsError(
                f"span {record.key!r} closed out of order; spans must "
                "nest (use `with` blocks)"
            )
        now = self.clock.now()
        while self._stack[-1] is not record:
            abandoned = self._stack.pop()
            abandoned.end = now
            abandoned.attrs.setdefault("status", "error")
        record.end = now
        self._stack.pop()

    def current_span_id(self) -> Optional[str]:
        return self._stack[-1].span_id if self._stack else None

    # -- shard transport ---------------------------------------------------

    def adopt(
        self, records: Sequence[SpanRecord], parent_id: Optional[str] = None
    ) -> None:
        """Append a worker's records, re-parenting its roots under
        ``parent_id`` (default: the currently open span).

        Callers adopt shard subtrees in schedule order so the final record
        list matches what a serial run would have produced.
        """
        if not self.enabled:
            return
        if parent_id is None:
            parent_id = self.current_span_id()
        for record in records:
            if record.parent_id is None:
                record.parent_id = parent_id
            self.records.append(record)

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, in record (start) order."""
        return "".join(record.to_json() + "\n" for record in self.records)

    def write_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self.records)


def read_jsonl(path: str) -> List[SpanRecord]:
    """Load a trace written by :meth:`Tracer.write_jsonl`."""
    records: List[SpanRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(SpanRecord.from_json(line))
    return records


def split_roots(records: Sequence[SpanRecord]) -> List[List[SpanRecord]]:
    """Group a flat record list into contiguous root-led subtrees.

    Spans nest via a stack, so each root's descendants directly follow it;
    the commander uses this to file a shard's per-site subtrees by rank.
    """
    groups: List[List[SpanRecord]] = []
    for record in records:
        if record.parent_id is None or not groups:
            groups.append([record])
        else:
            groups[-1].append(record)
    return groups
