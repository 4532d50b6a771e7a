"""The run ledger: an append-only, content-addressed registry of runs.

The paper's thesis is that measurement results shift under different
experimental setups; this module keeps the durable evidence for *our own*
setups.  Every instrumented run — a ``Commander`` crawl, a full
``run_pipeline``, a bundle replay, a benchmark — appends one
:class:`RunRecord` describing its provenance, its per-phase profile, its
metrics, and its outcome summary, so any two runs (or a run and
the archive it claims to reproduce) can be diffed later.

Layout of a ledger directory::

    LEDGER.jsonl             # append-only index, one JSON line per append
    records/<run_id>.json    # full records, content-addressed

A record is split into two sections with different comparison rules:

* ``deterministic`` — seed, resolved-config hash, profile set,
  filter-list version, store schema + code versions, bundle identity,
  the metrics snapshot, per-profile outcomes, and per-phase
  span/op counts.  Two runs of the same seed and config must agree here
  *byte for byte*, at any worker count; any delta is drift.
* ``measured`` — wall seconds per phase, visits/sec, peak RSS.  Real
  numbers on a real clock; compared by ratio against thresholds, never
  by equality.  Under ``FakeClock`` every measured field is itself a
  pure function of the plan, so whole records become byte-identical and
  content addressing deduplicates re-runs.

``run_id`` is the SHA-256 of the record's canonical JSON;
``provenance_id`` hashes the deterministic section alone, so re-runs of
one setup share a provenance id even when their measured numbers differ.
The index is append-only: re-appending an identical record adds an index
line but no new object, preserving the "this ran again" event without
duplicating content.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .. import __version__
from ..devtools.clock import FakeClock
from ..errors import LedgerError
from .profile import RunProfile, build_profile, peak_rss_kb
from .trace import SpanRecord

#: Ledger record schema generation.  Additive fields may ride within a
#: version; bump on any change that alters the meaning or shape of
#: existing fields.  Readers reject records from a newer schema.
LEDGER_SCHEMA_VERSION = 1

#: The run kinds the stack appends (free-form strings are allowed, but
#: diffs warn when kinds differ).
RUN_KINDS = ("benchmark", "crawl", "diff", "pipeline", "replay")

_INDEX_NAME = "LEDGER.jsonl"
_RECORDS_DIR = "records"

#: A run id: the SHA-256 hex digest naming a file under ``records/``.
_RUN_ID_PATTERN = re.compile(r"[0-9a-f]{64}")

PathLike = Union[str, Path]


def canonical_json(payload: object) -> str:
    """The one serialization hashes and byte-comparisons are defined over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    )


def content_hash(payload: object) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def config_hash(config: Mapping[str, object]) -> str:
    """The identity of a resolved configuration.

    Callers must pass the *resolved* config — every knob that changes
    what is measured — and must exclude execution-layout knobs
    (``workers``, ``jobs``) that the determinism contract guarantees
    cannot change any result.
    """
    return content_hash(dict(config))


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: the durable description of one run.

    ``alerts`` holds the monitor's findings (see
    :mod:`repro.obs.monitor`) in emission order.  Alerts are pure
    functions of the deterministic event stream, so the section is
    byte-compared by :func:`diff_records` like the deterministic
    section; it is serialized only when non-empty so records written
    before the monitor existed keep their run ids.
    """

    kind: str
    label: str
    deterministic: Mapping[str, object]
    measured: Mapping[str, object]
    alerts: Tuple[Mapping[str, object], ...] = ()
    ledger_schema: int = LEDGER_SCHEMA_VERSION

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "ledger_schema": self.ledger_schema,
            "kind": self.kind,
            "label": self.label,
            "deterministic": dict(self.deterministic),
            "measured": dict(self.measured),
        }
        if self.alerts:
            payload["alerts"] = [dict(alert) for alert in self.alerts]
        return payload

    @property
    def run_id(self) -> str:
        return content_hash(self.to_payload())

    @property
    def provenance_id(self) -> str:
        return content_hash(dict(self.deterministic))

    def deterministic_json(self) -> str:
        """Canonical bytes of the deterministic section (what determinism
        tests compare and ``provenance_id`` hashes)."""
        return canonical_json(dict(self.deterministic))

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RunRecord":
        try:
            schema = int(payload["ledger_schema"])
            if schema > LEDGER_SCHEMA_VERSION:
                raise LedgerError(
                    f"record has ledger schema {schema}; this code reads "
                    f"up to {LEDGER_SCHEMA_VERSION}"
                )
            deterministic = payload["deterministic"]
            measured = payload["measured"]
            if not isinstance(deterministic, dict) or not isinstance(measured, dict):
                raise LedgerError("record sections must be JSON objects")
            alerts = payload.get("alerts", [])
            if not isinstance(alerts, list) or not all(
                isinstance(alert, dict) for alert in alerts
            ):
                raise LedgerError("alerts section must be a list of objects")
            return cls(
                kind=str(payload["kind"]),
                label=str(payload["label"]),
                deterministic=deterministic,
                measured=measured,
                alerts=tuple(alerts),
                ledger_schema=schema,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed run record: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise LedgerError(f"run record is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise LedgerError("run record is not a JSON object")
        return cls.from_payload(payload)


def build_run_record(
    kind: str,
    *,
    seed: int,
    config: Mapping[str, object],
    obs,
    records: Optional[Sequence[SpanRecord]] = None,
    label: str = "",
    primary_phase: Optional[str] = None,
    outcomes: Optional[Mapping[str, object]] = None,
    filter_list_version: str = "",
    store_schema_version: int = 0,
    bundle_digest: str = "",
    extra_measured: Optional[Mapping[str, object]] = None,
) -> RunRecord:
    """Assemble a :class:`RunRecord` from one run's telemetry.

    ``records`` is the span slice belonging to *this* run (callers note
    ``len(tracer.records)`` before starting and slice after), so a crawl
    nested inside a pipeline does not absorb the enclosing — still open —
    pipeline span.  ``primary_phase`` names the span whose summed
    duration is the run's wall clock (default: closed root spans of the
    slice).  ``config`` must already exclude worker/job counts — see
    :func:`config_hash`.  ``outcomes`` is the run's store fold,
    :meth:`~repro.crawler.storage.MeasurementStore.outcomes`.  The
    ``alerts`` section is what ``obs.monitor`` has raised so far, if a
    monitor is attached.

    ``extra_measured`` merges additional keys into the *measured*
    section only — execution-layout observations (e.g. the streaming
    pipeline's overlap timings) belong there, never in the deterministic
    section, whose bytes must be layout-independent.
    """
    if records is None:
        records = obs.tracer.records
    profile: RunProfile = build_profile(records)
    deterministic: Dict[str, object] = {
        "seed": seed,
        "config": dict(config),
        "config_hash": config_hash(config),
        "code_version": __version__,
        "store_schema_version": store_schema_version,
        "filter_list_version": filter_list_version,
        "bundle_digest": bundle_digest,
        "metrics": obs.metrics.as_dict() if obs.metrics.enabled else {},
        "outcomes": dict(outcomes) if outcomes else {},
        "phases": profile.deterministic_rows(),
    }
    fake_clock = isinstance(obs.tracer.clock, FakeClock)
    wall_seconds = (
        profile.seconds_for(primary_phase)
        if primary_phase is not None
        else profile.total_seconds
    )
    crawl_ops = profile.ops_for("crawl")
    measured: Dict[str, object] = {
        "clock": "fake" if fake_clock else "system",
        "wall_seconds": round(wall_seconds, 6),
        "phase_seconds": profile.phase_seconds(),
        "visits_per_second": (
            round(crawl_ops / wall_seconds, 2) if wall_seconds > 0 else 0.0
        ),
        "peak_rss_kb": 0 if fake_clock else peak_rss_kb(),
    }
    if extra_measured:
        measured.update(dict(extra_measured))
    return RunRecord(
        kind=kind,
        label=label,
        deterministic=deterministic,
        measured=measured,
        alerts=(
            tuple(obs.monitor.alerts_payload()) if obs.monitor is not None else ()
        ),
    )


@dataclass(frozen=True)
class LedgerEntry:
    """One index line: enough to list and select runs without loading them."""

    seq: int
    run_id: str
    kind: str
    label: str
    seed: int
    config_hash: str
    provenance_id: str
    #: Monitor alert count (0 for records written before the monitor, or
    #: for unmonitored runs); surfaces "this run alerted" in listings
    #: without loading the record object.
    alerts: int = 0

    def to_payload(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "provenance_id": self.provenance_id,
            "alerts": self.alerts,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "LedgerEntry":
        """Parse one index line; a ``run_id`` that is not a SHA-256 hex
        digest is rejected, so no index line can name a path outside
        ``records/``."""
        try:
            run_id = str(payload["run_id"])
            if not _RUN_ID_PATTERN.fullmatch(run_id):
                raise LedgerError(f"ledger index names a malformed run id {run_id!r}")
            return cls(
                seq=int(payload["seq"]),
                run_id=run_id,
                kind=str(payload["kind"]),
                label=str(payload["label"]),
                seed=int(payload["seed"]),
                config_hash=str(payload["config_hash"]),
                provenance_id=str(payload["provenance_id"]),
                alerts=int(payload.get("alerts", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LedgerError(f"malformed ledger index line: {exc}") from exc


class RunLedger:
    """A ledger directory: append records, list the index, load by id.

    Only the parent process of a run appends (workers report telemetry to
    the parent, which owns the record), so appends are serial per ledger;
    record objects are written atomically and the index is append-only.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        (self.root / _RECORDS_DIR).mkdir(parents=True, exist_ok=True)

    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_NAME

    def record_path(self, run_id: str) -> Path:
        return self.root / _RECORDS_DIR / f"{run_id}.json"

    # -- append ------------------------------------------------------------

    def append(self, record: RunRecord) -> str:
        """Append ``record``; returns its run id.

        The record object is content-addressed (an identical re-run adds
        no new object file); the index line is always appended — the
        index is the event log, the objects are the content store.
        """
        run_id = record.run_id
        object_path = self.record_path(run_id)
        if not object_path.exists():
            tmp_path = object_path.with_name(f"{run_id}.tmp-{os.getpid()}")
            tmp_path.write_text(record.to_json(), encoding="utf-8")
            os.replace(tmp_path, object_path)
        seed = record.deterministic.get("seed", 0)
        entry = LedgerEntry(
            seq=len(self),
            run_id=run_id,
            kind=record.kind,
            label=record.label,
            seed=seed if isinstance(seed, int) else 0,
            config_hash=str(record.deterministic.get("config_hash", "")),
            provenance_id=record.provenance_id,
            alerts=len(record.alerts),
        )
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(entry.to_payload()) + "\n")
        return run_id

    # -- read --------------------------------------------------------------

    def entries(self) -> List[LedgerEntry]:
        """All index entries, oldest first."""
        if not self.index_path.is_file():
            return []
        entries: List[LedgerEntry] = []
        with open(self.index_path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError as exc:
                    raise LedgerError(
                        f"ledger index line {line_number} is not valid "
                        f"JSON: {exc}"
                    ) from exc
                entries.append(LedgerEntry.from_payload(payload))
        return entries

    def __len__(self) -> int:
        return len(self.entries())

    def resolve(self, ref: str) -> LedgerEntry:
        """Resolve a run reference to an index entry.

        ``ref`` is ``latest``, ``prev`` (the latest earlier run matching
        the latest run's kind and label), or a unique run-id prefix.
        """
        entries = self.entries()
        if not entries:
            raise LedgerError(f"ledger {self.root} is empty")
        if ref == "latest":
            return entries[-1]
        if ref == "prev":
            previous = self.previous_matching(entries[-1])
            if previous is None:
                raise LedgerError(
                    f"no earlier {entries[-1].kind!r} run to compare against"
                )
            return previous
        matches = sorted(
            {
                entry.run_id: entry
                for entry in entries
                if entry.run_id.startswith(ref)
            }.values(),
            key=lambda entry: entry.seq,
        )
        if not matches:
            raise LedgerError(f"no run matches {ref!r}")
        if len(matches) > 1:
            raise LedgerError(
                f"run reference {ref!r} is ambiguous "
                f"({len(matches)} matches); use a longer prefix"
            )
        return matches[-1]

    def previous_matching(self, entry: LedgerEntry) -> Optional[LedgerEntry]:
        """The most recent earlier run of the same kind and label —
        the natural drift baseline for ``entry``."""
        candidates = [
            other
            for other in self.entries()
            if other.seq < entry.seq
            and other.kind == entry.kind
            and other.label == entry.label
        ]
        return candidates[-1] if candidates else None

    def load(self, ref: str) -> RunRecord:
        """Load the full record for a run reference (see :meth:`resolve`)."""
        entry = self.resolve(ref)
        path = self.record_path(entry.run_id)
        if not path.is_file():
            raise LedgerError(
                f"ledger object missing for run {entry.run_id[:12]} "
                f"(index has it; records/ does not)"
            )
        record = RunRecord.from_json(path.read_text("utf-8"))
        if record.run_id != entry.run_id:
            raise LedgerError(
                f"run {entry.run_id[:12]} failed its content check: "
                f"stored record hashes to {record.run_id[:12]}"
            )
        return record


# -- diff -------------------------------------------------------------------

#: Rendered stand-in for a field present on only one side of a diff.
ABSENT = "<absent>"


@dataclass(frozen=True)
class DiffThresholds:
    """Regression gates for the measured section (ratios, live/recorded)."""

    wall_ratio: float = 1.25
    phase_ratio: float = 1.50
    rss_ratio: float = 1.50


@dataclass(frozen=True)
class FieldDelta:
    """One deterministic field that differs between two records."""

    key: str
    recorded: object
    live: object


@dataclass(frozen=True)
class MeasuredDelta:
    """One measured quantity compared by ratio against a threshold."""

    key: str
    recorded: float
    live: float
    threshold: float

    @property
    def ratio(self) -> float:
        return self.live / self.recorded if self.recorded > 0 else 0.0

    @property
    def regression(self) -> bool:
        return self.recorded > 0 and self.ratio > self.threshold


@dataclass(frozen=True)
class LedgerDiff:
    """Cross-run drift report: deterministic deltas + measured ratios."""

    recorded_id: str
    live_id: str
    kind: str
    drift: Tuple[FieldDelta, ...] = ()
    measured: Tuple[MeasuredDelta, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        """No deterministic drift (measured ratios are judged separately)."""
        return not self.drift

    @property
    def regressions(self) -> List[MeasuredDelta]:
        return [delta for delta in self.measured if delta.regression]

    @property
    def gate_ok(self) -> bool:
        """What ``repro-obs diff --gate`` exits on."""
        return self.clean and not self.regressions

    def render(self, max_drift_lines: int = 20) -> str:
        lines = [
            f"ledger diff: {self.recorded_id[:12]} (recorded) vs "
            f"{self.live_id[:12]} (live), kind={self.kind}"
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.drift:
            lines.append(f"deterministic: {len(self.drift)} drifting field(s)")
            for delta in self.drift[:max_drift_lines]:
                lines.append(
                    f"  {delta.key}: {delta.recorded!r} -> {delta.live!r}"
                )
            hidden = len(self.drift) - max_drift_lines
            if hidden > 0:
                lines.append(f"  … and {hidden} more")
        else:
            lines.append("deterministic: identical")
        for delta in self.measured:
            if delta.recorded <= 0 and delta.live <= 0:
                continue
            status = f"REGRESSION (> {delta.threshold:g}x)" if delta.regression else "ok"
            lines.append(
                f"  {delta.key}: {delta.recorded:g} -> {delta.live:g} "
                f"(x{delta.ratio:.2f}) {status}"
            )
        lines.append("gate: ok" if self.gate_ok else "gate: FAIL")
        return "\n".join(lines)


def _flatten(value: object, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            child_prefix = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], child_prefix, out)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _flatten(item, f"{prefix}[{index}]", out)
    else:
        out[prefix] = value


def flatten_section(section: Mapping[str, object]) -> Dict[str, object]:
    """Dotted-key scalar view of a record section (diffing unit)."""
    out: Dict[str, object] = {}
    _flatten(dict(section), "", out)
    return out


def diff_records(
    recorded: RunRecord,
    live: RunRecord,
    thresholds: Optional[DiffThresholds] = None,
) -> LedgerDiff:
    """Compare two run records: byte-rules for the deterministic section,
    ratio-rules for the measured one.

    ``recorded`` is the baseline (older run / archived bundle replay),
    ``live`` the candidate.  Kind or clock-mode mismatches do not fail
    the diff but are surfaced as notes — comparing a fake-clock record's
    timings against a real-clock record's is meaningless, so measured
    comparisons are skipped in that case.
    """
    thresholds = thresholds if thresholds is not None else DiffThresholds()
    notes: List[str] = []
    if recorded.kind != live.kind:
        notes.append(
            f"comparing different run kinds: {recorded.kind!r} vs {live.kind!r}"
        )
    flat_recorded = flatten_section(recorded.deterministic)
    flat_live = flatten_section(live.deterministic)
    # Alerts are deterministic (pure functions of the event stream), so
    # they drift-compare byte-for-byte alongside the deterministic section.
    flat_recorded.update(flatten_section({"alerts": list(recorded.alerts)}))
    flat_live.update(flatten_section({"alerts": list(live.alerts)}))
    drift: List[FieldDelta] = []
    for key in sorted(set(flat_recorded) | set(flat_live)):
        recorded_value = flat_recorded.get(key, ABSENT)
        live_value = flat_live.get(key, ABSENT)
        if recorded_value != live_value:
            drift.append(
                FieldDelta(key=key, recorded=recorded_value, live=live_value)
            )
    measured: List[MeasuredDelta] = []
    recorded_clock = recorded.measured.get("clock")
    live_clock = live.measured.get("clock")
    if recorded_clock != live_clock:
        notes.append(
            f"clock modes differ ({recorded_clock} vs {live_clock}); "
            "measured comparison skipped"
        )
    else:
        measured.append(
            MeasuredDelta(
                key="wall_seconds",
                recorded=float(recorded.measured.get("wall_seconds", 0.0)),
                live=float(live.measured.get("wall_seconds", 0.0)),
                threshold=thresholds.wall_ratio,
            )
        )
        recorded_phases = recorded.measured.get("phase_seconds", {})
        live_phases = live.measured.get("phase_seconds", {})
        if isinstance(recorded_phases, dict) and isinstance(live_phases, dict):
            for phase in sorted(set(recorded_phases) & set(live_phases)):
                measured.append(
                    MeasuredDelta(
                        key=f"phase_seconds.{phase}",
                        recorded=float(recorded_phases[phase]),
                        live=float(live_phases[phase]),
                        threshold=thresholds.phase_ratio,
                    )
                )
        measured.append(
            MeasuredDelta(
                key="peak_rss_kb",
                recorded=float(recorded.measured.get("peak_rss_kb", 0)),
                live=float(live.measured.get("peak_rss_kb", 0)),
                threshold=thresholds.rss_ratio,
            )
        )
    return LedgerDiff(
        recorded_id=recorded.run_id,
        live_id=live.run_id,
        kind=live.kind,
        drift=tuple(drift),
        measured=tuple(measured),
        notes=tuple(notes),
    )
