"""Text renderers for span flames, run profiles and alerts (no external deps,
like :mod:`repro.reporting`)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .profile import RunProfile, span_duration
from .trace import SpanRecord


def render_flame(
    records: Sequence[SpanRecord], width: int = 40, max_depth: Optional[int] = None
) -> str:
    """Flame-style text rendering: every span as an indented bar whose
    length is its share of the total root wall time.

    The bar makes hot phases visually obvious in a terminal the way a
    flame graph does in a browser; record order (start order) keeps
    parents above children, so bars read top-down as a call tree.
    """
    children: Dict[Optional[str], List[SpanRecord]] = {}
    by_id = {record.span_id: record for record in records}
    for record in records:
        parent = record.parent_id if record.parent_id in by_id else None
        children.setdefault(parent, []).append(record)
    total = sum(span_duration(record) for record in children.get(None, []))
    lines: List[str] = []

    def walk(parent: Optional[str], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        for record in children.get(parent, []):
            seconds = span_duration(record)
            share = seconds / total if total > 0 else 0.0
            bar = "█" * max(int(round(share * width)), 1 if seconds > 0 else 0)
            label = f"{'  ' * depth}{record.name} ({record.key})"
            lines.append(
                f"{label:<44} {seconds:>9.3f}s {share * 100:>5.1f}% {bar}"
            )
            walk(record.span_id, depth + 1)

    walk(None, 0)
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines)


def render_profile(profile: RunProfile) -> str:
    """Phase table: spans, op counts, seconds, share of total wall time."""
    lines = [
        f"{'phase':<16} {'spans':>7} {'ops':>9} {'seconds':>10} {'share':>7}"
    ]
    for stat in profile.phases:
        share = (
            f"{stat.seconds / profile.total_seconds * 100:.1f}%"
            if profile.total_seconds > 0
            else "-"
        )
        lines.append(
            f"{stat.phase:<16} {stat.spans:>7} {stat.ops:>9} "
            f"{stat.seconds:>10.3f} {share:>7}"
        )
    lines.append(f"total root wall time: {profile.total_seconds:.3f}s")
    return "\n".join(lines)


def render_alerts(alerts: Sequence[object]) -> str:
    """Render monitor alerts, one line each, with a severity tally.

    Accepts anything shaped like :class:`repro.obs.monitor.Alert`
    (``severity`` attribute plus a ``format()`` method), so callers can
    pass a monitor's ``alerts`` list directly.
    """
    if not alerts:
        return "(no alerts)"
    lines = [alert.format() for alert in alerts]
    tally: Dict[str, int] = {}
    for alert in alerts:
        tally[alert.severity] = tally.get(alert.severity, 0) + 1
    summary = ", ".join(f"{tally[key]} {key}" for key in sorted(tally))
    lines.append(f"{len(alerts)} alert(s): {summary}")
    return "\n".join(lines)
