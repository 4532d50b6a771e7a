"""Reporters: render violations as text or machine-readable JSON.

The JSON document is versioned so CI consumers can detect format drift::

    {
      "version": 1,
      "files_checked": 96,
      "violation_count": 2,
      "counts": {"DET004": 1, "SQL002": 1},
      "violations": [
        {"path": "...", "line": 10, "col": 4, "rule": "DET004",
         "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Sequence

from .framework import Violation


def rule_counts(violations: Sequence[Violation]) -> Dict[str, int]:
    return dict(sorted(Counter(v.rule_id for v in violations).items()))


def render_text(violations: Sequence[Violation], files_checked: int) -> str:
    """One line per violation, then a summary (and per-rule counts)."""
    if not violations:
        return f"ok: {files_checked} file(s) clean"
    lines = [violation.format() for violation in violations]
    lines.append("")
    counts = rule_counts(violations)
    lines.extend(f"  {rule_id}: {count}" for rule_id, count in counts.items())
    affected = len({violation.path for violation in violations})
    lines.append(
        f"{len(violations)} violation(s) in {affected} of {files_checked} file(s)"
    )
    return "\n".join(lines)


JSON_REPORT_VERSION = 1


def render_json(violations: Sequence[Violation], files_checked: int) -> str:
    document = {
        "version": JSON_REPORT_VERSION,
        "files_checked": files_checked,
        "violation_count": len(violations),
        "counts": rule_counts(violations),
        "violations": [
            {
                "path": violation.path,
                "line": violation.line,
                "col": violation.col,
                "rule": violation.rule_id,
                "message": violation.message,
            }
            for violation in violations
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)
