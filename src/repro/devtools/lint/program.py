"""``lint_project``: the rules over every file, then suppression accounting.

Every file is read with tokenize-style encoding detection, parsed once
and run through the rules, fanned out over ``jobs`` processes.  The
parent then drops suppressed findings and reports every suppression that
silences nothing as ``SUP002`` (stale suppression): its rule *ran but
did not fire* on its line, or it names no registered rule.

Unparseable files degrade, never abort: a syntax error yields ``SYN001``
and a file deleted between discovery and parse yields ``IO001``.
Findings from every other file are unaffected.
"""

from __future__ import annotations

import io
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...errors import LintError
from .framework import (
    IO_RULE_ID,
    SYNTAX_RULE_ID,
    Suppression,
    Violation,
    apply_suppressions,
    build_rules,
    check_source,
    stale_suppression_violations,
)
from .walker import collect_files


def decode_python_source(data: bytes) -> str:
    """Decode source bytes honoring BOMs and coding declarations."""
    encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
    return data.decode(encoding)


@dataclass
class FileAnalysis:
    """Everything the rules produced for one file (picklable)."""

    path: str
    raw: List[Violation] = field(default_factory=list)
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    parse_failed: bool = False


def _unanalyzable(path: str, rule_id: str, message: str) -> FileAnalysis:
    violation = Violation(path=path, line=1, col=0, rule_id=rule_id, message=message)
    return FileAnalysis(path=path, raw=[violation], parse_failed=True)


def _analyze_one(task: Tuple[str, Optional[Tuple[str, ...]]]) -> FileAnalysis:
    """Analysis of one file; module-level so workers can pickle it.

    A file that vanishes (or loses read permission) between discovery
    and parse is *reported* as ``IO001`` rather than aborting the run:
    races against concurrent editors must not cost the findings from
    every other file.
    """
    path, rule_ids = task
    try:
        source = decode_python_source(Path(path).read_bytes())
    except OSError as exc:
        return _unanalyzable(path, IO_RULE_ID, f"file vanished or unreadable: {exc}")
    except (SyntaxError, UnicodeDecodeError, LookupError) as exc:
        return _unanalyzable(path, SYNTAX_RULE_ID, f"file does not decode: {exc}")
    checked = check_source(source, path=path, rules=build_rules(select=rule_ids))
    return FileAnalysis(
        path=path,
        raw=checked.raw,
        suppressions=checked.suppressions,
        parse_failed=checked.tree is None,
    )


def analyze_paths(
    files: Sequence[Path],
    rule_ids: Optional[Tuple[str, ...]] = None,
    jobs: int = 1,
) -> List[FileAnalysis]:
    """Analyze ``files``, fanning out across ``jobs`` processes."""
    if jobs < 1:
        raise LintError(f"jobs must be >= 1, got {jobs}")
    tasks = [(str(path), rule_ids) for path in files]
    if jobs == 1 or len(tasks) < 2:
        return [_analyze_one(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_analyze_one, tasks, chunksize=4))


@dataclass
class ProjectReport:
    """The findings over a whole project."""

    violations: List[Violation]
    files_checked: int


def lint_project(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    jobs: int = 1,
) -> ProjectReport:
    """Lint ``paths``: the selected rules, suppressions, and SUP002.

    Output is byte-identical at any ``jobs`` value (files are collected
    in sorted order and the combined report is re-sorted).
    """
    rule_ids = tuple(rule.rule_id for rule in build_rules(select=select, ignore=ignore))
    analyses = analyze_paths(collect_files(paths), rule_ids=rule_ids, jobs=jobs)

    reported: List[Violation] = []
    for analysis in analyses:
        if analysis.parse_failed:
            reported.extend(analysis.raw)
            continue
        reported.extend(
            apply_suppressions(analysis.raw, analysis.suppressions, analysis.path)
        )
        fired_by_line: Dict[int, Set[str]] = {}
        for violation in analysis.raw:
            fired_by_line.setdefault(violation.line, set()).add(violation.rule_id)
        reported.extend(
            stale_suppression_violations(
                analysis.suppressions, fired_by_line, set(rule_ids), analysis.path
            )
        )

    return ProjectReport(
        violations=sorted(reported, key=lambda violation: violation.sort_key),
        files_checked=len(analyses),
    )


__all__ = [
    "FileAnalysis",
    "ProjectReport",
    "analyze_paths",
    "decode_python_source",
    "lint_project",
]
