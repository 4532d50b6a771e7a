"""The lint driver: per-file rules, then the whole-program pass.

Pass 1 (parallel): every file is read with tokenize-style encoding
detection, parsed once, run through the per-file rules, and summarized
into a :class:`~.symbols.ModuleSummary`.  Pass 2 (in-process): the
summaries link into a :class:`~.callgraph.ProjectIndex` and the
registered :class:`~.framework.ProgramRule` pack runs over it.  Both
passes always run; ``ignore`` (or ``select``) the program rule ids to
skip pass 2.

Suppression accounting spans both passes: ``# repro: ok[DET101] reason``
silences a program finding exactly like a per-file one, and every
suppression whose rule *ran but did not fire* on its line is reported as
``SUP002`` (stale suppression).

Unparseable files degrade, never abort: a syntax error yields ``SYN001``
and the file is skipped by the program pass; a file deleted between
discovery and parse yields ``IO001``.  Findings from every other file
are unaffected.
"""

from __future__ import annotations

import io
import tokenize
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...errors import LintError
from .callgraph import ProjectIndex
from .framework import (
    IO_RULE_ID,
    SYNTAX_RULE_ID,
    Suppression,
    Violation,
    apply_suppressions,
    build_program_rules,
    build_rules,
    check_source,
    filter_suppressed,
    stale_suppression_violations,
)
from .symbols import ModuleSummary, summarize_module
from .walker import collect_files


def decode_python_source(data: bytes) -> str:
    """Decode source bytes honoring BOMs and coding declarations."""
    encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
    return data.decode(encoding)


@dataclass
class FileAnalysis:
    """Everything pass 1 produced for one file (picklable)."""

    path: str
    raw: List[Violation] = field(default_factory=list)
    suppressions: Dict[int, Suppression] = field(default_factory=dict)
    summary: Optional[ModuleSummary] = None
    parse_failed: bool = False


def _unanalyzable(path: str, rule_id: str, message: str) -> FileAnalysis:
    violation = Violation(path=path, line=1, col=0, rule_id=rule_id, message=message)
    return FileAnalysis(path=path, raw=[violation], parse_failed=True)


def _analyze_one(task: Tuple[str, Optional[Tuple[str, ...]]]) -> FileAnalysis:
    """Pass-1 analysis for one file; module-level so workers can pickle it.

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
    summary = None
    if checked.tree is not None:
        summary = summarize_module(path, checked.tree)
    return FileAnalysis(
        path=path,
        raw=checked.raw,
        suppressions=checked.suppressions,
        summary=summary,
        parse_failed=checked.tree is None,
    )


def analyze_paths(
    files: Sequence[Path],
    rule_ids: Optional[Tuple[str, ...]] = None,
    jobs: int = 1,
) -> List[FileAnalysis]:
    """Run pass 1 over ``files``, fanning out across ``jobs`` processes."""
    if jobs < 1:
        raise LintError(f"jobs must be >= 1, got {jobs}")
    tasks = [(str(path), rule_ids) for path in files]
    if jobs == 1 or len(tasks) < 2:
        return [_analyze_one(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_analyze_one, tasks, chunksize=4))


@dataclass
class ProjectReport:
    """The combined two-pass result."""

    violations: List[Violation]
    files_checked: int
    program_rules_run: Tuple[str, ...] = ()


def lint_project(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    jobs: int = 1,
) -> ProjectReport:
    """Lint ``paths``: per-file rules, the program pass, and SUP002.

    ``select``/``ignore`` filter per-file and program rules alike; output
    is byte-identical at any ``jobs`` value (files are collected in
    sorted order and the combined report is re-sorted).
    """
    per_file_rules = build_rules(select=select, ignore=ignore)
    program_rules = build_program_rules(select=select, ignore=ignore)
    rule_ids = tuple(rule.rule_id for rule in per_file_rules)
    analyses = analyze_paths(collect_files(paths), rule_ids=rule_ids, jobs=jobs)

    program_raw: Dict[str, List[Violation]] = {}
    if program_rules:
        summaries = [a.summary for a in analyses if a.summary is not None]
        project = ProjectIndex(summaries)
        for rule in program_rules:
            for violation in rule.check(project):
                program_raw.setdefault(violation.path, []).append(violation)

    active_ids: Set[str] = set(rule_ids)
    active_ids.update(rule.rule_id for rule in program_rules)

    reported: List[Violation] = []
    for analysis in analyses:
        if analysis.parse_failed:
            reported.extend(analysis.raw)
            continue
        extra = program_raw.get(analysis.path, [])
        kept = apply_suppressions(
            analysis.raw, analysis.suppressions, analysis.path
        )
        kept.extend(filter_suppressed(extra, analysis.suppressions))
        fired_by_line: Dict[int, Set[str]] = {}
        for violation in list(analysis.raw) + extra:
            fired_by_line.setdefault(violation.line, set()).add(violation.rule_id)
        kept.extend(
            stale_suppression_violations(
                analysis.suppressions, fired_by_line, active_ids, analysis.path
            )
        )
        reported.extend(kept)

    return ProjectReport(
        violations=sorted(reported, key=lambda violation: violation.sort_key),
        files_checked=len(analyses),
        program_rules_run=tuple(rule.rule_id for rule in program_rules),
    )


__all__ = [
    "FileAnalysis",
    "ProjectReport",
    "analyze_paths",
    "decode_python_source",
    "lint_project",
]
