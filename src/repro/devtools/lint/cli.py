"""Command-line front end: ``python -m repro.devtools.lint`` / ``repro-lint``.

Exit codes: 0 — clean; 1 — violations found; 2 — usage or I/O error
(including an unknown rule id in ``--select``/``--ignore``).

Every run is one ``lint_project``: the rules that ``--select`` and
``--ignore`` leave, then the SUP002 stale-suppression audit.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ...errors import LintError
from .framework import rule_summaries
from .program import lint_project
from .reporters import render_json, render_text


def _split_ids(raw: str) -> List[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & invariant checker for the repro package."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes (default: all cores)",
    )
    parser.add_argument(
        "--select",
        type=str,
        default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        type=str,
        default="",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in rule_summaries():
            print(f"{rule_id}  {summary}")
        print("IO001   (framework) file vanished between discovery and parse")
        print("SUP001  (framework) suppression comment without a reason")
        print("SUP002  (framework) stale suppression: rule no longer fires or names no rule")
        print("SYN001  (framework) file does not parse")
        return 0

    try:
        report = lint_project(
            args.paths,
            select=_split_ids(args.select) or None,
            ignore=_split_ids(args.ignore),
            jobs=args.jobs,
        )
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    renderers = {"text": render_text, "json": render_json}
    try:
        print(renderers[args.format](report.violations, report.files_checked))
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; silence the shutdown
        # flush as well and keep the exit code meaningful.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 1 if report.violations else 0
