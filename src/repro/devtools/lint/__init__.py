"""``repro-lint``: AST-based determinism & invariant checker.

The reproduction guarantees byte-identical output across worker counts
and machines.  Tier-1's byte-identity tests hold most of that guarantee
by re-running a measurement and comparing its output; this subpackage
keeps the invariants those tests cannot see (sorted directory listings,
deterministic alerting, total ``ORDER BY`` orders).  See ``framework`` for
the rule/suppression machinery, ``rules`` for the rule pack, ``program``
for ``lint_project`` (files fanned out over processes), and ``cli`` for
the command-line front end.

Typical use::

    python -m repro.devtools.lint src/repro
    repro-lint --format json src/repro

or programmatically::

    from repro.devtools.lint import lint_project
    report = lint_project(["src/repro"], jobs=4)
    report.violations, report.files_checked
"""

from __future__ import annotations

from .framework import (
    LintRule,
    ModuleContext,
    Violation,
    build_rules,
    lint_source,
    register,
    registered_rule_ids,
    rule_summaries,
)
from .program import ProjectReport, lint_project
from .reporters import render_json, render_text
from .walker import collect_files

__all__ = [
    "LintRule",
    "ModuleContext",
    "ProjectReport",
    "Violation",
    "build_rules",
    "collect_files",
    "lint_project",
    "lint_source",
    "register",
    "registered_rule_ids",
    "render_json",
    "render_text",
    "rule_summaries",
]
