"""The self-application gate: ``repro-lint`` must be clean over ``src/``.

This is the teeth of the determinism contract — any new unseeded
randomness, wall-clock read, unsorted set iteration into an ordered
output, non-ReproError raise, or schema-inconsistent SQL fails CI here
(or carries an explicit ``# repro: ok[RULE] reason`` suppression).

The one ``lint_project`` pass below also runs the interprocedural rules
(DET101 seed provenance, DET103 cross-call unordered flow,
CONC001/CONC002 shared-state safety) over the linked project, and audits
every suppression for staleness (SUP002) — a marker whose rule no longer
fires is itself a violation.
"""

import pathlib

import pytest

import repro
from repro.devtools.lint import lint_project
from repro.devtools.lint.framework import registered_rule_ids

PACKAGE_DIR = pathlib.Path(repro.__file__).parent


@pytest.fixture(scope="module")
def report():
    """The gate's one ``lint_project`` pass over ``src/``."""
    return lint_project([str(PACKAGE_DIR)], jobs=2)


def test_monitor_rules_in_the_gate():
    """OBS003 (deterministic alerting) is part of the self-applied pack."""
    assert "OBS003" in registered_rule_ids()


def test_package_is_lint_clean(report):
    assert report.files_checked > 100, "driver should see the whole package"
    formatted = "\n".join(v.format() for v in report.violations)
    assert report.violations == [], f"repro-lint violations in src/:\n{formatted}"


def test_package_is_clean_under_program_pass(report):
    """src/ carries no interprocedural findings and no stale suppressions."""
    assert set(report.program_rules_run) == {
        "CONC001",
        "CONC002",
        "DET101",
        "DET103",
    }
    formatted = "\n".join(v.format() for v in report.violations)
    assert report.violations == [], f"program-pass violations in src/:\n{formatted}"
