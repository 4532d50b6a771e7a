"""The self-application gate: ``repro-lint`` must be clean over ``src/``.

This is the teeth of the rules tier-1's byte-identity tests cannot
stand in for — an unsorted directory listing, a computed alert name or
detector threshold, a detector writing to the metrics registry, or an
``ORDER BY`` that is not total fails CI here (or carries an explicit
``# repro: ok[RULE] reason`` suppression).

The one ``lint_project`` pass below also audits every suppression for
staleness (SUP002): a marker whose rule no longer fires, or that names no
registered rule, is itself a violation.
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
