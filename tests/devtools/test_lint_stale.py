"""SUP002 stale-suppression detection."""

import pytest

from repro.devtools.lint import lint_project
from repro.devtools.lint.cli import main

STALE = "value = 1  # repro: ok[DET004] only counted, never ordered\n"
LIVE = (
    "import os\n"
    "value = os.listdir(p)  # repro: ok[DET004] only counted, never ordered\n"
)
NAMES_NO_RULE = (
    "x = 1  # repro: ok[DET999] no such rule\n"
    "y = 2  # repro: ok[DET02] typo\n"
)


def rules_fired(report):
    return sorted({violation.rule_id for violation in report.violations})


class TestStaleDetection:
    def test_suppression_without_a_firing_rule_is_stale(self, make_project):
        root = make_project({"mod.py": STALE})
        report = lint_project([str(root)])
        assert rules_fired(report) == ["SUP002"]
        (violation,) = report.violations
        assert "DET004" in violation.message
        assert "drop the marker" in violation.message

    def test_suppression_with_a_firing_rule_is_not_stale(self, make_project):
        root = make_project({"mod.py": LIVE})
        report = lint_project([str(root)])
        assert report.violations == []

    def test_rule_must_have_run_to_count_as_stale(self, make_project):
        root = make_project({"mod.py": STALE})
        report = lint_project([str(root)], select=["SQL002"])
        assert report.violations == []

    @pytest.mark.parametrize(
        "narrowing", [{}, {"select": ["SQL002"]}, {"ignore": ["DET004"]}]
    )
    def test_marker_naming_no_rule_is_stale(self, make_project, narrowing):
        root = make_project({"mod.py": NAMES_NO_RULE})
        report = lint_project([str(root)], **narrowing)
        assert [(v.rule_id, v.line) for v in report.violations] == [
            ("SUP002", 1),
            ("SUP002", 2),
        ]
        first, second = report.violations
        assert "DET999 name(s) no rule" in first.message
        assert "DET02 name(s) no rule" in second.message


class TestCLI:
    def test_cli_reports_stale_suppressions(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(STALE)
        assert main([str(target)]) == 1
        assert "SUP002" in capsys.readouterr().out
