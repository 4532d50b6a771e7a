"""SUP002 stale-suppression detection."""

from repro.devtools.lint import lint_project
from repro.devtools.lint.cli import main

STALE = "value = 1  # repro: ok[DET002] operator-facing timing only\n"
LIVE = (
    "import time\n"
    "value = time.time()  # repro: ok[DET002] operator-facing timing only\n"
)
PROGRAM_RULES = ["CONC001", "CONC002", "DET101", "DET103"]


def rules_fired(report):
    return sorted({violation.rule_id for violation in report.violations})


class TestStaleDetection:
    def test_suppression_without_a_firing_rule_is_stale(self, make_project):
        root = make_project({"mod.py": STALE})
        report = lint_project([str(root)])
        assert rules_fired(report) == ["SUP002"]
        (violation,) = report.violations
        assert "DET002" in violation.message
        assert "drop the marker" in violation.message

    def test_suppression_with_a_firing_rule_is_not_stale(self, make_project):
        root = make_project({"mod.py": LIVE})
        report = lint_project([str(root)])
        assert report.violations == []

    def test_rule_must_have_run_to_count_as_stale(self, make_project):
        root = make_project({"mod.py": STALE})
        report = lint_project([str(root)], select=["DET001"])
        assert report.violations == []

    def test_program_rule_suppressions_audited_only_with_program_pass(
        self, make_project
    ):
        source = "def f():\n    return 1  # repro: ok[DET101] historical artifact\n"
        root = make_project({"mod.py": source})
        without = lint_project([str(root)], ignore=PROGRAM_RULES)
        assert without.violations == []
        with_program = lint_project([str(root)])
        assert rules_fired(with_program) == ["SUP002"]


class TestCLI:
    def test_cli_reports_stale_suppressions(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(STALE)
        assert main([str(target)]) == 1
        assert "SUP002" in capsys.readouterr().out
