"""Framework tests: suppressions, pseudo-rules, registry and driver."""

import pytest

from repro.devtools.lint import (
    LintRule,
    build_rules,
    lint_project,
    lint_source,
    register,
    registered_rule_ids,
)
from repro.devtools.lint.framework import find_suppressions
from repro.errors import LintError, ReproError


class TestSuppressions:
    def test_suppression_with_reason_silences_rule(self):
        src = "import os\nn = os.listdir(p)  # repro: ok[DET004] only counted\n"
        assert lint_source(src) == []

    def test_suppression_without_reason_does_not_silence(self):
        src = "import os\nn = os.listdir(p)  # repro: ok[DET004]\n"
        rule_ids = sorted(v.rule_id for v in lint_source(src))
        assert rule_ids == ["DET004", "SUP001"]

    def test_suppression_for_other_rule_does_not_silence(self):
        src = "import os\nn = os.listdir(p)  # repro: ok[OBS003] wrong rule\n"
        assert [v.rule_id for v in lint_source(src)] == ["DET004"]

    def test_multiple_rule_ids_in_one_comment(self):
        src = (
            "import os\n"
            'n, a = os.listdir(p), Alert(f"spike-{s}", SEV, "m")'
            "  # repro: ok[DET004, OBS003] fixture exercising both\n"
        )
        assert lint_source(src) == []

    def test_marker_inside_string_is_inert(self):
        src = 'doc = "# repro: ok[DET004]"\nimport os\nn = os.listdir(p)\n'
        assert [v.rule_id for v in lint_source(src)] == ["DET004"]

    def test_reasonless_marker_inside_string_is_not_sup001(self):
        src = 'doc = "example: # repro: ok[DET004]"\n'
        assert lint_source(src) == []

    def test_find_suppressions_parses_ids_and_reason(self):
        src = "x = 1  # repro: ok[DET004, SQL002] because reasons\n"
        marker = find_suppressions(src)[1]
        assert marker.rule_ids == ("DET004", "SQL002")
        assert marker.reason == "because reasons"


class TestPseudoRules:
    def test_syntax_error_reported_as_syn001(self):
        violations = lint_source("def broken(:\n", path="bad.py")
        assert [v.rule_id for v in violations] == ["SYN001"]
        assert violations[0].path == "bad.py"

    def test_syn001_cannot_be_registered(self):
        class Fake(LintRule):
            rule_id = "SYN001"
            summary = "impostor"

        with pytest.raises(LintError, match="reserved"):
            register(Fake)

    def test_duplicate_rule_id_rejected(self):
        class Fake(LintRule):
            rule_id = "DET004"
            summary = "impostor"

        with pytest.raises(LintError, match="duplicate"):
            register(Fake)


class TestRegistry:
    def test_expected_rule_pack(self):
        assert registered_rule_ids() == ["DET004", "OBS003", "SQL002"]

    def test_select_and_ignore(self):
        assert [r.rule_id for r in build_rules(select=["SQL002", "DET004"])] == [
            "DET004",
            "SQL002",
        ]
        remaining = [r.rule_id for r in build_rules(ignore=["OBS003"])]
        assert remaining == ["DET004", "SQL002"]

    def test_unknown_rule_id_raises_lint_error(self):
        with pytest.raises(LintError, match="unknown rule id"):
            build_rules(select=["NOPE999"])
        with pytest.raises(LintError, match="unknown rule id"):
            build_rules(ignore=["NOPE999"])

    def test_lint_error_is_a_repro_error(self):
        assert issubclass(LintError, ReproError)


class TestWalker:
    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            lint_project(["tests/devtools/does-not-exist"])

    def test_violations_are_sorted_and_jobs_invariant(self, tmp_path):
        (tmp_path / "b.py").write_text('Alert(f"spike-{s}", SEV, "m")\n')
        (tmp_path / "a.py").write_text(
            "import os\nx = os.listdir(p)\ny = os.listdir(q)\n"
        )
        serial = lint_project([str(tmp_path)], jobs=1)
        parallel = lint_project([str(tmp_path)], jobs=2)
        assert serial == parallel
        assert serial.files_checked == 2
        violations = serial.violations
        assert [v.sort_key for v in violations] == sorted(v.sort_key for v in violations)
        assert [v.rule_id for v in violations] == ["DET004", "DET004", "OBS003"]

    def test_duplicate_inputs_deduplicated(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("import os\nn = os.listdir(p)\n")
        report = lint_project([str(target), str(tmp_path)])
        assert report.files_checked == 1
        assert len(report.violations) == 1

    def test_invalid_jobs_rejected(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(LintError, match="jobs"):
            lint_project([str(tmp_path)], jobs=0)
