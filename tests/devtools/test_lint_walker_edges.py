"""Driver edge cases: report, never crash.

Syntax errors, empty files, BOMs, coding declarations, bogus encodings
and files that vanish between discovery and parse all degrade to a
reported pseudo-violation (or a clean pass) without costing the findings
from any other file.
"""

from repro.devtools.lint import lint_project, program
from repro.devtools.lint.cli import main
from repro.devtools.lint.program import analyze_paths


def rules_fired(report):
    return sorted({violation.rule_id for violation in report.violations})


class TestDecoding:
    def test_empty_file_is_clean(self, tmp_path):
        target = tmp_path / "empty.py"
        target.write_text("")
        report = lint_project([str(target)])
        assert report.violations == []
        assert report.files_checked == 1

    def test_utf8_bom_is_honored(self, tmp_path):
        target = tmp_path / "bom.py"
        target.write_bytes(b"\xef\xbb\xbfx = 1\n")
        report = lint_project([str(target)])
        assert report.violations == []

    def test_coding_declaration_is_honored(self, tmp_path):
        target = tmp_path / "latin.py"
        target.write_bytes(b"# -*- coding: latin-1 -*-\n# caf\xe9\ns = 1\n")
        report = lint_project([str(target)])
        assert report.violations == []

    def test_unknown_encoding_reports_syn001(self, tmp_path):
        target = tmp_path / "bogus.py"
        target.write_bytes(b"# -*- coding: no-such-codec -*-\nx = 1\n")
        report = lint_project([str(target)])
        assert rules_fired(report) == ["SYN001"]


class TestSyntaxErrors:
    def test_syntax_error_reports_syn001_not_crash(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 1
        assert "SYN001" in capsys.readouterr().out

    def test_unparseable_file_keeps_other_findings(self, make_project):
        root = make_project(
            {
                "bad.py": "def f(:\n",
                "use.py": "import os\ndef collect(p):\n    return os.listdir(p)\n",
            }
        )
        report = lint_project([str(root)])
        assert rules_fired(report) == ["DET004", "SYN001"]
        by_rule = {v.rule_id: v.path for v in report.violations}
        assert by_rule["SYN001"].endswith("bad.py")
        assert by_rule["DET004"].endswith("use.py")


class TestVanishingFiles:
    def test_walker_reports_io001(self, tmp_path):
        missing = tmp_path / "gone.py"
        (analysis,) = analyze_paths([missing])
        (violation,) = analysis.raw
        assert violation.rule_id == "IO001"
        assert "unreadable" in violation.message

    def test_lint_files_does_not_abort(self, tmp_path, monkeypatch):
        gone = tmp_path / "gone.py"
        gone.write_text("x = 1\n")
        (tmp_path / "here.py").write_text("import os\nn = os.listdir(p)\n")
        discovered = program.collect_files([str(tmp_path)])
        gone.unlink()
        monkeypatch.setattr(program, "collect_files", lambda paths: discovered)
        report = lint_project([str(tmp_path)], jobs=2)
        assert rules_fired(report) == ["DET004", "IO001"]
        assert report.files_checked == 2

    def test_program_driver_reports_io001(self, tmp_path):
        missing = tmp_path / "gone.py"
        present = tmp_path / "here.py"
        present.write_text("import os\nn = os.listdir(p)\n")
        gone, here = analyze_paths([missing, present])
        assert gone.parse_failed
        assert [v.rule_id for v in gone.raw] == ["IO001"]
        assert "unreadable" in gone.raw[0].message
        assert [v.rule_id for v in here.raw] == ["DET004"]
