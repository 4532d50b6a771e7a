"""Reporter tests: text rendering and the versioned JSON document."""

import json

from repro.devtools.lint import lint_source, render_json, render_text
from repro.devtools.lint.framework import Violation

DIRTY = 'import os\n\nt = os.listdir(p)\nx = Alert(f"spike-{s}", SEV, "m")\n'


def _violations():
    return lint_source(DIRTY, path="pkg/mod.py")


class TestTextReporter:
    def test_clean_summary(self):
        assert render_text([], 12) == "ok: 12 file(s) clean"

    def test_violation_lines_and_counts(self):
        text = render_text(_violations(), 3)
        assert "pkg/mod.py:3:4: DET004 " in text
        assert "pkg/mod.py:4:10: OBS003 " in text
        assert "  DET004: 1" in text and "  OBS003: 1" in text
        assert "2 violation(s) in 1 of 3 file(s)" in text

    def test_format_is_path_line_col_rule(self):
        violation = Violation("a.py", 7, 2, "DET004", "msg")
        assert violation.format() == "a.py:7:2: DET004 msg"


class TestJsonReporter:
    def test_document_schema(self):
        document = json.loads(render_json(_violations(), 3))
        assert document["version"] == 1
        assert document["files_checked"] == 3
        assert document["violation_count"] == 2
        assert document["counts"] == {"DET004": 1, "OBS003": 1}
        assert [sorted(entry) for entry in document["violations"]] == [
            ["col", "line", "message", "path", "rule"]
        ] * 2
        assert document["violations"][0]["rule"] == "DET004"
        assert document["violations"][0]["line"] == 3

    def test_clean_document(self):
        document = json.loads(render_json([], 5))
        assert document == {
            "version": 1,
            "files_checked": 5,
            "violation_count": 0,
            "counts": {},
            "violations": [],
        }
