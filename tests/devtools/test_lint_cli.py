"""CLI tests: exit codes, formats, the seeded fixture, rule listing."""

import json
import pathlib

import pytest

from repro.devtools.lint.cli import main

FIXTURE = str(pathlib.Path(__file__).parent / "fixtures" / "dirty.py")

#: The fixture seeds exactly one violation per registered rule.
EXPECTED_FIXTURE_RULES = ["DET004", "OBS003", "SQL002"]

#: Rules retired because tier-1 catches what they flagged (DESIGN §6.3).
DELETED_RULES = [
    "CONC001", "CONC002", "CONC003", "DET001", "DET002", "DET003", "DET101",
    "DET103", "ERR001", "ERR002", "OBS001", "OBS002", "SQL001",
]


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("from repro.rng import child_rng\nrng = child_rng(1)\n")
        assert main([str(clean)]) == 0
        assert "ok: 1 file(s) clean" in capsys.readouterr().out

    def test_seeded_fixture_exits_nonzero_with_all_rules(self, capsys):
        assert main([FIXTURE, "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if ":" in line and " " in line]
        fired = [line.split()[1] for line in lines][: len(EXPECTED_FIXTURE_RULES)]
        assert sorted(fired) == EXPECTED_FIXTURE_RULES

    def test_missing_path_exits_two(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        assert main([FIXTURE, "--select", "NOPE999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestOutputModes:
    def test_json_format(self, capsys):
        assert main([FIXTURE, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["files_checked"] == 1
        assert sorted(document["counts"]) == EXPECTED_FIXTURE_RULES
        assert all(count == 1 for count in document["counts"].values())

    def test_select_narrows_rules(self, capsys):
        assert main([FIXTURE, "--select", "SQL002", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["counts"] == {"SQL002": 1}

    @pytest.mark.parametrize("rule_id", DELETED_RULES)
    def test_select_deleted_rule_exits_two(self, rule_id, capsys):
        assert main([FIXTURE, "--select", rule_id]) == 2
        assert f"unknown rule id: {rule_id}" in capsys.readouterr().err

    @pytest.mark.parametrize("rule_id", DELETED_RULES)
    def test_ignore_deleted_rule_exits_two(self, rule_id, capsys):
        assert main([FIXTURE, "--ignore", rule_id]) == 2
        assert f"unknown rule id: {rule_id}" in capsys.readouterr().err

    def test_ignore_drops_rules(self, capsys):
        argv = [FIXTURE, "--ignore", ",".join(EXPECTED_FIXTURE_RULES)]
        assert main(argv) == 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in EXPECTED_FIXTURE_RULES + ["SUP001", "SYN001"]:
            assert rule_id in out
        for rule_id in DELETED_RULES:
            assert rule_id not in out

    def test_parallel_output_matches_serial(self, tmp_path, capsys):
        for name in ("a", "b", "c"):
            (tmp_path / f"{name}.py").write_text("import os\nn = os.listdir(p)\n")
        assert main([str(tmp_path), "--jobs", "1"]) == 1
        serial_out = capsys.readouterr().out
        assert main([str(tmp_path), "--jobs", "3"]) == 1
        assert capsys.readouterr().out == serial_out


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", FIXTURE],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "SQL002" in result.stdout
