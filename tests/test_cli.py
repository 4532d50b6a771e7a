"""Tests for the command-line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs import RunLedger
from repro.obs.cli import main as obs_main
from repro.obs.trace import read_jsonl

#: A small crawl (about 1 s).
SMALL = ["--seed", "5", "--sites-per-bucket", "1", "--pages-per-site", "3"]


@pytest.fixture(scope="module")
def crawl_db(tmp_path_factory):
    db = tmp_path_factory.mktemp("cli") / "run.sqlite"
    code = main(
        ["crawl", "--db", str(db), "--seed", "5",
         "--sites-per-bucket", "1", "--pages-per-site", "3"]
    )
    assert code == 0
    return str(db)


class TestCrawl:
    def test_db_created(self, crawl_db):
        from repro.crawler import MeasurementStore

        with MeasurementStore(crawl_db) as store:
            assert store.visit_count() > 0
            assert len(store.profiles()) == 5

    def test_closed_db_is_one_file_for_readers(self, tmp_path, monkeypatch, capsys):
        # Read-only readers cannot remove a WAL db's -wal/-shm files, so
        # the crawl must not leave the db in WAL mode.
        from repro.obs.cli import main as obs_main

        monkeypatch.chdir(tmp_path)
        assert main(["crawl", "--db", "run.sqlite", "--seed", "5",
                     "--sites-per-bucket", "1", "--pages-per-site", "1"]) == 0
        assert main(["export", "--db", "run.sqlite", "--seed", "5",
                     "--what", "visits", "--out", "visits.csv"]) == 0
        assert obs_main(["health", "--db", "run.sqlite"]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run.sqlite",
            "visits.csv",
        ]

    def test_recrawl_into_same_db_exits_two(self, tmp_path, capsys):
        argv = ["crawl", "--db", str(tmp_path / "run.sqlite"), "--seed", "5",
                "--sites-per-bucket", "1", "--pages-per-site", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "duplicate visit id" in err


class TestCrawlReportsAndRecordsItself:
    """``repro crawl`` prints the report and alerts a later read of its db
    prints, and writes its own trace, metrics and ledger record."""

    def test_crawl_prints_the_report_health_prints(self, tmp_path, capsys):
        db = str(tmp_path / "run.sqlite")
        assert main(["crawl", "--db", db, *SMALL]) == 0
        crawled = capsys.readouterr().out
        assert obs_main(["health", "--db", db]) == 0
        report = capsys.readouterr().out
        assert "Per-profile outcomes" in report
        assert crawled == report + f"\nstored in {db}\n"

    def test_crawl_and_watch_print_the_same_alerts(self, tmp_path, capsys):
        def alert_lines(out):
            return [line for line in out.splitlines() if line.startswith("!")]

        db = str(tmp_path / "run.sqlite")
        probe = ["--expected-failure-rate", "0.01"]
        assert main(["crawl", "--db", db, *SMALL, "--monitor", *probe]) == 0
        live = alert_lines(capsys.readouterr().out)
        assert obs_main(["watch", "--db", db, *probe]) == 0
        assert live
        assert alert_lines(capsys.readouterr().out) == live

    def test_crawl_writes_trace_metrics_and_ledger(self, tmp_path, capsys):
        ledger = tmp_path / "ledger"
        for workers in (1, 2):
            trace = tmp_path / f"trace{workers}.jsonl"
            metrics = tmp_path / f"metrics{workers}.json"
            assert main(
                ["crawl", "--db", str(tmp_path / f"run{workers}.sqlite"), *SMALL,
                 "--workers", str(workers), "--trace", str(trace),
                 "--metrics-out", str(metrics), "--ledger", str(ledger)]
            ) == 0
            assert read_jsonl(str(trace))
            assert json.loads(metrics.read_text())["counters"]
        out = capsys.readouterr().out
        entries = RunLedger(ledger).entries()
        assert [entry.kind for entry in entries] == ["crawl", "crawl"]
        assert entries[0].provenance_id == entries[1].provenance_id
        assert f"ledger: run {entries[1].run_id[:12]} -> {ledger}" in out


class TestAnalyze:
    def test_selected_experiment(self, crawl_db, capsys):
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "5", "--experiments", "table2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[table2]" in out
        assert "Table 2" in out

    def test_unknown_experiment(self, crawl_db, capsys):
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "5", "--experiments", "bogus"]
        )
        assert code == 2

    def test_seed_mismatch_still_runs(self, crawl_db, capsys):
        # A different seed regenerates a different EasyList; the analysis
        # still completes (tracking classification simply differs).
        code = main(
            ["analyze", "--db", crawl_db, "--seed", "999", "--experiments", "table2"]
        )
        assert code == 0


class TestExport:
    @pytest.mark.parametrize("what", ["visits", "requests", "cookies", "nodes"])
    def test_csv_exports(self, crawl_db, tmp_path, what):
        out = tmp_path / f"{what}.csv"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", what,
             "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 1  # header + data
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_trees_jsonl(self, crawl_db, tmp_path):
        out = tmp_path / "trees.jsonl"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", "trees",
             "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            lines = handle.read().splitlines()
        assert lines
        document = json.loads(lines[0])
        assert set(document) == {"page", "site", "rank", "profiles"}
        assert len(document["profiles"]) == 5


class TestBundleSource:
    @pytest.fixture(scope="class")
    def bundle_path(self, crawl_db, tmp_path_factory):
        from repro.bundle import record_from_store
        from repro.crawler import MeasurementStore

        out = tmp_path_factory.mktemp("cli-bundle") / "crawl"
        with MeasurementStore(crawl_db) as store:
            record_from_store(store, seed=5, path=out)
        return str(out)

    def test_analyze_from_bundle(self, bundle_path, capsys):
        code = main(
            ["analyze", "--from-bundle", bundle_path, "--experiments", "table2"]
        )
        assert code == 0
        assert "[table2]" in capsys.readouterr().out

    def test_export_from_bundle_matches_db(self, crawl_db, bundle_path, tmp_path):
        db_out = tmp_path / "db.csv"
        bundle_out = tmp_path / "bundle.csv"
        assert main(
            ["export", "--db", crawl_db, "--seed", "5",
             "--what", "requests", "--out", str(db_out)]
        ) == 0
        assert main(
            ["export", "--from-bundle", bundle_path,
             "--what", "requests", "--out", str(bundle_out)]
        ) == 0
        assert db_out.read_bytes() == bundle_out.read_bytes()

    def test_both_sources_rejected(self, crawl_db, bundle_path):
        with pytest.raises(SystemExit, match="not both"):
            main(["analyze", "--db", crawl_db, "--from-bundle", bundle_path])

    def test_no_source_rejected(self):
        with pytest.raises(SystemExit, match="required"):
            main(["analyze"])

    def test_contradicting_seed_rejected(self, bundle_path):
        with pytest.raises(SystemExit, match="contradicts"):
            main(["analyze", "--from-bundle", bundle_path, "--seed", "7"])

    def test_matching_seed_accepted(self, bundle_path, tmp_path):
        out = tmp_path / "visits.csv"
        code = main(
            ["export", "--from-bundle", bundle_path, "--seed", "5",
             "--what", "visits", "--out", str(out)]
        )
        assert code == 0


class TestBundleFilterList:
    """``--from-bundle`` classifies with the list the bundle archived, not
    one regenerated from the seed: the CLI prints what the library's
    replayed context renders."""

    @pytest.fixture(scope="class")
    def trimmed_bundle(self, tmp_path_factory):
        from repro.blocklist import generate_easylist
        from repro.bundle import Bundle, record_from_store
        from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
        from repro.web import WebGenerator

        root = tmp_path_factory.mktemp("cli-trimmed")
        generator = WebGenerator(7)
        with MeasurementStore() as store:
            Commander(generator, store, max_pages_per_site=3).run(
                sample_paper_buckets(7, per_bucket=1)
            )
            full = record_from_store(
                store, seed=7, path=root / "full", generator=generator
            )
            lines = generate_easylist(generator.ecosystem).splitlines()
            rules = [line for line in lines if line and line[0] not in "!["]
            dropped = set(rules[1::2])
            Bundle.record(
                store,
                blueprints=[generator.site(rank) for rank in full.config.ranks],
                config=full.config,
                path=root / "trimmed",
                filter_list_text="\n".join(
                    line for line in lines if line not in dropped
                ),
            )
        return str(root / "trimmed")

    def test_analyze_prints_the_library_rendering(self, trimmed_bundle, capsys):
        from repro.experiments import ExperimentContext, case_tracking

        assert main(
            ["analyze", "--from-bundle", trimmed_bundle,
             "--experiments", "case_tracking"]
        ) == 0
        printed = capsys.readouterr().out.split("=" * 70 + "\n", 2)[2]
        ctx = ExperimentContext.from_bundle(trimmed_bundle)
        assert printed == case_tracking.render(case_tracking.run(ctx)) + "\n\n"

    def test_export_writes_the_library_nodes(self, trimmed_bundle, tmp_path):
        from repro.experiments import ExperimentContext
        from repro.export import export_node_comparisons_csv

        cli_out = tmp_path / "cli.csv"
        assert main(
            ["export", "--from-bundle", trimmed_bundle,
             "--what", "nodes", "--out", str(cli_out)]
        ) == 0
        library_out = tmp_path / "library.csv"
        ctx = ExperimentContext.from_bundle(trimmed_bundle)
        export_node_comparisons_csv(ctx.dataset, str(library_out))
        assert cli_out.read_bytes() == library_out.read_bytes()


class TestAnalyzeRunsEverySelectedExperiment:
    """An experiment that cannot run on a crawl does not end ``repro
    analyze``: table6 needs NoAction, which a Sim1+Sim2 crawl lacks."""

    @pytest.fixture(scope="class")
    def sim_bundle(self, tmp_path_factory):
        from repro.browser import PAPER_PROFILES
        from repro.bundle import record_from_store
        from repro.crawler import Commander, MeasurementStore, sample_paper_buckets
        from repro.web import WebGenerator

        path = tmp_path_factory.mktemp("cli-sim") / "bundle"
        generator = WebGenerator(7)
        with MeasurementStore() as store:
            Commander(
                generator, store, profiles=PAPER_PROFILES[1:3], max_pages_per_site=3
            ).run(sample_paper_buckets(7, per_bucket=1))
            record_from_store(store, seed=7, path=path, generator=generator)
        return str(path)

    def test_failing_experiment_is_reported_and_skipped(self, sim_bundle, capsys):
        from repro.experiments import ExperimentContext, case_unique, table5

        code = main(
            ["analyze", "--from-bundle", sim_bundle,
             "--experiments", "table5,table6,case_unique"]
        )
        captured = capsys.readouterr()
        assert code == 2
        for experiment_id in ("table5", "table6", "case_unique"):
            assert f"[{experiment_id}]" in captured.out
        ctx = ExperimentContext.from_bundle(sim_bundle)
        for module in (table5, case_unique):
            assert module.render(module.run(ctx)) + "\n\n" in captured.out
        assert captured.err.startswith("error: table6: ")
        assert "table5" not in captured.err and "case_unique" not in captured.err


class TestIncludePartialFlag:
    def test_export_include_partial_flag(self, crawl_db, tmp_path):
        # Seed 5's tiny crawl may have no partials; the contract here is
        # that the flag parses and the partial column is always present.
        out = tmp_path / "requests.csv"
        code = main(
            ["export", "--db", crawl_db, "--seed", "5", "--what", "requests",
             "--include-partial", "--out", str(out)]
        )
        assert code == 0
        with open(out) as handle:
            header = next(csv.reader(handle))
        assert header[-1] == "partial"


class TestInspect:
    def test_renders_tree(self, capsys):
        code = main(["inspect", "--seed", "5", "--rank", "1", "--visit", "2"])
        if code == 0:
            out = capsys.readouterr().out
            assert "nodes" in out
            assert "|--" in out or "`--" in out
        else:
            # The simulated visit can fail (timeout model); retry another id.
            assert main(["inspect", "--seed", "5", "--rank", "1", "--visit", "3"]) in (0, 1)

    def test_profile_selection(self, capsys):
        code = main(
            ["inspect", "--seed", "5", "--rank", "1", "--profile", "NoAction",
             "--visit", "4"]
        )
        assert code in (0, 1)


class TestEasylist:
    def test_prints_list(self, capsys):
        assert main(["easylist", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[Adblock Plus 2.0]")

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "list.txt"
        assert main(["easylist", "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text().startswith("[Adblock Plus 2.0]")


class TestModuleEntryPoints:
    """``python -m`` runs each command line's ``main`` and exits with its code."""

    @pytest.mark.parametrize(
        "module, prog", [("repro.cli", "repro"), ("repro.bundle.cli", "repro-bundle")]
    )
    def test_help_and_unknown_subcommand(self, module, prog):
        source_root = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv],
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                timeout=60,
            )

        helped = run("--help")
        assert helped.returncode == 0, helped.stderr
        assert helped.stdout.startswith(f"usage: {prog} ")
        unknown = run("no-such-command")
        assert unknown.returncode == 2
        assert "invalid choice: 'no-such-command'" in unknown.stderr
