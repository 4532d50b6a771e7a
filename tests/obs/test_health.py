"""Crawl-health report tests: folding, store-backed counts, CLI."""

import pytest

from repro.bundle.cli import main as bundle_main
from repro.cli import main as repro_main
from repro.crawler.commander import run_measurement
from repro.obs.cli import main as obs_main
from repro.obs.health import (
    HealthReport,
    ProfileHealth,
    build_health_report,
    profile_health,
    render_health_report,
)


#: Every command-line reader of a ``--db``, keyed by its console script.
_MAINS = {"repro": repro_main, "repro-bundle": bundle_main, "repro-obs": obs_main}


@pytest.fixture(scope="module")
def recorded_bundle(tmp_path_factory):
    from repro.bundle import record_from_store

    store = run_measurement(3, [1, 2], max_pages_per_site=2)
    path = str(tmp_path_factory.mktemp("health") / "crawl.bundle")
    record_from_store(store, seed=3, path=path)
    store.close()
    return path


def _outcome(visits, successes, failures=None, recovered=0):
    """One profile's row of ``MeasurementStore.outcomes()``."""
    return {
        "visits": visits,
        "successes": successes,
        "failures": failures or {},
        "retries": recovered,
        "recovered": recovered,
    }


class TestProfileHealth:
    def test_folds_timeouts_and_errors(self):
        rows = profile_health(
            {
                "Sim1": _outcome(
                    10, 8, {"timeout": 1, "crawler-error": 1}, recovered=2
                ),
                "Old": _outcome(10, 10),
            }
        )
        assert [row.profile for row in rows] == ["Old", "Sim1"]
        sim1 = rows[1]
        assert sim1.timeouts == 1
        assert sim1.errors == 1
        assert sim1.failures == 2
        assert sim1.recovered == 2
        assert sim1.success_rate == 0.8

    def test_zero_visits_has_zero_rate(self):
        row = ProfileHealth("p", visits=0, successes=0, timeouts=0, errors=0)
        assert row.success_rate == 0.0


class TestStoreBackedReport:
    def test_outcome_counts_match_summary(self):
        store = run_measurement(3, [1, 2, 3], max_pages_per_site=3)
        report = build_health_report(store=store)
        by_profile = {row.profile: row for row in report.profiles}
        for profile in store.profiles():
            assert by_profile[profile].visits == store.visit_count(profile=profile)
            assert by_profile[profile].successes == store.visit_count(
                profile=profile, success_only=True
            )
        assert report.sites_crawled == 3
        store.close()


class TestRendering:
    def test_report_contains_table1_columns(self):
        report = HealthReport(
            profiles=profile_health({"Sim1": _outcome(4, 3, {"timeout": 1})}),
            sites_crawled=2,
            pages_discovered=4,
        )
        text = render_health_report(report)
        assert "Per-profile outcomes" in text
        assert "timeout" in text
        assert "75.0%" in text

    def test_report_without_profiles_still_renders(self):
        text = render_health_report(HealthReport())
        assert "Crawl health" in text


class TestCli:
    def test_db_mode(self, tmp_path, capsys):
        db_path = str(tmp_path / "run.sqlite")
        store = run_measurement(3, [1, 2], max_pages_per_site=2)
        store.snapshot_to(db_path)
        store.close()
        code = obs_main(["health", "--db", db_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-profile outcomes" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["repro", "analyze"],
            ["repro", "export", "--what", "visits", "--out", "OUT"],
            ["repro-bundle", "record", "--seed", "3", "--out", "OUT"],
            ["repro-bundle", "diff", "BUNDLE"],
            ["repro-obs", "health"],
            ["repro-obs", "watch"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_missing_db_fails_cleanly(self, argv, recorded_bundle, tmp_path, capsys):
        # A mistyped --db must not become an empty store that is then
        # analysed, exported or archived.
        db = tmp_path / "absent.sqlite"
        paths = {"OUT": str(tmp_path / "out"), "BUNDLE": recorded_bundle}
        tool, *args = [paths.get(arg, arg) for arg in argv]
        assert _MAINS[tool](args + ["--db", str(db)]) == 2
        assert "no such database" in capsys.readouterr().err
        assert not db.exists()


class TestCliFromBundle:
    @pytest.fixture()
    def bundle_path(self, tmp_path):
        from repro.bundle import record_from_store

        store = run_measurement(3, [1, 2], max_pages_per_site=2)
        path = str(tmp_path / "crawl.bundle")
        record_from_store(store, seed=3, path=path)
        store.close()
        return path

    def test_health_report_from_replayed_bundle(self, bundle_path, capsys):
        code = obs_main(["health", "--from-bundle", bundle_path, "--fake-clock"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-profile outcomes" in out

    def test_from_bundle_appends_replay_record(self, bundle_path, tmp_path, capsys):
        from repro.obs import RunLedger

        ledger_dir = str(tmp_path / "ledger")
        code = obs_main(
            ["health", "--from-bundle", bundle_path, "--fake-clock",
             "--ledger", ledger_dir]
        )
        capsys.readouterr()
        assert code == 0
        record = RunLedger(ledger_dir).load("latest")
        assert record.kind == "replay"
        assert record.deterministic["bundle_digest"]

    def test_missing_bundle_fails_cleanly(self, tmp_path, capsys):
        code = obs_main(["health", "--from-bundle", str(tmp_path / "absent")])
        assert code == 2
        assert "error" in capsys.readouterr().err
