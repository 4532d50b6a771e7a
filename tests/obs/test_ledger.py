"""Run-ledger tests: record identity, the append-only registry, cross-run
determinism at any worker/job count, drift diffs, and the CLI gate."""

import json

import pytest

from repro.crawler.commander import Commander
from repro.crawler.storage import MeasurementStore
from repro.devtools.clock import FakeClock
from repro.errors import LedgerError
from repro.experiments import ExperimentConfig, run_pipeline
from repro.experiments.runner import clear_cache, resolved_pipeline_config
from repro.obs import (
    Alert,
    DiffThresholds,
    Monitor,
    ObsContext,
    RunLedger,
    diff_records,
)
from repro.obs.cli import main as obs_main
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    RunRecord,
    build_run_record,
    canonical_json,
    content_hash,
)
from repro.web import WebGenerator

SEED = 11
RANKS = [1, 2, 3]


def crawl_into(ledger, workers=1):
    """One instrumented crawl whose record lands in ``ledger``."""
    obs = ObsContext.create(seed=SEED, clock=FakeClock(), ledger=ledger)
    store = MeasurementStore()
    Commander(
        WebGenerator(SEED),
        store,
        max_pages_per_site=2,
        workers=workers,
        obs=obs,
    ).run(RANKS)
    store.close()
    return obs


def pipeline_into(ledger, seed=7, workers=1, jobs=1):
    """One instrumented pipeline run whose records land in ``ledger``."""
    clear_cache()
    config = ExperimentConfig(
        seed=seed,
        sites_per_bucket=1,
        pages_per_site=2,
        workers=workers,
        jobs=jobs,
    )
    obs = ObsContext.create(seed=seed, clock=FakeClock(), ledger=ledger)
    run_pipeline(config, obs=obs)
    return obs


def fixed_record(wall_seconds=1.0, marker="a"):
    """A hand-built record for diff tests (real-clock benchmark shape)."""
    deterministic = {
        "seed": 1,
        "config": {"seed": 1},
        "config_hash": content_hash({"seed": 1}),
        "marker": marker,
    }
    measured = {
        "clock": "system",
        "wall_seconds": wall_seconds,
        "phase_seconds": {"crawl": wall_seconds},
        "visits_per_second": 10.0,
        "peak_rss_kb": 1000,
    }
    return RunRecord(
        kind="benchmark",
        label="fixed",
        deterministic=deterministic,
        measured=measured,
    )


class TestRecordIdentity:
    def test_run_id_hashes_canonical_payload(self):
        record = fixed_record()
        assert record.run_id == content_hash(record.to_payload())
        assert len(record.run_id) == 64

    def test_provenance_ignores_measured_numbers(self):
        fast, slow = fixed_record(wall_seconds=1.0), fixed_record(wall_seconds=9.0)
        assert fast.provenance_id == slow.provenance_id
        assert fast.run_id != slow.run_id

    def test_json_round_trip(self):
        record = fixed_record()
        rebuilt = RunRecord.from_json(record.to_json())
        assert rebuilt == record
        assert rebuilt.run_id == record.run_id

    def test_newer_schema_is_rejected(self):
        payload = fixed_record().to_payload()
        payload["ledger_schema"] = LEDGER_SCHEMA_VERSION + 1
        with pytest.raises(LedgerError):
            RunRecord.from_payload(payload)

    def test_deterministic_json_is_canonical(self):
        record = fixed_record()
        assert record.deterministic_json() == canonical_json(
            dict(record.deterministic)
        )


class TestRunLedger:
    def test_append_dedups_objects_but_logs_every_event(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        record = fixed_record()
        assert ledger.append(record) == record.run_id
        assert ledger.append(record) == record.run_id
        assert len(ledger.entries()) == 2
        objects = list((tmp_path / "ledger" / "records").iterdir())
        assert [path.name for path in objects] == [f"{record.run_id}.json"]

    def test_resolve_latest_prev_and_prefix(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        first, second = fixed_record(marker="a"), fixed_record(marker="b")
        ledger.append(first)
        ledger.append(second)
        assert ledger.resolve("latest").run_id == second.run_id
        assert ledger.resolve("prev").run_id == first.run_id
        assert ledger.resolve(first.run_id[:12]).run_id == first.run_id

    def test_bad_references_raise(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        with pytest.raises(LedgerError):
            ledger.resolve("latest")
        ledger.append(fixed_record(marker="a"))
        with pytest.raises(LedgerError):
            ledger.resolve("prev")
        with pytest.raises(LedgerError):
            ledger.resolve("definitely-not-a-run")

    def test_load_verifies_stored_content(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        record = fixed_record()
        run_id = ledger.append(record)
        path = ledger.record_path(run_id)
        payload = json.loads(path.read_text("utf-8"))
        payload["deterministic"]["marker"] = "tampered"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(LedgerError):
            ledger.load("latest")


class TestIndexNamesOnlyRecords:
    def test_run_id_outside_records_is_rejected_unread(
        self, tmp_path, monkeypatch
    ):
        # An index line whose run id walks out of records/ must be refused
        # before any file it names is opened.
        outside = tmp_path / "outside.json"
        outside.write_text(fixed_record().to_json(), encoding="utf-8")
        ledger = RunLedger(tmp_path / "ledger")
        line = {
            "seq": 0,
            "run_id": "../../outside",
            "kind": "benchmark",
            "label": "fixed",
            "seed": 1,
            "config_hash": "",
            "provenance_id": "",
        }
        ledger.index_path.write_text(canonical_json(line) + "\n", encoding="utf-8")
        read = []
        real_read_text = type(outside).read_text

        def recording_read_text(path, *args, **kwargs):
            read.append(path.resolve())
            return real_read_text(path, *args, **kwargs)

        monkeypatch.setattr(type(outside), "read_text", recording_read_text)
        with pytest.raises(LedgerError, match="malformed run id"):
            ledger.entries()
        with pytest.raises(LedgerError, match="malformed run id"):
            ledger.load("latest")
        assert outside.resolve() not in read


class TestCrawlRecordDeterminism:
    def test_worker_count_does_not_change_the_record(self, tmp_path):
        serial = RunLedger(tmp_path / "serial")
        sharded = RunLedger(tmp_path / "sharded")
        crawl_into(serial, workers=1)
        crawl_into(sharded, workers=4)
        record_serial = serial.load("latest")
        record_sharded = sharded.load("latest")
        assert record_serial.run_id == record_sharded.run_id
        assert record_serial.to_json() == record_sharded.to_json()

    def test_crawl_record_shape(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        crawl_into(ledger)
        record = ledger.load("latest")
        assert record.kind == "crawl"
        assert record.deterministic["seed"] == SEED
        assert "workers" not in record.deterministic["config"]
        assert record.deterministic["outcomes"]
        assert record.measured["clock"] == "fake"
        assert record.measured["peak_rss_kb"] == 0


class TestPipelineRecordDeterminism:
    def test_same_seed_rerun_is_byte_identical_and_diffs_clean(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        pipeline_into(ledger)
        pipeline_into(ledger)
        latest = ledger.load("latest")
        previous = ledger.load("prev")
        assert latest.deterministic_json() == previous.deterministic_json()
        assert latest.run_id == previous.run_id
        diff = diff_records(previous, latest)
        assert diff.clean
        assert diff.gate_ok

    def test_job_count_does_not_change_the_record(self, tmp_path):
        serial = RunLedger(tmp_path / "serial")
        parallel = RunLedger(tmp_path / "parallel")
        pipeline_into(serial, jobs=1)
        pipeline_into(parallel, jobs=3)
        assert serial.load("latest").to_json() == parallel.load("latest").to_json()

    def test_worker_count_does_not_change_the_record(self, tmp_path):
        serial = RunLedger(tmp_path / "serial")
        sharded = RunLedger(tmp_path / "sharded")
        pipeline_into(serial, workers=1)
        pipeline_into(sharded, workers=2)
        serial_record = serial.load("latest")
        sharded_record = sharded.load("latest")
        # The measured hand-off count is the one layout fact in the
        # record: an inline crawl hands off nothing, a sharded one hands
        # off each of its shards (5 sites, one shard each).
        assert serial_record.measured["stream"]["handoffs"] == 0
        assert sharded_record.measured["stream"]["handoffs"] == 5
        sharded_record.measured["stream"]["handoffs"] = 0
        assert serial_record.to_json() == sharded_record.to_json()

    def test_resolved_config_excludes_execution_layout(self):
        config = ExperimentConfig(seed=7, workers=4, jobs=3)
        resolved = resolved_pipeline_config(config)
        assert "workers" not in resolved
        assert "jobs" not in resolved

    def test_different_seed_drifts(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        pipeline_into(ledger, seed=7)
        pipeline_into(ledger, seed=8)
        diff = diff_records(ledger.load("prev"), ledger.load("latest"))
        assert not diff.clean
        assert any(delta.key == "config_hash" for delta in diff.drift)


class TestDiff:
    def test_injected_metric_change_is_drift(self):
        base = fixed_record()
        payload = base.to_payload()
        payload["deterministic"]["marker"] = "changed"
        tampered = RunRecord.from_payload(payload)
        diff = diff_records(base, tampered)
        assert not diff.clean
        assert not diff.gate_ok
        assert [delta.key for delta in diff.drift] == ["marker"]

    def test_injected_slowdown_trips_the_gate(self):
        diff = diff_records(fixed_record(1.0), fixed_record(2.0))
        assert diff.clean  # provenance did not move...
        assert not diff.gate_ok  # ...but the wall clock doubled
        assert any(d.key == "wall_seconds" for d in diff.regressions)

    def test_thresholds_are_configurable(self):
        lenient = DiffThresholds(wall_ratio=3.0, phase_ratio=3.0, rss_ratio=3.0)
        diff = diff_records(fixed_record(1.0), fixed_record(2.0), thresholds=lenient)
        assert diff.gate_ok

    def test_clock_mismatch_skips_measured_comparison(self):
        fake = build_run_record(
            "crawl",
            seed=1,
            config={"seed": 1},
            obs=ObsContext.create(seed=1, clock=FakeClock()),
            records=[],
        )
        real = fixed_record()
        diff = diff_records(fake, real)
        assert diff.measured == ()
        assert any("clock modes differ" in note for note in diff.notes)

    def test_kind_mismatch_is_noted(self):
        fake = fixed_record()
        payload = fake.to_payload()
        payload["kind"] = "crawl"
        diff = diff_records(fake, RunRecord.from_payload(payload))
        assert any("different run kinds" in note for note in diff.notes)


class TestAlertsInRecords:
    ALERT = {
        "name": "failure-spike",
        "severity": "warning",
        "message": "rate 0.2 over last 10 visits",
        "site_rank": None,
        "profile": "",
        "value": 0.2,
        "threshold": 0.1,
    }

    def alerted_record(self):
        # The record reads the alerts the context's monitor holds.
        monitor = Monitor([])
        monitor.alerts.append(Alert(**self.ALERT))
        return build_run_record(
            "crawl",
            seed=1,
            config={"seed": 1},
            obs=ObsContext.create(seed=1, clock=FakeClock(), monitor=monitor),
            records=[],
        )

    def test_alerts_round_trip_through_the_ledger(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = ledger.append(self.alerted_record())
        record = ledger.load(run_id)
        assert record.alerts == (self.ALERT,)
        (entry,) = ledger.entries()
        assert entry.alerts == 1

    def test_alert_free_payload_omits_the_section(self):
        record = build_run_record(
            "crawl",
            seed=1,
            config={"seed": 1},
            obs=ObsContext.create(seed=1, clock=FakeClock()),
            records=[],
        )
        assert "alerts" not in record.to_payload()
        # ...so pre-monitor records keep their content-addressed run ids.
        assert RunRecord.from_json(record.to_json()).run_id == record.run_id

    def test_alert_drift_shows_in_diff(self):
        quiet = build_run_record(
            "crawl",
            seed=1,
            config={"seed": 1},
            obs=ObsContext.create(seed=1, clock=FakeClock()),
            records=[],
        )
        noisy = self.alerted_record()
        diff = diff_records(quiet, noisy)
        assert not diff.clean
        assert any(delta.key.startswith("alerts") for delta in diff.drift)

    def test_malformed_alerts_payload_rejected(self):
        payload = self.alerted_record().to_payload()
        payload["alerts"] = "not-a-list"
        with pytest.raises(LedgerError):
            RunRecord.from_payload(payload)


class TestCli:
    @pytest.fixture()
    def ledger_dir(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        pipeline_into(ledger)
        pipeline_into(ledger)
        return str(tmp_path / "ledger")

    def test_runs_lists_every_event(self, ledger_dir, capsys):
        assert obs_main(["runs", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "pipeline" in out
        assert "crawl" in out
        assert "alerts" in out  # the new column

    def test_runs_kind_filter(self, ledger_dir, capsys):
        assert obs_main(["runs", "--ledger", ledger_dir, "--kind", "crawl"]) == 0
        out = capsys.readouterr().out
        assert "crawl" in out
        assert "pipeline" not in out

    def test_runs_limit(self, ledger_dir, capsys):
        assert obs_main(["runs", "--ledger", ledger_dir, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line and "run" not in line]
        assert len(rows) == 1

    def test_runs_since_run(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "bench")
        for marker in "abc":
            ledger.append(fixed_record(marker=marker))
        first = ledger.entries()[0]
        assert obs_main(
            [
                "runs",
                "--ledger",
                str(tmp_path / "bench"),
                "--since-run",
                first.run_id[:12],
            ]
        ) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line and "run" not in line]
        assert len(rows) == 2  # the two runs after the floor

    def test_runs_no_match_message(self, ledger_dir, capsys):
        assert obs_main(["runs", "--ledger", ledger_dir, "--kind", "nope"]) == 0
        assert "(no matching runs)" in capsys.readouterr().out

    def test_show_prints_the_record(self, ledger_dir, capsys):
        assert obs_main(["show", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert '"deterministic"' in out

    def test_profile_renders_phase_table(self, ledger_dir, capsys):
        assert obs_main(["profile", "--ledger", ledger_dir]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "pipeline" in out

    def test_diff_clean_rerun_exits_zero(self, ledger_dir, capsys):
        assert obs_main(["diff", "--ledger", ledger_dir, "--gate"]) == 0
        assert "deterministic: identical" in capsys.readouterr().out

    def test_diff_gates_on_injected_drift(self, ledger_dir, capsys):
        ledger = RunLedger(ledger_dir)
        payload = ledger.load("latest").to_payload()
        payload["deterministic"]["metrics"] = {"counters": {"bogus": 1}}
        ledger.append(RunRecord.from_payload(payload))
        assert obs_main(["diff", "--ledger", ledger_dir, "--gate"]) == 1
        assert obs_main(["diff", "--ledger", ledger_dir]) == 1
        assert "drifting field" in capsys.readouterr().out

    def test_diff_gates_on_injected_slowdown(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "bench")
        fast, slow = fixed_record(1.0), fixed_record(2.0)
        ledger.append(fast)
        ledger.append(slow)
        args = [fast.run_id[:12], slow.run_id[:12], "--ledger", str(tmp_path / "bench")]
        assert obs_main(["diff"] + args + ["--gate"]) == 1
        assert obs_main(["diff"] + args) == 0  # informational: no drift
        assert obs_main(["diff"] + args + ["--gate", "--wall-ratio", "3.0",
                                           "--phase-ratio", "3.0"]) == 0
        capsys.readouterr()
