"""The live monitor: detector units, alert determinism, ledger alerts.

The acceptance contract (DESIGN §6.5): under ``FakeClock`` the full
event stream AND the alert stream are byte-identical at any worker
count, and the ledger's ``alerts`` section round-trips through the run
record unchanged.
"""

from itertools import groupby

import pytest

from repro.bundle import Bundle, record_from_store
from repro.crawler import RetryPolicy, sample_paper_buckets
from repro.crawler.commander import Commander
from repro.crawler.storage import MeasurementStore
from repro.devtools.clock import FakeClock
from repro.obs import (
    Alert,
    EventStream,
    FailureSpikeDetector,
    Monitor,
    ObsContext,
    ProfileSkewDetector,
    RunLedger,
    SiteStallDetector,
    StreamEvent,
    ThroughputDetector,
    baseline_seconds_per_visit,
    default_expected_failure_rate,
    events_from_store,
    publish_store_events,
)
from repro.obs.monitor import (
    ALERT_FAILURE_SPIKE,
    ALERT_PROFILE_SKEW,
    ALERT_SITE_STALL,
    ALERT_THROUGHPUT_DEGRADED,
    SEVERITY_CRITICAL,
    SEVERITY_WARNING,
    STALL_REASON,
)
from repro.obs.stream import KIND_VISIT
from repro.web import WebConfig, WebGenerator

RANKS = [1, 2, 3, 5, 8]
SEED = 11


def _visit(success=True, rank=1, profile="Old", reason="", seconds=1.0):
    return StreamEvent(
        kind=KIND_VISIT,
        site_rank=rank,
        profile=profile,
        payload={"success": success, "reason": reason, "seconds": seconds},
    )


def _names(alerts):
    return [(alert.name, alert.severity) for alert in alerts]


class TestFailureSpikeDetector:
    def test_quiet_until_window_fills(self):
        detector = FailureSpikeDetector(expected_rate=0.1, window=4)
        for _ in range(3):
            assert detector.observe(_visit(success=False)) == []

    def test_escalation_edges_only(self):
        detector = FailureSpikeDetector(expected_rate=0.1, window=4)
        alerts = []
        # 4 successes: full window, rate 0, quiet.
        for _ in range(4):
            alerts += detector.observe(_visit(success=True))
        # Failures push the rate through warn (0.2) then critical (0.4);
        # each edge fires once, the plateau stays silent.
        for _ in range(4):
            alerts += detector.observe(_visit(success=False))
        assert _names(alerts) == [
            (ALERT_FAILURE_SPIKE, SEVERITY_WARNING),
            (ALERT_FAILURE_SPIKE, SEVERITY_CRITICAL),
        ]

    def test_recovery_re_arms_the_detector(self):
        detector = FailureSpikeDetector(expected_rate=0.1, window=4)
        alerts = []
        for _ in range(4):
            alerts += detector.observe(_visit(success=True))
        alerts += detector.observe(_visit(success=False))  # 0.25 -> warning
        for _ in range(4):
            alerts += detector.observe(_visit(success=True))  # back to 0
        alerts += detector.observe(_visit(success=False))  # 0.25 -> warning again
        assert _names(alerts) == [
            (ALERT_FAILURE_SPIKE, SEVERITY_WARNING),
            (ALERT_FAILURE_SPIKE, SEVERITY_WARNING),
        ]

    def test_alert_carries_value_and_threshold(self):
        detector = FailureSpikeDetector(expected_rate=0.1, window=4)
        alerts = []
        for success in (True, True, True, False):
            alerts += detector.observe(_visit(success=success))
        (alert,) = alerts
        assert alert.value == 0.25
        assert alert.threshold == pytest.approx(0.2)

    def test_non_visit_events_are_ignored(self):
        detector = FailureSpikeDetector(expected_rate=0.1, window=1)
        event = StreamEvent(kind="other", site_rank=1)
        assert detector.observe(event) == []


class TestThroughputDetector:
    def test_mean_vs_baseline_edges(self):
        detector = ThroughputDetector(baseline_seconds=1.0, window=2)
        alerts = []
        for seconds in (1.0, 1.0):  # mean 1.0: at baseline, quiet
            alerts += detector.observe(_visit(seconds=seconds))
        for seconds in (2.0, 2.0):  # mean climbs past 1.5x -> warning
            alerts += detector.observe(_visit(seconds=seconds))
        for seconds in (4.0, 4.0):  # mean 4.0 > 3.0x -> critical
            alerts += detector.observe(_visit(seconds=seconds))
        assert _names(alerts) == [
            (ALERT_THROUGHPUT_DEGRADED, SEVERITY_WARNING),
            (ALERT_THROUGHPUT_DEGRADED, SEVERITY_CRITICAL),
        ]

    def test_threshold_is_strict(self):
        # Exactly baseline x warn factor does not alert.
        detector = ThroughputDetector(baseline_seconds=1.0, window=2)
        alerts = []
        for seconds in (1.5, 1.5):
            alerts += detector.observe(_visit(seconds=seconds))
        assert alerts == []


class TestSiteStallDetector:
    def test_fires_exactly_once_per_site_at_limit(self):
        detector = SiteStallDetector(limit=2)
        alerts = []
        for _ in range(4):
            alerts += detector.observe(
                _visit(success=False, rank=7, reason=STALL_REASON)
            )
        assert _names(alerts) == [(ALERT_SITE_STALL, SEVERITY_CRITICAL)]
        assert alerts[0].site_rank == 7
        # A different site has its own watchdog.
        alerts = []
        for _ in range(2):
            alerts += detector.observe(
                _visit(success=False, rank=9, reason=STALL_REASON)
            )
        assert _names(alerts) == [(ALERT_SITE_STALL, SEVERITY_CRITICAL)]

    def test_other_failure_reasons_do_not_count(self):
        detector = SiteStallDetector(limit=1)
        assert detector.observe(_visit(success=False, reason="dns-error")) == []

    def test_stall_reason_matches_fault_taxonomy(self):
        from repro.web.faults import STALL_TIMEOUT

        assert STALL_REASON == STALL_TIMEOUT


class TestProfileSkewDetector:
    def test_gap_between_full_windows(self):
        detector = ProfileSkewDetector(window=2)
        alerts = []
        alerts += detector.observe(_visit(success=True, profile="Old"))
        alerts += detector.observe(_visit(success=False, profile="NoAction"))
        assert alerts == []  # windows not full yet
        alerts += detector.observe(_visit(success=True, profile="Old"))
        alerts += detector.observe(_visit(success=False, profile="NoAction"))
        assert _names(alerts) == [(ALERT_PROFILE_SKEW, SEVERITY_CRITICAL)]
        assert alerts[0].profile == "NoAction"  # the degraded profile
        assert alerts[0].value == 1.0

    def test_single_profile_never_alerts(self):
        detector = ProfileSkewDetector(window=1)
        assert detector.observe(_visit(success=False, profile="Old")) == []

    def test_events_without_profile_are_ignored(self):
        detector = ProfileSkewDetector(window=1)
        assert detector.observe(_visit(success=False, profile="")) == []


class TestMonitor:
    def test_routes_events_and_counts(self):
        monitor = Monitor.for_crawl(expected_rate=0.05, window=2)
        for success in (False, False):
            monitor.handle(_visit(success=success))
        assert monitor.events_seen == 2
        assert monitor.has_critical

    def test_on_alert_fires_in_emission_order(self):
        seen = []
        monitor = Monitor.for_crawl(
            expected_rate=0.05, window=2, on_alert=seen.append
        )
        for success in (False, False):
            monitor.handle(_visit(success=success))
        assert seen == monitor.alerts

    def test_alerts_payload_is_ledger_ready(self):
        monitor = Monitor(
            [FailureSpikeDetector(expected_rate=0.1, window=1)]
        )
        monitor.handle(_visit(success=False))
        (payload,) = monitor.alerts_payload()
        assert payload["name"] == ALERT_FAILURE_SPIKE
        assert payload["severity"] == SEVERITY_CRITICAL
        assert payload["value"] == 1.0

    def test_for_crawl_adds_throughput_only_with_baseline(self):
        without = Monitor.for_crawl(expected_rate=0.1)
        with_baseline = Monitor.for_crawl(expected_rate=0.1, baseline_seconds=2.0)
        kinds = lambda monitor: [type(d).__name__ for d in monitor.detectors]
        assert "ThroughputDetector" not in kinds(without)
        assert "ThroughputDetector" in kinds(with_baseline)


class TestExpectedFailureRate:
    def test_combines_fault_layers(self):
        from repro.web.faults import (
            CRAWLER_FAULT_PROBABILITY,
            PERSISTENT_FAULT_PROBABILITY,
        )

        p = WebConfig().page_fail_probability
        q = CRAWLER_FAULT_PROBABILITY
        r = PERSISTENT_FAULT_PROBABILITY
        expected = r + (1.0 - r) * (p + q - p * q)
        assert default_expected_failure_rate() == pytest.approx(expected)

    def test_explicit_page_probability(self):
        from repro.web.faults import (
            CRAWLER_FAULT_PROBABILITY,
            PERSISTENT_FAULT_PROBABILITY,
        )

        rate = default_expected_failure_rate(page_fail_probability=0.0)
        expected = (
            PERSISTENT_FAULT_PROBABILITY
            + (1.0 - PERSISTENT_FAULT_PROBABILITY) * CRAWLER_FAULT_PROBABILITY
        )
        assert rate == pytest.approx(expected)


class _FakeRecord:
    def __init__(self, histogram):
        metrics = {"histograms": {"crawl.visit_seconds": histogram}} if histogram else {}
        self.deterministic = {"metrics": metrics}


class TestBaselineSecondsPerVisit:
    def test_bucket_midpoint_estimate(self):
        record = _FakeRecord(
            {"edges": [1.0, 2.0], "counts": [2, 0, 2], "count": 4}
        )
        # Midpoints: 0.5 (under), 1.5 (between), 2.0 (overflow clamp).
        assert baseline_seconds_per_visit(record) == pytest.approx(1.25)

    def test_missing_histogram_is_none(self):
        assert baseline_seconds_per_visit(_FakeRecord(None)) is None

    def test_empty_histogram_is_none(self):
        record = _FakeRecord({"edges": [1.0], "counts": [0, 0], "count": 0})
        assert baseline_seconds_per_visit(record) is None

    def test_malformed_counts_are_none(self):
        record = _FakeRecord({"edges": [1.0], "counts": [1], "count": 1})
        assert baseline_seconds_per_visit(record) is None


def _monitored_crawl(workers, ledger_dir, fail_probability=0.3, monitored=True):
    """Crawl with the full monitor attached (or, unless ``monitored``,
    with the event stream alone); returns (obs, monitor, ledger, events),
    ``events`` being every event the stream published."""
    ledger = RunLedger(str(ledger_dir))
    obs = ObsContext.create(
        seed=SEED, clock=FakeClock(), ledger=ledger, stream=EventStream()
    )
    events = []
    obs.stream.subscribe(events.append)
    monitor = None
    if monitored:
        monitor = Monitor.for_crawl(
            expected_rate=default_expected_failure_rate(fail_probability),
            window=10,
        )
        obs.attach_monitor(monitor)
    generator = WebGenerator(
        SEED, config=WebConfig(page_fail_probability=fail_probability)
    )
    store = MeasurementStore()
    Commander(
        generator, store, max_pages_per_site=3, workers=workers, obs=obs
    ).run(RANKS)
    store.close()
    return obs, monitor, ledger, events


class TestMonitorDeterminism:
    """The PR's acceptance test: serial and sharded monitoring agree."""

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        return _monitored_crawl(1, tmp_path_factory.mktemp("serial-ledger"))

    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        return _monitored_crawl(4, tmp_path_factory.mktemp("sharded-ledger"))

    def test_event_stream_bytes_identical(self, serial, sharded):
        serial_jsonl = "\n".join(e.to_json() for e in serial[3])
        sharded_jsonl = "\n".join(e.to_json() for e in sharded[3])
        assert serial_jsonl == sharded_jsonl
        assert serial[3]  # the crawl actually streamed

    def test_alert_stream_identical(self, serial, sharded):
        assert serial[1].alerts == sharded[1].alerts
        assert serial[1].alerts, "elevated fault rate should raise alerts"

    def test_ledger_alerts_section_identical(self, serial, sharded):
        records = []
        for _, _, ledger, _ in (serial, sharded):
            (entry,) = ledger.entries()
            assert entry.alerts == len(serial[1].alerts)
            records.append(ledger.load(entry.run_id))
        assert records[0].alerts == records[1].alerts
        assert records[0].alerts  # round-tripped through the ledger

    def test_monitor_saw_every_accepted_event(self, serial):
        _, monitor, _, events = serial
        assert monitor.events_seen == len(events)


class TestMonitorLeavesMetricsAlone:
    """DESIGN §6, invariant 8: detectors observe the run, they never
    write telemetry, so attaching the monitor changes no metric byte."""

    def test_metrics_bytes_identical_with_and_without_monitor(self, tmp_path):
        monitored = _monitored_crawl(1, tmp_path / "monitored")
        unmonitored = _monitored_crawl(1, tmp_path / "unmonitored", monitored=False)
        obs, monitor, _, events = monitored
        assert monitor.events_seen == len(events) == len(unmonitored[3])
        # Failed visits reached the detectors: one that counted them
        # into the registry would have something to count.
        assert any(not event.payload["success"] for event in events)
        assert obs.metrics.to_json() == unmonitored[0].metrics.to_json()


class TestEventsFromStore:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        obs = ObsContext.create(seed=SEED, clock=FakeClock())
        store = MeasurementStore()
        Commander(WebGenerator(SEED), store, max_pages_per_site=2, obs=obs).run(
            [1, 2]
        )
        yield store
        store.close()

    def test_reconstructed_sequence_is_site_blocked(self, store):
        events = list(events_from_store(store))
        # One visit event per stored visit, in visit-id order ...
        assert {event.kind for event in events} == {KIND_VISIT}
        assert [event.payload["visit_id"] for event in events] == [
            visit.visit_id for visit in store.iter_visits(success_only=False)
        ]
        ids = [event.payload["visit_id"] for event in events]
        assert ids == sorted(ids) and len(ids) == store.visit_count()
        # ... which is site-block order: the rank changes once per site.
        assert [rank for rank, _ in groupby(e.site_rank for e in events)] == [1, 2]

    def test_publish_store_events_feeds_a_monitor(self, store):
        stream = EventStream()
        events = []
        stream.subscribe(events.append)
        monitor = Monitor.for_crawl(expected_rate=0.99, window=5)
        stream.subscribe(monitor.handle)
        accepted = publish_store_events(store, stream)
        assert accepted == len(events) > 0
        assert monitor.events_seen == accepted
        assert not monitor.has_critical  # generous expectation: quiet run


def _retry_crawl_answers(workers, tmp_path):
    """One monitored, ledgered retry crawl, read back three ways.

    Returns the crawl's ledger record, the alerts a monitor raises over
    the crawl's store, and the replay record of the crawl's bundle.
    """
    seed = 2023
    expected = default_expected_failure_rate()
    obs = ObsContext.create(
        seed=seed,
        clock=FakeClock(),
        ledger=RunLedger(str(tmp_path / "crawl-ledger")),
        stream=EventStream(),
    )
    obs.attach_monitor(Monitor.for_crawl(expected_rate=expected, window=10))
    generator = WebGenerator(seed)
    store = MeasurementStore()
    Commander(
        generator,
        store,
        max_pages_per_site=5,
        workers=workers,
        obs=obs,
        retry_policy=RetryPolicy(max_attempts=3),
        salvage_partial=True,
        stateful=True,
    ).run(sample_paper_buckets(seed, per_bucket=2))
    store_monitor = Monitor.for_crawl(expected_rate=expected, window=10)
    stream = EventStream()
    stream.subscribe(store_monitor.handle)
    publish_store_events(store, stream)
    record_from_store(
        store,
        seed=seed,
        path=tmp_path / "bundle",
        retries=2,
        salvage_partial=True,
        stateful=True,
        generator=generator,
    )
    store.close()
    replay_obs = ObsContext.create(
        seed=seed,
        clock=FakeClock(),
        ledger=RunLedger(str(tmp_path / "replay-ledger")),
        stream=EventStream(),
    )
    replay_obs.attach_monitor(Monitor.for_crawl(expected_rate=expected, window=10))
    Bundle.open(tmp_path / "bundle").replay(obs=replay_obs).close()
    return (
        obs.ledger.load("latest"),
        store_monitor.alerts_payload(),
        replay_obs.ledger.load("latest"),
    )


class TestOneRetryCrawlOneAnswer:
    """A retry crawl's live run, its store and its bundle replay report
    the same alerts and the same outcomes, serially and sharded."""

    @pytest.fixture(scope="class", params=[1, 2], ids=["serial", "sharded"])
    def answers(self, request, tmp_path_factory):
        return _retry_crawl_answers(request.param, tmp_path_factory.mktemp("retry"))

    def test_every_reader_raises_the_live_alerts(self, answers):
        crawl, store_alerts, replay = answers
        live_alerts = [dict(alert) for alert in crawl.alerts]
        assert live_alerts, "the retry crawl should raise alerts"
        assert live_alerts == store_alerts
        assert [dict(alert) for alert in replay.alerts] == live_alerts

    def test_replay_record_reports_the_live_outcomes(self, answers):
        crawl, _, replay = answers
        outcomes = crawl.deterministic["outcomes"]
        assert sum(row["retries"] for row in outcomes.values()) > 0
        assert replay.deterministic["outcomes"] == outcomes


class TestAlertRecord:
    def test_format_includes_scope(self):
        alert = Alert(
            name=ALERT_SITE_STALL,
            severity=SEVERITY_CRITICAL,
            message="stalled",
            site_rank=4,
        )
        assert alert.format() == "[critical] site-stall site=4: stalled"

    def test_payload_rounds_floats(self):
        alert = Alert(
            name=ALERT_FAILURE_SPIKE,
            severity=SEVERITY_WARNING,
            message="m",
            value=1 / 3,
            threshold=2 / 3,
        )
        payload = alert.to_payload()
        assert payload["value"] == round(1 / 3, 6)
        assert payload["threshold"] == round(2 / 3, 6)


class TestWatchCli:
    """``repro-obs watch`` monitors a stored crawl and gates CI."""

    @pytest.fixture(scope="class")
    def crawl(self, tmp_path_factory):
        """A db and ledger that one ``repro crawl`` wrote."""
        from repro.cli import main as repro_main

        root = tmp_path_factory.mktemp("watch")
        db, ledger = str(root / "crawl.sqlite"), str(root / "ledger")
        assert repro_main(
            ["crawl", "--db", db, "--seed", "7", "--sites-per-bucket", "1",
             "--pages-per-site", "2", "--ledger", ledger]
        ) == 0
        return db, ledger

    def _watch(self, crawl, *extra):
        from repro.obs.cli import main as obs_main

        db, ledger = crawl
        return obs_main(
            ["watch", "--db", db, "--window", "10", "--ledger", ledger, *extra]
        )

    def test_watch_without_gate_reports_and_exits_zero(self, crawl, capsys):
        assert self._watch(crawl) == 0
        out = capsys.readouterr().out
        assert "events monitored" in out
        # The crawl landed in the ledger; reading its db records no run.
        assert [entry.kind for entry in RunLedger(crawl[1]).entries()] == ["crawl"]

    def test_gate_trips_on_critical_alerts(self, crawl, capsys):
        assert self._watch(crawl, "--monitor-gate") == 1
        out = capsys.readouterr().out
        assert "critical" in out

    def test_gate_passes_with_generous_expectation(self, crawl, capsys):
        code = self._watch(
            crawl, "--monitor-gate", "--expected-failure-rate", "1.0"
        )
        assert code == 0
        capsys.readouterr()

    def test_watch_replays_a_recorded_db(self, crawl, capsys):
        from repro.obs.cli import main as obs_main

        code = obs_main(
            ["watch", "--db", crawl[0], "--expected-failure-rate", "1.0"]
        )
        assert code == 0
        assert "events monitored" in capsys.readouterr().out

    def test_baseline_requires_ledger(self, crawl, capsys):
        from repro.obs.cli import main as obs_main

        assert obs_main(["watch", "--db", crawl[0], "--baseline", "latest"]) == 2
        assert "--baseline needs --ledger" in capsys.readouterr().err


class TestRenderAlerts:
    def test_empty(self):
        from repro.obs import render_alerts

        assert render_alerts([]) == "(no alerts)"

    def test_lines_and_tally(self):
        from repro.obs import render_alerts

        alerts = [
            Alert(name=ALERT_FAILURE_SPIKE, severity=SEVERITY_WARNING, message="w"),
            Alert(name=ALERT_SITE_STALL, severity=SEVERITY_CRITICAL, message="c"),
            Alert(name=ALERT_PROFILE_SKEW, severity=SEVERITY_WARNING, message="w2"),
        ]
        lines = render_alerts(alerts).splitlines()
        assert lines[0] == "[warning] failure-spike: w"
        assert lines[-1] == "3 alert(s): 1 critical, 2 warning"
