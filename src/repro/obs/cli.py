"""``repro-obs`` — crawl health, live monitoring, run ledger, and drift
reports.

Subcommands::

    repro-obs health  [--seed N ... | --db run.sqlite | --from-bundle DIR]
    repro-obs watch   [--seed N ... | --db run.sqlite | --from-bundle DIR]
                      [--baseline REF --ledger DIR] [--monitor-gate]
    repro-obs runs    --ledger DIR [--limit N] [--kind KIND] [--since-run REF]
    repro-obs show    [REF] --ledger DIR
    repro-obs profile [REF] --ledger DIR | --trace trace.jsonl [--flame]
    repro-obs diff    [RECORDED [LIVE]] --ledger DIR [--gate]

``health`` runs a fully instrumented seeded crawl (or audits an existing
measurement database, or replays a recorded bundle) and prints
per-profile outcomes plus per-stage timings.  ``watch`` runs the same
sources through the live monitor (:mod:`repro.obs.monitor`): alerts
print as detectors fire, a summary follows, and ``--monitor-gate`` exits
nonzero when any alert is critical.  ``--fake-clock`` freezes span
timestamps for deterministic output; ``--ledger DIR`` appends the run's
record to a ledger.  The ledger subcommands list, print, profile, and
diff stored run records; run references are ``latest``, ``prev``, or a
unique run-id prefix.  ``diff --gate`` exits nonzero on deterministic
drift *or* a measured regression past the thresholds.

For compatibility with the original flag-only interface, an invocation
whose first argument is not a subcommand is treated as ``health``
(``repro-obs --seed 7`` still works).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..crawler.commander import Commander
from ..crawler.retry import RetryPolicy
from ..crawler.storage import MeasurementStore
from ..crawler.tranco import sample_paper_buckets
from ..devtools.clock import FakeClock
from ..errors import ReproError
from ..web import WebGenerator
from . import ObsContext
from .health import build_health_report, render_health_report
from .ledger import DiffThresholds, RunLedger, diff_records
from .monitor import (
    Monitor,
    baseline_seconds_per_visit,
    default_expected_failure_rate,
    publish_store_events,
)
from .profile import build_profile, profile_from_parts
from .render import render_alerts, render_flame, render_profile, render_trace
from .stream import EventStream
from .trace import read_jsonl

_SUBCOMMANDS = ("health", "watch", "runs", "show", "profile", "diff")


def _source_parser() -> argparse.ArgumentParser:
    """The crawl-source flags ``health`` and ``watch`` share."""
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "--db", default="", help="read an existing crawl db (opened read-only)"
    )
    source.add_argument(
        "--from-bundle", default="", help="replay a recorded crawl bundle"
    )
    source.add_argument("--seed", type=int, default=2023)
    source.add_argument(
        "--sites-per-bucket",
        type=int,
        default=10,
        help="sites per popularity bucket (x5 buckets; default 10 -> 50 sites)",
    )
    source.add_argument("--pages-per-site", type=int, default=4)
    source.add_argument(
        "--jobs", type=int, default=1, help="worker processes for the sharded crawl"
    )
    source.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-attempts per failed retryable visit (0 = single attempt)",
    )
    source.add_argument(
        "--salvage-partial",
        action="store_true",
        help="store the partial traffic of timed-out visits",
    )
    source.add_argument(
        "--ledger",
        default="",
        help="append this run's record to a ledger (a --db source records none)",
    )
    source.add_argument(
        "--fake-clock",
        action="store_true",
        help="freeze span timestamps (deterministic output for tests)",
    )
    return source


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Crawl health, run ledger, and cross-run drift reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    source = _source_parser()

    health = sub.add_parser(
        "health", parents=[source], help="per-profile outcomes and stage timings"
    )
    health.add_argument("--trace", default="", help="write the span trace (JSONL)")
    health.add_argument(
        "--metrics-out", default="", help="write the run's metrics (JSON)"
    )
    health.add_argument(
        "--show-trace", action="store_true", help="also print the span tree"
    )
    health.set_defaults(func=_cmd_health)

    watch = sub.add_parser(
        "watch",
        parents=[source],
        help="live crawl monitor: streaming telemetry and alerts",
    )
    watch.add_argument(
        "--baseline",
        default="",
        help="ledger run ref whose visit-duration histogram becomes the "
        "throughput baseline (needs --ledger)",
    )
    watch.add_argument(
        "--expected-failure-rate",
        type=float,
        default=None,
        help="override the fault-taxonomy failure-rate expectation",
    )
    watch.add_argument(
        "--window",
        type=int,
        default=0,
        help="override every detector's rolling-window size (0 = defaults)",
    )
    watch.add_argument(
        "--monitor-gate",
        action="store_true",
        help="exit 1 when any critical alert fired",
    )
    watch.set_defaults(func=_cmd_watch)

    runs = sub.add_parser("runs", help="list the runs a ledger has recorded")
    runs.add_argument("--ledger", required=True, help="ledger directory")
    runs.add_argument(
        "--limit", type=int, default=0, help="show only the last N entries"
    )
    runs.add_argument("--kind", default="", help="only runs of this kind")
    runs.add_argument(
        "--since-run",
        default="",
        help="only entries appended after this run ref",
    )
    runs.set_defaults(func=_cmd_runs)

    show = sub.add_parser("show", help="print one run record as JSON")
    show.add_argument("ref", nargs="?", default="latest")
    show.add_argument("--ledger", required=True, help="ledger directory")
    show.set_defaults(func=_cmd_show)

    profile = sub.add_parser(
        "profile", help="phase profile of a recorded run (or a trace file)"
    )
    profile.add_argument("ref", nargs="?", default="latest")
    profile.add_argument("--ledger", default="", help="ledger directory")
    profile.add_argument(
        "--trace", default="", help="profile a span trace (JSONL) instead"
    )
    profile.add_argument(
        "--flame",
        action="store_true",
        help="flame-style span rendering (needs --trace; records keep "
        "phase aggregates, not span trees)",
    )
    profile.set_defaults(func=_cmd_profile)

    diff = sub.add_parser(
        "diff",
        help="drift report between two runs (default: prev vs latest); "
        "exit 1 on deterministic drift",
    )
    diff.add_argument("recorded", nargs="?", default="prev")
    diff.add_argument("live", nargs="?", default="latest")
    diff.add_argument("--ledger", required=True, help="ledger directory")
    diff.add_argument(
        "--gate",
        action="store_true",
        help="also exit 1 when a measured ratio passes its threshold",
    )
    diff.add_argument(
        "--wall-ratio",
        type=float,
        default=DiffThresholds.wall_ratio,
        help="regression threshold for wall seconds (live/recorded)",
    )
    diff.add_argument(
        "--phase-ratio",
        type=float,
        default=DiffThresholds.phase_ratio,
        help="regression threshold for per-phase seconds",
    )
    diff.add_argument(
        "--rss-ratio",
        type=float,
        default=DiffThresholds.rss_ratio,
        help="regression threshold for peak RSS",
    )
    diff.set_defaults(func=_cmd_diff)

    return parser


def _ledger_for(args: argparse.Namespace) -> Optional[RunLedger]:
    return RunLedger(args.ledger) if args.ledger else None


def _obs_for(
    args: argparse.Namespace, stream: Optional[EventStream] = None
) -> ObsContext:
    """The run's telemetry; reading a stored db records no run."""
    return ObsContext.create(
        seed=args.seed,
        clock=FakeClock() if args.fake_clock else None,
        ledger=None if args.db else _ledger_for(args),
        stream=stream,
    )


def _open_store(args: argparse.Namespace, obs: ObsContext) -> MeasurementStore:
    """The crawl to report on: a stored db, a replayed bundle, or a
    fresh seeded crawl.

    Each source publishes its stored visits on ``obs``'s stream when it
    is enabled: the db here, the bundle and the crawl as they run.
    """
    if args.db:
        store = MeasurementStore.open_readonly(args.db)
        if obs.stream.enabled:
            publish_store_events(store, obs.stream)
        return store
    if args.from_bundle:
        from ..bundle import Bundle  # deferred: repro.bundle imports crawler too

        return Bundle.open(args.from_bundle).replay(obs=obs)
    store = MeasurementStore()
    Commander(
        WebGenerator(args.seed),
        store,
        max_pages_per_site=args.pages_per_site,
        workers=args.jobs,
        obs=obs,
        retry_policy=RetryPolicy.with_retries(args.retries),
        salvage_partial=args.salvage_partial,
    ).run(sample_paper_buckets(args.seed, per_bucket=args.sites_per_bucket))
    return store


def _print_ledger_line(obs: ObsContext) -> None:
    if obs.ledger is not None:
        entries = obs.ledger.entries()
        if entries:
            print(f"ledger: run {entries[-1].run_id[:12]} -> {obs.ledger.root}")


def _cmd_health(args: argparse.Namespace) -> int:
    obs = _obs_for(args)
    with _open_store(args, obs) as store:
        report = build_health_report(store=store, records=obs.tracer.records)
    print(render_health_report(report))
    if args.show_trace:
        print()
        print(render_trace(obs.tracer.records))
    if args.trace:
        count = obs.tracer.write_jsonl(args.trace)
        print(f"\nwrote {count} spans to {args.trace}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_json() + "\n")
        print(f"wrote {len(obs.metrics)} metrics to {args.metrics_out}")
    _print_ledger_line(obs)
    return 0


def _print_alert(alert) -> None:
    print(f"! {alert.format()}")


def _monitor_for(args: argparse.Namespace) -> Monitor:
    """Build the watch monitor from CLI flags."""
    ledger = _ledger_for(args)
    if args.baseline and ledger is None:
        raise ReproError("--baseline needs --ledger")
    baseline = (
        baseline_seconds_per_visit(ledger.load(args.baseline))
        if args.baseline
        else None
    )
    expected = args.expected_failure_rate
    if expected is None:
        expected = default_expected_failure_rate()
    return Monitor.for_crawl(
        expected_rate=expected,
        baseline_seconds=baseline,
        on_alert=_print_alert,
        window=args.window if args.window > 0 else None,
    )


def _cmd_watch(args: argparse.Namespace) -> int:
    monitor = _monitor_for(args)
    obs = _obs_for(args, stream=EventStream())
    obs.attach_monitor(monitor)
    _open_store(args, obs).close()
    print()
    print(render_alerts(monitor.alerts))
    print(f"{monitor.events_seen} events monitored")
    _print_ledger_line(obs)
    if args.monitor_gate and monitor.has_critical:
        return 1
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    entries = ledger.entries()
    if not entries:
        print("(empty ledger)")
        return 0
    if args.since_run:
        floor = ledger.resolve(args.since_run).seq
        entries = [entry for entry in entries if entry.seq > floor]
    if args.kind:
        entries = [entry for entry in entries if entry.kind == args.kind]
    if args.limit > 0:
        entries = entries[-args.limit :]
    if not entries:
        print("(no matching runs)")
        return 0
    print(
        f"{'seq':>4} {'run id':<14} {'kind':<10} {'label':<14} "
        f"{'seed':>6} {'provenance':<14} {'alerts':>6}"
    )
    for entry in entries:
        print(
            f"{entry.seq:>4} {entry.run_id[:12]:<14} {entry.kind:<10} "
            f"{(entry.label or '-'):<14} {entry.seed:>6} "
            f"{entry.provenance_id[:12]:<14} {entry.alerts:>6}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    record = RunLedger(args.ledger).load(args.ref)
    print(f"run {record.run_id}")
    print(f"provenance {record.provenance_id}")
    print(record.to_json(), end="")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    if args.trace:
        records = read_jsonl(args.trace)
        if args.flame:
            print(render_flame(records))
        else:
            print(render_profile(build_profile(records)))
        return 0
    if not args.ledger:
        print(
            "repro-obs profile: need --ledger (with a run ref) or --trace",
            file=sys.stderr,
        )
        return 2
    if args.flame:
        print(
            "repro-obs profile: --flame needs --trace (ledger records keep "
            "phase aggregates, not span trees)",
            file=sys.stderr,
        )
        return 2
    record = RunLedger(args.ledger).load(args.ref)
    rows = record.deterministic.get("phases", [])
    phase_seconds = record.measured.get("phase_seconds", {})
    wall = float(record.measured.get("wall_seconds", 0.0))
    print(f"run {record.run_id[:12]} kind={record.kind} clock={record.measured.get('clock')}")
    print(render_profile(profile_from_parts(rows, phase_seconds, wall)))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    recorded = ledger.load(args.recorded)
    live = ledger.load(args.live)
    thresholds = DiffThresholds(
        wall_ratio=args.wall_ratio,
        phase_ratio=args.phase_ratio,
        rss_ratio=args.rss_ratio,
    )
    diff = diff_records(recorded, live, thresholds=thresholds)
    print(diff.render())
    if args.gate:
        return 0 if diff.gate_ok else 1
    return 0 if diff.clean else 1


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Flag-only compatibility: the original repro-obs had no subcommands,
    # so anything that does not start with one is a health invocation.
    if not argv or (
        argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help")
    ):
        argv = ["health"] + argv
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-obs: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, as CLI
        # tools conventionally do.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
