"""``repro-obs`` — crawl health, live monitoring, run ledger, and drift
reports, read from stored crawls.

Subcommands::

    repro-obs health  (--db run.sqlite | --from-bundle DIR) [--ledger DIR]
    repro-obs watch   (--db run.sqlite | --from-bundle DIR)
                      [--baseline REF --ledger DIR] [--monitor-gate]
    repro-obs runs    --ledger DIR [--limit N] [--kind KIND] [--since-run REF]
    repro-obs show    [REF] --ledger DIR
    repro-obs profile [REF] --ledger DIR | --trace trace.jsonl [--flame]
    repro-obs diff    [RECORDED [LIVE]] --ledger DIR [--gate]

``health`` and ``watch`` never crawl: they read a measurement database
(read-only) or replay a recorded bundle in memory.  ``health`` prints
the Table-1-style per-profile outcomes, the report ``repro crawl``
prints for the store it wrote.  ``watch`` runs the stored visits
through the live monitor (:mod:`repro.obs.monitor`): alerts print as
detectors fire, a summary follows, and ``--monitor-gate`` exits nonzero
when any alert is critical.  A bundle replay appends its record to
``--ledger DIR`` (``--fake-clock`` freezes its span timestamps); a db
read records no run.  The ledger subcommands list, print, profile, and
diff stored run records; run references are ``latest``, ``prev``, or a
unique run-id prefix.  ``diff --gate`` exits nonzero on deterministic
drift *or* a measured regression past the thresholds.

:func:`obs_from_args` and :func:`finish_obs` are every command line's
telemetry wiring: ``repro``, ``repro-bundle`` and ``python -m
repro.experiments`` build their context and report it through them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..crawler.storage import MeasurementStore
from ..devtools.clock import Clock, FakeClock
from ..errors import ReproError
from . import NULL_OBS, ObsContext
from .health import build_health_report, render_health_report
from .ledger import DiffThresholds, RunLedger, diff_records
from .monitor import (
    Monitor,
    baseline_seconds_per_visit,
    default_expected_failure_rate,
    publish_store_events,
)
from .profile import build_profile, profile_from_parts
from .render import render_alerts, render_flame, render_profile
from .trace import read_jsonl


def obs_from_args(
    args: argparse.Namespace, clock: Optional[Clock] = None, record: bool = True
) -> ObsContext:
    """The run's telemetry context, from whichever telemetry flags its
    command line has (a command without a flag reads it as unset).

    ``--trace``, ``--metrics-out``, ``--ledger`` and ``--monitor`` or
    ``--monitor-gate`` each enable the context; otherwise the run gets
    :data:`NULL_OBS`.  Spans are seeded with ``--seed`` and timed by
    ``clock`` (frozen by ``--fake-clock``).  The run appends its record to
    ``--ledger`` unless ``record`` is false (a stored db is read, not
    run).  A monitored run gets an event stream and the crawl monitor,
    which prints each alert as it fires; ``--expected-failure-rate``,
    ``--baseline`` (a run of ``--ledger``) and ``--window`` tune it.
    """
    ledger = RunLedger(args.ledger) if getattr(args, "ledger", "") else None
    monitored = getattr(args, "monitor", False) or getattr(args, "monitor_gate", False)
    if not (
        getattr(args, "trace", "")
        or getattr(args, "metrics_out", "")
        or ledger is not None
        or monitored
    ):
        return NULL_OBS
    monitor = None
    if monitored:
        baseline = getattr(args, "baseline", "")
        if baseline and ledger is None:
            raise ReproError("--baseline needs --ledger")
        expected = getattr(args, "expected_failure_rate", None)
        window = getattr(args, "window", 0)
        monitor = Monitor.for_crawl(
            expected_rate=(
                expected if expected is not None else default_expected_failure_rate()
            ),
            baseline_seconds=(
                baseline_seconds_per_visit(ledger.load(baseline)) if baseline else None
            ),
            on_alert=lambda alert: print(f"! {alert.format()}"),
            window=window if window > 0 else None,
        )
    return ObsContext.create(
        seed=getattr(args, "seed", None) or 0,
        clock=FakeClock() if getattr(args, "fake_clock", False) else clock,
        ledger=ledger if record else None,
        monitor=monitor,
    )


def finish_obs(obs: ObsContext, args: argparse.Namespace) -> int:
    """Write the run's ``--trace`` and ``--metrics-out`` files, print the
    ledger line and the monitor's summary; returns the exit status: 1
    when ``--monitor-gate`` is set and a critical alert fired, else 0."""
    if getattr(args, "trace", ""):
        count = obs.tracer.write_jsonl(args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if getattr(args, "metrics_out", ""):
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_json() + "\n")
        print(f"wrote {len(obs.metrics)} metrics to {args.metrics_out}")
    if obs.ledger is not None:
        entries = obs.ledger.entries()
        if entries:
            print(f"ledger: run {entries[-1].run_id[:12]} -> {obs.ledger.root}")
    monitor = obs.monitor
    if monitor is None:
        return 0
    print()
    print(render_alerts(monitor.alerts))
    print(f"{monitor.events_seen} events monitored")
    return 1 if getattr(args, "monitor_gate", False) and monitor.has_critical else 0


def _source_parser() -> argparse.ArgumentParser:
    """The stored-crawl flags ``health`` and ``watch`` share."""
    source = argparse.ArgumentParser(add_help=False)
    stored = source.add_mutually_exclusive_group(required=True)
    stored.add_argument("--db", default="", help="a crawl db (opened read-only)")
    stored.add_argument(
        "--from-bundle", default="", help="replay a recorded crawl bundle in memory"
    )
    source.add_argument(
        "--ledger",
        default="",
        help="append a bundle replay's record to a ledger (a --db read records none)",
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
        "health", parents=[source], help="per-profile outcomes of a stored crawl"
    )
    health.set_defaults(func=_cmd_health)

    watch = sub.add_parser(
        "watch",
        parents=[source],
        help="run a stored crawl's visits through the live monitor",
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
    watch.set_defaults(func=_cmd_watch, monitor=True)

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


def _open_store(args: argparse.Namespace, obs: ObsContext) -> MeasurementStore:
    """The stored crawl to report on: a db or a replayed bundle.

    Either source publishes its stored visits on ``obs``'s stream when
    it is enabled: the db here, the bundle as it replays.
    """
    if args.db:
        store = MeasurementStore.open_readonly(args.db)
        if obs.stream.enabled:
            publish_store_events(store, obs.stream)
        return store
    from ..bundle import Bundle  # deferred: repro.bundle.cli imports this module

    return Bundle.open(args.from_bundle).replay(obs=obs)


def _cmd_health(args: argparse.Namespace) -> int:
    obs = obs_from_args(args, record=not args.db)
    with _open_store(args, obs) as store:
        print(render_health_report(build_health_report(store)))
    return finish_obs(obs, args)


def _cmd_watch(args: argparse.Namespace) -> int:
    obs = obs_from_args(args, record=not args.db)
    _open_store(args, obs).close()
    return finish_obs(obs, args)


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
