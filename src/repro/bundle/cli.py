"""The ``repro-bundle`` command line: record, inspect, replay, diff.

Subcommands::

    repro-bundle record --db run.sqlite --seed 1 --out crawl.bundle
    repro-bundle info   crawl.bundle
    repro-bundle verify crawl.bundle
    repro-bundle replay crawl.bundle --db replayed.sqlite
    repro-bundle diff   crawl.bundle [--db other.sqlite] [--workers N]

``record`` freezes a finished crawl into a bundle directory; ``replay``
materializes the recorded store; ``diff`` replays the bundle against a
fresh crawl of the archived seed/config (or against ``--db``) and
reports per-table fidelity drift — exit status 1 means drift.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..crawler.storage import MeasurementStore
from ..errors import BundleError, ReproError
from ..obs.cli import finish_obs, obs_from_args
from .bundle import Bundle, record_from_store
from .diff import diff_against_fresh_crawl, diff_against_store


def _cmd_record(args: argparse.Namespace) -> int:
    obs = obs_from_args(args)
    with MeasurementStore.open_readonly(args.db) as store:
        bundle = record_from_store(
            store,
            seed=args.seed,
            path=args.out,
            retries=args.retries,
            salvage_partial=args.salvage_partial,
            repeat_visits=args.repeat_visits,
            timeout=args.timeout,
            stateful=args.stateful,
            obs=obs,
        )
    rows = sum(entry.rows or 0 for entry in bundle.manifest.table_members())
    print(
        f"recorded {len(bundle.manifest.members)} members "
        f"({rows} table rows) -> {args.out}"
    )
    return finish_obs(obs, args)


def _cmd_info(args: argparse.Namespace) -> int:
    bundle = Bundle.open(args.bundle)
    manifest = bundle.manifest
    config = manifest.config
    print(f"format:          {manifest.format}")
    print(f"schema version:  {manifest.schema_version}")
    print(f"seed:            {config.seed}")
    print(f"sites:           {len(config.ranks)}")
    print(f"pages per site:  {config.pages_per_site}")
    print(f"profiles:        {', '.join(config.profiles)}")
    print(
        f"crawl knobs:     retries={config.retries} "
        f"salvage_partial={config.salvage_partial} "
        f"repeat_visits={config.repeat_visits} "
        f"timeout={config.timeout} stateful={config.stateful}"
    )
    print(f"filter list:     {manifest.filter_list_version[:16]}…")
    print("members:")
    for entry in manifest.members:
        rows = f" ({entry.rows} rows)" if entry.rows is not None else ""
        print(
            f"  {entry.name:<28} {entry.raw_size:>9} B  "
            f"{entry.digest[:16]}…{rows}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bundle = Bundle.open(args.bundle)
    failed = bundle.verify()
    if failed:
        print(f"corrupt members: {', '.join(failed)}")
        return 1
    print(f"all {len(bundle.manifest.members)} members verified")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    obs = obs_from_args(args)
    bundle = Bundle.open(args.bundle)
    store = bundle.replay(args.db, obs=obs)
    visits = store.visit_count(success_only=False)
    store.close()
    print(f"replayed {visits} visits -> {args.db}")
    return finish_obs(obs, args)


def _cmd_diff(args: argparse.Namespace) -> int:
    obs = obs_from_args(args)
    bundle = Bundle.open(args.bundle)
    if args.db:
        with MeasurementStore.open_readonly(args.db) as store:
            report = diff_against_store(bundle, store, obs=obs)
    else:
        report = diff_against_fresh_crawl(bundle, workers=args.workers, obs=obs)
    print(report.render())
    finish_obs(obs, args)
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bundle",
        description="Crawl archive bundles: record once, replay everywhere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="freeze a finished crawl db")
    record.add_argument("--db", required=True, help="an existing crawl db (read-only)")
    record.add_argument("--seed", type=int, required=True)
    record.add_argument("--out", required=True, help="bundle directory to create")
    record.add_argument(
        "--retries", type=int, default=0, help="retry budget the crawl ran with"
    )
    record.add_argument("--salvage-partial", action="store_true")
    record.add_argument("--repeat-visits", type=int, default=1)
    record.add_argument("--timeout", type=float, default=30.0)
    record.add_argument("--stateful", action="store_true")
    record.add_argument("--trace", default="", help="write a span trace (JSONL)")
    record.add_argument("--metrics-out", default="", help="write run metrics (JSON)")
    record.set_defaults(func=_cmd_record)

    info = sub.add_parser("info", help="print a bundle's manifest")
    info.add_argument("bundle")
    info.set_defaults(func=_cmd_info)

    verify = sub.add_parser("verify", help="integrity-check all members")
    verify.add_argument("bundle")
    verify.set_defaults(func=_cmd_verify)

    replay = sub.add_parser("replay", help="materialize the recorded store")
    replay.add_argument("bundle")
    replay.add_argument("--db", required=True, help="path for the replayed store")
    replay.add_argument("--trace", default="")
    replay.add_argument("--metrics-out", default="")
    replay.add_argument(
        "--ledger", default="", help="append the replay's run record here"
    )
    replay.set_defaults(func=_cmd_replay)

    diff = sub.add_parser(
        "diff", help="replay vs a fresh same-config crawl (or --db); exit 1 on drift"
    )
    diff.add_argument("bundle")
    diff.add_argument(
        "--db",
        default="",
        help="diff against this existing db (read-only) instead of a fresh crawl",
    )
    diff.add_argument(
        "--workers", type=int, default=1, help="shard the fresh re-crawl"
    )
    diff.add_argument("--trace", default="")
    diff.add_argument("--metrics-out", default="")
    diff.add_argument(
        "--ledger", default="", help="append the replay's run record here"
    )
    diff.set_defaults(func=_cmd_diff)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BundleError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
