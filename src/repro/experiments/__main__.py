"""Run every experiment and print the paper-style output.

Usage::

    python -m repro.experiments [--seed N] [--sites-per-bucket N]
                                [--pages-per-site N] [--only ID[,ID...]]

An experiment that cannot run on the crawl prints ``error: <id>: ...``
on stderr; the others still print, and the exit status is 2.
"""

from __future__ import annotations

import argparse
import sys

from ..devtools.clock import Clock, Stopwatch
from ..errors import ExperimentError
from ..obs.cli import finish_obs, obs_from_args
from . import ALL_EXPERIMENTS, experiment_ids, run_experiments
from .runner import ExperimentConfig, run_pipeline


def main(argv=None, clock: "Clock" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--sites-per-bucket", type=int, default=3)
    parser.add_argument("--pages-per-site", type=int, default=4)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crawl worker processes; each shard is folded into the "
        "dataset as it lands (output is identical at any count)",
    )
    parser.add_argument(
        "--only",
        type=str,
        default="",
        help="comma-separated experiment ids (default: all); "
        f"known: {', '.join(ALL_EXPERIMENTS)}",
    )
    parser.add_argument(
        "--trace", default="", help="write a span trace of the run (JSONL)"
    )
    parser.add_argument(
        "--metrics-out", default="", help="write the run's metrics (JSON)"
    )
    parser.add_argument(
        "--ledger",
        default="",
        help="append the pipeline's run record to this ledger directory",
    )
    parser.add_argument(
        "--monitor",
        action="store_true",
        help="stream the crawl through the live anomaly monitor",
    )
    parser.add_argument(
        "--monitor-gate",
        action="store_true",
        help="with --monitor semantics, exit 1 when a critical alert fired",
    )
    args = parser.parse_args(argv)
    try:
        selected = experiment_ids(args.only)
    except ExperimentError as exc:
        parser.error(str(exc))

    config = ExperimentConfig(
        seed=args.seed,
        sites_per_bucket=args.sites_per_bucket,
        pages_per_site=args.pages_per_site,
        workers=args.workers,
    )
    obs = obs_from_args(args, clock=clock)
    watch = Stopwatch(clock)
    print(
        f"running pipeline: seed={config.seed}, "
        f"{config.sites_per_bucket} sites/bucket, "
        f"{config.pages_per_site} pages/site"
    )
    ctx = run_pipeline(config, obs=obs)
    print(
        f"crawled {ctx.summary.sites_crawled} sites, {ctx.summary.total_visits} visits, "
        f"{len(ctx.dataset)} comparable pages ({watch.elapsed():.1f}s)\n"
    )
    status = run_experiments(ctx, selected, obs, out=sys.stdout, err=sys.stderr)
    gate = finish_obs(obs, args)
    return status or gate


if __name__ == "__main__":
    sys.exit(main())
