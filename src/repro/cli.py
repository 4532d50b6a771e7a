"""The ``repro`` command line: crawl, analyze, export, inspect.

Subcommands::

    python -m repro crawl    --db run.sqlite --seed 1 --sites-per-bucket 2
    python -m repro analyze  --db run.sqlite --seed 1 --experiments table2,table6
    python -m repro export   --db run.sqlite --seed 1 --what nodes --out nodes.csv
    python -m repro inspect  --seed 1 --rank 1 [--profile Sim1] [--visit 3]
    python -m repro easylist --seed 1 [--out easylist.txt]

``crawl`` persists an OpenWPM-style SQLite database; ``analyze`` rebuilds
trees from it and prints any subset of the paper's tables/figures;
``inspect`` simulates a single page visit and renders its dependency tree.
The ``--seed`` must match between crawl and analyze so the synthetic
EasyList and site ranks regenerate identically.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import AnalysisDataset
from .blocklist import build_filter_list, generate_easylist
from .browser import BrowserEngine, PAPER_PROFILES, profile_by_name
from .bundle import Bundle
from .crawler import Commander, MeasurementStore, RetryPolicy, sample_paper_buckets
from .errors import ReproError
from . import export as export_mod
from .experiments import ALL_EXPERIMENTS, ExperimentConfig
from .obs import (
    NULL_OBS,
    EventStream,
    Monitor,
    ObsContext,
    default_expected_failure_rate,
    render_alerts,
)
from .reporting.treeview import render_tree, render_tree_summary
from .trees import TreeBuilder
from .web import WebGenerator


class AnalysisContext:
    """Duck-typed stand-in for ExperimentContext backed by a stored crawl.

    Experiments that re-crawl (replication, timeout ablation, study
    comparability) read ``config``/``ranks``; both are reconstructed from
    the seed and the stored visits so every experiment runs on a stored
    db, not just the dataset-only ones.
    """

    def __init__(
        self,
        store: MeasurementStore,
        seed: int,
        obs: ObsContext = NULL_OBS,
        include_partial: bool = False,
    ) -> None:
        self.store = store
        self.generator = WebGenerator(seed)
        ranks = [store.site_rank(site) for site in store.sites()]
        self.ranks = sorted(rank for rank in ranks if rank is not None)
        self.config = ExperimentConfig(
            seed=seed, pages_per_site=store.pages_per_site_cap()
        )
        with obs.tracer.span("filter-list", key="filter-list"):
            self.filter_list = build_filter_list(self.generator.ecosystem)
        self.dataset = AnalysisDataset.from_store(
            store,
            filter_list=self.filter_list,
            obs=obs,
            include_partial=include_partial,
        )
        self.summary = None

    @property
    def profile_names(self) -> List[str]:
        return self.store.profiles()


def _obs_for(args: argparse.Namespace) -> ObsContext:
    """An enabled context when the user asked for telemetry output."""
    if getattr(args, "trace", "") or getattr(args, "metrics_out", ""):
        return ObsContext.create(seed=getattr(args, "seed", None) or 0)
    return NULL_OBS


def _write_obs(obs: ObsContext, args: argparse.Namespace) -> None:
    if getattr(args, "trace", ""):
        count = obs.tracer.write_jsonl(args.trace)
        print(f"wrote {count} spans to {args.trace}")
    if getattr(args, "metrics_out", ""):
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(obs.metrics.to_json() + "\n")
        print(f"wrote {len(obs.metrics)} metrics to {args.metrics_out}")


def _cmd_crawl(args: argparse.Namespace) -> int:
    obs = _obs_for(args)
    generator = WebGenerator(args.seed)
    monitor = None
    if args.monitor or args.monitor_gate:
        if not obs.stream.enabled:
            # _obs_for never enables the stream; rebuild with it on
            # (nothing has been recorded yet).
            obs = ObsContext.create(seed=args.seed, stream=EventStream())
        expected = (
            args.monitor_expect
            if args.monitor_expect is not None
            else default_expected_failure_rate(
                generator.config.page_fail_probability
            )
        )
        monitor = Monitor.for_crawl(
            expected_rate=expected,
            on_alert=lambda alert: print(f"! {alert.format()}"),
        )
        obs.attach_monitor(monitor)
    store = MeasurementStore(args.db, obs=obs)
    commander = Commander(
        generator,
        store,
        max_pages_per_site=args.pages_per_site,
        workers=args.jobs,
        obs=obs,
        retry_policy=RetryPolicy.with_retries(args.retries),
        salvage_partial=args.salvage_partial,
    )
    ranks = sample_paper_buckets(args.seed, per_bucket=args.sites_per_bucket)
    summary = commander.run(ranks)
    print(
        f"crawled {summary.sites_crawled} sites, {summary.pages_discovered} pages, "
        f"{summary.total_visits} visits -> {args.db}"
    )
    for profile in PAPER_PROFILES:
        line = (
            f"  {profile.name:<9} visits: {summary.visits.get(profile.name, 0):>5} "
            f"success: {summary.success_rate(profile.name):.0%}"
        )
        if args.retries:
            line += f" recovered: {summary.recovered_count(profile.name)}"
        print(line)
    _write_obs(obs, args)
    store.close()
    if monitor is not None:
        print(render_alerts(monitor.alerts))
        if args.monitor_gate and monitor.has_critical:
            return 1
    return 0


def _open_source(args: argparse.Namespace, obs: ObsContext):
    """Resolve ``--db``/``--from-bundle`` into ``(store, seed)``.

    A bundle replays into an in-memory store and supplies its own seed;
    passing a conflicting ``--seed`` is an error rather than a silently
    wrong regeneration of the synthetic web.
    """
    if args.from_bundle and args.db:
        raise SystemExit("pass either --db or --from-bundle, not both")
    if args.from_bundle:
        bundle = Bundle.open(args.from_bundle)
        if args.seed is not None and args.seed != bundle.seed:
            raise SystemExit(
                f"--seed {args.seed} contradicts the bundle's recorded "
                f"seed {bundle.seed}"
            )
        return bundle.replay(obs=obs), bundle.seed
    if not args.db:
        raise SystemExit("one of --db or --from-bundle is required")
    return MeasurementStore(args.db, obs=obs), (
        args.seed if args.seed is not None else 2023
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    obs = _obs_for(args)
    store, seed = _open_source(args, obs)
    try:
        ctx = AnalysisContext(
            store,
            seed=seed,
            obs=obs,
            include_partial=args.include_partial,
        )
        if not len(ctx.dataset):
            print("no pages were crawled by all profiles; nothing to analyze")
            return 1
        selected = (
            [item.strip() for item in args.experiments.split(",") if item.strip()]
            if args.experiments
            else list(ALL_EXPERIMENTS)
        )
        unknown = [item for item in selected if item not in ALL_EXPERIMENTS]
        if unknown:
            print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
            return 2
        print(f"dataset: {len(ctx.dataset)} comparable pages\n")
        for experiment_id in selected:
            module = ALL_EXPERIMENTS[experiment_id]
            print(f"{'=' * 70}\n[{experiment_id}]\n{'=' * 70}")
            with obs.tracer.span(
                "experiment", key=f"experiment:{experiment_id}", id=experiment_id
            ):
                result = module.run(ctx)
            print(module.render(result))
            print()
        _write_obs(obs, args)
        return 0
    finally:
        store.close()


def _cmd_export(args: argparse.Namespace) -> int:
    store, seed = _open_source(args, NULL_OBS)
    try:
        if args.what == "visits":
            rows = export_mod.export_visits_csv(store, args.out)
        elif args.what in ("requests", "cookies"):
            exporter = {
                "requests": export_mod.export_requests_csv,
                "cookies": export_mod.export_cookies_csv,
            }[args.what]
            rows = exporter(store, args.out, include_partial=args.include_partial)
        else:
            ctx = AnalysisContext(
                store, seed=seed, include_partial=args.include_partial
            )
            if args.what == "trees":
                rows = export_mod.export_trees_jsonl(ctx.dataset, args.out)
            else:  # nodes
                rows = export_mod.export_node_comparisons_csv(ctx.dataset, args.out)
        print(f"wrote {rows} rows to {args.out}")
        return 0
    finally:
        store.close()


def _cmd_inspect(args: argparse.Namespace) -> int:
    generator = WebGenerator(args.seed)
    site = generator.site(args.rank)
    page = site.pages[args.page] if args.page < len(site.pages) else site.landing_page
    profile = profile_by_name(args.profile)
    engine = BrowserEngine(profile, seed=args.seed)
    result = engine.visit(page, site=site.domain, site_rank=args.rank, visit_id=args.visit)
    if not result.success:
        print(f"visit failed: {result.visit.failure_reason} (try another --visit)")
        return 1
    builder = TreeBuilder(filter_list=build_filter_list(generator.ecosystem))
    tree = builder.build(result.visit, result.requests)
    print(render_tree_summary(tree))
    print()
    print(render_tree(tree, max_depth=args.max_depth))
    return 0


def _cmd_easylist(args: argparse.Namespace) -> int:
    generator = WebGenerator(args.seed)
    text = generate_easylist(generator.ecosystem)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Web-measurement similarity reproduction."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser("crawl", help="run a measurement into a SQLite db")
    crawl.add_argument("--db", required=True)
    crawl.add_argument("--seed", type=int, default=2023)
    crawl.add_argument("--sites-per-bucket", type=int, default=2)
    crawl.add_argument("--pages-per-site", type=int, default=4)
    crawl.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the sharded crawl (same store for any value)",
    )
    crawl.add_argument(
        "--retries",
        type=int,
        default=0,
        help="re-attempts per failed retryable visit (0 = paper's single attempt)",
    )
    crawl.add_argument(
        "--salvage-partial",
        action="store_true",
        help="store the partial traffic of timed-out visits (flagged partial)",
    )
    crawl.add_argument("--trace", default="", help="write a span trace (JSONL)")
    crawl.add_argument("--metrics-out", default="", help="write run metrics (JSON)")
    crawl.add_argument(
        "--monitor",
        action="store_true",
        help="stream the crawl through the live anomaly monitor",
    )
    crawl.add_argument(
        "--monitor-gate",
        action="store_true",
        help="with --monitor semantics, exit 1 when a critical alert fired",
    )
    crawl.add_argument(
        "--monitor-expect",
        type=float,
        default=None,
        help="override the monitor's expected per-visit failure rate",
    )
    crawl.set_defaults(func=_cmd_crawl)

    analyze = sub.add_parser("analyze", help="run paper analyses on a stored crawl")
    analyze.add_argument("--db", default="")
    analyze.add_argument(
        "--from-bundle",
        default="",
        help="replay a recorded crawl bundle instead of opening --db",
    )
    analyze.add_argument(
        "--seed",
        type=int,
        default=None,
        help="crawl seed (default 2023; a bundle supplies its own)",
    )
    analyze.add_argument(
        "--experiments", default="", help=f"comma-separated ids ({', '.join(ALL_EXPERIMENTS)})"
    )
    analyze.add_argument(
        "--include-partial",
        action="store_true",
        help="let salvaged partial visits stand in for missing successes",
    )
    analyze.add_argument("--trace", default="", help="write a span trace (JSONL)")
    analyze.add_argument("--metrics-out", default="", help="write run metrics (JSON)")
    analyze.set_defaults(func=_cmd_analyze)

    export = sub.add_parser("export", help="dump crawl/analysis data to files")
    export.add_argument("--db", default="")
    export.add_argument(
        "--from-bundle",
        default="",
        help="replay a recorded crawl bundle instead of opening --db",
    )
    export.add_argument(
        "--seed",
        type=int,
        default=None,
        help="crawl seed (default 2023; a bundle supplies its own)",
    )
    export.add_argument(
        "--what",
        choices=["visits", "requests", "cookies", "trees", "nodes"],
        required=True,
    )
    export.add_argument("--out", required=True)
    export.add_argument(
        "--include-partial",
        action="store_true",
        help="also export the salvaged traffic of partial visits",
    )
    export.set_defaults(func=_cmd_export)

    inspect = sub.add_parser("inspect", help="simulate one visit, print its tree")
    inspect.add_argument("--seed", type=int, default=2023)
    inspect.add_argument("--rank", type=int, default=1)
    inspect.add_argument("--page", type=int, default=0)
    inspect.add_argument("--profile", default="Sim1")
    inspect.add_argument("--visit", type=int, default=1)
    inspect.add_argument("--max-depth", type=int, default=None)
    inspect.set_defaults(func=_cmd_inspect)

    easylist = sub.add_parser("easylist", help="print the synthetic EasyList")
    easylist.add_argument("--seed", type=int, default=2023)
    easylist.add_argument("--out", default="")
    easylist.set_defaults(func=_cmd_easylist)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
