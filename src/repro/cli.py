"""The ``repro`` command line: crawl, analyze, export, inspect.

Subcommands::

    python -m repro crawl    --db run.sqlite --seed 1 --sites-per-bucket 2
                             [--workers N] [--ledger DIR] [--monitor]
    python -m repro analyze  --db run.sqlite --seed 1 --experiments table2,table6
    python -m repro export   --db run.sqlite --seed 1 --what nodes --out nodes.csv
    python -m repro inspect  --seed 1 --rank 1 [--profile Sim1] [--visit 3]
    python -m repro easylist --seed 1 [--out easylist.txt]

``crawl`` persists an OpenWPM-style SQLite database, the one writable
``--db``, and prints its crawl-health report (the one ``repro-obs health
--db`` prints for it); with ``--ledger`` it appends its run record.
``analyze`` and ``export`` open an existing db read-only, rebuild trees
from it and print any subset of the paper's tables/figures; ``inspect``
simulates a single page visit and renders its dependency tree.  The
``--seed`` must match between crawl and analyze so the synthetic web
and its EasyList regenerate identically.  The telemetry flags of
``crawl`` and ``analyze`` go through :func:`repro.obs.cli.obs_from_args`
and :func:`repro.obs.cli.finish_obs`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .blocklist import FilterList, build_filter_list, generate_easylist
from .browser import BrowserEngine, profile_by_name
from .bundle import Bundle
from .crawler import Commander, MeasurementStore, RetryPolicy, sample_paper_buckets
from .errors import ReproError
from . import export as export_mod
from .experiments import (
    ALL_EXPERIMENTS,
    ExperimentContext,
    experiment_ids,
    run_experiments,
)
from .obs import NULL_OBS, ObsContext
from .obs.cli import finish_obs, obs_from_args
from .obs.health import build_health_report, render_health_report
from .reporting.treeview import render_tree, render_tree_summary
from .trees import TreeBuilder
from .web import WebGenerator


def _cmd_crawl(args: argparse.Namespace) -> int:
    obs = obs_from_args(args)
    store = MeasurementStore(args.db)
    Commander(
        WebGenerator(args.seed),
        store,
        max_pages_per_site=args.pages_per_site,
        workers=args.workers,
        obs=obs,
        retry_policy=RetryPolicy.with_retries(args.retries),
        salvage_partial=args.salvage_partial,
    ).run(sample_paper_buckets(args.seed, per_bucket=args.sites_per_bucket))
    print(render_health_report(build_health_report(store)))
    store.close()
    print(f"\nstored in {args.db}")
    return finish_obs(obs, args)


def _open_source(args: argparse.Namespace, obs: ObsContext):
    """Resolve ``--db``/``--from-bundle`` into ``(store, seed, filter_list)``.

    A bundle replays into an in-memory store and supplies its own seed
    and the filter list it archived; passing a conflicting ``--seed`` is
    an error rather than a silently wrong regeneration of the synthetic
    web.  A db must exist and is opened read-only; it is classified with
    the list regenerated from the seed.
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
        store, seed = bundle.replay(obs=obs), bundle.seed
        list_text = bundle.filter_list_text()
    elif args.db:
        store = MeasurementStore.open_readonly(args.db)
        seed = args.seed if args.seed is not None else 2023
        list_text = generate_easylist(WebGenerator(seed).ecosystem)
    else:
        raise SystemExit("one of --db or --from-bundle is required")
    with obs.tracer.span("filter-list", key="filter-list"):
        filter_list = FilterList.from_text(list_text)
    return store, seed, filter_list


def _cmd_analyze(args: argparse.Namespace) -> int:
    selected = experiment_ids(args.experiments)
    obs = obs_from_args(args)
    store, seed, filter_list = _open_source(args, obs)
    try:
        ctx = ExperimentContext.from_store(
            store,
            seed=seed,
            filter_list=filter_list,
            obs=obs,
            include_partial=args.include_partial,
        )
        if not len(ctx.dataset):
            print("no pages were crawled by all profiles; nothing to analyze")
            return 1
        print(f"dataset: {len(ctx.dataset)} comparable pages\n")
        status = run_experiments(ctx, selected, obs, out=sys.stdout, err=sys.stderr)
        finish_obs(obs, args)
        return status
    finally:
        store.close()


def _cmd_export(args: argparse.Namespace) -> int:
    store, seed, filter_list = _open_source(args, NULL_OBS)
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
            ctx = ExperimentContext.from_store(
                store,
                seed=seed,
                filter_list=filter_list,
                include_partial=args.include_partial,
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
        "--workers",
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
        "--ledger", default="", help="append the crawl's run record to this ledger"
    )
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
        "--expected-failure-rate",
        type=float,
        default=None,
        help="override the monitor's expected per-visit failure rate",
    )
    crawl.set_defaults(func=_cmd_crawl)

    analyze = sub.add_parser("analyze", help="run paper analyses on a stored crawl")
    analyze.add_argument("--db", default="", help="an existing crawl db (read-only)")
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
    export.add_argument("--db", default="", help="an existing crawl db (read-only)")
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


if __name__ == "__main__":
    sys.exit(main())
