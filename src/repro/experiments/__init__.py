"""Experiment harness: one module per paper table/figure/case study.

Each module exposes ``run(ctx) -> <Result>`` and ``render(result) -> str``.
Get a context with :func:`run_pipeline` (cached per config), then::

    from repro.experiments import runner, table2
    ctx = runner.run_pipeline()
    print(table2.render(table2.run(ctx)))

``python -m repro.experiments`` runs everything; it and ``repro
analyze`` select experiments with :func:`experiment_ids` and print them
with :func:`run_experiments`.
"""

from typing import List, Sequence, TextIO

from ..errors import ExperimentError, ReproError
from ..obs import NULL_OBS, ObsContext
from . import (
    ablation_blocklist,
    ablation_timeout,
    ablations,
    case_cookies,
    case_tracking,
    case_unique,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    implicit_trust,
    replication,
    security_headers,
    study_comparability,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    variance_metric,
)
from .runner import ExperimentConfig, ExperimentContext, clear_cache, run_pipeline

#: All experiment modules in paper order (id → module).
ALL_EXPERIMENTS = {
    "table2": table2,
    "figure1": figure1,
    "figure2": figure2,
    "table3": table3,
    "figure3": figure3,
    "table4": table4,
    "figure4": figure4,
    "figure5": figure5,
    "table5": table5,
    "table6": table6,
    "case_unique": case_unique,
    "case_cookies": case_cookies,
    "case_tracking": case_tracking,
    "table7": table7,
    "figure7": figure7,
    "figure8": figure8,
    "variance": variance_metric,
    "security_headers": security_headers,
    "replication": replication,
    "implicit_trust": implicit_trust,
    "study_comparability": study_comparability,
    "ablations": ablations,
    "ablation_timeout": ablation_timeout,
    "ablation_blocklist": ablation_blocklist,
}


def experiment_ids(spec: str) -> List[str]:
    """The experiment ids a comma list names, in its order (every
    experiment when it names none); raises :class:`ExperimentError`
    naming the ids that are not experiments."""
    ids = [item.strip() for item in spec.split(",") if item.strip()]
    unknown = [item for item in ids if item not in ALL_EXPERIMENTS]
    if unknown:
        raise ExperimentError(f"unknown experiments: {', '.join(unknown)}")
    return ids or list(ALL_EXPERIMENTS)


def run_experiments(
    ctx: ExperimentContext,
    ids: Sequence[str],
    obs: ObsContext = NULL_OBS,
    *,
    out: TextIO,
    err: TextIO,
) -> int:
    """Run each experiment in an ``experiment`` span and write its
    rendering to ``out`` under a banner; returns the exit status.

    An experiment that cannot run on this crawl (say, table6 without
    NoAction) must not cost the others their output: its error goes to
    ``err`` as ``error: <id>: ...``, the loop goes on, and the status is
    2 instead of 0.  The command line passes both streams; library code
    never writes to stdout on its own (DESIGN §6, invariant 6).
    """
    failed = False
    for experiment_id in ids:
        module = ALL_EXPERIMENTS[experiment_id]
        print(f"{'=' * 70}\n[{experiment_id}]\n{'=' * 70}", file=out)
        try:
            with obs.tracer.span(
                "experiment", key=f"experiment:{experiment_id}", id=experiment_id
            ):
                result = module.run(ctx)
            print(module.render(result), file=out)
        except ReproError as exc:
            failed = True
            print(f"error: {experiment_id}: {exc}", file=err)
        print(file=out)
    return 2 if failed else 0


__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentContext",
    "clear_cache",
    "experiment_ids",
    "run_experiments",
    "run_pipeline",
]
