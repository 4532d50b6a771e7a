"""Fidelity diff: a recorded bundle versus a live store or fresh crawl.

The paper's replication logic (and ROADMAP item 1) needs an answer to
"does this archive still reproduce?".  :func:`diff_against_store`
compares a bundle member-by-member against any store;
:func:`diff_against_fresh_crawl` goes further and re-runs the archived
measurement — same seed, ranks, profiles, and crawl knobs — then diffs
the result.  Drift is reported per table: row counts, payload digests,
and the first divergent row, which is usually enough to localize a
determinism regression to one visit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..blocklist.easylist import generate_easylist
from ..browser.profile import profile_by_name
from ..crawler.commander import Commander
from ..crawler.retry import RetryPolicy
from ..crawler.storage import MeasurementStore
from ..obs import NULL_OBS, ObsContext
from ..web.sitegen import WebGenerator
from .bundle import (
    Bundle,
    _sha256,
    decode_table,
    encode_blueprints,
    encode_row,
    encode_table,
)


@dataclass(frozen=True)
class TableDrift:
    """Per-table comparison outcome.

    ``first_divergence`` is ``(row_index, recorded_row, live_row)`` for
    the first position where the streams disagree; a missing row on one
    side is reported as ``None``.  ``None`` overall means the digests
    matched.
    """

    table: str
    recorded_rows: int
    live_rows: int
    recorded_digest: str
    live_digest: str
    first_divergence: Optional[Tuple[int, Optional[str], Optional[str]]] = None

    @property
    def clean(self) -> bool:
        return (
            self.recorded_rows == self.live_rows
            and self.recorded_digest == self.live_digest
        )


@dataclass(frozen=True)
class BundleDiff:
    """The full fidelity report of one bundle comparison."""

    tables: Tuple[TableDrift, ...]
    blueprint_clean: Optional[bool] = None
    filter_list_clean: Optional[bool] = None

    @property
    def drifted(self) -> List[TableDrift]:
        return [drift for drift in self.tables if not drift.clean]

    @property
    def clean(self) -> bool:
        return (
            not self.drifted
            and self.blueprint_clean is not False
            and self.filter_list_clean is not False
        )

    def render(self) -> str:
        """A human-readable drift report (one line per table)."""
        lines = []
        for drift in self.tables:
            if drift.clean:
                status = "ok"
                detail = f"{drift.recorded_rows} rows"
            else:
                status = "DRIFT"
                detail = f"rows {drift.recorded_rows} -> {drift.live_rows}"
                if drift.first_divergence is not None:
                    index, recorded, live = drift.first_divergence
                    detail += (
                        f"; first divergent row #{index}: "
                        f"recorded={recorded or '<missing>'} "
                        f"live={live or '<missing>'}"
                    )
            lines.append(f"{drift.table:<20} {status:<6} {detail}")
        if self.blueprint_clean is not None:
            lines.append(
                f"{'site blueprints':<20} "
                f"{'ok' if self.blueprint_clean else 'DRIFT'}"
            )
        if self.filter_list_clean is not None:
            lines.append(
                f"{'filter list':<20} "
                f"{'ok' if self.filter_list_clean else 'DRIFT'}"
            )
        lines.append(
            "fidelity: zero drift"
            if self.clean
            else f"fidelity: {len(self.drifted)} drifting table(s)"
        )
        return "\n".join(lines)


def diff_against_store(
    bundle: Bundle,
    store: MeasurementStore,
    obs: Optional[ObsContext] = None,
) -> BundleDiff:
    """Compare every recorded table against ``store``, row order included."""
    obs = obs if obs is not None else NULL_OBS
    drifts: List[TableDrift] = []
    with obs.tracer.span("bundle-diff", key="bundle-diff") as span:
        for table in store.table_names():
            recorded_payload = bundle.read_member(f"tables/{table}.json")
            live_payload = encode_table(store.iter_table_rows(table))
            recorded_digest = _sha256(recorded_payload)
            live_digest = _sha256(live_payload)
            divergence = None
            if recorded_digest != live_digest:
                divergence = _first_divergence(
                    [encode_row(row) for row in decode_table(recorded_payload)],
                    [encode_row(row) for row in decode_table(live_payload)],
                )
            entry = bundle.manifest.member(f"tables/{table}.json")
            drifts.append(
                TableDrift(
                    table=table,
                    recorded_rows=entry.rows or 0,
                    live_rows=store.table_row_count(table),
                    recorded_digest=recorded_digest,
                    live_digest=live_digest,
                    first_divergence=divergence,
                )
            )
        span.set("tables", len(drifts))
        span.set("drifted", sum(1 for drift in drifts if not drift.clean))
    if obs.metrics.enabled:
        obs.metrics.counter("bundle.diff_tables").inc(len(drifts))
        obs.metrics.counter("bundle.diff_drift").inc(
            sum(1 for drift in drifts if not drift.clean)
        )
    return BundleDiff(tables=tuple(drifts))


def diff_against_fresh_crawl(
    bundle: Bundle,
    workers: int = 1,
    obs: Optional[ObsContext] = None,
) -> BundleDiff:
    """Re-run the archived measurement and diff it against the bundle.

    The fresh crawl uses the bundle's resolved config verbatim; a clean
    report therefore certifies that the archive, the code, and the seed
    still agree bit-for-bit.  ``workers`` only shards the re-crawl — any
    value must yield the same rows (that invariant is itself part of
    what this diff checks).
    """
    obs = obs if obs is not None else NULL_OBS
    config = bundle.config
    generator = WebGenerator(config.seed)
    profiles = tuple(profile_by_name(name) for name in config.profiles)
    with MeasurementStore() as store:
        Commander(
            generator,
            store,
            profiles=profiles,
            max_pages_per_site=config.pages_per_site,
            timeout=config.timeout,
            stateful=config.stateful,
            repeat_visits=config.repeat_visits,
            workers=workers,
            obs=obs,
            retry_policy=RetryPolicy.with_retries(config.retries),
            salvage_partial=config.salvage_partial,
        ).run(config.ranks)
        table_diff = diff_against_store(bundle, store, obs=obs)
    blueprints = [generator.site(rank) for rank in config.ranks]
    blueprint_clean = (
        _sha256(encode_blueprints(blueprints))
        == bundle.manifest.member("meta/blueprint.json").digest
    )
    filter_list_clean = (
        _sha256(generate_easylist(generator.ecosystem).encode("utf-8"))
        == bundle.manifest.filter_list_version
    )
    return BundleDiff(
        tables=table_diff.tables,
        blueprint_clean=blueprint_clean,
        filter_list_clean=filter_list_clean,
    )


def _first_divergence(
    recorded: List[str], live: List[str]
) -> Optional[Tuple[int, Optional[str], Optional[str]]]:
    """First index where two row streams disagree (0-based)."""
    for index in range(max(len(recorded), len(live))):
        recorded_row = recorded[index] if index < len(recorded) else None
        live_row = live[index] if index < len(live) else None
        if recorded_row != live_row:
            return (index, recorded_row, live_row)
    return None
