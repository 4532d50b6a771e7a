"""Bundle format: content-addressed members under a digest manifest.

Layout of a bundle directory::

    MANIFEST.json            # format tag, seed, config, member index
    objects/<sha256-hex>     # zlib-compressed member payloads

Members are addressed by the SHA-256 of their *uncompressed* payload, so
identical payloads share one object file and the digest states what the
content is, not how it is stored.  The manifest lists members in sorted
name order, and every member payload is serialized deterministically
(table rows in physical store order, JSON with sorted keys), so recording
the same crawl twice produces byte-identical bundles.

Member inventory:

* ``tables/<table>.json`` — all store rows of one table as a compact
  JSON array (one inner array per row), in the physical (insertion)
  order the deterministic crawl wrote them;
* ``meta/blueprint.json`` — the structural summary of every crawled
  site's blueprint (domains, ranks, page URLs, slot counts);
* ``meta/filterlist.txt`` — the filter-list document the analysis
  classifies tracking with; its digest is the bundle's filter-list
  version.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..blocklist.easylist import generate_easylist
from ..crawler.storage import SCHEMA_VERSION, MeasurementStore
from ..errors import BundleError
from ..obs import NULL_OBS, ObsContext
from ..obs.ledger import build_run_record
from ..obs.monitor import publish_store_events
from ..web.blueprint import SiteBlueprint
from ..web.sitegen import WebGenerator

#: Bundle directory format tag; bump on any incompatible layout change.
BUNDLE_FORMAT = "repro-bundle/1"

_MANIFEST_NAME = "MANIFEST.json"
_OBJECTS_DIR = "objects"
_FILTER_LIST_MEMBER = "meta/filterlist.txt"
_BLUEPRINT_MEMBER = "meta/blueprint.json"
#: A member's digest names its object file, so it must be a bare
#: SHA-256 hex string: anything else could open a path outside the bundle.
_DIGEST_PATTERN = re.compile(r"[0-9a-f]{64}")

PathLike = Union[str, Path]


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def encode_row(row: Sequence) -> str:
    """Canonical serialization of one store row (used in drift reports)."""
    return json.dumps(list(row), ensure_ascii=False, separators=(",", ":"))


def encode_table(rows: Iterator[Sequence]) -> bytes:
    """Canonical payload of a whole table: one compact JSON array of rows.

    A single ``dumps`` call is one C-level pass over the record/diff hot
    path (~3x faster than a dump per row) and stays deterministic: no
    whitespace, no key ordering to pin, rows in iteration order.
    """
    # Tuples (sqlite rows) serialize as JSON arrays without a copy.
    return json.dumps(
        list(rows), ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")


def _decode_rows(payload: bytes) -> List[list]:
    """The replay hot path: one ``loads`` for the whole table."""
    if not payload:
        return []
    rows = json.loads(payload.decode("utf-8"))
    if not isinstance(rows, list):
        raise BundleError("table member is not a JSON array of rows")
    return rows


def decode_table(payload: bytes) -> Iterator[Tuple]:
    """Inverse of :func:`encode_table`."""
    for row in _decode_rows(payload):
        yield tuple(row)


@dataclass(frozen=True)
class BundleConfig:
    """The resolved crawl configuration a bundle archives.

    Everything needed to re-run the *same* measurement: the seed fixes
    the synthetic web and all per-visit draws; the remaining knobs fix
    the crawl plan (and hence the visit-id layout, which the retry count
    widens — see :mod:`repro.crawler.commander`).
    """

    seed: int
    ranks: Tuple[int, ...]
    pages_per_site: int
    profiles: Tuple[str, ...]
    retries: int = 0
    salvage_partial: bool = False
    repeat_visits: int = 1
    timeout: float = 30.0
    stateful: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ranks": list(self.ranks),
            "pages_per_site": self.pages_per_site,
            "profiles": list(self.profiles),
            "retries": self.retries,
            "salvage_partial": self.salvage_partial,
            "repeat_visits": self.repeat_visits,
            "timeout": self.timeout,
            "stateful": self.stateful,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BundleConfig":
        try:
            return cls(
                seed=int(data["seed"]),
                ranks=tuple(int(rank) for rank in data["ranks"]),
                pages_per_site=int(data["pages_per_site"]),
                profiles=tuple(str(name) for name in data["profiles"]),
                retries=int(data.get("retries", 0)),
                salvage_partial=bool(data.get("salvage_partial", False)),
                repeat_visits=int(data.get("repeat_visits", 1)),
                timeout=float(data.get("timeout", 30.0)),
                stateful=bool(data.get("stateful", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(f"malformed bundle config: {exc}") from exc


@dataclass(frozen=True)
class BundleMember:
    """One manifest entry: a named payload and its content address."""

    name: str
    digest: str
    raw_size: int
    rows: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        entry: Dict[str, object] = {
            "name": self.name,
            "digest": self.digest,
            "raw_size": self.raw_size,
        }
        if self.rows is not None:
            entry["rows"] = self.rows
        return entry

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BundleMember":
        try:
            member = cls(
                name=str(data["name"]),
                digest=str(data["digest"]),
                raw_size=int(data["raw_size"]),
                rows=int(data["rows"]) if "rows" in data else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(f"malformed bundle member entry: {exc}") from exc
        if not _DIGEST_PATTERN.fullmatch(member.digest):
            raise BundleError(
                f"malformed bundle member entry: digest {member.digest!r} of "
                f"{member.name!r} is not a SHA-256 hex digest"
            )
        return member


@dataclass(frozen=True)
class BundleManifest:
    """The bundle's index: identity, configuration, and member digests."""

    schema_version: int
    config: BundleConfig
    filter_list_version: str
    members: Tuple[BundleMember, ...] = ()
    format: str = BUNDLE_FORMAT

    def member(self, name: str) -> BundleMember:
        for entry in self.members:
            if entry.name == name:
                return entry
        raise BundleError(f"bundle has no member {name!r}")

    def table_members(self) -> List[BundleMember]:
        return [
            entry for entry in self.members if entry.name.startswith("tables/")
        ]

    def digest(self) -> str:
        """Content address of the whole bundle: sha256 of the manifest JSON.

        Every member is itself content-addressed inside the manifest, so
        this one hash pins the full archive — it is what run-ledger
        records cite as ``bundle_digest``.
        """
        return _sha256(self.to_json().encode("utf-8"))

    def to_json(self) -> str:
        document = {
            "format": self.format,
            "schema_version": self.schema_version,
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "filter_list_version": self.filter_list_version,
            "members": [
                entry.to_dict()
                for entry in sorted(self.members, key=lambda member: member.name)
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BundleManifest":
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise BundleError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise BundleError("manifest is not a JSON object")
        found = document.get("format")
        if found != BUNDLE_FORMAT:
            raise BundleError(
                f"unsupported bundle format {found!r} "
                f"(this code reads {BUNDLE_FORMAT!r})"
            )
        try:
            return cls(
                schema_version=int(document["schema_version"]),
                config=BundleConfig.from_dict(document["config"]),
                filter_list_version=str(document["filter_list_version"]),
                members=tuple(
                    BundleMember.from_dict(entry)
                    for entry in document["members"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(f"malformed manifest: {exc}") from exc


class Bundle:
    """A recorded crawl archive rooted at a directory."""

    def __init__(self, path: PathLike, manifest: BundleManifest) -> None:
        self.path = Path(path)
        self.manifest = manifest

    # -- identity ----------------------------------------------------------

    @property
    def seed(self) -> int:
        return self.manifest.config.seed

    @property
    def schema_version(self) -> int:
        return self.manifest.schema_version

    @property
    def config(self) -> BundleConfig:
        return self.manifest.config

    # -- record ------------------------------------------------------------

    @classmethod
    def record(
        cls,
        store: MeasurementStore,
        blueprints: Sequence[SiteBlueprint],
        config: BundleConfig,
        path: PathLike,
        filter_list_text: str = "",
        obs: Optional[ObsContext] = None,
    ) -> "Bundle":
        """Serialize ``store`` (plus crawl context) into a bundle at ``path``.

        ``path`` must not already contain a bundle.  Returns the recorded
        :class:`Bundle`, already open for reading.
        """
        obs = obs if obs is not None else NULL_OBS
        root = Path(path)
        if (root / _MANIFEST_NAME).exists():
            raise BundleError(f"refusing to overwrite existing bundle at {root}")
        (root / _OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
        members: List[BundleMember] = []
        total_rows = 0
        with obs.tracer.span("bundle-record", key="bundle-record") as span:
            for table in store.table_names():
                payload = encode_table(store.iter_table_rows(table))
                rows = store.table_row_count(table)
                members.append(
                    _write_member(root, f"tables/{table}.json", payload, rows)
                )
                total_rows += rows
            members.append(
                _write_member(
                    root,
                    _BLUEPRINT_MEMBER,
                    encode_blueprints(blueprints),
                    rows=len(blueprints),
                )
            )
            filter_member = _write_member(
                root, _FILTER_LIST_MEMBER, filter_list_text.encode("utf-8")
            )
            members.append(filter_member)
            manifest = BundleManifest(
                schema_version=store.schema_version,
                config=config,
                filter_list_version=filter_member.digest,
                members=tuple(sorted(members, key=lambda member: member.name)),
            )
            (root / _MANIFEST_NAME).write_text(
                manifest.to_json(), encoding="utf-8"
            )
            span.set("members", len(members))
            span.set("rows", total_rows)
        metrics = obs.metrics
        if metrics.enabled:
            metrics.counter("bundle.members_written").inc(len(members))
            metrics.counter("bundle.rows_recorded").inc(total_rows)
        return cls(root, manifest)

    # -- open / read -------------------------------------------------------

    @classmethod
    def open(cls, path: PathLike) -> "Bundle":
        """Open the bundle at ``path`` (reads and validates the manifest)."""
        root = Path(path)
        manifest_path = root / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise BundleError(f"no bundle manifest at {manifest_path}")
        return cls(root, BundleManifest.from_json(manifest_path.read_text("utf-8")))

    def read_member(self, name: str) -> bytes:
        """Decompress and integrity-check one member's payload."""
        entry = self.manifest.member(name)
        object_path = self.path / _OBJECTS_DIR / entry.digest
        if not object_path.is_file():
            raise BundleError(f"bundle object missing for member {name!r}")
        try:
            payload = zlib.decompress(object_path.read_bytes())
        except zlib.error as exc:
            raise BundleError(f"member {name!r} is corrupt: {exc}") from exc
        if _sha256(payload) != entry.digest:
            raise BundleError(
                f"member {name!r} failed its digest check "
                f"(expected {entry.digest})"
            )
        return payload

    def table_rows(self, table: str) -> Iterator[Tuple]:
        """The recorded rows of one store table, in recorded order."""
        return decode_table(self.read_member(f"tables/{table}.json"))

    def filter_list_text(self) -> str:
        return self.read_member(_FILTER_LIST_MEMBER).decode("utf-8")

    def verify(self) -> List[str]:
        """Integrity-check every member; returns the names that failed."""
        failed: List[str] = []
        for entry in self.manifest.members:
            try:
                self.read_member(entry.name)
            except BundleError:
                failed.append(entry.name)
        return failed

    # -- replay ------------------------------------------------------------

    def replay(
        self, path: str = ":memory:", obs: Optional[ObsContext] = None
    ) -> MeasurementStore:
        """Materialize the recorded store (row-for-row identical).

        The bundle's schema version must match this code's
        :data:`~repro.crawler.storage.SCHEMA_VERSION` — replaying an
        archive into a store shape it was not recorded from would
        corrupt silently, which is exactly what the stamp exists to stop.
        """
        obs = obs if obs is not None else NULL_OBS
        if self.schema_version != SCHEMA_VERSION:
            raise BundleError(
                f"bundle {self.path} has schema version {self.schema_version}; "
                f"this code replays version {SCHEMA_VERSION}"
            )
        store = MeasurementStore(path)
        total_rows = 0
        spans_before = len(obs.tracer.records)
        with obs.tracer.span("bundle-replay", key="bundle-replay") as span:
            for table in store.table_names():
                total_rows += store.insert_table_rows(
                    table,
                    _decode_rows(self.read_member(f"tables/{table}.json")),
                )
            span.set("rows", total_rows)
        if obs.metrics.enabled:
            obs.metrics.counter("bundle.rows_replayed").inc(total_rows)
        if obs.stream.enabled:
            # The replayed rows publish the events the live crawl did, so
            # archived runs raise the alerts their live runs raised.
            publish_store_events(store, obs.stream)
        if obs.ledger is not None:
            obs.ledger.append(
                build_run_record(
                    "replay",
                    seed=self.seed,
                    config=self.config.to_dict(),
                    obs=obs,
                    records=obs.tracer.records[spans_before:],
                    primary_phase="bundle-replay",
                    outcomes=store.outcomes(),
                    filter_list_version=self.manifest.filter_list_version,
                    store_schema_version=store.schema_version,
                    bundle_digest=self.manifest.digest(),
                )
            )
        return store


def _write_member(
    root: Path, name: str, payload: bytes, rows: Optional[int] = None
) -> BundleMember:
    """Write one payload into the object store; returns its manifest entry."""
    digest = _sha256(payload)
    object_path = root / _OBJECTS_DIR / digest
    if not object_path.exists():  # content-addressed: duplicates are free
        tmp_path = object_path.with_name(f"{digest}.tmp-{os.getpid()}")
        tmp_path.write_bytes(zlib.compress(payload, 6))
        os.replace(tmp_path, object_path)
    return BundleMember(name=name, digest=digest, raw_size=len(payload), rows=rows)


def encode_blueprints(blueprints: Sequence[SiteBlueprint]) -> bytes:
    """Canonical structural summary of the crawled sites' blueprints.

    Captures what the crawl plan depends on — domains, ranks, page URLs,
    per-page slot and link counts — without the full latent trees, which
    regenerate from the seed.  Sorted keys and rank order make the
    payload (and so its digest) deterministic.
    """
    summary = [
        {
            "domain": blueprint.domain,
            "rank": blueprint.rank,
            "pages": [
                {
                    "url": str(page.url),
                    "slots": page.slot_count(),
                    "links": len(page.links),
                }
                for page in blueprint.pages
            ],
        }
        for blueprint in sorted(blueprints, key=lambda item: item.rank)
    ]
    return (
        json.dumps(summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    ).encode("utf-8")


def record_from_store(
    store: MeasurementStore,
    seed: int,
    path: PathLike,
    retries: int = 0,
    salvage_partial: bool = False,
    repeat_visits: int = 1,
    timeout: float = 30.0,
    stateful: bool = False,
    obs: Optional[ObsContext] = None,
    generator: Optional[WebGenerator] = None,
) -> Bundle:
    """Record a bundle from a finished store, rebuilding crawl context.

    The blueprint summary and filter list regenerate from ``seed`` (both
    are pure functions of it); the ranks, crawl-order profiles, and
    pages-per-site cap come from the store itself — exactly what
    :meth:`~repro.experiments.ExperimentContext.from_store` reads back,
    so a replayed context equals the live one.  Knobs that cannot be read back out
    of the store — retry budget, salvage, repeats, timeout, statefulness
    — are passed through and archived so a fidelity diff can re-run the
    identical crawl.

    Callers that just crawled can pass their ``generator`` to reuse its
    site cache (blueprints are the expensive part of recording); it must
    carry the same seed, since the bundle's identity hangs off it.
    """
    if generator is None:
        generator = WebGenerator(seed)
    elif generator.seed != seed:
        raise BundleError(
            f"generator seed {generator.seed} does not match "
            f"recorded seed {seed}"
        )
    ranks = store.ranks()
    config = BundleConfig(
        seed=seed,
        ranks=tuple(ranks),
        pages_per_site=store.pages_per_site_cap(),
        profiles=tuple(store.profiles_in_crawl_order()),
        retries=retries,
        salvage_partial=salvage_partial,
        repeat_visits=repeat_visits,
        timeout=timeout,
        stateful=stateful,
    )
    return Bundle.record(
        store,
        blueprints=[generator.site(rank) for rank in ranks],
        config=config,
        path=path,
        filter_list_text=generate_easylist(generator.ecosystem),
        obs=obs,
    )
