"""The measurement store: OpenWPM-style tables in SQLite.

The original framework consolidates each VM's records into BigQuery; the
reproduction stores the same logical tables in SQLite (stdlib, works
in-memory or on disk).  The store is the only interface between the crawl
and the analysis: trees are rebuilt purely from stored records.
"""

from __future__ import annotations

import heapq
import json
import os
import sqlite3
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple
from urllib.parse import quote as _uri_quote

from ..browser.callstack import CallStack
from ..browser.network import (
    CookieRecord,
    RedirectRecord,
    RequestRecord,
    ResponseRecord,
    VisitRecord,
    VisitResult,
)
from ..errors import StorageError
from ..obs import BATCH_SIZE_BUCKETS, NULL_OBS, ObsContext

#: Stored-schema generation, stamped into ``PRAGMA user_version`` on every
#: writable open and checked wherever two stores meet (read-only snapshot
#: opens, shard merges, bundle replay).  Version 1 is the pre-``attempt``/
#: ``partial`` schema; stores from that era were never stamped and read as
#: 0, which writable opens upgrade-stamp after applying the (idempotent)
#: schema script.  Bump this whenever ``_SCHEMA`` changes shape.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS visits (
    visit_id INTEGER PRIMARY KEY,
    profile TEXT NOT NULL,
    site TEXT NOT NULL,
    site_rank INTEGER NOT NULL,
    page_url TEXT NOT NULL,
    success INTEGER NOT NULL,
    started_at REAL NOT NULL,
    duration REAL NOT NULL,
    failure_reason TEXT,
    attempt INTEGER NOT NULL,
    partial INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_visits_page ON visits (page_url);
CREATE INDEX IF NOT EXISTS idx_visits_profile ON visits (profile);

CREATE TABLE IF NOT EXISTS http_requests (
    visit_id INTEGER NOT NULL,
    request_id INTEGER NOT NULL,
    url TEXT NOT NULL,
    top_level_url TEXT NOT NULL,
    resource_type TEXT NOT NULL,
    frame_id INTEGER NOT NULL,
    parent_frame_id INTEGER,
    timestamp REAL NOT NULL,
    call_stack TEXT NOT NULL,
    redirect_from INTEGER,
    during_interaction INTEGER NOT NULL,
    PRIMARY KEY (visit_id, request_id)
);

CREATE TABLE IF NOT EXISTS http_responses (
    visit_id INTEGER NOT NULL,
    request_id INTEGER NOT NULL,
    status INTEGER NOT NULL,
    headers TEXT NOT NULL,
    PRIMARY KEY (visit_id, request_id)
);

CREATE TABLE IF NOT EXISTS http_redirects (
    visit_id INTEGER NOT NULL,
    from_request_id INTEGER NOT NULL,
    to_request_id INTEGER NOT NULL,
    from_url TEXT NOT NULL,
    to_url TEXT NOT NULL,
    status INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_redirects_visit ON http_redirects (visit_id);

CREATE TABLE IF NOT EXISTS javascript_cookies (
    visit_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    domain TEXT NOT NULL,
    path TEXT NOT NULL,
    value TEXT NOT NULL,
    secure INTEGER NOT NULL,
    http_only INTEGER NOT NULL,
    same_site TEXT NOT NULL,
    set_by_url TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cookies_visit ON javascript_cookies (visit_id);
"""


#: Tables in dependency order.  ``visit_id`` is the first column of every
#: table, which is what lets the shard merge interleave rows by visit id.
_TABLES: Tuple[str, ...] = (
    "visits",
    "http_requests",
    "http_responses",
    "http_redirects",
    "javascript_cookies",
)


class MeasurementStore:
    """Stores and retrieves crawl records.

    Use as a context manager or call :meth:`close` explicitly.  Writes are
    transactional: one transaction per :meth:`store_visit`, one per batch
    for :meth:`store_visits` / :meth:`merge`.  On-disk stores run in WAL
    journal mode with an enlarged page cache so that many readers (the
    parallel analysis workers) can snapshot while a writer consolidates.
    """

    def __init__(
        self,
        path: str = ":memory:",
        readonly: bool = False,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.path = path
        self.readonly = readonly
        self.obs = obs if obs is not None else NULL_OBS
        if readonly:
            if path == ":memory:":
                raise StorageError("cannot open an in-memory store read-only")
            uri = f"file:{_uri_quote(os.path.abspath(path))}?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True)
            try:
                self._check_schema_version()
            except StorageError:
                self._conn.close()
                raise
        else:
            self._conn = sqlite3.connect(path)
            if path != ":memory:":
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA cache_size=-65536")  # 64 MiB
            self._conn.execute("PRAGMA temp_store=MEMORY")
            self._conn.executescript(_SCHEMA)
            if self.schema_version == 0:
                self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            else:
                try:
                    self._check_schema_version()
                except StorageError:
                    self._conn.close()
                    raise

    @classmethod
    def open_readonly(cls, path: str) -> "MeasurementStore":
        """Open an existing on-disk store as a read-only snapshot.

        Shard consumers and auditors use this to read concurrently
        without taking write locks (and without being able to corrupt
        the store).
        """
        return cls(path, readonly=True)

    # -- lifecycle ---------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The store's stamped schema generation (``PRAGMA user_version``)."""
        return self._conn.execute("PRAGMA user_version").fetchone()[0]

    def _check_schema_version(self) -> None:
        """Raise unless the store is stamped with this code's schema."""
        found = self.schema_version
        if found == SCHEMA_VERSION:
            return
        detail = "unversioned (pre-stamp) store" if found == 0 else f"version {found}"
        raise StorageError(
            f"schema version mismatch in {self.path}: {detail}, "
            f"this code expects version {SCHEMA_VERSION}"
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "MeasurementStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def flush(self) -> None:
        """Publish every pending write to fresh readers of :attr:`path`.

        Commits any transaction left open on this connection (Python's
        ``sqlite3`` opens implicit transactions on DML and defers the
        commit) and checkpoints the WAL back into the main database file.
        A worker process that opens :attr:`path` with a *new* connection
        sees only committed state — handing the path out without this
        barrier silently serves a store missing the last batch.  No-op
        for in-memory stores (which cannot be opened by path) and
        read-only stores (nothing to publish).
        """
        if self.readonly or self.path == ":memory:":
            return
        if self._conn.in_transaction:
            self._conn.commit()
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def snapshot_to(self, path: str) -> str:
        """Copy the full store to ``path`` (sqlite backup API).

        This is how an in-memory store becomes readable by path: snapshot
        once, then any other connection or process opens the snapshot
        read-only.
        """
        dest = sqlite3.connect(path)
        try:
            self._conn.backup(dest)
        finally:
            dest.close()
        return path

    # -- writes ------------------------------------------------------------

    def store_visit(self, result: VisitResult) -> None:
        """Persist one visit's records atomically."""
        self.store_visits((result,))

    def store_visits(self, results: Iterable[VisitResult]) -> int:
        """Persist many visits in a *single* transaction (the bulk path).

        One transaction per visit is the classic SQLite throughput trap;
        the commander batches a whole site (and the shard merge batches a
        whole shard) through this method instead.  Returns the number of
        visits written; on any integrity error the entire batch rolls
        back.
        """
        batch = list(results)
        if not batch:
            return 0
        with self._conn:
            for result in batch:
                self._insert_result(result)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter("storage.batches").inc()
            metrics.counter("storage.visits_flushed").inc(len(batch))
            metrics.histogram("storage.batch_size", BATCH_SIZE_BUCKETS).observe(
                len(batch)
            )
        return len(batch)

    def merge(self, other: "MeasurementStore") -> int:
        """Copy every record of ``other`` into this store, transactionally.

        Returns the number of visits merged.
        """
        return self.merge_shards((other,))

    def merge_shards(self, others: Sequence["MeasurementStore"]) -> int:
        """Consolidate many shard stores, interleaved in visit-id order.

        Every visit lives entirely in one shard and each shard writes its
        rows in ascending visit-id order, so a k-way merge keyed on
        ``visit_id`` (the first column of every table), stable within a
        shard, reproduces exactly the physical row order a serial crawl
        would have written — the merged store is *byte-identical* to a
        serial one, not merely set-equal.  Returns the total number of
        visits merged.
        """
        for other in others:
            if other.schema_version != self.schema_version:
                raise StorageError(
                    f"cannot merge {other.path} (schema version "
                    f"{other.schema_version}) into {self.path} (schema "
                    f"version {self.schema_version})"
                )
        with self._conn:
            for table in _TABLES:
                streams = [
                    other._conn.execute(f"SELECT * FROM {table} ORDER BY rowid")
                    for other in others
                ]
                rows = heapq.merge(*streams, key=itemgetter(0))
                first = next(rows, None)
                if first is None:
                    continue
                placeholders = ", ".join("?" for _ in first)
                try:
                    self._conn.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})",
                        chain((first,), rows),
                    )
                except sqlite3.IntegrityError as exc:
                    raise StorageError(
                        f"merge collision in table {table}: {exc}"
                    ) from exc
        return sum(other.visit_count(success_only=False) for other in others)

    def _insert_result(self, result: VisitResult) -> None:
        """Insert one visit's rows (caller owns the transaction)."""
        visit = result.visit
        try:
            self._conn.execute(
                "INSERT INTO visits VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    visit.visit_id,
                    visit.profile_name,
                    visit.site,
                    visit.site_rank,
                    visit.page_url,
                    int(visit.success),
                    visit.started_at,
                    visit.duration,
                    visit.failure_reason,
                    visit.attempt,
                    int(visit.partial),
                ),
            )
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"duplicate visit id {visit.visit_id} in visits: {exc}"
            ) from exc
        try:
            self._conn.executemany(
                "INSERT INTO http_requests VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        req.visit_id,
                        req.request_id,
                        req.url,
                        req.top_level_url,
                        req.resource_type,
                        req.frame_id,
                        req.parent_frame_id,
                        req.timestamp,
                        req.call_stack.format(),
                        req.redirect_from,
                        int(req.during_interaction),
                    )
                    for req in result.requests
                ],
            )
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"visit {visit.visit_id}: integrity error in http_requests: {exc}"
            ) from exc
        try:
            self._conn.executemany(
                "INSERT INTO http_responses VALUES (?, ?, ?, ?)",
                [
                    (
                        resp.visit_id,
                        resp.request_id,
                        resp.status,
                        json.dumps(list(resp.headers)),
                    )
                    for resp in result.responses
                ],
            )
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"visit {visit.visit_id}: integrity error in http_responses: {exc}"
            ) from exc
        try:
            self._conn.executemany(
                "INSERT INTO http_redirects VALUES (?, ?, ?, ?, ?, ?)",
                [
                    (
                        red.visit_id,
                        red.from_request_id,
                        red.to_request_id,
                        red.from_url,
                        red.to_url,
                        red.status,
                    )
                    for red in result.redirects
                ],
            )
            self._conn.executemany(
                "INSERT INTO javascript_cookies VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        c.visit_id,
                        c.name,
                        c.domain,
                        c.path,
                        c.value,
                        int(c.secure),
                        int(c.http_only),
                        c.same_site,
                        c.set_by_url,
                    )
                    for c in result.cookies
                ],
            )
        except sqlite3.IntegrityError as exc:
            raise StorageError(
                f"visit {visit.visit_id}: integrity error: {exc}"
            ) from exc

    # -- reads: visits -----------------------------------------------------

    def visit(self, visit_id: int) -> Optional[VisitRecord]:
        row = self._conn.execute(
            "SELECT * FROM visits WHERE visit_id = ?", (visit_id,)
        ).fetchone()
        return _visit_from_row(row) if row else None

    def visits_for_page(self, page_url: str) -> List[VisitRecord]:
        """All visits (any profile, any outcome) to ``page_url``."""
        rows = self._conn.execute(
            "SELECT * FROM visits WHERE page_url = ? ORDER BY visit_id", (page_url,)
        ).fetchall()
        return [_visit_from_row(row) for row in rows]

    def visit_count(self, profile: Optional[str] = None, success_only: bool = False) -> int:
        query = "SELECT COUNT(*) FROM visits WHERE 1=1"
        params: List = []
        if profile is not None:
            query += " AND profile = ?"
            params.append(profile)
        if success_only:
            query += " AND success = 1"
        return self._conn.execute(query, params).fetchone()[0]

    def pages_per_site_cap(self) -> int:
        """The crawl's pages-per-site cap, inferred from the densest site."""
        row = self._conn.execute(
            "SELECT COUNT(DISTINCT page_url) FROM visits "
            "GROUP BY site ORDER BY COUNT(DISTINCT page_url) DESC LIMIT 1"
        ).fetchone()
        return max(1, row[0]) if row else 1

    def outcome_counts(self) -> List[Tuple[str, bool, Optional[str], int]]:
        """Per-profile visit outcomes: ``(profile, success, reason, count)``.

        The crawl-health report (:mod:`repro.obs.health`) uses this to
        rebuild the Table-1-style breakdown from a stored crawl, without
        needing the live :class:`~repro.crawler.commander.CrawlSummary`.
        """
        rows = self._conn.execute(
            """
            SELECT profile, success, failure_reason, COUNT(*)
            FROM visits
            GROUP BY profile, success, failure_reason
            ORDER BY profile, success, failure_reason
            """
        ).fetchall()
        return [(row[0], bool(row[1]), row[2], row[3]) for row in rows]

    def profiles(self) -> List[str]:
        rows = self._conn.execute("SELECT DISTINCT profile FROM visits ORDER BY profile")
        return [row[0] for row in rows]

    def profiles_in_crawl_order(self) -> List[str]:
        """Profiles in the order the crawl ran them.

        Visit ids are handed out profile-major within each site block, so
        the minimum visit id per profile recovers the crawl's profile
        order — which a bundle must archive, because re-running the crawl
        with profiles in any other order would re-deal every visit id.
        """
        rows = self._conn.execute(
            "SELECT profile FROM visits GROUP BY profile ORDER BY MIN(visit_id)"
        )
        return [row[0] for row in rows]

    def pages(self) -> List[str]:
        rows = self._conn.execute("SELECT DISTINCT page_url FROM visits ORDER BY page_url")
        return [row[0] for row in rows]

    def sites(self) -> List[str]:
        rows = self._conn.execute("SELECT DISTINCT site FROM visits ORDER BY site")
        return [row[0] for row in rows]

    def site_rank(self, site: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT site_rank FROM visits WHERE site = ? LIMIT 1", (site,)
        ).fetchone()
        return row[0] if row else None

    def pages_crawled_by_all(
        self, profiles: Sequence[str], include_partial: bool = False
    ) -> List[str]:
        """Pages successfully visited by *every* profile in ``profiles``.

        This is the paper's vetting step (§3.2): pages missing from any
        profile are dropped from the analysis.  ``include_partial`` also
        counts failed visits whose partial traffic was salvaged (opt-in —
        the paper has no salvage).
        """
        placeholders = ",".join("?" for _ in profiles)
        usable = "(success = 1 OR partial = 1)" if include_partial else "success = 1"
        rows = self._conn.execute(
            f"""
            SELECT page_url FROM visits
            WHERE {usable} AND profile IN ({placeholders})
            GROUP BY page_url
            HAVING COUNT(DISTINCT profile) = ?
            ORDER BY page_url
            """,
            (*profiles, len(profiles)),
        ).fetchall()
        return [row[0] for row in rows]

    def successful_visits_for_page(
        self,
        page_url: str,
        profiles: Sequence[str],
        include_partial: bool = False,
    ) -> Dict[str, VisitRecord]:
        """Map profile name → its usable visit of ``page_url``.

        The earliest *successful* attempt wins, by explicit ``ORDER BY
        visit_id`` — retried visits land later visit ids, so physical row
        order is not the attempt order and must not be relied on.  With
        ``include_partial``, a salvaged partial visit is used only when the
        profile has no fully successful visit of the page.
        """
        usable = "(success = 1 OR partial = 1)" if include_partial else "success = 1"
        placeholders = ",".join("?" for _ in profiles)
        rows = self._conn.execute(
            f"""
            SELECT * FROM visits
            WHERE page_url = ? AND {usable} AND profile IN ({placeholders})
            ORDER BY visit_id
            """,
            (page_url, *profiles),
        ).fetchall()
        result: Dict[str, VisitRecord] = {}
        partials: Dict[str, VisitRecord] = {}
        for row in rows:
            visit = _visit_from_row(row)
            if visit.success:
                result.setdefault(visit.profile_name, visit)
            else:
                partials.setdefault(visit.profile_name, visit)
        for name, visit in partials.items():
            result.setdefault(name, visit)
        return result

    def recovered_counts(self) -> Dict[str, int]:
        """Per-profile count of successful visits that needed a retry."""
        rows = self._conn.execute(
            """
            SELECT profile, COUNT(*) FROM visits
            WHERE success = 1 AND attempt > 1
            GROUP BY profile
            ORDER BY profile
            """
        ).fetchall()
        return {row[0]: row[1] for row in rows}

    # -- reads: traffic ----------------------------------------------------

    def requests_for_visit(self, visit_id: int) -> List[RequestRecord]:
        rows = self._conn.execute(
            "SELECT * FROM http_requests WHERE visit_id = ? ORDER BY request_id",
            (visit_id,),
        ).fetchall()
        return [_request_from_row(row) for row in rows]

    def responses_for_visit(self, visit_id: int) -> List[ResponseRecord]:
        rows = self._conn.execute(
            "SELECT * FROM http_responses WHERE visit_id = ? ORDER BY request_id",
            (visit_id,),
        ).fetchall()
        return [
            ResponseRecord(
                visit_id=row[0],
                request_id=row[1],
                status=row[2],
                headers=tuple((name, value) for name, value in json.loads(row[3])),
            )
            for row in rows
        ]

    def document_response(self, visit_id: int) -> Optional[ResponseRecord]:
        """The response of the visit's main document.

        The landing request always has id 1, but it may redirect; the
        headers a study audits are those of the *final* document, not of a
        30x hop.  We therefore follow the ``http_redirects`` chain from
        request 1 to its terminal request and return that response.
        """
        request_id = self._terminal_request_id(visit_id, 1)
        row = self._conn.execute(
            "SELECT * FROM http_responses WHERE visit_id = ? AND request_id = ?",
            (visit_id, request_id),
        ).fetchone()
        if row is None:
            return None
        return ResponseRecord(
            visit_id=row[0],
            request_id=row[1],
            status=row[2],
            headers=tuple((name, value) for name, value in json.loads(row[3])),
        )

    def _terminal_request_id(self, visit_id: int, request_id: int) -> int:
        """Follow redirect hops from ``request_id`` to the chain's end."""
        hops: Dict[int, int] = {}
        for from_id, to_id in self._conn.execute(
            "SELECT from_request_id, to_request_id FROM http_redirects WHERE visit_id = ?",
            (visit_id,),
        ):
            hops[from_id] = to_id
        seen = {request_id}
        while request_id in hops:
            request_id = hops[request_id]
            if request_id in seen:  # defensive: malformed cyclic chain
                break
            seen.add(request_id)
        return request_id

    def redirects_for_visit(self, visit_id: int) -> List[RedirectRecord]:
        rows = self._conn.execute(
            "SELECT * FROM http_redirects WHERE visit_id = ? ORDER BY from_request_id",
            (visit_id,),
        ).fetchall()
        return [
            RedirectRecord(
                visit_id=row[0],
                from_request_id=row[1],
                to_request_id=row[2],
                from_url=row[3],
                to_url=row[4],
                status=row[5],
            )
            for row in rows
        ]

    def cookies_for_visit(self, visit_id: int) -> List[CookieRecord]:
        # RFC 6265 identifies a cookie by (name, domain, path); the same
        # pair can exist under two paths (or setters), so ordering must
        # run through the full identity or exports and bundle digests
        # would depend on physical row order.
        rows = self._conn.execute(
            "SELECT * FROM javascript_cookies WHERE visit_id = ? "
            "ORDER BY domain, name, path, set_by_url",
            (visit_id,),
        ).fetchall()
        return [
            CookieRecord(
                visit_id=row[0],
                name=row[1],
                domain=row[2],
                path=row[3],
                value=row[4],
                secure=bool(row[5]),
                http_only=bool(row[6]),
                same_site=row[7],
                set_by_url=row[8],
            )
            for row in rows
        ]

    def request_count(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM http_requests").fetchone()[0]

    def iter_visits(self, success_only: bool = True) -> Iterator[VisitRecord]:
        """Stream all visits (ordered by id)."""
        query = "SELECT * FROM visits"
        if success_only:
            query += " WHERE success = 1"
        query += " ORDER BY visit_id"
        for row in self._conn.execute(query):
            yield _visit_from_row(row)

    # -- reads/writes: whole tables (bundle record/replay) -----------------

    @staticmethod
    def table_names() -> Tuple[str, ...]:
        """The store's tables, in dependency order."""
        return _TABLES

    def _require_table(self, table: str) -> None:
        if table not in _TABLES:
            raise StorageError(
                f"unknown table {table!r} (known: {', '.join(_TABLES)})"
            )

    def iter_table_rows(self, table: str) -> Iterator[Tuple]:
        """Stream one table's raw rows in physical (insertion) order.

        The crawl writes rows in a deterministic order (see
        :meth:`merge_shards`), so physical order *is* the canonical order;
        bundle serialization and fidelity diffs both key on it.
        """
        self._require_table(table)
        for row in self._conn.execute(f"SELECT * FROM {table} ORDER BY rowid"):
            yield row

    def table_row_count(self, table: str) -> int:
        self._require_table(table)
        return self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

    def insert_table_rows(self, table: str, rows: Iterable[Sequence]) -> int:
        """Append raw rows to ``table`` in one transaction, preserving order.

        The bundle replay path: rows come back exactly as
        :meth:`iter_table_rows` yielded them, so the replayed store is
        physically identical to the recorded one.  Returns the number of
        rows written.
        """
        self._require_table(table)
        columns = len(
            self._conn.execute(f"SELECT * FROM {table} LIMIT 0").description
        )
        placeholders = ", ".join("?" for _ in range(columns))
        count = 0
        with self._conn:
            for chunk in _chunked_rows(rows, 1000):
                try:
                    self._conn.executemany(
                        f"INSERT INTO {table} VALUES ({placeholders})", chunk
                    )
                except sqlite3.IntegrityError as exc:
                    raise StorageError(
                        f"replay collision in table {table}: {exc}"
                    ) from exc
                count += len(chunk)
        return count


def _chunked_rows(rows: Iterable[Sequence], size: int) -> Iterator[List[Sequence]]:
    """Batch an iterable of rows into lists of at most ``size``."""
    chunk: List[Sequence] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= size:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def _visit_from_row(row: Tuple) -> VisitRecord:
    return VisitRecord(
        visit_id=row[0],
        profile_name=row[1],
        site=row[2],
        site_rank=row[3],
        page_url=row[4],
        success=bool(row[5]),
        started_at=row[6],
        duration=row[7],
        failure_reason=row[8],
        attempt=row[9],
        partial=bool(row[10]),
    )


def _request_from_row(row: Tuple) -> RequestRecord:
    return RequestRecord(
        visit_id=row[0],
        request_id=row[1],
        url=row[2],
        top_level_url=row[3],
        resource_type=row[4],
        frame_id=row[5],
        parent_frame_id=row[6],
        timestamp=row[7],
        call_stack=CallStack.parse(row[8]),
        redirect_from=row[9],
        during_interaction=bool(row[10]),
    )
