"""Tests for the SQLite measurement store."""

import sqlite3

import pytest

from repro.browser.callstack import CallStack
from repro.browser.network import (
    CookieRecord,
    RedirectRecord,
    RequestRecord,
    ResponseRecord,
    VisitRecord,
    VisitResult,
)
from repro.crawler.storage import SCHEMA_VERSION, MeasurementStore
from repro.errors import StorageError
from repro.export import export_cookies_csv


def make_result(visit_id=1, profile="Sim1", page="https://e.com/", success=True):
    visit = VisitRecord(
        visit_id=visit_id,
        profile_name=profile,
        site="e.com",
        site_rank=1,
        page_url=page,
        success=success,
        started_at=0.0,
        duration=2.5,
        failure_reason=None if success else "timeout",
    )
    if not success:
        return VisitResult(visit=visit)
    requests = (
        RequestRecord(
            request_id=1,
            visit_id=visit_id,
            url=page,
            top_level_url=page,
            resource_type="main_frame",
            frame_id=0,
            parent_frame_id=None,
            timestamp=0.1,
        ),
        RequestRecord(
            request_id=2,
            visit_id=visit_id,
            url="https://e.com/a.js",
            top_level_url=page,
            resource_type="script",
            frame_id=0,
            parent_frame_id=None,
            timestamp=0.2,
            call_stack=CallStack.for_initiator("https://e.com/loader.js"),
        ),
    )
    redirects = (
        RedirectRecord(
            visit_id=visit_id,
            from_request_id=1,
            to_request_id=2,
            from_url=page,
            to_url="https://e.com/a.js",
        ),
    )
    cookies = (
        CookieRecord(
            visit_id=visit_id,
            name="sid",
            domain="e.com",
            path="/",
            value="x",
            secure=True,
            http_only=False,
            same_site="Lax",
            set_by_url=page,
        ),
    )
    return VisitResult(visit=visit, requests=requests, redirects=redirects, cookies=cookies)


class TestRoundtrip:
    def test_visit_roundtrip(self):
        with MeasurementStore() as store:
            store.store_visit(make_result())
            visit = store.visit(1)
            assert visit.profile_name == "Sim1"
            assert visit.success
            assert visit.duration == 2.5

    def test_requests_roundtrip_with_stack(self):
        with MeasurementStore() as store:
            store.store_visit(make_result())
            requests = store.requests_for_visit(1)
            assert len(requests) == 2
            script = requests[1]
            assert script.call_stack.initiating_script_url == "https://e.com/loader.js"
            assert requests[0].call_stack.top is None

    def test_redirects_roundtrip(self):
        with MeasurementStore() as store:
            store.store_visit(make_result())
            redirects = store.redirects_for_visit(1)
            assert len(redirects) == 1
            assert redirects[0].status == 302

    def test_cookies_roundtrip(self):
        with MeasurementStore() as store:
            store.store_visit(make_result())
            cookies = store.cookies_for_visit(1)
            assert cookies[0].identity == ("sid", "e.com", "/")
            assert cookies[0].secure is True

    def test_missing_visit(self):
        with MeasurementStore() as store:
            assert store.visit(99) is None


class TestConstraints:
    def test_duplicate_visit_id_rejected(self):
        with MeasurementStore() as store:
            store.store_visit(make_result(visit_id=1))
            with pytest.raises(StorageError):
                store.store_visit(make_result(visit_id=1, profile="Sim2"))

    def test_duplicate_visit_id_names_visits_table(self):
        with MeasurementStore() as store:
            store.store_visit(make_result(visit_id=1))
            with pytest.raises(StorageError, match="duplicate visit id 1"):
                store.store_visit(make_result(visit_id=1, profile="Sim2"))

    def test_duplicate_request_id_names_requests_table(self):
        # Regression: a duplicate (visit_id, request_id) used to be
        # reported as "duplicate visit id", pointing at the wrong table.
        result = make_result(visit_id=1)
        broken = VisitResult(
            visit=result.visit,
            requests=result.requests + (result.requests[0],),
            redirects=result.redirects,
            cookies=result.cookies,
        )
        with MeasurementStore() as store:
            with pytest.raises(StorageError, match="http_requests"):
                store.store_visit(broken)
            # The whole batch rolled back: no partial visit row remains.
            assert store.visit(1) is None

    def test_duplicate_response_id_names_responses_table(self):
        result = make_result(visit_id=1)
        response = ResponseRecord(visit_id=1, request_id=1, status=200)
        broken = VisitResult(
            visit=result.visit,
            requests=result.requests,
            responses=(response, response),
        )
        with MeasurementStore() as store:
            with pytest.raises(StorageError, match="http_responses"):
                store.store_visit(broken)


class TestBulkWrites:
    def test_store_visits_batches_atomically(self):
        results = [make_result(visit_id=i, page=f"https://e.com/p{i}") for i in (1, 2, 3)]
        with MeasurementStore() as store:
            assert store.store_visits(results) == 3
            assert store.visit_count() == 3

    def test_store_visits_rolls_back_whole_batch(self):
        results = [make_result(visit_id=1), make_result(visit_id=1, profile="Sim2")]
        with MeasurementStore() as store:
            with pytest.raises(StorageError):
                store.store_visits(results)
            assert store.visit_count() == 0

    def test_store_visits_empty(self):
        with MeasurementStore() as store:
            assert store.store_visits([]) == 0


class TestMergeAndSnapshots:
    def test_merge_combines_shards(self):
        with MeasurementStore() as left, MeasurementStore() as right, MeasurementStore() as main:
            left.store_visit(make_result(visit_id=1))
            right.store_visit(make_result(visit_id=2, profile="Sim2"))
            assert main.merge_shards([left]) == 1
            assert main.merge_shards([right]) == 1
            assert main.visit_count() == 2
            assert len(main.requests_for_visit(1)) == 2
            assert len(main.cookies_for_visit(2)) == 1

    def test_merge_collision_raises(self):
        with MeasurementStore() as left, MeasurementStore() as main:
            left.store_visit(make_result(visit_id=1))
            main.store_visit(make_result(visit_id=1))
            with pytest.raises(StorageError, match="merge collision"):
                main.merge_shards([left])

    def test_snapshot_and_readonly(self, tmp_path):
        snapshot = str(tmp_path / "snapshot.sqlite")
        with MeasurementStore() as store:
            store.store_visit(make_result(visit_id=1))
            store.snapshot_to(snapshot)
        with MeasurementStore.open_readonly(snapshot) as reader:
            assert reader.visit(1).profile_name == "Sim1"
            with pytest.raises(Exception):
                reader.store_visit(make_result(visit_id=2))

    def test_readonly_in_memory_rejected(self):
        with pytest.raises(StorageError):
            MeasurementStore.open_readonly(":memory:")

    def test_readonly_missing_path_rejected_and_not_created(self, tmp_path):
        path = tmp_path / "typo.sqlite"
        with pytest.raises(StorageError, match="no such database"):
            MeasurementStore.open_readonly(str(path))
        assert not path.exists()

    def test_on_disk_store_uses_wal(self, tmp_path):
        with MeasurementStore(str(tmp_path / "db.sqlite")) as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            assert mode == "wal"


class TestSchemaVersion:
    def test_new_store_is_stamped(self):
        with MeasurementStore() as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_snapshot_carries_the_stamp(self, tmp_path):
        snapshot = str(tmp_path / "snap.sqlite")
        with MeasurementStore() as store:
            store.store_visit(make_result(visit_id=1))
            store.snapshot_to(snapshot)
        with MeasurementStore.open_readonly(snapshot) as reader:
            assert reader.schema_version == SCHEMA_VERSION

    def _write_with_version(self, path, version):
        with MeasurementStore(path) as store:
            store.store_visit(make_result(visit_id=1))
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {version}")
        conn.close()

    def test_writable_open_rejects_future_version(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        self._write_with_version(path, SCHEMA_VERSION + 7)
        with pytest.raises(StorageError, match="schema version"):
            MeasurementStore(path)

    def test_readonly_open_rejects_mismatch(self, tmp_path):
        path = str(tmp_path / "future.sqlite")
        self._write_with_version(path, SCHEMA_VERSION + 7)
        with pytest.raises(StorageError, match="schema version"):
            MeasurementStore.open_readonly(path)

    def test_readonly_open_rejects_unversioned_store(self, tmp_path):
        path = str(tmp_path / "legacy.sqlite")
        self._write_with_version(path, 0)
        with pytest.raises(StorageError, match="unversioned"):
            MeasurementStore.open_readonly(path)

    def test_writable_open_upgrade_stamps_unversioned_store(self, tmp_path):
        # Pre-stamp stores read as version 0; a writable open re-applies
        # the (idempotent) schema and stamps them current.
        path = str(tmp_path / "legacy.sqlite")
        self._write_with_version(path, 0)
        with MeasurementStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            assert store.visit_count() == 1

    def test_merge_of_old_store_raises(self):
        with MeasurementStore() as old, MeasurementStore() as main:
            old.store_visit(make_result(visit_id=1))
            old._conn.execute("PRAGMA user_version = 1")
            with pytest.raises(StorageError, match="cannot merge"):
                main.merge_shards([old])
            assert main.visit_count() == 0


class TestDocumentResponse:
    def make_redirecting_visit(self, visit_id=1):
        """A landing request that 301s twice before the real document."""
        page = "https://e.com/"
        visit = VisitRecord(
            visit_id=visit_id,
            profile_name="Sim1",
            site="e.com",
            site_rank=1,
            page_url=page,
            success=True,
            started_at=0.0,
            duration=2.0,
        )
        urls = (page, "https://www.e.com/", "https://www.e.com/home")
        requests = tuple(
            RequestRecord(
                request_id=i + 1,
                visit_id=visit_id,
                url=url,
                top_level_url=page,
                resource_type="main_frame",
                frame_id=0,
                parent_frame_id=None,
                timestamp=0.1 * (i + 1),
                redirect_from=i if i else None,
            )
            for i, url in enumerate(urls)
        )
        responses = (
            ResponseRecord(visit_id=visit_id, request_id=1, status=301,
                           headers=(("location", urls[1]),)),
            ResponseRecord(visit_id=visit_id, request_id=2, status=301,
                           headers=(("location", urls[2]),)),
            ResponseRecord(visit_id=visit_id, request_id=3, status=200,
                           headers=(("content-type", "text/html"),
                                    ("strict-transport-security", "max-age=63072000"))),
        )
        redirects = (
            RedirectRecord(visit_id=visit_id, from_request_id=1, to_request_id=2,
                           from_url=urls[0], to_url=urls[1], status=301),
            RedirectRecord(visit_id=visit_id, from_request_id=2, to_request_id=3,
                           from_url=urls[1], to_url=urls[2], status=301),
        )
        return VisitResult(
            visit=visit, requests=requests, responses=responses, redirects=redirects
        )

    def test_follows_redirect_chain_to_final_document(self):
        # Regression: the hardcoded request_id=1 used to hand the 30x hop's
        # headers to the security-header analysis.
        with MeasurementStore() as store:
            store.store_visit(self.make_redirecting_visit())
            response = store.document_response(1)
            assert response.request_id == 3
            assert response.status == 200
            assert response.header("strict-transport-security") is not None

    def test_no_redirects_returns_request_one(self):
        result = self.make_redirecting_visit(visit_id=5)
        plain = VisitResult(
            visit=result.visit,
            requests=result.requests[:1],
            responses=(
                ResponseRecord(visit_id=5, request_id=1, status=200,
                               headers=(("content-type", "text/html"),)),
            ),
        )
        with MeasurementStore() as store:
            store.store_visit(plain)
            response = store.document_response(5)
            assert response.request_id == 1
            assert response.status == 200

    def test_missing_visit_returns_none(self):
        with MeasurementStore() as store:
            assert store.document_response(404) is None


class TestTiedCookieOrder:
    """A read's ``ORDER BY`` must be total (DESIGN §6, invariant 5).

    Rows that tie on a partial sort key come back in physical order,
    which follows the store's insert history; no crawl writes such a
    tie, so the rows are written here by hand, in both orders.
    """

    #: One successful visit (``visits`` columns in schema order).
    VISIT = (1, "Sim1", "e.com", 1, "https://e.com/", 1, 0.0, 2.5, None, 1, 0)
    #: Cookies sharing ``(visit_id, domain, name)``: two under one path
    #: set by different URLs, one under another path.
    COOKIES = (
        (1, "sid", "e.com", "/", "a", 1, 0, "Lax", "https://e.com/"),
        (1, "sid", "e.com", "/", "b", 0, 0, "Lax", "https://cdn.e.com/set.js"),
        (1, "sid", "e.com", "/app", "c", 0, 1, "None", "https://e.com/app"),
    )

    def _reads(self, cookie_rows, csv_path):
        with MeasurementStore() as store:
            store.insert_table_rows("visits", [self.VISIT])
            store.insert_table_rows("javascript_cookies", cookie_rows)
            assert export_cookies_csv(store, csv_path) == len(cookie_rows)
            return store.cookies_for_visit(1), csv_path.read_bytes()

    def test_reads_and_export_ignore_physical_order(self, tmp_path):
        forward = self._reads(self.COOKIES, tmp_path / "forward.csv")
        backward = self._reads(self.COOKIES[::-1], tmp_path / "backward.csv")
        assert forward == backward
        assert len(forward[0]) == len(self.COOKIES)


class TestQueries:
    def populate(self, store):
        visit_id = 0
        for page in ("https://e.com/", "https://e.com/a"):
            for profile in ("Sim1", "Sim2"):
                visit_id += 1
                success = not (page == "https://e.com/a" and profile == "Sim2")
                store.store_visit(
                    make_result(visit_id=visit_id, profile=profile, page=page, success=success)
                )

    def test_profiles_and_pages(self):
        with MeasurementStore() as store:
            self.populate(store)
            assert store.profiles() == ["Sim1", "Sim2"]
            assert store.pages() == ["https://e.com/", "https://e.com/a"]
            assert store.sites() == ["e.com"]

    def test_pages_crawled_by_all(self):
        with MeasurementStore() as store:
            self.populate(store)
            pages = store.pages_crawled_by_all(["Sim1", "Sim2"])
            assert pages == ["https://e.com/"]

    def test_successful_visits_for_page(self):
        with MeasurementStore() as store:
            self.populate(store)
            visits = store.successful_visits_for_page("https://e.com/a", ["Sim1", "Sim2"])
            assert set(visits) == {"Sim1"}

    def test_visit_count(self):
        with MeasurementStore() as store:
            self.populate(store)
            assert store.visit_count() == 4
            assert store.visit_count(profile="Sim2") == 2
            assert store.visit_count(success_only=True) == 3

    def test_request_count(self):
        with MeasurementStore() as store:
            self.populate(store)
            assert store.request_count() == 6  # 3 successful visits x 2 requests

    def test_iter_visits(self):
        with MeasurementStore() as store:
            self.populate(store)
            ids = [v.visit_id for v in store.iter_visits()]
            assert ids == [1, 2, 3]
            all_ids = [v.visit_id for v in store.iter_visits(success_only=False)]
            assert all_ids == [1, 2, 3, 4]

    def test_site_rank(self):
        with MeasurementStore() as store:
            assert store.ranks() == []
            store.store_visit(
                VisitResult(
                    visit=VisitRecord(
                        visit_id=100,
                        profile_name="Sim1",
                        site="f.com",
                        site_rank=7,
                        page_url="https://f.com/",
                        success=False,
                        started_at=0.0,
                        duration=30.0,
                        failure_reason="timeout",
                    )
                )
            )
            self.populate(store)
            # One rank per site, ascending, failed visits included.
            assert store.ranks() == [1, 7]
