"""Tests for crawl archive bundles: record, replay, diff, CLI.

The tentpole contract under test (ISSUE: record once, replay everywhere):

* recording is deterministic — the same crawl yields a byte-identical
  bundle, whether the crawl ran serial or sharded;
* replay materializes a row-for-row identical store, so every export
  and analysis built from the bundle matches the live crawl byte for
  byte (including obs metrics);
* ``diff`` against a self-replay or a fresh same-seed crawl reports
  zero drift, and any mutation is localized to its table and row;
* corruption never passes silently: digests are checked on every read.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import zlib
from pathlib import Path

import pytest

from repro import export
from repro.analysis import AnalysisDataset
from repro.browser.profile import PAPER_PROFILES
from repro.bundle import (
    BUNDLE_FORMAT,
    Bundle,
    BundleConfig,
    diff_against_fresh_crawl,
    diff_against_store,
    record_from_store,
)
from repro.bundle.cli import main as bundle_main
from repro.crawler import Commander, MeasurementStore, RetryPolicy
from repro.crawler.storage import SCHEMA_VERSION
from repro.devtools.clock import FakeClock
from repro.errors import BundleError
from repro.experiments import ExperimentContext
from repro.obs import ObsContext
from repro.web import WebGenerator

from ..conftest import SMALL_RANKS

#: Seed 99 + retries + salvage yields partial and recovered visits with
#: the default web config (asserted below), so the fidelity tests cover
#: the retry-widened visit-id layout too.
SALVAGE_RANKS = [1, 2, 6001]


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("bundle") / "crawl"
    record_from_store(store, seed=99, path=path)
    return path


@pytest.fixture(scope="module")
def bundle(bundle_dir):
    return Bundle.open(bundle_dir)


class TestRecord:
    def test_manifest_inventory(self, bundle, store):
        names = [member.name for member in bundle.manifest.members]
        assert names == sorted(names)
        expected = sorted(
            [f"tables/{table}.json" for table in store.table_names()]
            + ["meta/blueprint.json", "meta/filterlist.txt"]
        )
        assert names == expected
        assert bundle.manifest.format == BUNDLE_FORMAT
        assert bundle.schema_version == SCHEMA_VERSION

    def test_config_archives_the_crawl_plan(self, bundle):
        config = bundle.config
        assert config.seed == 99
        assert list(config.ranks) == sorted(SMALL_RANKS)
        assert config.pages_per_site == 3
        assert list(config.profiles) == [p.name for p in PAPER_PROFILES]

    def test_row_counts_match_store(self, bundle, store):
        for table in store.table_names():
            entry = bundle.manifest.member(f"tables/{table}.json")
            assert entry.rows == store.table_row_count(table)

    def test_recording_twice_is_byte_identical(self, bundle_dir, store, tmp_path):
        again = tmp_path / "again"
        record_from_store(store, seed=99, path=again)
        assert (again / "MANIFEST.json").read_bytes() == (
            bundle_dir / "MANIFEST.json"
        ).read_bytes()

    def test_sharded_crawl_records_identical_bundle(
        self, bundle_dir, generator, tmp_path
    ):
        with MeasurementStore() as store:
            Commander(
                generator, store, max_pages_per_site=3, workers=4
            ).run(ranks=SMALL_RANKS)
            sharded = tmp_path / "sharded"
            record_from_store(store, seed=99, path=sharded)
        assert (sharded / "MANIFEST.json").read_bytes() == (
            bundle_dir / "MANIFEST.json"
        ).read_bytes()

    def test_refuses_to_overwrite(self, bundle_dir, store):
        with pytest.raises(BundleError, match="refusing to overwrite"):
            record_from_store(store, seed=99, path=bundle_dir)


class TestReplay:
    def test_replay_is_row_identical(self, bundle, store):
        with bundle.replay() as replayed:
            assert replayed.schema_version == SCHEMA_VERSION
            for table in store.table_names():
                live = list(store.iter_table_rows(table))
                assert list(replayed.iter_table_rows(table)) == live

    def test_exports_byte_identical(self, bundle, store, tmp_path):
        with bundle.replay() as replayed:
            for exporter in (
                export.export_visits_csv,
                export.export_requests_csv,
                export.export_cookies_csv,
            ):
                live_out = tmp_path / f"live-{exporter.__name__}.csv"
                replay_out = tmp_path / f"replay-{exporter.__name__}.csv"
                assert exporter(store, live_out) == exporter(replayed, replay_out)
                assert live_out.read_bytes() == replay_out.read_bytes()

    def test_dataset_exports_byte_identical(
        self, bundle, dataset, filter_list, tmp_path
    ):
        with bundle.replay() as replayed_store:
            replayed = AnalysisDataset.from_store(
                replayed_store, filter_list=filter_list
            )
        live_out = tmp_path / "live-nodes.csv"
        replay_out = tmp_path / "replay-nodes.csv"
        assert export.export_node_comparisons_csv(
            dataset, live_out
        ) == export.export_node_comparisons_csv(replayed, replay_out)
        assert live_out.read_bytes() == replay_out.read_bytes()

    def test_dataset_obs_identical_to_live(self, bundle, store, filter_list):
        def build(source_store):
            obs = ObsContext.create(seed=1, clock=FakeClock())
            AnalysisDataset.from_store(source_store, filter_list=filter_list, obs=obs)
            return obs

        live_obs = build(store)
        with bundle.replay() as replayed:
            replay_obs = build(replayed)
        assert live_obs.metrics.to_json() == replay_obs.metrics.to_json()
        assert live_obs.tracer.to_jsonl() == replay_obs.tracer.to_jsonl()

    def test_archived_filter_list_matches_live(self, bundle, filter_list):
        replayed = ExperimentContext.from_bundle(bundle).dataset  # archived list
        with bundle.replay() as replayed_store:
            live = AnalysisDataset.from_store(replayed_store, filter_list=filter_list)
        live_nodes = [
            (n.key, n.is_tracking) for e in live for n in e.comparison.nodes()
        ]
        replay_nodes = [
            (n.key, n.is_tracking) for e in replayed for n in e.comparison.nodes()
        ]
        assert live_nodes == replay_nodes

    def test_schema_mismatch_refuses_replay(self, bundle):
        stale = Bundle(
            bundle.path,
            dataclasses.replace(
                bundle.manifest, schema_version=SCHEMA_VERSION + 1
            ),
        )
        with pytest.raises(BundleError, match="schema version"):
            stale.replay()

    def test_run_pipeline_from_bundle(self, bundle_dir, dataset):
        ctx = ExperimentContext.from_bundle(str(bundle_dir))
        assert ctx.summary is None
        assert len(ctx.dataset) == len(dataset)
        assert ctx.config.seed == 99


class _Listing:
    """A stand-in for what ``os.scandir`` returns: an iterator that is
    also a context manager."""

    def __init__(self, entries):
        self._entries = iter(entries)

    def __iter__(self):
        return self

    def __next__(self):
        return next(self._entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def close(self):
        pass


def _sort_listings(monkeypatch, reverse):
    """Make every directory listing come back sorted by name.

    Filesystems list a directory in their own order, so a report that
    follows the listing differs between machines; sorting ascending, then
    descending, stands in for two of them.
    """
    listdir, scandir, iterdir = os.listdir, os.scandir, Path.iterdir

    def sorted_scandir(path="."):
        with scandir(path) as entries:
            return _Listing(sorted(entries, key=lambda e: e.name, reverse=reverse))

    monkeypatch.setattr(
        os, "listdir", lambda path=".": sorted(listdir(path), reverse=reverse)
    )
    monkeypatch.setattr(os, "scandir", sorted_scandir)
    monkeypatch.setattr(
        Path, "iterdir", lambda self: iter(sorted(iterdir(self), reverse=reverse))
    )


class TestIntegrity:
    def corrupted_copy(self, bundle_dir, tmp_path, mutate):
        root = tmp_path / "corrupt"
        shutil.copytree(bundle_dir, root)
        bundle = Bundle.open(root)
        entry = bundle.manifest.member("tables/visits.json")
        mutate(root / "objects" / entry.digest)
        return bundle

    def test_verify_clean(self, bundle):
        assert bundle.verify() == []

    def test_garbled_object_fails_digest_check(self, bundle_dir, tmp_path):
        bundle = self.corrupted_copy(
            bundle_dir,
            tmp_path,
            lambda path: path.write_bytes(zlib.compress(b"not the rows")),
        )
        assert bundle.verify() == ["tables/visits.json"]
        with pytest.raises(BundleError, match="digest check"):
            bundle.read_member("tables/visits.json")

    def test_truncated_object_is_corrupt(self, bundle_dir, tmp_path):
        bundle = self.corrupted_copy(
            bundle_dir,
            tmp_path,
            lambda path: path.write_bytes(path.read_bytes()[:10]),
        )
        with pytest.raises(BundleError, match="corrupt"):
            bundle.read_member("tables/visits.json")

    def test_missing_object_reported(self, bundle_dir, tmp_path):
        bundle = self.corrupted_copy(
            bundle_dir, tmp_path, lambda path: path.unlink()
        )
        with pytest.raises(BundleError, match="missing"):
            bundle.read_member("tables/visits.json")

    @pytest.mark.parametrize("reverse", [False, True], ids=["ascending", "descending"])
    def test_verify_reports_in_manifest_order_under_any_listing(
        self, bundle_dir, tmp_path, monkeypatch, capsys, reverse
    ):
        """DESIGN §6, invariant 3: ``verify`` names corrupt members in
        manifest order, whatever order the filesystem lists objects in."""
        root = tmp_path / "two-corrupt"
        shutil.copytree(bundle_dir, root)
        bundle = Bundle.open(root)
        corrupt = ["tables/http_requests.json", "tables/visits.json"]  # manifest order
        digests = {bundle.manifest.member(name).digest for name in corrupt}
        # Two objects, each of one member only.
        assert len(digests) == 2
        assert [m.name for m in bundle.manifest.members if m.digest in digests] == corrupt
        for digest in digests:
            (root / "objects" / digest).write_bytes(zlib.compress(b"not the rows"))
        with monkeypatch.context() as patch:
            _sort_listings(patch, reverse)
            assert Bundle.open(root).verify() == corrupt
            assert bundle_main(["verify", str(root)]) == 1
        assert capsys.readouterr().out == f"corrupt members: {', '.join(corrupt)}\n"

    def test_open_without_manifest(self, tmp_path):
        with pytest.raises(BundleError, match="no bundle manifest"):
            Bundle.open(tmp_path / "nowhere")

    def test_unsupported_format_tag(self, bundle_dir, tmp_path):
        root = tmp_path / "badformat"
        shutil.copytree(bundle_dir, root)
        manifest = json.loads((root / "MANIFEST.json").read_text())
        manifest["format"] = "repro-bundle/999"
        (root / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="unsupported bundle format"):
            Bundle.open(root)

    def test_manifest_that_is_not_an_object(self, bundle_dir, tmp_path, capsys):
        root = tmp_path / "notobject"
        shutil.copytree(bundle_dir, root)
        (root / "MANIFEST.json").write_text("[]")
        with pytest.raises(BundleError, match="not a JSON object"):
            Bundle.open(root)
        assert bundle_main(["verify", str(root)]) == 2
        assert capsys.readouterr().err == "error: manifest is not a JSON object\n"

    def test_member_digest_must_be_sha256_hex(self, bundle_dir, tmp_path):
        root = tmp_path / "baddigest"
        shutil.copytree(bundle_dir, root)
        outside = tmp_path / "outside"
        outside.write_bytes(zlib.compress(b"[]"))
        manifest = json.loads((root / "MANIFEST.json").read_text())
        manifest["members"][0]["digest"] = str(outside)  # an absolute path
        (root / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="not a SHA-256 hex digest"):
            Bundle.open(root)

    def test_malformed_config_rejected(self):
        with pytest.raises(BundleError, match="malformed bundle config"):
            BundleConfig.from_dict({"seed": 1})


class TestDiff:
    def test_self_replay_zero_drift(self, bundle):
        with bundle.replay() as replayed:
            report = diff_against_store(bundle, replayed)
        assert report.clean
        assert not report.drifted
        assert "zero drift" in report.render()

    def test_fresh_crawl_zero_drift(self, bundle):
        report = diff_against_fresh_crawl(bundle)
        assert report.clean
        assert report.blueprint_clean is True
        assert report.filter_list_clean is True
        rendered = report.render()
        assert "zero drift" in rendered
        assert "DRIFT" not in rendered

    def test_deleted_row_is_localized(self, bundle):
        with bundle.replay() as replayed:
            replayed._conn.execute(
                "DELETE FROM javascript_cookies WHERE rowid = "
                "(SELECT MIN(rowid) FROM javascript_cookies)"
            )
            report = diff_against_store(bundle, replayed)
        assert not report.clean
        assert [d.table for d in report.drifted] == ["javascript_cookies"]
        drift = report.drifted[0]
        assert drift.recorded_rows == drift.live_rows + 1
        assert drift.first_divergence is not None
        assert drift.first_divergence[0] == 0
        assert "DRIFT" in report.render()

    def test_retry_salvage_crawl_round_trips(self, tmp_path):
        # The archived retry/salvage knobs widen the visit-id layout;
        # a fresh crawl must only reproduce the bundle if they replay.
        with MeasurementStore() as store:
            Commander(
                WebGenerator(99),
                store,
                max_pages_per_site=3,
                retry_policy=RetryPolicy.with_retries(1),
                salvage_partial=True,
            ).run(SALVAGE_RANKS)
            partials = store._conn.execute(
                "SELECT COUNT(*) FROM visits WHERE partial = 1"
            ).fetchone()[0]
            assert partials > 0  # the interesting case is actually exercised
            path = tmp_path / "salvage"
            bundle = record_from_store(
                store, seed=99, path=path, retries=1, salvage_partial=True
            )
        assert bundle.config.retries == 1
        assert bundle.config.salvage_partial is True
        report = diff_against_fresh_crawl(bundle)
        assert report.clean, report.render()


class TestCli:
    @pytest.fixture(scope="class")
    def db_path(self, store, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundle-cli") / "crawl.sqlite"
        store.snapshot_to(str(path))
        return str(path)

    @pytest.fixture(scope="class")
    def cli_bundle(self, db_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("bundle-cli") / "bundle"
        code = bundle_main(
            ["record", "--db", db_path, "--seed", "99", "--out", str(out)]
        )
        assert code == 0
        return str(out)

    def test_record_and_info(self, cli_bundle, capsys):
        assert bundle_main(["info", cli_bundle]) == 0
        out = capsys.readouterr().out
        assert "seed" in out
        assert "tables/visits.json" in out

    def test_verify_clean(self, cli_bundle, capsys):
        assert bundle_main(["verify", cli_bundle]) == 0
        assert "verified" in capsys.readouterr().out

    def test_replay_to_db(self, cli_bundle, store, tmp_path):
        out = tmp_path / "replayed.sqlite"
        assert bundle_main(["replay", cli_bundle, "--db", str(out)]) == 0
        with MeasurementStore.open_readonly(str(out)) as replayed:
            assert replayed.visit_count(success_only=False) == store.visit_count(
                success_only=False
            )

    def test_diff_zero_drift(self, cli_bundle, capsys):
        assert bundle_main(["diff", cli_bundle]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_diff_against_db_with_drift(self, cli_bundle, db_path, tmp_path, capsys):
        drifted = str(tmp_path / "drifted.sqlite")
        shutil.copy(db_path, drifted)
        with MeasurementStore(drifted) as store:
            store._conn.execute(
                "DELETE FROM visits WHERE visit_id = "
                "(SELECT MAX(visit_id) FROM visits)"
            )
            store._conn.commit()
        assert bundle_main(["diff", cli_bundle, "--db", drifted]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_record_without_args_errors(self, capsys):
        with pytest.raises(SystemExit):
            bundle_main(["record"])
