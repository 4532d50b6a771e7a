"""Unit tests for span tracing: identity, nesting, export."""

import pytest

from repro.devtools.clock import FakeClock
from repro.errors import CrawlError, ObsError
from repro.obs import NULL_OBS, ObsContext
from repro.obs.trace import SpanRecord, Tracer, read_jsonl, split_roots


def make_tracer(seed=7):
    return Tracer(seed=seed, clock=FakeClock())


class TestSpanIdentity:
    def test_ids_are_deterministic_across_tracers(self):
        a, b = make_tracer(), make_tracer()
        with a.span("crawl", key="crawl"):
            pass
        with b.span("crawl", key="crawl"):
            pass
        assert a.records[0].span_id == b.records[0].span_id

    def test_ids_depend_on_seed(self):
        a, b = make_tracer(seed=1), make_tracer(seed=2)
        with a.span("crawl"):
            pass
        with b.span("crawl"):
            pass
        assert a.records[0].span_id != b.records[0].span_id

    def test_repeated_keys_get_distinct_ids(self):
        tracer = make_tracer()
        with tracer.span("site", key="site:1"):
            pass
        with tracer.span("site", key="site:1"):
            pass
        first, second = tracer.records
        assert first.span_id != second.span_id

    def test_id_format_is_sixteen_hex_chars(self):
        tracer = make_tracer()
        with tracer.span("x"):
            pass
        span_id = tracer.records[0].span_id
        assert len(span_id) == 16
        int(span_id, 16)


class TestNesting:
    def test_child_records_parent_id(self):
        tracer = make_tracer()
        with tracer.span("crawl") as outer:
            with tracer.span("plan"):
                pass
        outer_record, inner_record = tracer.records
        assert inner_record.parent_id == outer.span_id
        assert outer_record.parent_id is None

    def test_records_are_in_start_order(self):
        tracer = make_tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [record.name for record in tracer.records] == ["a", "b", "c"]

    def test_out_of_order_close_raises(self):
        tracer = make_tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(ObsError):
            outer.__exit__(None, None, None)

    def test_fake_clock_timestamps(self):
        clock = FakeClock()
        tracer = Tracer(seed=1, clock=clock)
        with tracer.span("step"):
            clock.advance(2.5)
        record = tracer.records[0]
        assert record.duration == 2.5


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = make_tracer()
        with tracer.span("crawl", sites=3):
            with tracer.span("plan"):
                pass
        path = str(tmp_path / "trace.jsonl")
        assert tracer.write_jsonl(path) == 2
        loaded = read_jsonl(path)
        assert loaded == tracer.records

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"span_id": "x"}\n')
        with pytest.raises(ObsError):
            read_jsonl(str(path))

    def test_split_roots_groups_subtrees(self):
        tracer = make_tracer()
        with tracer.span("site", key="site:1"):
            with tracer.span("profile", key="site:1/p"):
                pass
        with tracer.span("site", key="site:2"):
            pass
        groups = split_roots(tracer.records)
        assert [len(group) for group in groups] == [2, 1]
        assert groups[0][0].key == "site:1"

    def test_adopt_reparents_roots_under_open_span(self):
        worker = make_tracer()
        with worker.span("site", key="site:1"):
            with worker.span("profile", key="site:1/p"):
                pass
        parent = make_tracer()
        with parent.span("crawl") as crawl:
            parent.adopt(worker.records)
        site = next(record for record in parent.records if record.name == "site")
        profile = next(record for record in parent.records if record.name == "profile")
        assert site.parent_id == crawl.span_id
        assert profile.parent_id == site.span_id


class TestFailureLifecycle:
    def test_raising_block_still_emits_its_span(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("step"):
                raise ValueError("boom")
        assert [record.name for record in tracer.records] == ["step"]

    def test_error_status_and_exception_name_recorded(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.span("step"):
                raise ValueError("boom")
        attrs = tracer.records[0].attrs
        assert attrs["status"] == "error"
        assert attrs["error"] == "ValueError"

    def test_repro_error_records_failure_reason(self):
        tracer = make_tracer()
        with pytest.raises(CrawlError):
            with tracer.span("site", key="site:1"):
                raise CrawlError("dns gave up")
        attrs = tracer.records[0].attrs
        assert attrs["status"] == "error"
        assert attrs["failure_reason"] == "CrawlError"

    def test_exception_closes_abandoned_descendants(self):
        clock = FakeClock()
        tracer = Tracer(seed=7, clock=clock)
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                tracer.span("inner").__enter__()  # never closed by its owner
                clock.advance(1.0)
                raise ValueError("boom")
        inner = next(r for r in tracer.records if r.name == "inner")
        assert inner.end == clock.now()
        assert inner.attrs["status"] == "error"

    def test_clean_exit_mismatch_still_raises(self):
        # Unwinding is an exception-path salvage; a mismatched close on
        # the clean path remains a programming error.
        tracer = make_tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(ObsError):
            outer.__exit__(None, None, None)

    def test_exception_propagates_through_span(self):
        tracer = make_tracer()
        with pytest.raises(CrawlError, match="dns gave up"):
            with tracer.span("site"):
                raise CrawlError("dns gave up")


class TestDisabledPath:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer.disabled()
        with tracer.span("crawl") as span:
            span.set("sites", 1)
        assert tracer.records == []

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.config().enabled is False

    def test_from_config_round_trip(self):
        obs = ObsContext.create(seed=9, clock=FakeClock())
        rebuilt = ObsContext.from_config(obs.config())
        assert rebuilt.enabled
        assert rebuilt.tracer.seed == 9

    def test_record_equality_is_structural(self):
        record = SpanRecord(
            span_id="a", parent_id=None, name="n", key="k", start=0.0, end=1.0
        )
        assert SpanRecord.from_json(record.to_json()) == record
