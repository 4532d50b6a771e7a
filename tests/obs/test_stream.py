"""The event bus: canonical events, publish/subscribe."""

import json

import pytest

from repro.devtools.clock import FakeClock
from repro.obs import EventStream, ObsContext, StreamEvent
from repro.obs.stream import KIND_VISIT


def _visit(rank=1, profile="Old", **payload):
    return StreamEvent(
        kind=KIND_VISIT, site_rank=rank, profile=profile, payload=payload
    )


class TestStreamEvent:
    def test_to_json_is_canonical(self):
        event = _visit(rank=3, success=True, seconds=1.5)
        body = json.loads(event.to_json())
        assert body == {
            "kind": "visit",
            "site_rank": 3,
            "profile": "Old",
            "payload": {"success": True, "seconds": 1.5},
        }
        # Canonical form: sorted keys, no whitespace — byte-comparable.
        assert event.to_json() == json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )

    def test_run_scope_events_have_no_rank(self):
        event = StreamEvent(kind=KIND_VISIT)
        assert event.site_rank is None
        assert json.loads(event.to_json())["site_rank"] is None


class TestEventStream:
    def test_publish_dispatches_in_subscription_order(self):
        stream = EventStream()
        seen = []
        stream.subscribe(lambda event: seen.append(("a", event)))
        stream.subscribe(lambda event: seen.append(("b", event)))
        first, second = _visit(rank=1), _visit(rank=2)
        assert stream.publish(first) and stream.publish(second)
        assert seen == [("a", first), ("b", first), ("a", second), ("b", second)]

    def test_disabled_stream_is_a_no_op(self):
        stream = EventStream.disabled()
        seen = []
        stream.subscribe(seen.append)
        assert not stream.publish(_visit())
        assert seen == []


class TestKindConstants:
    def test_attach_monitor_requires_enabled_stream(self):
        from repro.errors import ObsError
        from repro.obs import Monitor

        obs = ObsContext.create(seed=1, clock=FakeClock())
        with pytest.raises(ObsError):
            obs.attach_monitor(Monitor.for_crawl(expected_rate=0.1))
