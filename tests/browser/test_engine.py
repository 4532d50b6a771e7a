"""Tests for the page-load engine (the Firefox+OpenWPM stand-in)."""

from collections import Counter

from repro.browser.engine import BrowserEngine
from repro.browser.frames import MAIN_FRAME_ID
from repro.browser.profile import (
    PROFILE_HEADLESS,
    PROFILE_NOACTION,
    PROFILE_OLD,
    PROFILE_SIM1,
    PROFILE_SIM2,
)
from repro.web.blueprint import (
    CookieTemplate,
    InclusionRule,
    InitiatorKind,
    PageBlueprint,
    ResourceSlot,
)
from repro.web.resources import ResourceType
from repro.web.url import URL


def url(path: str, host: str = "e.com") -> URL:
    return URL.parse(f"https://{host}{path}")


def simple_page(fail_probability: float = 0.0) -> PageBlueprint:
    pixel = ResourceSlot(
        slot_id="pixel",
        url=url("/pixel.gif", "trk.com"),
        resource_type=ResourceType.BEACON,
        initiator=InitiatorKind.SCRIPT,
        session_param="uid",
        cookies=(CookieTemplate(name="sync", domain="trk.com"),),
    )
    script = ResourceSlot(
        slot_id="script",
        url=url("/app.js"),
        resource_type=ResourceType.SCRIPT,
        initiator=InitiatorKind.DOCUMENT,
        children=(pixel,),
    )
    frame_img = ResourceSlot(
        slot_id="frame-img",
        url=url("/inner.png", "ad.com"),
        resource_type=ResourceType.IMAGE,
        initiator=InitiatorKind.DOCUMENT,
    )
    frame = ResourceSlot(
        slot_id="frame",
        url=url("/ad.html", "ad.com"),
        resource_type=ResourceType.SUB_FRAME,
        initiator=InitiatorKind.FRAME,
        children=(frame_img,),
    )
    lazy = ResourceSlot(
        slot_id="lazy",
        url=url("/lazy.png"),
        resource_type=ResourceType.IMAGE,
        rule=InclusionRule(requires_interaction=True),
    )
    return PageBlueprint(
        url=url("/"),
        slots=(script, frame, lazy),
        fail_probability=fail_probability,
    )


def visit(profile=PROFILE_SIM1, seed=1, page=None, visit_id=1):
    engine = BrowserEngine(profile, seed=seed)
    return engine.visit(page or simple_page(), site="e.com", site_rank=1, visit_id=visit_id)


class TestBasicVisit:
    def test_main_frame_request_first(self):
        result = visit()
        first = result.requests[0]
        assert first.resource_type == "main_frame"
        assert first.url == "https://e.com/"
        assert first.frame_id == MAIN_FRAME_ID

    def test_all_slots_loaded(self):
        result = visit()
        urls = {r.url.split("?")[0] for r in result.requests}
        assert "https://e.com/app.js" in urls
        assert "https://trk.com/pixel.gif" in urls
        assert "https://ad.com/ad.html" in urls
        assert "https://ad.com/inner.png" in urls
        assert "https://e.com/lazy.png" in urls

    def test_request_ids_unique_and_monotonic(self):
        result = visit()
        ids = [r.request_id for r in result.requests]
        assert len(ids) == len(set(ids))

    def test_timestamps_monotone(self):
        result = visit()
        stamps = [r.timestamp for r in result.requests]
        assert stamps == sorted(stamps)

    def test_visit_record(self):
        result = visit()
        assert result.visit.success
        assert result.visit.site == "e.com"
        assert result.visit.duration > 0


class TestAttributionSignals:
    def test_script_child_has_call_stack(self):
        result = visit()
        pixel = next(r for r in result.requests if "pixel.gif" in r.url)
        assert pixel.call_stack.initiating_script_url == "https://e.com/app.js"

    def test_frame_document_gets_new_frame_id(self):
        result = visit()
        frame_doc = next(r for r in result.requests if r.url.startswith("https://ad.com/ad.html"))
        assert frame_doc.frame_id != MAIN_FRAME_ID
        assert frame_doc.parent_frame_id == MAIN_FRAME_ID

    def test_frame_content_carries_frame_id(self):
        result = visit()
        frame_doc = next(r for r in result.requests if "ad.html" in r.url)
        inner = next(r for r in result.requests if "inner.png" in r.url)
        assert inner.frame_id == frame_doc.frame_id

    def test_session_param_in_raw_url(self):
        result = visit()
        pixel = next(r for r in result.requests if "pixel.gif" in r.url)
        assert "uid=" in pixel.url


class TestInteractionPhase:
    def test_lazy_loads_only_with_interaction(self):
        with_interaction = visit(PROFILE_SIM1)
        without = visit(PROFILE_NOACTION)
        assert any("lazy.png" in r.url for r in with_interaction.requests)
        assert not any("lazy.png" in r.url for r in without.requests)

    def test_lazy_marked_during_interaction(self):
        result = visit()
        lazy = next(r for r in result.requests if "lazy.png" in r.url)
        assert lazy.during_interaction

    def test_eager_not_marked(self):
        result = visit()
        script = next(r for r in result.requests if "app.js" in r.url)
        assert not script.during_interaction

    def test_lazy_timestamp_after_eager(self):
        result = visit()
        lazy = next(r for r in result.requests if "lazy.png" in r.url)
        eager = max(
            r.timestamp for r in result.requests if not r.during_interaction
        )
        assert lazy.timestamp > eager

    def test_no_duplicate_loads_across_phases(self):
        result = visit()
        counts = Counter(r.url.split("?")[0] for r in result.requests)
        assert all(count == 1 for count in counts.values()), counts


class TestRedirectChains:
    def make_page(self, via=(), pool=(), hops=(0, 0), target=None):
        slot = ResourceSlot(
            slot_id="r",
            url=target or url("/pixel.gif", "trk.com"),
            resource_type=ResourceType.BEACON,
            initiator=InitiatorKind.DOCUMENT,
            redirect_via=tuple(via),
            redirect_pool=tuple(pool),
            redirect_hops=hops,
        )
        return PageBlueprint(url=url("/"), slots=(slot,))

    def test_fixed_via_precedes_resource(self):
        page = self.make_page(via=[url("/hop", "cdn.com")])
        result = visit(page=page)
        hop = next(r for r in result.requests if "cdn.com" in r.url)
        final = next(r for r in result.requests if "pixel.gif" in r.url)
        assert final.redirect_from == hop.request_id
        assert len(result.redirects) == 1
        assert result.redirects[0].from_url == hop.url

    def test_final_hop_found_by_position(self):
        # Regression: the final hop was found by identity, so a chain
        # through the slot's own URL object answered its first hop with a
        # drawn status instead of 302.
        target = URL.parse("https://trk.com/pixel.gif")
        twin = URL(scheme=target.scheme, host=target.host, path=target.path)
        assert twin == target and twin is not target
        for hop in (target, twin):
            result = visit(page=self.make_page(via=[hop], target=target))
            status = {r.request_id: r.status for r in result.responses}
            chain = [status[r.request_id] for r in result.requests[1:]]
            assert chain == [302, 200]
            assert len(result.redirects) == 1

    def test_pool_hops_follow_resource(self):
        page = self.make_page(
            pool=[url("/sync", "p1.com"), url("/sync", "p2.com")], hops=(1, 1)
        )
        result = visit(page=page)
        pixel = next(r for r in result.requests if "pixel.gif" in r.url)
        hop = next(r for r in result.requests if "/sync" in r.url)
        assert hop.redirect_from == pixel.request_id

    def test_pool_hop_sets_sync_cookie(self):
        page = self.make_page(
            pool=[url("/sync", "p1.com"), url("/sync", "p2.com")], hops=(1, 1)
        )
        result = visit(page=page)
        sync_cookies = [c for c in result.cookies if c.name == "psync"]
        assert len(sync_cookies) == 1
        assert sync_cookies[0].domain in ("p1.com", "p2.com")


class TestDeterminismAndVariance:
    def test_same_visit_id_reproducible(self):
        a = visit(visit_id=10)
        b = visit(visit_id=10)
        assert [r.url for r in a.requests] == [r.url for r in b.requests]

    def test_different_visit_ids_differ(self):
        a = visit(visit_id=10)
        b = visit(visit_id=11)
        assert [r.url for r in a.requests] != [r.url for r in b.requests]

    def test_identical_profiles_still_differ(self):
        # Sim1 and Sim2 use the same configuration but are independent
        # browsers; their session tokens must differ.
        a = visit(PROFILE_SIM1, visit_id=10)
        b = visit(PROFILE_SIM2, visit_id=10)
        assert [r.url for r in a.requests] != [r.url for r in b.requests]

    def test_old_and_headless_visit_fine(self):
        for profile in (PROFILE_OLD, PROFILE_HEADLESS):
            result = visit(profile)
            assert result.success
            assert result.requests


class TestFailures:
    def test_failures_happen_at_configured_rate(self):
        page = simple_page(fail_probability=0.5)
        engine = BrowserEngine(PROFILE_SIM1, seed=3)
        outcomes = [
            engine.visit(page, site="e.com", site_rank=1, visit_id=i).success
            for i in range(200)
        ]
        failures = outcomes.count(False)
        assert 60 <= failures <= 140

    def test_stalled_visit_salvages_partial_traffic(self):
        page = simple_page(fail_probability=1.0)
        result = visit(page=page)
        assert not result.success
        assert result.visit.failure_reason == "stall-timeout"
        # The requests observed before the stall are kept, flagged partial;
        # the crawl layer decides whether to persist them.
        assert result.requests
        assert result.visit.partial
        assert result.visit.duration == 30.0  # stalls bill the full timeout

    def test_injected_crawler_fault_has_no_traffic(self):
        from repro.web.faults import TRANSIENT_FAULTS

        page = simple_page(fail_probability=0.0)
        engine = BrowserEngine(PROFILE_SIM1, seed=3)
        for visit_id in range(300):
            result = engine.visit(page, site="e.com", site_rank=1, visit_id=visit_id)
            if result.success:
                continue
            # Non-stall faults abort before any traffic and resolve before
            # the deadline (seeded sub-timeout duration).
            assert result.requests == ()
            assert result.cookies == ()
            assert not result.visit.partial
            assert result.visit.failure_reason in TRANSIENT_FAULTS
            assert result.visit.failure_reason != "stall-timeout"
            assert 0.0 < result.visit.duration < engine.timeout
            break
        else:  # pragma: no cover - seed guarantees a fault within 300 draws
            raise AssertionError("no crawler fault drawn in 300 visits")


class TestCookies:
    def test_cookie_set_by_slot(self):
        result = visit()
        sync = [c for c in result.cookies if c.name == "sync"]
        assert len(sync) == 1
        assert sync[0].domain == "trk.com"

    def test_cookie_value_differs_per_visit(self):
        a = visit(visit_id=1)
        b = visit(visit_id=2)
        value_a = next(c.value for c in a.cookies if c.name == "sync")
        value_b = next(c.value for c in b.cookies if c.name == "sync")
        assert value_a != value_b
