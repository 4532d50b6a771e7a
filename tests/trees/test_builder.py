"""Tests for dependency-tree construction from request records."""

import pytest

from repro.analysis import AnalysisDataset
from repro.browser.callstack import CallStack, EMPTY_STACK
from repro.browser.network import RequestRecord, VisitRecord
from repro.errors import TreeConstructionError
from repro.trees.builder import TreeBuilder, build_tree, resolve_parents
from repro.trees.normalize import UrlNormalizer
from repro.web.resources import ResourceType

PAGE = "https://site.com/"


def make_visit(success=True):
    return VisitRecord(
        visit_id=1,
        profile_name="Sim1",
        site="site.com",
        site_rank=1,
        page_url=PAGE,
        success=success,
        started_at=0.0,
        duration=1.0,
    )


def request(
    request_id,
    url,
    rtype=ResourceType.SCRIPT,
    frame_id=0,
    parent_frame_id=None,
    stack=EMPTY_STACK,
    redirect_from=None,
):
    return RequestRecord(
        request_id=request_id,
        visit_id=1,
        url=url,
        top_level_url=PAGE,
        resource_type=rtype.value,
        frame_id=frame_id,
        parent_frame_id=parent_frame_id,
        timestamp=float(request_id),
        call_stack=stack,
        redirect_from=redirect_from,
    )


def main_request():
    return request(1, PAGE, ResourceType.MAIN_FRAME)


class TestAttributionOrder:
    def test_document_loads_attach_to_root(self):
        tree = build_tree(make_visit(), [main_request(), request(2, "https://site.com/a.js")])
        node = tree.node("https://site.com/a.js")
        assert node.parent is tree.root
        assert node.depth == 1

    def test_call_stack_attribution(self):
        records = [
            main_request(),
            request(2, "https://site.com/a.js"),
            request(
                3,
                "https://trk.com/pixel.gif",
                ResourceType.BEACON,
                stack=CallStack.for_initiator("https://site.com/a.js"),
            ),
        ]
        tree = build_tree(make_visit(), records)
        assert (
            tree.node("https://trk.com/pixel.gif").parent_key()
            == "https://site.com/a.js"
        )

    def test_redirect_beats_stack(self):
        records = [
            main_request(),
            request(2, "https://site.com/a.js"),
            request(3, "https://trk.com/first", ResourceType.BEACON,
                    stack=CallStack.for_initiator("https://site.com/a.js")),
            request(4, "https://sync.com/second", ResourceType.BEACON,
                    stack=CallStack.for_initiator("https://site.com/a.js"),
                    redirect_from=3),
        ]
        tree = build_tree(make_visit(), records)
        assert tree.node("https://sync.com/second").parent_key() == "https://trk.com/first"
        assert tree.node("https://sync.com/second").depth == 3

    def test_frame_attribution(self):
        records = [
            main_request(),
            request(2, "https://ads.com/frame.html", ResourceType.SUB_FRAME,
                    frame_id=1, parent_frame_id=0),
            request(3, "https://ads.com/inner.png", ResourceType.IMAGE, frame_id=1,
                    parent_frame_id=0),
        ]
        tree = build_tree(make_visit(), records)
        frame = tree.node("https://ads.com/frame.html")
        inner = tree.node("https://ads.com/inner.png")
        assert frame.parent is tree.root
        assert inner.parent is frame

    def test_nested_frames(self):
        records = [
            main_request(),
            request(2, "https://a.com/outer.html", ResourceType.SUB_FRAME,
                    frame_id=1, parent_frame_id=0),
            request(3, "https://b.com/inner.html", ResourceType.SUB_FRAME,
                    frame_id=2, parent_frame_id=1),
            request(4, "https://b.com/img.png", ResourceType.IMAGE, frame_id=2,
                    parent_frame_id=1),
        ]
        tree = build_tree(make_visit(), records)
        assert tree.node("https://b.com/inner.html").depth == 2
        assert tree.node("https://b.com/img.png").depth == 3

    def test_stack_on_frame_document_wins_over_frame_nesting(self):
        records = [
            main_request(),
            request(2, "https://site.com/a.js"),
            request(3, "https://ads.com/frame.html", ResourceType.SUB_FRAME,
                    frame_id=1, parent_frame_id=0,
                    stack=CallStack.for_initiator("https://site.com/a.js")),
        ]
        tree = build_tree(make_visit(), records)
        assert tree.node("https://ads.com/frame.html").parent_key() == "https://site.com/a.js"

    def test_unknown_stack_url_falls_back(self):
        records = [
            main_request(),
            request(2, "https://x.com/y.js",
                    stack=CallStack.for_initiator("https://never-seen.com/z.js")),
        ]
        tree = build_tree(make_visit(), records)
        assert tree.node("https://x.com/y.js").parent is tree.root


def resolved_parents(records, frames_only):
    """Request id → (key, parent key), each yielded key recorded as placed."""
    normalize = UrlNormalizer().normalize
    known = {PAGE}
    parents = {}
    for request, _, key, parent in resolve_parents(
        PAGE, records, normalize, known, frames_only=frames_only
    ):
        assert parent in known
        known.add(key)
        parents[request.request_id] = (key, parent)
    return parents


class TestResolveParents:
    """Every record kind under both attribution orders; records arrive
    out of order and are resolved in request-id order."""

    STACK = CallStack.for_initiator("https://site.com/a.js")

    def records(self):
        return list(reversed([
            main_request(),
            request(2, "https://site.com/a.js"),
            request(3, "https://trk.com/first", ResourceType.BEACON, stack=self.STACK),
            request(4, "https://sync.com/second", ResourceType.BEACON, redirect_from=3),
            request(5, "https://a.com/outer.html", ResourceType.SUB_FRAME,
                    frame_id=1, parent_frame_id=0, stack=self.STACK),
            request(6, "https://b.com/inner.html", ResourceType.SUB_FRAME,
                    frame_id=2, parent_frame_id=1),
            request(7, "https://b.com/img.png", ResourceType.IMAGE,
                    frame_id=2, parent_frame_id=1, stack=self.STACK),
            request(8, "https://c.com/lost.png", ResourceType.IMAGE,
                    frame_id=9, parent_frame_id=8),
            request(9, "https://c.com/lost.html", ResourceType.SUB_FRAME,
                    frame_id=10, parent_frame_id=9),
        ]))

    def test_frames_only(self):
        assert resolved_parents(self.records(), frames_only=True) == {
            2: ("https://site.com/a.js", PAGE),
            3: ("https://trk.com/first", PAGE),  # stack ignored: own frame
            4: ("https://sync.com/second", PAGE),  # redirect ignored
            5: ("https://a.com/outer.html", PAGE),  # parent frame: main
            6: ("https://b.com/inner.html", "https://a.com/outer.html"),
            7: ("https://b.com/img.png", "https://b.com/inner.html"),
            8: ("https://c.com/lost.png", PAGE),  # unknown frame
            9: ("https://c.com/lost.html", PAGE),  # unknown parent frame
        }

    def test_paper_order(self):
        assert resolved_parents(self.records(), frames_only=False) == {
            2: ("https://site.com/a.js", PAGE),
            3: ("https://trk.com/first", "https://site.com/a.js"),
            4: ("https://sync.com/second", "https://trk.com/first"),
            5: ("https://a.com/outer.html", "https://site.com/a.js"),
            6: ("https://b.com/inner.html", "https://a.com/outer.html"),
            7: ("https://b.com/img.png", "https://site.com/a.js"),
            8: ("https://c.com/lost.png", PAGE),
            9: ("https://c.com/lost.html", PAGE),
        }

    def test_builder_places_what_the_resolver_yields(self):
        tree = build_tree(make_visit(), self.records())
        assert {
            node.request_ids[0]: (node.key, node.parent_key()) for node in tree.nodes()
        } == resolved_parents(self.records(), frames_only=False)


class TestNormalizationInBuilder:
    def test_session_params_merge_to_one_node(self):
        records = [
            main_request(),
            request(2, "https://site.com/api?session=abc", ResourceType.XHR),
            request(3, "https://site.com/api?session=def", ResourceType.XHR),
        ]
        tree = build_tree(make_visit(), records)
        assert tree.node_count == 1
        node = tree.node("https://site.com/api?session=")
        assert node is not None
        assert len(node.raw_urls) == 2

    def test_stack_initiator_matched_by_normalized_url(self):
        records = [
            main_request(),
            request(2, "https://site.com/a.js?v=1"),
            request(3, "https://trk.com/p.gif", ResourceType.BEACON,
                    stack=CallStack.for_initiator("https://site.com/a.js?v=2")),
        ]
        tree = build_tree(make_visit(), records)
        # v=1 vs v=2 normalize to the same node, so the stack resolves.
        assert tree.node("https://trk.com/p.gif").parent_key() == "https://site.com/a.js?v="


class TestBuilderContracts:
    def test_failed_visit_rejected(self):
        with pytest.raises(TreeConstructionError):
            build_tree(make_visit(success=False), [])

    def test_page_url_normalized_for_root(self):
        visit = VisitRecord(
            visit_id=1, profile_name="P", site="site.com", site_rank=1,
            page_url="https://site.com/?ref=xyz", success=True,
            started_at=0.0, duration=1.0,
        )
        tree = TreeBuilder().build(visit, [])
        assert tree.page_url == "https://site.com/?ref="

    def test_tracking_annotated_when_filter_given(self):
        from repro.blocklist.matcher import FilterList

        builder = TreeBuilder(filter_list=FilterList.from_text("||trk.com^\n"))
        records = [
            main_request(),
            request(2, "https://trk.com/p.gif", ResourceType.BEACON),
        ]
        tree = builder.build(make_visit(), records)
        assert tree.node("https://trk.com/p.gif").is_tracking


class TestMalformedAuthority:
    @pytest.mark.parametrize(
        "raw", ["http://[::1/a.js", "http://exa\uff0fmple.com/a.js"]
    )
    def test_raw_url_stays_a_classified_node_key(self, raw):
        from repro.blocklist.matcher import FilterList

        builder = TreeBuilder(filter_list=FilterList.from_text("/a.js\n"))
        tree = builder.build(make_visit(), [main_request(), request(2, raw)])
        assert tree.node(raw).is_tracking
        assert builder.normalizer.stats.unparseable == 1


class TestStoreIntegration:
    def test_build_visits_of_a_page(self, store, filter_list):
        profiles = store.profiles()
        pages = store.pages_crawled_by_all(profiles)
        builder = TreeBuilder(filter_list=filter_list)
        trees = builder.build_visits(
            store, store.successful_visits_for_page(pages[0], profiles)
        )
        assert set(trees) == set(profiles)
        for tree in trees.values():
            assert tree.node_count > 0
            assert tree.max_depth >= 1

    def test_from_store_respects_vetting(self, store):
        profiles = store.profiles()
        dataset = AnalysisDataset.from_store(store)
        assert len(dataset) == len(store.pages_crawled_by_all(profiles))
        for entry in dataset:
            assert len(entry.comparison.trees) == len(profiles)

    def test_normalizer_stats_accumulate(self, store):
        profiles = store.profiles()
        builder = TreeBuilder()
        for page in store.pages_crawled_by_all(profiles):
            builder.build_visits(store, store.successful_visits_for_page(page, profiles))
        # A large share of synthetic URLs carries session params.
        assert 0.05 < builder.normalizer.stats.changed_ratio < 0.9
