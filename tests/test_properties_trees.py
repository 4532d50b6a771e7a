"""Property-based tests on tree construction and the browser engine.

These generate random page blueprints and verify structural invariants of
the end-to-end path: blueprint → engine records → stored records → rebuilt
dependency tree.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.browser.engine import BrowserEngine
from repro.browser.profile import PAPER_PROFILES, PROFILE_SIM1
from repro.trees.builder import build_tree
from repro.trees.tree import DependencyTree
from repro.web.blueprint import InclusionRule, InitiatorKind, PageBlueprint, ResourceSlot
from repro.web.resources import ResourceType
from repro.web.url import URL

_name = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

_LEAF_TYPES = [ResourceType.IMAGE, ResourceType.BEACON, ResourceType.FONT]
_NODE_TYPES = [ResourceType.SCRIPT, ResourceType.STYLESHEET, ResourceType.XHR]


@st.composite
def slot_trees(draw, counter, depth=0):
    """A random ResourceSlot subtree (bounded depth/fanout).

    ``counter`` is a single-element list providing globally unique ids.
    """
    counter[0] += 1
    slot_id = f"s-{counter[0]}"
    name = draw(_name)
    host = draw(st.sampled_from(["site.com", "cdn-x.net", "trk-y.io"]))
    probability = draw(st.floats(min_value=0.3, max_value=1.0))
    gated = draw(st.booleans()) if depth == 0 else False
    children = ()
    rtype = draw(st.sampled_from(_LEAF_TYPES + _NODE_TYPES))
    if rtype in _NODE_TYPES and depth < 2:
        children = tuple(
            draw(slot_trees(counter, depth=depth + 1))
            for _ in range(draw(st.integers(0, 2)))
        )
    return ResourceSlot(
        slot_id=slot_id,
        url=URL.parse(f"https://{host}/{name}-{slot_id}.{rtype.extension or 'bin'}"),
        resource_type=rtype,
        initiator=InitiatorKind.DOCUMENT if depth == 0 else InitiatorKind.SCRIPT,
        rule=InclusionRule(probability=probability, requires_interaction=gated),
        children=children,
    )


@st.composite
def pages(draw):
    counter = [0]
    slots = tuple(
        draw(slot_trees(counter)) for _ in range(draw(st.integers(1, 5)))
    )
    return PageBlueprint(url=URL.parse("https://site.com/"), slots=slots)


@given(pages(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_engine_records_well_formed(page, visit_id):
    engine = BrowserEngine(PROFILE_SIM1, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=visit_id)
    if not result.success:
        assert result.requests == ()
        return
    ids = [r.request_id for r in result.requests]
    assert len(ids) == len(set(ids))
    assert result.requests[0].resource_type == "main_frame"
    timestamps = [r.timestamp for r in result.requests]
    assert timestamps == sorted(timestamps)
    for record in result.requests:
        if record.redirect_from is not None:
            assert record.redirect_from in ids


@given(pages(), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_tree_invariants_from_any_visit(page, visit_id):
    engine = BrowserEngine(PROFILE_SIM1, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=visit_id)
    if not result.success:
        return
    tree = build_tree(result.visit, result.requests)
    # Every node is reachable from the root with consistent depth.
    for node in tree.nodes():
        assert node.depth == node.parent.depth + 1
        assert node.parent.child(node.key) is node
    # Node count matches the key index.
    assert tree.node_count == len(set(tree.keys()))
    # Chains terminate at the root.
    for node in tree.nodes():
        assert node.chain()[0] == tree.page_url


@given(pages())
@settings(max_examples=20, deadline=None)
def test_gated_slots_excluded_without_interaction(page):
    from repro.browser.profile import PROFILE_NOACTION

    engine = BrowserEngine(PROFILE_NOACTION, seed=5)
    result = engine.visit(page, site="site.com", site_rank=1, visit_id=3)
    if not result.success:
        return
    gated_urls = {
        str(slot.url)
        for slot in page.walk_slots()
        if slot.rule.requires_interaction
    }
    for record in result.requests:
        assert record.url.split("?")[0] not in gated_urls
        assert not record.during_interaction


@given(st.integers(min_value=0, max_value=500))
@settings(max_examples=15, deadline=None)
def test_all_profiles_produce_buildable_trees(visit_id):
    from repro.web import WebGenerator

    page = WebGenerator(seed=77).site(1).landing_page
    for profile in PAPER_PROFILES:
        engine = BrowserEngine(profile, seed=77)
        result = engine.visit(page, site="x", site_rank=1, visit_id=visit_id)
        if result.success:
            tree = build_tree(result.visit, result.requests)
            assert tree.node_count > 0


def _recursive_preorder(node):
    yield node
    for child in node.children:
        yield from _recursive_preorder(child)


#: ``("attach", key, parent)`` picks a key from a small pool (so merges
#: happen) and a parent among the nodes attached so far; ``("read",)``
#: reads the memoized preorder and depth in between attaches.
_tree_ops = st.lists(
    st.one_of(
        st.tuples(st.just("attach"), st.integers(0, 11), st.integers(0, 40)),
        st.just(("read",)),
    ),
    max_size=40,
)


@given(_tree_ops)
@settings(max_examples=100, deadline=None)
def test_memoized_preorder_and_depth_track_attach(ops):
    tree = DependencyTree("https://site.com/", "P", 1)
    attached = [tree.root]

    def check():
        expected = list(_recursive_preorder(tree.root))
        assert list(tree.nodes(include_root=True)) == expected
        assert list(tree.nodes()) == expected[1:]
        assert tree.max_depth == max(node.depth for node in expected)

    for request_id, op in enumerate(ops):
        if op[0] == "read":
            check()
            continue
        _, key, parent = op
        attached.append(
            tree.attach(
                f"https://h{key % 3}.com/{key}.js",
                ResourceType.SCRIPT,
                attached[parent % len(attached)],
                f"https://h{key % 3}.com/{key}.js?r={request_id}",
                request_id,
            )
        )
    check()
