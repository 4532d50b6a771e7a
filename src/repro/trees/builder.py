"""Dependency-tree construction from stored visit records (paper §3.2).

The builder reconstructs each page's tree from observed traffic using the
paper's three signals, in this order of precedence:

1. **HTTP redirects** — a redirected request's node hangs under the node of
   the request that redirected to it;
2. **JavaScript/CSS call stacks** — the *latest* stack entry names the
   script (or stylesheet) that issued the request, which becomes the
   parent;
3. **(nested) iframe structures** — a request issued from inside a frame
   hangs under that frame's document; a frame's document hangs under the
   parent frame's document.

Everything else attaches to the root — the visited page itself.

:func:`resolve_parents` applies this order (or, for the attribution
ablation, frames alone) and yields each request's node key and parent
key; :class:`TreeBuilder` turns what it yields into nodes, and the
ablations fold it into statistics without building a tree.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..blocklist.matcher import FilterList
from ..browser.frames import MAIN_FRAME_ID
from ..browser.network import RequestRecord, VisitRecord
from ..crawler.storage import MeasurementStore
from ..errors import TreeConstructionError
from ..web.resources import ResourceType
from .node import node_resource_type
from .normalize import UrlNormalizer
from .tree import DependencyTree


def resolve_parents(
    page_key: str,
    requests: Iterable[RequestRecord],
    normalize: Callable[[str], str],
    known: Container[str],
    frames_only: bool = False,
) -> Iterator[Tuple[RequestRecord, ResourceType, str, str]]:
    """Each request's ``(request, resource type, key, parent key)``.

    Requests are taken in request-id order.  A main-frame request of the
    main frame is the visited page itself (``page_key``, the root) and is
    not yielded.  The parent is the first of redirect → call stack →
    frame → root that resolves; with ``frames_only`` only frame → root.

    ``known`` is the caller's index of the keys placed so far, the root
    included: a call-stack initiator that was never requested under its
    raw URL still resolves when its key is there.  The caller records
    each yielded key in ``known`` before it asks for the next request,
    and a key already there keeps its place (first parent wins).  Every
    parent key yielded is in ``known``.
    """
    # Read once: reading an enum member off its class costs about 0.1 µs.
    main_frame, sub_frame = ResourceType.MAIN_FRAME, ResourceType.SUB_FRAME
    by_request_id: Dict[int, str] = {}
    by_raw_url: Dict[str, str] = {}
    frame_docs: Dict[int, str] = {MAIN_FRAME_ID: page_key}
    for request in sorted(requests, key=attrgetter("request_id")):
        resource_type = node_resource_type(request.resource_type)
        url = request.url
        if resource_type is main_frame and request.frame_id == MAIN_FRAME_ID:
            by_request_id[request.request_id] = page_key
            by_raw_url[url] = page_key
            continue
        parent = None
        if not frames_only:
            # 1. Redirect chains take precedence: the previous hop.
            if request.redirect_from is not None:
                parent = by_request_id.get(request.redirect_from)
            # 2. Call stacks: the latest entry issued the request.
            if parent is None:
                initiator = request.call_stack.initiating_script_url
                if initiator is not None:
                    parent = by_raw_url.get(initiator)
                    if parent is None:
                        normalized = normalize(initiator)
                        if normalized in known:
                            parent = normalized
        if parent is None:
            # 3. Frame structure: a frame document hangs under its parent
            # frame's document, anything else under its own frame's; 4.
            # unattributable resources hang off the visited page.
            if resource_type is sub_frame:
                frame = request.parent_frame_id
            else:
                frame = request.frame_id
            parent = frame_docs.get(frame, page_key)
        key = normalize(url)
        yield request, resource_type, key, parent
        by_request_id[request.request_id] = key
        by_raw_url[url] = key
        if resource_type is sub_frame:
            # The (current) document of this frame; redirect hops
            # overwrite so children attach to the final document.
            frame_docs[request.frame_id] = key


class TreeBuilder:
    """Builds (and optionally annotates) dependency trees.

    One builder instance shares a URL-normalizer cache across trees, which
    is where the paper's "40% of URLs adjusted" statistic accumulates.
    The builder records no metrics: a dataset's tree metrics are folded
    from its finalized entries
    (:meth:`~repro.analysis.dataset.StreamingDataset.finalize`).
    """

    def __init__(
        self,
        normalizer: Optional[UrlNormalizer] = None,
        filter_list: Optional[FilterList] = None,
    ) -> None:
        self.normalizer = normalizer or UrlNormalizer()
        self.filter_list = filter_list

    # -- single tree ---------------------------------------------------------

    def build(
        self,
        visit: VisitRecord,
        requests: Sequence[RequestRecord],
        allow_partial: bool = False,
    ) -> DependencyTree:
        """Build the tree for one visit from its request records.

        Failed visits have no tree — except salvaged partial visits
        (``visit.partial``) when the caller opts in with ``allow_partial``;
        their tree covers only the traffic observed before the stall.
        """
        if not visit.success and not (allow_partial and visit.partial):
            raise TreeConstructionError(
                f"cannot build a tree for failed visit {visit.visit_id}"
            )
        normalize = self.normalizer.normalize
        tree = DependencyTree(
            page_url=normalize(visit.page_url),
            profile_name=visit.profile_name,
            visit_id=visit.visit_id,
        )
        nodes = tree.index
        attach = tree.attach
        for request, resource_type, key, parent in resolve_parents(
            tree.page_url, requests, normalize, nodes
        ):
            attach(
                key,
                resource_type,
                nodes[parent],
                request.url,
                request.request_id,
                request.during_interaction,
            )
        if self.filter_list is not None:
            tree.annotate_tracking(self.filter_list)
        return tree

    # -- trees per page ------------------------------------------------------

    def build_visits(
        self,
        store: MeasurementStore,
        visits: Mapping[str, VisitRecord],
        allow_partial: bool = False,
    ) -> Dict[str, DependencyTree]:
        """One tree per profile of ``visits`` (profile → visit of a page),
        each from the visit's request records in ``store``."""
        return {
            profile: self.build(
                visit,
                store.requests_for_visit(visit.visit_id),
                allow_partial=allow_partial,
            )
            for profile, visit in visits.items()
        }


def build_tree(
    visit: VisitRecord,
    requests: Sequence[RequestRecord],
    normalizer: Optional[UrlNormalizer] = None,
    filter_list: Optional[FilterList] = None,
) -> DependencyTree:
    """One-shot tree construction for a single visit."""
    return TreeBuilder(normalizer=normalizer, filter_list=filter_list).build(visit, requests)
