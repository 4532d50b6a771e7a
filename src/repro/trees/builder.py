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
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from ..blocklist.matcher import FilterList
from ..browser.frames import MAIN_FRAME_ID
from ..browser.network import RequestRecord, VisitRecord
from ..crawler.storage import MeasurementStore
from ..errors import TreeConstructionError
from ..web.resources import ResourceType
from .node import TreeNode, node_resource_type
from .normalize import UrlNormalizer
from .tree import DependencyTree


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
        tree = DependencyTree(
            page_url=self.normalizer.normalize(visit.page_url),
            profile_name=visit.profile_name,
            visit_id=visit.visit_id,
        )
        by_request_id: Dict[int, TreeNode] = {}
        by_raw_url: Dict[str, TreeNode] = {}
        frame_docs: Dict[int, TreeNode] = {MAIN_FRAME_ID: tree.root}
        frame_parents: Dict[int, Optional[int]] = {MAIN_FRAME_ID: None}

        for request in sorted(requests, key=lambda r: r.request_id):
            resource_type = node_resource_type(request.resource_type)
            if request.frame_id not in frame_parents:
                frame_parents[request.frame_id] = request.parent_frame_id
            if resource_type == ResourceType.MAIN_FRAME and request.frame_id == MAIN_FRAME_ID:
                # The visited page itself: the tree root.
                by_request_id[request.request_id] = tree.root
                by_raw_url[request.url] = tree.root
                continue
            parent = self._resolve_parent(
                request, resource_type, by_request_id, by_raw_url, frame_docs, frame_parents, tree
            )
            node = tree.attach(
                key=self.normalizer.normalize(request.url),
                resource_type=resource_type,
                parent=parent,
                raw_url=request.url,
                request_id=request.request_id,
                during_interaction=request.during_interaction,
            )
            by_request_id[request.request_id] = node
            by_raw_url[request.url] = node
            if resource_type == ResourceType.SUB_FRAME:
                # The (current) document of this frame; redirect hops
                # overwrite so children attach to the final document.
                frame_docs[request.frame_id] = node
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

    # -- internals -----------------------------------------------------------

    def _resolve_parent(
        self,
        request: RequestRecord,
        resource_type: ResourceType,
        by_request_id: Dict[int, TreeNode],
        by_raw_url: Dict[str, TreeNode],
        frame_docs: Dict[int, TreeNode],
        frame_parents: Dict[int, Optional[int]],
        tree: DependencyTree,
    ) -> TreeNode:
        # 1. Redirect chains take precedence: the previous hop is the parent.
        if request.redirect_from is not None:
            parent = by_request_id.get(request.redirect_from)
            if parent is not None:
                return parent
        # 2. Call stacks: the latest entry issued the request.
        initiator = request.call_stack.initiating_script_url
        if initiator is not None:
            parent = by_raw_url.get(initiator)
            if parent is not None:
                return parent
            normalized = self.normalizer.normalize(initiator)
            existing = tree.node(normalized)
            if existing is not None:
                return existing
        # 3. Frame structure.
        if resource_type == ResourceType.SUB_FRAME:
            # A frame document hangs under the parent frame's document.
            parent_frame = request.parent_frame_id
            if parent_frame is not None and parent_frame in frame_docs:
                return frame_docs[parent_frame]
        elif request.frame_id in frame_docs:
            doc = frame_docs[request.frame_id]
            if doc is not None:
                return doc
        # 4. Unattributable resources hang off the visited page.
        return tree.root


def build_tree(
    visit: VisitRecord,
    requests: Sequence[RequestRecord],
    normalizer: Optional[UrlNormalizer] = None,
    filter_list: Optional[FilterList] = None,
) -> DependencyTree:
    """One-shot tree construction for a single visit."""
    return TreeBuilder(normalizer=normalizer, filter_list=filter_list).build(visit, requests)
