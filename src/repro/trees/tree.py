"""The dependency tree of one page visit."""

from __future__ import annotations

from collections import defaultdict
from itertools import islice
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..blocklist.matcher import FilterList
from ..web import psl
from ..web.resources import ResourceType
from .node import TreeNode, host_of


class DependencyTree:
    """All first- and third-party elements of one page visit, as a tree.

    The root (depth 0) is the visited page itself; depth-one nodes are the
    elements the page loaded directly; deeper nodes were loaded by their
    parent element.  Node identity is the normalized URL, so the tree also
    acts as a key → node index.

    Nodes are only ever added, through :meth:`attach`, which keeps the
    maximum depth current and drops the memoized preorder of
    :meth:`nodes`.
    """

    def __init__(self, page_url: str, profile_name: str, visit_id: int) -> None:
        self.page_url = page_url
        self.profile_name = profile_name
        self.visit_id = visit_id
        self.root = TreeNode(key=page_url, resource_type=ResourceType.MAIN_FRAME)
        self._nodes: Dict[str, TreeNode] = {page_url: self.root}
        self._page_host = host_of(page_url)
        self._max_depth = 0
        self._preorder: Optional[Tuple[TreeNode, ...]] = None

    # -- construction ------------------------------------------------------

    def attach(
        self,
        key: str,
        resource_type: ResourceType,
        parent: TreeNode,
        raw_url: str,
        request_id: int,
        during_interaction: bool = False,
    ) -> TreeNode:
        """Attach (or merge into) the node ``key`` under ``parent``.

        If the key already exists anywhere in the tree, the existing node
        wins (first-parent-wins merge) and only bookkeeping is updated —
        the paper's trees give each URL a single position.  The node's
        ``raw_urls`` and ``request_ids`` tuples are rebound, never mutated.
        """
        node = self._nodes.get(key)
        if node is None:
            node = TreeNode(
                key=key,
                resource_type=resource_type,
                parent=parent,
                is_third_party=not psl.same_site(host_of(key), self._page_host),
            )
            node.during_interaction = during_interaction
            node.raw_urls = (raw_url,)
            node.request_ids = (request_id,)
            self._nodes[key] = node
            parent.add_child(node)
            self._max_depth = max(self._max_depth, node.depth)
            self._preorder = None
            return node
        if raw_url not in node.raw_urls:
            node.raw_urls = tuple(sorted((*node.raw_urls, raw_url)))
        node.request_ids += (request_id,)
        return node

    # -- lookup ------------------------------------------------------------

    def node(self, key: str) -> Optional[TreeNode]:
        return self._nodes.get(key)

    @property
    def index(self) -> Mapping[str, TreeNode]:
        """The key → node map, the root included; only :meth:`attach` adds to it."""
        return self._nodes

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def nodes(self, include_root: bool = False) -> Iterator[TreeNode]:
        """All nodes (depth-first preorder); the root is excluded by default."""
        if self._preorder is None:
            self._preorder = tuple(self.root.walk())
        return iter(self._preorder) if include_root else islice(self._preorder, 1, None)

    def keys(self, include_root: bool = False) -> Set[str]:
        return {node.key for node in self.nodes(include_root=include_root)}

    def nodes_at_depth(self, depth: int) -> List[TreeNode]:
        return [node for node in self.nodes(include_root=depth == 0) if node.depth == depth]

    def keys_at_depth(self, depth: int) -> Set[str]:
        return {node.key for node in self.nodes_at_depth(depth)}

    # -- measures ----------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes excluding the root (the paper's tree size)."""
        return len(self._nodes) - 1

    @property
    def max_depth(self) -> int:
        """Depth of the deepest node (0 for an empty tree)."""
        return self._max_depth

    @property
    def breadth(self) -> int:
        """The widest level: max number of nodes at any single depth."""
        counts: Dict[int, int] = defaultdict(int)
        for node in self.nodes():
            counts[node.depth] += 1
        return max(counts.values(), default=0)

    def branches(self) -> List[Tuple[str, ...]]:
        """All root-to-leaf dependency chains."""
        return [node.chain() for node in self.nodes() if node.is_leaf]

    # -- annotations -------------------------------------------------------

    def tracking_keys(self, filter_list: FilterList) -> FrozenSet[str]:
        """The non-root keys ``filter_list`` blocks (:func:`tracking_keys`)."""
        return tracking_keys(self.nodes(), filter_list, self.page_url)

    def annotate_tracking(self, filter_list: FilterList) -> int:
        """Mark tracking nodes via the filter list; returns how many matched."""
        keys = self.tracking_keys(filter_list)
        for node in self.nodes():
            node.is_tracking = node.key in keys
        return len(keys)

    # -- statistics helpers --------------------------------------------------

    def third_party_nodes(self) -> List[TreeNode]:
        return [node for node in self.nodes() if node.is_third_party]

    def tracking_nodes(self) -> List[TreeNode]:
        return [node for node in self.nodes() if node.is_tracking]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependencyTree({self.page_url!r}, profile={self.profile_name!r}, "
            f"nodes={self.node_count}, depth={self.max_depth})"
        )


def tracking_keys(
    nodes: Iterable[TreeNode], filter_list: FilterList, page_url: str
) -> FrozenSet[str]:
    """The keys of ``nodes`` that ``filter_list`` blocks; writes nothing.

    A node is a tracking node when any raw URL that mapped onto it is on
    the list (the paper classifies by observed URL).  Raw URLs are tried
    in their stored, sorted order and the first blocked one decides, so
    the list is asked the same questions on every run.  ``page_url`` is
    the page the nodes were loaded on.

    No question is asked twice: a node whose key an earlier node showed
    to track is skipped, and so is a (raw URL, resource type) pair the
    list already let through.  Over the nodes of all of a page's trees
    this gives the union of each tree's keys, and classifies each key's
    distinct pairs once rather than once per tree.
    """
    is_tracking = filter_list.is_tracking
    keys: Set[str] = set()
    cleared: Set[Tuple[str, ResourceType]] = set()
    for node in nodes:
        key = node.key
        if key in keys:
            continue
        resource_type = node.resource_type
        for raw in node.raw_urls:
            question = (raw, resource_type)
            if question in cleared:
                continue
            if is_tracking(raw, resource_type, page_url):
                keys.add(key)
                break
            cleared.add(question)
    return frozenset(keys)
