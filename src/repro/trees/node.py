"""Tree nodes: one loaded resource, identified by its normalized URL."""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, KeysView, Optional, Tuple

from ..web import psl
from ..web.resources import ResourceType, parse_resource_type

#: Distinct URLs whose host stays memoized process-wide, sized like
#: ``trees.normalize``'s key memo: one ``analyze`` repetition of the
#: benchmark crawl asks for about 4.3k.
_CACHE_SIZE = 1 << 15


class TreeNode:
    """A node in a dependency tree.

    Identity is the normalized URL (``key``).  A node keeps the raw URLs
    that mapped onto it, the ids of the requests that did, its resource
    type, and party/tracking annotations.  Children are ordered by first
    observation and unique per key.

    ``raw_urls`` is a tuple of the distinct raw URLs, kept sorted, and
    ``request_ids`` a tuple in attach order; :meth:`DependencyTree.attach`
    rebinds both.  A tuple of strings or ints is untracked by the cyclic
    collector after the first collection it survives, where a ``set`` or
    ``list`` never is, so the collector visits a built node and, once it
    has children, its child map, and nothing else the node owns.
    """

    __slots__ = (
        "key",
        "resource_type",
        "parent",
        "_children",
        "depth",
        "raw_urls",
        "request_ids",
        "is_third_party",
        "is_tracking",
        "during_interaction",
    )

    def __init__(
        self,
        key: str,
        resource_type: ResourceType,
        parent: Optional["TreeNode"] = None,
        is_third_party: bool = False,
    ) -> None:
        self.key = key
        self.resource_type = resource_type
        self.parent = parent
        self._children: Dict[str, TreeNode] = {}
        self.depth: int = parent.depth + 1 if parent is not None else 0
        self.raw_urls: Tuple[str, ...] = ()
        self.request_ids: Tuple[int, ...] = ()
        self.is_third_party = is_third_party
        self.is_tracking = False
        self.during_interaction = False

    # -- structure ---------------------------------------------------------

    @property
    def children(self) -> Tuple["TreeNode", ...]:
        return tuple(self._children.values())

    def child_keys(self) -> KeysView[str]:
        """The children's keys: a live view of the child map, not a copy."""
        return self._children.keys()

    @property
    def child_count(self) -> int:
        return len(self._children)

    def child(self, key: str) -> Optional["TreeNode"]:
        return self._children.get(key)

    def add_child(self, node: "TreeNode") -> None:
        if node.key not in self._children:
            self._children[node.key] = node

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self._children

    def walk(self) -> Iterator["TreeNode"]:
        """This node and all descendants, depth-first preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node._children.values()))

    def ancestors(self) -> Iterator["TreeNode"]:
        """Parent, grandparent, ..., root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def chain(self) -> Tuple[str, ...]:
        """The dependency chain: keys from the root down to this node.

        The paper compares these chains to judge whether a resource was
        loaded through the same sequence of requests in every profile.
        """
        keys = [self.key]
        keys.extend(anc.key for anc in self.ancestors())
        return tuple(reversed(keys))

    def parent_key(self) -> Optional[str]:
        return self.parent.key if self.parent is not None else None

    # -- annotations -------------------------------------------------------

    @property
    def host(self) -> str:
        """Best-effort host of the node's URL (empty if unparseable)."""
        return host_of(self.key)

    @property
    def site(self) -> Optional[str]:
        return psl.registrable_domain(self.host)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.key!r}, depth={self.depth}, type={self.resource_type.value})"


@lru_cache(maxsize=_CACHE_SIZE)
def host_of(url: str) -> str:
    """Best-effort lower-cased host of ``url``; empty when it has none.

    Node keys are normalized URLs, but unparseable raw URLs stay keys
    verbatim, so this never raises.  It skips ``userinfo@`` and the
    ``:port``, and unwraps an IPv6 literal: ``http://u@[::1]:8080/a``
    gives ``::1``, the host :class:`~repro.web.url.URL` would hold.
    A pure function of the string, memoized process-wide (DESIGN §6.6):
    every new node asks for its key's host to judge its party.
    """
    scheme_sep = url.find("://")
    if scheme_sep < 0:
        return ""
    authority = url[scheme_sep + 3 :]
    for stop in "/?#":
        index = authority.find(stop)
        if index >= 0:
            authority = authority[:index]
    authority = authority.rpartition("@")[2]
    if authority.startswith("["):
        end = authority.find("]")
        return authority[1:end].lower() if end > 0 else ""
    return authority.partition(":")[0].lower()


def node_resource_type(value: str) -> ResourceType:
    """Robust resource-type parsing for stored records."""
    try:
        return parse_resource_type(value)
    except ValueError:
        return ResourceType.OTHER
