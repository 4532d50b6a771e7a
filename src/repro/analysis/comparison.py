"""Cross-tree comparison of one page: the workhorse data structure.

:class:`PageComparison` aligns the five per-profile trees of a page by
node key: an aligned node's per-profile views are the trees' own
:class:`~repro.trees.node.TreeNode` objects (depth, parent, children,
type, party, tracking).  All higher-level analyses — horizontal, vertical,
depth, per-type, per-party — are expressed against this structure, so
the alignment happens once per page and each node's measures once per
node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..errors import AnalysisError
from ..trees.node import TreeNode
from ..trees.tree import DependencyTree
from ..web.resources import ResourceType
from .jaccard import jaccard, pairwise_mean_jaccard


@dataclass(frozen=True)
class NodeComparison:
    """A node's views across all profiles (``None`` where absent).

    A view is the profile's tree's own node, in profile order.  Every
    measure is a pure function of :attr:`views`, and nothing writes to a
    tree once its page is aligned (the tracking flags are set when the
    tree is built), so each is computed on first use and kept on the
    object (``functools.cached_property`` writes the instance
    ``__dict__``, which a frozen dataclass leaves writable).
    """

    key: str
    views: Tuple[Optional[TreeNode], ...]

    @cached_property
    def _present(self) -> Tuple[TreeNode, ...]:
        return tuple(view for view in self.views if view is not None)

    # -- presence ------------------------------------------------------------

    @cached_property
    def presence_count(self) -> int:
        return len(self._present)

    @cached_property
    def in_all_profiles(self) -> bool:
        return self.presence_count == len(self.views)

    def present_views(self) -> List[TreeNode]:
        """The views of the trees that contain the node (a fresh list)."""
        return list(self._present)

    # -- representative attributes -------------------------------------------

    @property
    def any_view(self) -> TreeNode:
        if not self._present:
            raise AnalysisError(f"node {self.key!r} has no views")
        return self._present[0]

    @property
    def resource_type(self) -> ResourceType:
        return self.any_view.resource_type

    @property
    def is_third_party(self) -> bool:
        return self.any_view.is_third_party

    @cached_property
    def is_tracking(self) -> bool:
        return any(view.is_tracking for view in self._present)

    @cached_property
    def min_depth(self) -> int:
        return min(view.depth for view in self._present)

    def depths(self) -> List[int]:
        return [view.depth for view in self._present]

    @property
    def same_depth_everywhere(self) -> bool:
        depths = self.depths()
        return len(set(depths)) == 1

    # -- children --------------------------------------------------------------

    @cached_property
    def has_children(self) -> bool:
        """Whether the node has a child in any tree that contains it."""
        return any(view.child_count > 0 for view in self._present)

    @cached_property
    def mean_child_count(self) -> float:
        """The node's child count averaged over the trees that contain it."""
        return sum(view.child_count for view in self._present) / len(self._present)

    # -- similarity measures ---------------------------------------------------

    def child_similarity(self) -> float:
        """Pairwise-mean Jaccard of the node's child sets.

        Compared over the trees that contain the node (the paper compares
        children of reoccurring nodes); single-occurrence nodes score 1.
        """
        return self._child_similarity

    @cached_property
    def _child_similarity(self) -> float:
        return pairwise_mean_jaccard([view.child_keys() for view in self._present])

    def parent_similarity(self) -> float:
        """Pairwise-mean Jaccard of the node's parent across *all* trees.

        Trees missing the node contribute an empty parent set, exactly as
        in the paper's Appendix D example (node *e*: (1+0+0)/3 = .3).
        Pairs in which *both* trees miss the node carry no information
        about the parent and are skipped — otherwise a node observed in a
        single profile would score J(∅, ∅) = 1 against every other absent
        tree and look deceptively stable.
        """
        return self._parent_similarity

    @cached_property
    def _parent_similarity(self) -> float:
        parent_sets = [
            frozenset() if view is None or view.is_root else frozenset([view.parent_key()])
            for view in self.views
        ]
        values = []
        for i in range(len(parent_sets)):
            for j in range(i + 1, len(parent_sets)):
                if not parent_sets[i] and not parent_sets[j]:
                    continue
                values.append(jaccard(parent_sets[i], parent_sets[j]))
        if not values:
            return 1.0
        return sum(values) / len(values)

    def same_parent_everywhere(self) -> bool:
        parents = {view.parent_key() for view in self._present}
        return len(parents) == 1

    # -- dependency chains -------------------------------------------------------

    def same_chain_everywhere(self) -> bool:
        """Identical dependency chain in every tree containing the node."""
        return self._chain_measures[0]

    def unique_chain_count(self) -> int:
        """How many of the node's chains occur in exactly one tree."""
        return self._chain_measures[1]

    @cached_property
    def _chain_measures(self) -> Tuple[bool, int]:
        """Both chain measures, from one ``chain()`` walk per view.

        Only the two answers are kept, not the chains.
        """
        counts = Counter(view.chain() for view in self._present)
        return len(counts) == 1, sum(1 for count in counts.values() if count == 1)


class PageComparison:
    """All five trees of one page, aligned by node key."""

    def __init__(self, trees: Mapping[str, DependencyTree]) -> None:
        if not trees:
            raise AnalysisError("PageComparison needs at least one tree")
        self.profiles: Tuple[str, ...] = tuple(sorted(trees))
        self.trees: Dict[str, DependencyTree] = {
            name: trees[name] for name in self.profiles
        }
        pages = {tree.page_url for tree in self.trees.values()}
        if len(pages) != 1:
            raise AnalysisError(f"trees belong to different pages: {sorted(pages)}")
        self.page_url = next(iter(pages))
        self._nodes: Dict[str, NodeComparison] = self._align()

    # -- alignment -----------------------------------------------------------

    def _align(self) -> Dict[str, NodeComparison]:
        views_by_key: Dict[str, List[Optional[TreeNode]]] = {}
        profile_count = len(self.profiles)
        for index, profile in enumerate(self.profiles):
            for node in self.trees[profile].nodes():
                slot = views_by_key.setdefault(node.key, [None] * profile_count)
                slot[index] = node
        return {
            key: NodeComparison(key=key, views=tuple(views))
            for key, views in views_by_key.items()
        }

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, key: str) -> Optional[NodeComparison]:
        return self._nodes.get(key)

    def nodes(self) -> List[NodeComparison]:
        return list(self._nodes.values())

    def keys(self) -> List[str]:
        return list(self._nodes)

    def tree_list(self) -> List[DependencyTree]:
        return [self.trees[profile] for profile in self.profiles]

    # -- page-level measures ---------------------------------------------------

    def depth_similarity(
        self,
        depth: int,
        keys_filter=None,
    ) -> Optional[float]:
        """Pairwise-mean Jaccard of the per-tree node sets at ``depth``.

        ``keys_filter(node_comparison) -> bool`` restricts the node
        universe (e.g. only first-party nodes).  Returns ``None`` when no
        tree has nodes at this depth after filtering.
        """
        sets: List[FrozenSet[str]] = []
        for profile in self.profiles:
            keys = set()
            for node in self.trees[profile].nodes_at_depth(depth):
                comparison = self._nodes[node.key]
                if keys_filter is not None and not keys_filter(comparison):
                    continue
                keys.add(node.key)
            sets.append(frozenset(keys))
        if all(not s for s in sets):
            return None
        return pairwise_mean_jaccard(sets)

    def max_depth(self) -> int:
        return max(tree.max_depth for tree in self.trees.values())

    def depth_one_similarity(self) -> float:
        """The horizontal entry point: similarity of depth-one node sets."""
        result = self.depth_similarity(1)
        return result if result is not None else 1.0

    def whole_tree_similarity(self) -> float:
        """Pairwise-mean Jaccard over *all* node keys per tree.

        Appendix D's "index for all nodes in all trees" — also the basis
        for the whole-tree ablation the paper argues against (§3.2).
        """
        return pairwise_mean_jaccard(
            [frozenset(tree.keys()) for tree in self.tree_list()]
        )
