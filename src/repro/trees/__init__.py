"""Dependency trees: the paper's core representation of a page visit.

Public API: :class:`~repro.trees.tree.DependencyTree`,
:class:`~repro.trees.builder.TreeBuilder`, URL normalization, and the
convenience constructor :func:`~repro.trees.builder.build_tree`.
"""

from .builder import TreeBuilder, build_tree
from .node import TreeNode, node_resource_type
from .normalize import NormalizationStats, UrlNormalizer, normalize_url
from .tree import DependencyTree

__all__ = [
    "DependencyTree",
    "NormalizationStats",
    "TreeBuilder",
    "TreeNode",
    "UrlNormalizer",
    "build_tree",
    "node_resource_type",
    "normalize_url",
]
