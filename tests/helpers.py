"""Shared test helpers: hand-built trees and tiny crawl fixtures."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

from repro.trees.tree import DependencyTree
from repro.web.resources import ResourceType

#: A nested structure describing a tree: {url: subtree} where subtree is
#: another mapping (children) or a ResourceType (leaf with explicit type).
Structure = Mapping[str, Union["Structure", ResourceType, None]]

_DEFAULT_TYPES = {
    ".js": ResourceType.SCRIPT,
    ".css": ResourceType.STYLESHEET,
    ".png": ResourceType.IMAGE,
    ".jpg": ResourceType.IMAGE,
    ".gif": ResourceType.BEACON,
    ".woff2": ResourceType.FONT,
    ".html": ResourceType.SUB_FRAME,
    ".json": ResourceType.XHR,
    ".mp4": ResourceType.MEDIA,
}


def guess_type(url: str) -> ResourceType:
    for suffix, rtype in _DEFAULT_TYPES.items():
        if url.split("?", 1)[0].endswith(suffix):
            return rtype
    return ResourceType.OTHER


def make_tree(
    page_url: str,
    structure: Structure,
    profile: str = "Test",
    visit_id: int = 1,
) -> DependencyTree:
    """Build a DependencyTree from a nested {url: children} mapping.

    Example::

        make_tree("https://site.com/", {
            "https://site.com/a.js": {
                "https://t.com/pixel.gif": None,
            },
            "https://site.com/b.png": None,
        })
    """
    tree = DependencyTree(page_url=page_url, profile_name=profile, visit_id=visit_id)
    counter = [0]

    def attach(children: Structure, parent) -> None:
        for url, sub in children.items():
            counter[0] += 1
            if isinstance(sub, ResourceType):
                rtype, grandchildren = sub, None
            else:
                rtype, grandchildren = guess_type(url), sub
            node = tree.attach(
                key=url,
                resource_type=rtype,
                parent=parent,
                raw_url=url,
                request_id=counter[0],
            )
            if isinstance(grandchildren, Mapping):
                attach(grandchildren, node)

    attach(structure, tree.root)
    return tree


def make_tree_set(
    page_url: str, structures: Mapping[str, Structure]
) -> Dict[str, DependencyTree]:
    """Build one tree per profile name from ``{profile: structure}``."""
    return {
        profile: make_tree(page_url, structure, profile=profile, visit_id=index + 1)
        for index, (profile, structure) in enumerate(structures.items())
    }


def view_facts(view) -> Optional[tuple]:
    """What an aligned node's view says, by value (``None`` where absent)."""
    if view is None:
        return None
    return (
        view.depth,
        view.parent_key(),
        tuple(sorted(view.child_keys())),
        view.resource_type,
        view.is_third_party,
        view.is_tracking,
        view.chain(),
        view.during_interaction,
    )


def dataset_fingerprint(dataset) -> tuple:
    """Every entry of ``dataset`` and each aligned node's views, by value.

    A view is a tree's own node, which compares by identity, so two equal
    builds are compared through :func:`view_facts`.
    """
    return [
        (
            entry.site,
            entry.site_rank,
            entry.page_url,
            entry.comparison.profiles,
            tuple(
                (node.key, tuple(view_facts(view) for view in node.views))
                for node in entry.comparison.nodes()
            ),
        )
        for entry in dataset.entries
    ], list(dataset.profiles)


def node_measures(node) -> tuple:
    """Every memoized measure of an aligned node, read once."""
    return (
        node.present_views(),
        node.presence_count,
        node.in_all_profiles,
        node.is_tracking,
        node.min_depth,
        node.parent_similarity(),
        node.child_similarity(),
        node.has_children,
        node.mean_child_count,
        node.same_chain_everywhere(),
        node.unique_chain_count(),
    )
