"""Graph export: dependency trees as ``networkx`` digraphs.

Tree-based Web measurements are often post-processed as graphs (AdGraph,
the implicit-trust analyses the paper builds on).  This module converts a
:class:`~repro.trees.tree.DependencyTree` into a ``networkx.DiGraph`` with
node attributes, and aggregates many trees into the *site-level inclusion
graph*: which eTLD+1 causes which other eTLD+1 to load, with edge weights
counting observations.

``networkx`` is imported lazily so the core library keeps its
zero-dependency property; calling these functions without networkx raises
an informative ImportError.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .tree import DependencyTree


def _networkx():
    try:
        import networkx
    except ImportError as exc:  # pragma: no cover - environment-specific
        raise ImportError(  # optional-dependency guards raise ImportError by convention
            "graph export needs the optional dependency networkx"
        ) from exc
    return networkx


def to_networkx(tree: DependencyTree):
    """Convert one tree to a ``networkx.DiGraph``.

    Nodes carry ``depth``, ``resource_type``, ``third_party``, ``tracking``
    and ``site`` attributes; edges run parent → child.
    """
    networkx = _networkx()
    graph = networkx.DiGraph(page=tree.page_url, profile=tree.profile_name)
    graph.add_node(
        tree.page_url, depth=0, resource_type="main_frame",
        third_party=False, tracking=False, site=None,
    )
    for node in tree.nodes():
        graph.add_node(
            node.key,
            depth=node.depth,
            resource_type=node.resource_type.value,
            third_party=node.is_third_party,
            tracking=node.is_tracking,
            site=node.site,
        )
        parent_key = node.parent_key()
        if parent_key is not None:
            graph.add_edge(parent_key, node.key)
    return graph


def inclusion_graph(trees: Iterable[DependencyTree], by_site: bool = True):
    """Aggregate trees into a weighted inclusion digraph.

    With ``by_site`` (default) nodes are eTLD+1s and an edge A → B with
    weight w means resources of site A caused resources of site B to load
    w times across the input trees.  The visited page's own site, read
    from the root node like every other node's, is the root of each
    contribution.  With ``by_site=False`` nodes stay URLs.
    """
    networkx = _networkx()
    graph = networkx.DiGraph()

    def label(node) -> str:
        return (node.site or node.host) if by_site else node.key

    for tree in trees:
        page = label(tree.root)
        for node in tree.nodes():
            child = label(node)
            parent = page if node.parent.is_root else label(node.parent)
            if not child or not parent or child == parent:
                continue
            if graph.has_edge(parent, child):
                graph[parent][child]["weight"] += 1
            else:
                graph.add_edge(parent, child, weight=1)
            graph.nodes[child].setdefault("tracking", False)
            if node.is_tracking:
                graph.nodes[child]["tracking"] = True
    return graph


def tracker_centrality(graph, top: Optional[int] = None):
    """In-degree-weighted centrality of tracking nodes in an inclusion graph.

    Returns ``[(site, centrality), ...]`` sorted descending; restricted to
    nodes flagged ``tracking`` by :func:`inclusion_graph`.
    """
    total_weight = sum(data["weight"] for _, _, data in graph.edges(data=True)) or 1
    scores = []
    for node, attrs in graph.nodes(data=True):
        if not attrs.get("tracking"):
            continue
        fan_in = sum(
            data["weight"] for _, _, data in graph.in_edges(node, data=True)
        )
        scores.append((node, fan_in / total_weight))
    scores.sort(key=lambda item: item[1], reverse=True)
    return scores[:top] if top is not None else scores
