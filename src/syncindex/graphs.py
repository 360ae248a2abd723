"""Synchronized network and all-communication graph construction and export.

Graphs are undirected networkx graphs. Sync-graph edge weights carry the
pair synchronization score; all-communication edge weights count raw
interactions in either direction. Exports use lexicographic node and edge
ordering so emitted files are byte-stable.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping
from xml.sax.saxutils import escape, quoteattr

import networkx as nx

from .events import InteractionRecord

USER_CLASSES = ("bot", "human", "unknown")


def build_sync_graph(
    pair_scores: Mapping[tuple[str, str], float],
    user_classes: Mapping[str, str] | None = None,
    user_scores: Mapping[str, float] | None = None,
) -> nx.Graph:
    """Weighted undirected synchronization graph; one edge per scored pair.

    Optional node attributes: user_class (bot/human/unknown) and csi_user.
    """
    graph = nx.Graph()
    for u, v in sorted(pair_scores):
        if u == v:
            raise ValueError(f"self-loop pair: {u!r}")
        graph.add_edge(u, v, weight=float(pair_scores[(u, v)]))
    if user_classes is not None:
        for node in graph.nodes:
            graph.nodes[node]["user_class"] = user_classes.get(node, "unknown")
    if user_scores is not None:
        for node in graph.nodes:
            if node in user_scores:
                graph.nodes[node]["csi_user"] = float(user_scores[node])
    return graph


def build_allcomm_graph(
    interactions: Iterable[InteractionRecord],
    users: Iterable[str] = (),
) -> nx.Graph:
    """All-communication graph: edge weight counts interactions in either direction.

    Self-interactions are dropped. Extra users (e.g. post authors with no
    interactions) become isolated nodes.
    """
    graph = nx.Graph()
    graph.add_nodes_from(sorted(set(users)))
    for record in interactions:
        if record.source_user == record.target_user:
            continue
        u, v = record.source_user, record.target_user
        if graph.has_edge(u, v):
            graph[u][v]["weight"] += 1
        else:
            graph.add_edge(u, v, weight=1)
    return graph


def prune_by_partner_count(graph: nx.Graph, min_partners: int = 5) -> nx.Graph:
    """Iteratively remove nodes with fewer partners until a fixed point (k-core)."""
    if min_partners < 0:
        raise ValueError("min_partners must be >= 0")
    pruned = graph.copy()
    while True:
        drop = [node for node, degree in pruned.degree() if degree < min_partners]
        if not drop:
            return pruned
        pruned.remove_nodes_from(drop)


def _graphml_text(graph: nx.Graph) -> str:
    has_class = any("user_class" in d for _, d in graph.nodes(data=True))
    has_csi = any("csi_user" in d for _, d in graph.nodes(data=True))
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>',
    ]
    if has_class:
        lines.append('  <key id="user_class" for="node" attr.name="user_class" attr.type="string"/>')
    if has_csi:
        lines.append('  <key id="csi_user" for="node" attr.name="csi_user" attr.type="double"/>')
    lines.append('  <graph edgedefault="undirected">')
    quoted: dict[str, str] = {}
    for node in sorted(graph.nodes):
        data = graph.nodes[node]
        quoted[node] = quoteattr(str(node))
        parts = [f"    <node id={quoted[node]}>"]
        if "user_class" in data:
            parts.append(f'<data key="user_class">{escape(str(data["user_class"]))}</data>')
        if "csi_user" in data:
            parts.append(f'<data key="csi_user">{data["csi_user"]!r}</data>')
        parts.append("</node>")
        lines.append("".join(parts))
    edges = sorted((u, v, data) if u < v else (v, u, data) for u, v, data in graph.edges(data=True))
    for u, v, data in edges:
        weight = float(data.get("weight", 1.0))
        lines.append(
            f"    <edge source={quoted[u]} target={quoted[v]}>"
            f'<data key="weight">{weight!r}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def export(graph: nx.Graph, path: str | Path) -> Path:
    """Write the graph as GraphML with stable lexicographic node and edge ordering."""
    path = Path(path)
    path.write_text(_graphml_text(graph), encoding="utf-8")
    return path
