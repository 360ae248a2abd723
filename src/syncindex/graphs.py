"""Synchronized network and all-communication graph construction and export.

Graphs are undirected networkx graphs. Sync-graph edge weights carry the
pair synchronization score; all-communication edge weights count raw
interactions in either direction. Exports use lexicographic node and edge
ordering so emitted files are byte-stable.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Mapping
from xml.sax.saxutils import escape, quoteattr

import networkx as nx

from .events import InteractionRecord

USER_CLASSES = ("bot", "human", "unknown")
EXPORT_FORMATS = ("graphml", "dot", "edge_csv")


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


def _sorted_nodes(graph: nx.Graph) -> list[str]:
    return sorted(graph.nodes)


def _sorted_edges(graph: nx.Graph) -> list[tuple[str, str, dict]]:
    edges = []
    for u, v, data in graph.edges(data=True):
        if v < u:
            u, v = v, u
        edges.append((u, v, data))
    edges.sort(key=lambda e: (e[0], e[1]))
    return edges


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
    for node in _sorted_nodes(graph):
        data = graph.nodes[node]
        parts = [f"    <node id={quoteattr(str(node))}>"]
        if "user_class" in data:
            parts.append(f'<data key="user_class">{escape(str(data["user_class"]))}</data>')
        if "csi_user" in data:
            parts.append(f'<data key="csi_user">{data["csi_user"]!r}</data>')
        parts.append("</node>")
        lines.append("".join(parts))
    for u, v, data in _sorted_edges(graph):
        weight = float(data.get("weight", 1.0))
        lines.append(
            f"    <edge source={quoteattr(str(u))} target={quoteattr(str(v))}>"
            f'<data key="weight">{weight!r}</data></edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


def _dot_text(graph: nx.Graph) -> str:
    def quote(value: str) -> str:
        return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph sync {"]
    for node in _sorted_nodes(graph):
        data = graph.nodes[node]
        attrs = []
        if "user_class" in data:
            attrs.append(f"user_class={quote(data['user_class'])}")
        if "csi_user" in data:
            attrs.append(f"csi_user={quote(repr(float(data['csi_user'])))}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {quote(node)}{suffix};")
    for u, v, data in _sorted_edges(graph):
        weight = float(data.get("weight", 1.0))
        lines.append(f"  {quote(u)} -- {quote(v)} [weight={weight!r}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge_csv_text(graph: nx.Graph) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["user_u", "user_v", "weight"])
    for u, v, data in _sorted_edges(graph):
        writer.writerow([u, v, repr(float(data.get("weight", 1.0)))])
    return buffer.getvalue()


def export(graph: nx.Graph, format: str, path: str | Path) -> Path:
    """Serialize the graph with stable lexicographic ordering."""
    if format == "graphml":
        text = _graphml_text(graph)
    elif format == "dot":
        text = _dot_text(graph)
    elif format == "edge_csv":
        text = _edge_csv_text(graph)
    else:
        raise ValueError(f"unknown export format: {format}")
    path = Path(path)
    path.write_text(text, encoding="utf-8")
    return path


def read_edge_csv(path: str | Path) -> nx.Graph:
    """Inverse of the edge_csv export; node set is the union of edge endpoints."""
    graph = nx.Graph()
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            graph.add_edge(row["user_u"], row["user_v"], weight=float(row["weight"]))
    return graph
