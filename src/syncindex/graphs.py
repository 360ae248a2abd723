"""Synchronized network and all-communication graph construction and export.

A Graph is frozen and undirected: node i is nodes[i] in sorted id order, and
edge k joins node indices sources[k] and targets[k] with weight weights[k]
(a pair score, or an interaction count in the all-communication graph). The
sync graph may carry per-node user_class and csi_user lists (None: unscored).
Its edges are in networkx's Graph.edges order after adding sorted(pair_scores)
one pair at a time, which Louvain depends on: nodes rank by first appearance
in the sorted pairs, each edge leads with its endpoint of lower rank, and the
sorted pairs are stably sorted by that rank. Exports sort nodes and edges by
id, so emitted files are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .events import InteractionRecord


@dataclass(frozen=True)
class Graph:
    """See the module docstring. The lists must not be changed. There is no
    self-loop: the pair readers reject a self-pair, detect never forms one,
    and build_allcomm_graph drops a self-interaction."""

    nodes: list
    sources: list[int]
    targets: list[int]
    weights: list[float]
    user_class: list[str] | None = None
    csi_user: list[float | None] | None = None

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return len(self.sources)

    def degree(self) -> Iterator[tuple[object, int]]:
        """(node, degree) pairs in index order."""
        return zip(self.nodes, self.degrees)

    @cached_property
    def degrees(self) -> list[int]:
        """Edge ends per node index."""
        degrees = [0] * len(self.nodes)
        for a in chain(self.sources, self.targets):
            degrees[a] += 1
        return degrees

    @cached_property
    def adjacency(self) -> list[list[int]]:
        """adjacency[i] lists i's neighbour indices ascending, which is their id order."""
        rows: list[list[int]] = [[] for _ in self.nodes]
        for a, b in zip(self.sources, self.targets):
            rows[a].append(b)
            rows[b].append(a)
        for row in rows:
            row.sort()
        return rows

    @cached_property
    def masks(self) -> list[int]:
        """Bit j of masks[i] is set when j is a neighbour of i."""
        masks = [0] * len(self.nodes)
        for a, b in zip(self.sources, self.targets):
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return masks


def build_sync_graph(
    pair_scores: Mapping[tuple[str, str], float],
    user_classes: Mapping[str, str] | None = None,
    user_scores: Mapping[str, float] | None = None,
) -> Graph:
    """Weighted undirected synchronization graph; one edge per scored pair.

    No pair is a self-pair or listed in both orders (the pair readers reject
    both, and detect forms neither). Optional node attributes: user_class
    (bot/human/unknown) and csi_user.
    """
    items = sorted(pair_scores.items())
    rank = {node: r for r, node in enumerate(dict.fromkeys(chain.from_iterable(pair for pair, _ in items)))}
    nodes = sorted(rank)
    index = {node: i for i, node in enumerate(nodes)}
    edges = []  # (lead rank, lead index, other index, weight)
    for (u, v), score in items:
        if rank[u] > rank[v]:
            u, v = v, u
        edges.append((rank[u], index[u], index[v], float(score)))
    edges.sort(key=lambda edge: edge[0])
    _, sources, targets, weights = map(list, zip(*edges)) if edges else ([], [], [], [])
    return Graph(
        nodes, sources, targets, weights,
        None if user_classes is None else [user_classes.get(node, "unknown") for node in nodes],
        None if user_scores is None else [float(user_scores[n]) if n in user_scores else None for n in nodes],
    )


def build_allcomm_graph(
    interactions: Iterable[InteractionRecord],
    users: Iterable[str] = (),
) -> Graph:
    """All-communication graph: edge weight counts interactions in either
    direction, edges in id order. Self-interactions are dropped; extra users
    (e.g. post authors with no interactions) become isolated nodes."""
    counts: dict[tuple[str, str], int] = {}
    for record in interactions:
        u, v = record.source_user, record.target_user
        if u != v:
            pair = (u, v) if u < v else (v, u)
            counts[pair] = counts.get(pair, 0) + 1
    pairs = sorted(counts)
    nodes = sorted(set(users).union(*pairs))
    index = {node: i for i, node in enumerate(nodes)}
    return Graph(nodes, [index[u] for u, _ in pairs], [index[v] for _, v in pairs], [counts[p] for p in pairs])


def prune_by_partner_count(graph: Graph, min_partners: int) -> list[bool]:
    """The k-core for k = min_partners as one flag per node index, True for a
    node in the core, by one degree-peeling pass (Batagelj & Zaversnik 2003)."""
    if min_partners < 0:
        raise ValueError("min_partners must be >= 0")
    degrees = list(graph.degrees)
    queue = [i for i, degree in enumerate(degrees) if degree < min_partners]
    core = [True] * len(degrees)
    for i in queue:
        core[i] = False
    for i in queue:  # appended to while it is read
        for j in graph.adjacency[i]:
            degrees[j] -= 1
            if degrees[j] < min_partners and core[j]:
                core[j] = False
                queue.append(j)
    return core


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape: &, > and < as entities. (Importing saxutils
    would load urllib.request and the network stack behind it.)"""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """xml.sax.saxutils.quoteattr: text escaped, with newline, carriage
    return and tab as character references, in double quotes; in single
    quotes when it holds a double quote but no single one, and in double
    quotes with &quot; when it holds both."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"' + text.replace('"', "&quot;") + '"'


def export(graph: Graph, files: Mapping[str | Path, list[bool] | None]) -> None:
    """Write graph as GraphML to each path in files, with stable lexicographic
    node and edge ordering: the nodes whose flag (one per node index) is True,
    or every node for None, and the edges between them. Each node and edge
    line is formatted once for all the files; each file's keys are decided on
    its own nodes."""
    classes, scores = graph.user_class, graph.csi_user
    quoted = [_quoteattr(str(node)) for node in graph.nodes]
    nodes = []
    for i, node_id in enumerate(quoted):
        cls = f'<data key="user_class">{_escape(str(classes[i]))}</data>' if classes is not None else ""
        csi = f'<data key="csi_user">{scores[i]!r}</data>' if scores is not None and scores[i] is not None else ""
        nodes.append(f"    <node id={node_id}>{cls}{csi}</node>\n")
    # Index order is id order, so edges sort as their (lower, higher) index pairs do.
    ends = ((a, b, w) if a < b else (b, a, w) for a, b, w in zip(graph.sources, graph.targets, graph.weights))
    edges = [
        (a, b, f'    <edge source={quoted[a]} target={quoted[b]}><data key="weight">{float(w)!r}</data></edge>\n')
        for a, b, w in sorted(ends)
    ]
    for path, flags in files.items():
        keep = [True] * len(nodes) if flags is None else flags
        with Path(path).open("w", encoding="utf-8") as handle:
            handle.write('<?xml version="1.0" encoding="utf-8"?>\n')
            handle.write('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n')
            handle.write('  <key id="weight" for="edge" attr.name="weight" attr.type="double"/>\n')
            if classes is not None and any(keep):
                handle.write('  <key id="user_class" for="node" attr.name="user_class" attr.type="string"/>\n')
            if scores is not None and any(score is not None for score in compress(scores, keep)):
                handle.write('  <key id="csi_user" for="node" attr.name="csi_user" attr.type="double"/>\n')
            handle.write('  <graph edgedefault="undirected">\n')
            handle.writelines(compress(nodes, keep))
            handle.writelines(line for a, b, line in edges if keep[a] and keep[b])
            handle.write("  </graph>\n</graphml>\n")
