"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import deque
from typing import Mapping

import networkx as nx
from hypothesis import strategies as st

from syncindex.bots import BotScoreTable
from syncindex.events import ACTION_TYPES, ActionRecord
from syncindex.synchrony import PairSyncCounts

PAIR_CLASSES = ("bot-bot", "bot-human", "human-human", "unknown-involved")

# Printable user ids; the CSV separator and quote character are drawn often.
printable_ids = st.text(
    st.one_of(st.sampled_from(',"'), st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
    min_size=1,
)


def counts_from_mapping(table: Mapping[tuple[str, str], Mapping[str, int]]) -> PairSyncCounts:
    """Build a count table from {(u, v): {action_type: count}}."""
    counts = PairSyncCounts()
    for (u, v), actions in table.items():
        for action_type, amount in actions.items():
            if action_type not in ACTION_TYPES:
                raise ValueError(f"unknown action type: {action_type}")
            counts.add(u, v, action_type, amount)
    return counts


def induced_subgraph(graph: nx.Graph, user_class: str) -> nx.Graph:
    """Subgraph of nodes with the given user_class attribute; unclassified nodes are excluded."""
    nodes = [n for n, data in graph.nodes(data=True) if data.get("user_class") == user_class]
    return graph.subgraph(nodes).copy()


def pair_class_counts(pair_scores: Mapping[tuple[str, str], float], table: BotScoreTable) -> dict[str, int]:
    """Number of pairs in each pair class, every class present."""
    counts = dict.fromkeys(PAIR_CLASSES, 0)
    for pair in pair_scores:
        counts[table.pair_class(*pair)] += 1
    return counts


def random_actions(
    rng: random.Random,
    max_users: int = 50,
    max_records: int = 500,
    vocabulary: int = 20,
    window_seconds: int = 300,
    n_buckets: int = 6,
) -> list[ActionRecord]:
    """Small dense random instance: few artifacts so collisions are common."""
    n_users = rng.randint(2, max_users)
    users = [f"u{i:03d}" for i in range(n_users)]
    records = []
    for _ in range(rng.randint(1, max_records)):
        records.append(
            ActionRecord(
                user_id=rng.choice(users),
                timestamp=rng.randrange(n_buckets * window_seconds),
                action_type=rng.choice(ACTION_TYPES),
                artifact_id=f"a{rng.randrange(vocabulary)}",
            )
        )
    return records


def random_graph(rng: random.Random, max_nodes: int = 30, edge_prob: float = 0.2) -> nx.Graph:
    n = rng.randint(3, max_nodes)
    graph = nx.Graph()
    graph.add_nodes_from(f"n{i:02d}" for i in range(n))
    nodes = sorted(graph.nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if rng.random() < edge_prob:
                graph.add_edge(u, v)
    return graph


def _bfs_counts(graph: nx.Graph, source: str) -> tuple[dict, dict]:
    dist = {v: -1 for v in graph}
    sigma = {v: 0 for v in graph}
    dist[source] = 0
    sigma[source] = 1
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in sorted(graph.adj[v]):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def naive_betweenness(graph: nx.Graph) -> dict[str, float]:
    """All-pairs path-counting betweenness: for every pair (s, t), a node v lies
    on sigma_s(v) * sigma_t(v) of the sigma_s(t) shortest s-t paths when
    d_s(v) + d_t(v) equals d_s(t). No dependency accumulation."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    result = dict.fromkeys(nodes, 0.0)
    if n < 3:
        return result
    dist = {}
    sigma = {}
    for node in nodes:
        dist[node], sigma[node] = _bfs_counts(graph, node)
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            if dist[s][t] < 0 or sigma[s][t] == 0:
                continue
            total = sigma[s][t]
            for v in nodes:
                if v is s or v is t:
                    continue
                ds, dt = dist[s][v], dist[t][v]
                if ds >= 0 and dt >= 0 and ds + dt == dist[s][t]:
                    result[v] += sigma[s][v] * sigma[t][v] / total
    scale = 2.0 / ((n - 1) * (n - 2))
    return {v: value * scale for v, value in result.items()}


def dict_betweenness(graph: nx.Graph) -> dict[str, float]:
    """Brandes betweenness over per-source dicts, with predecessor lists and a
    BFS from every source: the definition the integer kernel must reproduce
    bit for bit."""
    nodes = sorted(graph.nodes)
    n = len(nodes)
    accum = {node: 0.0 for node in nodes}
    if n < 3:
        return accum
    adjacency = {node: sorted(graph.adj[node]) for node in nodes}
    for source in nodes:
        stack = []
        predecessors = {node: [] for node in nodes}
        sigma = dict.fromkeys(nodes, 0)
        sigma[source] = 1
        dist = dict.fromkeys(nodes, -1)
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = dict.fromkeys(nodes, 0.0)
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                accum[w] += delta[w]
    scale = 1.0 / ((n - 1) * (n - 2))
    return {node: accum[node] * scale for node in nodes}


def dict_eigenvector(graph: nx.Graph, tol: float = 1e-9, max_iter: int = 1000) -> tuple[dict[str, float], bool]:
    """Power iteration over per-iteration dicts (identity added, max-normalized).
    Returns the last iterate and whether it converged within max_iter."""
    nodes = sorted(graph.nodes)
    weighted = {
        node: [(nbr, float(graph[node][nbr].get("weight", 1.0))) for nbr in sorted(graph.adj[node])]
        for node in nodes
    }
    x = dict.fromkeys(nodes, 1.0)
    for _ in range(max_iter):
        nxt = {}
        for node in nodes:
            acc = x[node]
            for nbr, w in weighted[node]:
                acc += w * x[nbr]
            nxt[node] = acc
        peak = max(nxt.values())
        nxt = {node: value / peak for node, value in nxt.items()}
        delta = max(abs(nxt[node] - x[node]) for node in nodes)
        x = nxt
        if delta < tol:
            return x, True
    return x, False


def bfs_hierarchy(graph: nx.Graph, orientation: str, user_scores: dict[str, float] | None = None) -> float:
    """Krackhardt hierarchy by definition: orient the edges, BFS from every
    node, then count reachable and mutually reachable node pairs."""

    def score(node: str) -> float:
        if user_scores is not None and node in user_scores:
            return float(user_scores[node])
        return float(graph.nodes[node].get("csi_user", 0.0))

    nodes = sorted(graph.nodes)
    out: dict[str, list[str]] = {node: [] for node in nodes}
    for u, v in graph.edges:
        if orientation == "symmetric":
            out[u].append(v)
            out[v].append(u)
            continue
        su, sv = score(u), score(v)
        if su < sv:
            out[u].append(v)
        elif sv < su:
            out[v].append(u)
        elif u < v:
            out[u].append(v)
        else:
            out[v].append(u)

    reach: dict[str, set[str]] = {}
    for node in nodes:
        seen = {node}
        queue = deque([node])
        while queue:
            for nxt in out[queue.popleft()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        seen.discard(node)
        reach[node] = seen

    reachable = mutual = 0
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            forward, backward = v in reach[u], u in reach[v]
            if forward or backward:
                reachable += 1
                mutual += forward and backward
    return 1.0 if reachable == 0 else 1.0 - mutual / reachable
