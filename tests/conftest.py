"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from collections import deque
from typing import Mapping

import networkx as nx
from hypothesis import strategies as st

from syncindex.bots import BotScoreTable
from syncindex.csi import (
    NORMALIZATIONS,
    CsiConfig,
    CsiTables,
    UndefinedNetworkError,
    _formula_score,
    csi_network,
)
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


def restrict(counts: PairSyncCounts, action_type: str) -> PairSyncCounts:
    """Counts keeping only one action type; pairs without it disappear."""
    out = PairSyncCounts()
    for (u, v), actions in counts.items():
        if action_type in actions:
            out.add(u, v, action_type, actions[action_type])
    return out


def normalize_counts(
    counts: PairSyncCounts, strategy: str = "none"
) -> dict[tuple[str, str], dict[str, float]]:
    """Per-pair normalized counts n(u, v, a).

    none: identity. per_action_max: divide by the maximum count observed for
    that action type across all pairs, so values land in (0, 1]. Action
    types with no pairs contribute nothing.
    """
    if strategy not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization: {strategy}")
    table = dict(counts.items())
    if strategy == "none":
        return {
            pair: {a: float(s) for a, s in sorted(actions.items())}
            for pair, actions in table.items()
        }
    max_per_action: dict[str, int] = {}
    for actions in table.values():
        for action_type, count in actions.items():
            if count > max_per_action.get(action_type, 0):
                max_per_action[action_type] = count
    return {
        pair: {a: s / max_per_action[a] for a, s in sorted(actions.items())}
        for pair, actions in table.items()
    }


def csi_userpair(
    normalized: dict[tuple[str, str], dict[str, float]],
    pair: tuple[str, str],
    formula: str = "anchored",
) -> float:
    """Pair score from normalized per-action counts; the pair must be present."""
    actions = normalized.get(pair)
    if not actions:
        raise ValueError(f"pair not in synchrony table: {pair}")
    return _formula_score([actions[a] for a in sorted(actions)], formula)


def compute_pair_scores(
    counts: PairSyncCounts, config: CsiConfig | None = None
) -> dict[tuple[str, str], float]:
    config = config or CsiConfig()
    normalized = normalize_counts(counts, config.normalization)
    return {
        pair: csi_userpair(normalized, pair, config.pair_formula)
        for pair, _ in counts.items()
    }


def csi_user(
    pair_scores: dict[tuple[str, str], float], counts: PairSyncCounts
) -> dict[str, float]:
    """User score: sum over the user's pairs of S_total(u, v) * pair score.

    Accumulation runs in lexicographic pair order so results are
    bit-identical regardless of evaluation strategy.
    """
    scores: dict[str, float] = {}
    for pair in sorted(pair_scores):
        term = counts.s_total(pair) * pair_scores[pair]
        for user in pair:
            scores[user] = scores.get(user, 0.0) + term
    return scores


def csi_single_action(
    counts: PairSyncCounts, action_type: str, config: CsiConfig | None = None
) -> float:
    """Network score of the pipeline restricted to pairs of one action type."""
    restricted = restrict(counts, action_type)
    if not restricted:
        raise UndefinedNetworkError(f"no synchronizing pairs for action type {action_type!r}")
    config = config or CsiConfig()
    pair_scores = compute_pair_scores(restricted, config)
    return csi_network(csi_user(pair_scores, restricted))


def oracle_tables(counts: PairSyncCounts, config: CsiConfig | None = None) -> CsiTables:
    """The index by definition: normalize, score every pair, sum users, take the
    mean; then restrict the table to each action type and rescore it. The
    one-pass compute_tables must reproduce it bit for bit."""
    config = config or CsiConfig()
    pair_scores = compute_pair_scores(counts, config)
    user_scores = csi_user(pair_scores, counts)
    network = csi_network(user_scores)
    per_action: dict[str, float] = {}
    present = sorted({a for _, actions in counts.items() for a in actions})
    for action_type in present:
        per_action[action_type] = csi_single_action(counts, action_type, config)
    return CsiTables(
        pair_scores=pair_scores,
        user_scores=user_scores,
        network_score=network,
        per_action_network=per_action,
    )


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


def nx_louvain_partition(graph: nx.Graph, seed: int = 0) -> dict:
    """louvain_partition's former definition: the installed networkx's
    louvain_communities(weight=None) on the graph relabeled to sorted integer
    indices, ids assigned in order of each community's smallest member."""
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    relabeled = nx.Graph()
    relabeled.add_nodes_from(range(len(nodes)))
    relabeled.add_edges_from((index[u], index[v]) for u, v in graph.edges)
    communities = nx.community.louvain_communities(relabeled, weight=None, seed=seed)
    groups = sorted((sorted(c) for c in communities), key=lambda c: c[0])
    return {nodes[i]: community_id for community_id, group in enumerate(groups) for i in group}


def set_triangle_counts(graph: nx.Graph) -> tuple[dict, dict]:
    """triangle_counts' former set-based definition: per node, the edges among
    its neighbours (a self-loop makes a node its own neighbour) and C(degree, 2)."""
    adjacency = {node: set(graph.adj[node]) for node in graph.nodes}
    triangles, triples = {}, {}
    for node in graph.nodes:
        neighbors = sorted(adjacency[node])
        degree = len(neighbors)
        triples[node] = degree * (degree - 1) // 2
        triangles[node] = sum(
            1 for i, u in enumerate(neighbors) for v in neighbors[i + 1 :] if v in adjacency[u]
        )
    return triangles, triples


def set_transitivity(graph: nx.Graph) -> float:
    triangles, triples = set_triangle_counts(graph)
    total = sum(triples.values())
    return sum(triangles.values()) / total if total else 0.0
