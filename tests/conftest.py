"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import csv
import json
import logging
import math
import random
import re
from collections import deque
from datetime import datetime, timedelta, timezone
from statistics import fmean, pstdev
from typing import Iterable, Iterator, Mapping, Sequence
from xml.sax.saxutils import escape, quoteattr

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
from syncindex.events import (
    ACTION_TYPES,
    INTERACTION_TYPES,
    MAX_TIMESTAMP,
    POST_TYPES,
    ActionRecord,
    CorpusRejectedError,
    EventDataset,
    InteractionRecord,
    PostEvent,
)
from syncindex.graphs import Graph
from syncindex.metrics import Centralities
from syncindex.synchrony import PairCounts

# Printable user ids; the CSV separator and quote character are drawn often.
printable_ids = st.text(
    st.one_of(st.sampled_from(',"'), st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))),
    min_size=1,
)


def counts_from_mapping(table: Mapping[tuple[str, str], Mapping[str, int]]) -> PairCounts:
    """Build a count table from {(u, v): {action_type: count}}, either
    orientation, as detect returns it: u < v and pairs in ascending order."""
    counts: PairCounts = {}
    for (u, v), actions in table.items():
        if u == v or any(a not in ACTION_TYPES or n <= 0 for a, n in actions.items()):
            raise ValueError(f"invalid pair or counts: {(u, v)!r} {actions!r}")
        counts[(u, v) if u < v else (v, u)] = dict(actions)
    return dict(sorted(counts.items()))


def count_of(counts: PairCounts, u: str, v: str, action_type: str) -> int:
    """S(u, v, a) for the pair in either orientation; 0 when absent."""
    return counts.get((u, v) if u < v else (v, u), {}).get(action_type, 0)


def restrict(counts: PairCounts, action_type: str) -> PairCounts:
    """Counts keeping only one action type; pairs without it disappear."""
    return {
        pair: {action_type: actions[action_type]} for pair, actions in counts.items() if action_type in actions
    }


def normalize_counts(
    counts: PairCounts, strategy: str = "none"
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
    counts: PairCounts, config: CsiConfig | None = None
) -> dict[tuple[str, str], float]:
    config = config or CsiConfig()
    normalized = normalize_counts(counts, config.normalization)
    return {
        pair: csi_userpair(normalized, pair, config.pair_formula)
        for pair, _ in counts.items()
    }


def csi_user(
    pair_scores: dict[tuple[str, str], float], counts: PairCounts
) -> dict[str, float]:
    """User score: sum over the user's pairs of S_total(u, v) * pair score.

    Accumulation runs in lexicographic pair order so results are
    bit-identical regardless of evaluation strategy.
    """
    scores: dict[str, float] = {}
    for pair in sorted(pair_scores):
        term = sum(counts[pair].values()) * pair_scores[pair]
        for user in pair:
            scores[user] = scores.get(user, 0.0) + term
    return scores


def csi_single_action(
    counts: PairCounts, action_type: str, config: CsiConfig | None = None
) -> float:
    """Network score of the pipeline restricted to pairs of one action type."""
    restricted = restrict(counts, action_type)
    if not restricted:
        raise UndefinedNetworkError(f"no synchronizing pairs for action type {action_type!r}")
    config = config or CsiConfig()
    pair_scores = compute_pair_scores(restricted, config)
    return csi_network(csi_user(pair_scores, restricted))


def oracle_tables(counts: PairCounts, config: CsiConfig | None = None) -> CsiTables:
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


def from_nx(graph: nx.Graph) -> Graph:
    """The Graph of a networkx graph without self-loops: its edges in
    graph.edges order, each weight its "weight" attribute or 1.0, and the
    user_class and csi_user node attributes (user_class on every node or on
    none)."""
    if nx.number_of_selfloops(graph):
        raise ValueError("a Graph has no self-loops")
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    edges = list(graph.edges(data="weight", default=1.0))
    classes = [graph.nodes[node].get("user_class") for node in nodes]
    if None in classes and any(cls is not None for cls in classes):
        raise ValueError("user_class must be on every node or on none")
    scores = [graph.nodes[node].get("csi_user") for node in nodes]
    return Graph(
        nodes,
        [index[u] for u, _, _ in edges],
        [index[v] for _, v, _ in edges],
        [w for _, _, w in edges],
        classes if nodes and None not in classes else None,
        scores if any(score is not None for score in scores) else None,
    )


def to_nx(graph: Graph) -> nx.Graph:
    """The networkx graph of a Graph: nodes in index order with their
    attributes, then the edges in edge order with their weights."""
    result = nx.Graph()
    for i, node in enumerate(graph.nodes):
        attributes = {}
        if graph.user_class is not None:
            attributes["user_class"] = graph.user_class[i]
        if graph.csi_user is not None and graph.csi_user[i] is not None:
            attributes["csi_user"] = graph.csi_user[i]
        result.add_node(node, **attributes)
    for a, b, w in zip(graph.sources, graph.targets, graph.weights):
        result.add_edge(graph.nodes[a], graph.nodes[b], weight=w)
    return result


def induced_subgraph(graph: Graph, user_class: str) -> nx.Graph:
    """Subgraph of nodes with the given user_class attribute; unclassified nodes are excluded."""
    graph = to_nx(graph)
    nodes = [n for n, data in graph.nodes(data=True) if data.get("user_class") == user_class]
    return graph.subgraph(nodes).copy()


# The former networkx definitions of graph building, pruning, export and the
# simple whole-graph metrics, kept as the oracles of the Graph versions.
def nx_sync_graph(
    pair_scores: Mapping[tuple[str, str], float],
    user_classes: Mapping[str, str] | None = None,
    user_scores: Mapping[str, float] | None = None,
) -> nx.Graph:
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


def nx_allcomm_graph(interactions: Iterable[InteractionRecord], users: Iterable[str] = ()) -> nx.Graph:
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


def nx_graphml_text(graph: nx.Graph) -> str:
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


def nx_degree_centrality(graph: nx.Graph) -> dict[str, float]:
    n = graph.number_of_nodes()
    return {node: graph.degree(node) / (n - 1) for node in sorted(graph.nodes)}


def nx_density(graph: nx.Graph) -> float:
    n = graph.number_of_nodes()
    return 2.0 * graph.number_of_edges() / (n * (n - 1))


def nx_newman_modularity(graph: nx.Graph, partition: dict[str, int]) -> float:
    m = graph.number_of_edges()
    if m == 0:
        return 0.0
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    for node in graph.nodes:
        community = partition[node]
        degree_sum[community] = degree_sum.get(community, 0) + graph.degree(node)
    for u, v in graph.edges:
        if partition[u] == partition[v]:
            internal[partition[u]] = internal.get(partition[u], 0) + 1
    q = 0.0
    for community in sorted(degree_sum):
        e_cc = internal.get(community, 0) / m
        a_c = degree_sum[community] / (2 * m)
        q += e_cc - a_c * a_c
    return q


def eigenvector_residual(graph: nx.Graph, centrality: dict[str, float]) -> float:
    """Max-norm residual |A x - lambda x| with lambda the Rayleigh quotient."""
    nodes = sorted(centrality)
    ax = {}
    for node in nodes:
        acc = 0.0
        for nbr in sorted(graph.adj[node]):
            acc += float(graph[node][nbr].get("weight", 1.0)) * centrality[nbr]
        ax[node] = acc
    norm_sq = sum(centrality[node] ** 2 for node in nodes)
    lam = sum(centrality[node] * ax[node] for node in nodes) / norm_sq
    return max(abs(ax[node] - lam * centrality[node]) for node in nodes)


def table_pair_class(table: BotScoreTable, u: str, v: str) -> str:
    """Oracle: the former BotScoreTable.pair_class, classifying both users."""
    classes = {table.classify(u), table.classify(v)}
    if "unknown" in classes:
        return "unknown-involved"
    if classes == {"bot"}:
        return "bot-bot"
    if classes == {"human"}:
        return "human-human"
    return "bot-human"


def table_average_csi_by_pair_class(
    pair_scores: Mapping[tuple[str, str], float], table: BotScoreTable
) -> dict[str, dict]:
    """Oracle: the former table-based average_csi_by_pair_class, pairs in sorted order."""
    buckets: dict[str, list[float]] = {}
    for pair in sorted(pair_scores):
        buckets.setdefault(table_pair_class(table, *pair), []).append(pair_scores[pair])
    return {
        cls: {"mean": fmean(values), "count": len(values)}
        for cls, values in sorted(buckets.items())
    }


def table_average_csi_by_user_class(
    user_scores: Mapping[str, float], table: BotScoreTable
) -> tuple[dict[str, dict], int]:
    """Oracle: the former table-based average_csi_by_user_class, users in sorted order."""
    buckets: dict[str, list[float]] = {}
    unknown = 0
    for user in sorted(user_scores):
        cls = table.classify(user)
        if cls == "unknown":
            unknown += 1
            continue
        buckets.setdefault(cls, []).append(user_scores[user])
    by_class = {
        cls: {
            "mean": fmean(values),
            "sd": pstdev(values) if len(values) > 1 else 0.0,
            "count": len(values),
        }
        for cls, values in sorted(buckets.items())
    }
    return by_class, unknown


def table_centrality_by_class(
    centralities: Centralities, table: BotScoreTable, sync_users: set[str] | frozenset[str]
) -> dict[str, dict[str, float | None]]:
    """Oracle: the former table-based centrality_by_class over the synchronizing users."""
    buckets: dict[str, list[str]] = {}
    for user in sorted(u for u in sync_users if u in centralities.degree):
        cls = table.classify(user)
        if cls == "unknown":
            continue
        buckets.setdefault(cls, []).append(user)

    eigenvector = centralities.eigenvector
    out: dict[str, dict[str, float | None]] = {}
    for cls, users in sorted(buckets.items()):
        out[cls] = {
            "total_degree": fmean(centralities.degree[u] for u in users),
            "betweenness": fmean(centralities.betweenness[u] for u in users),
            "eigenvector": None if eigenvector is None else fmean(eigenvector[u] for u in users),
            "count": len(users),
        }
    return out


BRUTE_FORCE_LIMIT = 10_000


def brute_force_detect(actions: Sequence[ActionRecord], window_seconds: int = 300) -> PairCounts:
    """Oracle: enumerate every record pair, then collapse per-group duplicates.

    Same output contract as detect, computed without grouping. Intended for
    small inputs only.
    """
    if len(actions) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force oracle limited to {BRUTE_FORCE_LIMIT} records")
    keys = [(r.action_type, r.artifact_id, r.timestamp // window_seconds) for r in actions]
    users = [r.user_id for r in actions]

    hits: set[tuple[str, str, int, str, str]] = set()
    n = len(actions)
    for i in range(n):
        key_i = keys[i]
        user_i = users[i]
        for j in range(i + 1, n):
            if keys[j] == key_i and users[j] != user_i:
                u, v = (user_i, users[j]) if user_i < users[j] else (users[j], user_i)
                hits.add(key_i + (u, v))

    counts: PairCounts = {}
    for action_type, _artifact, _bucket, u, v in sorted(hits):  # action types ascending, as detect adds them
        actions = counts.setdefault((u, v), {})
        actions[action_type] = actions.get(action_type, 0) + 1
    return dict(sorted(counts.items()))


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


def cohort_actions(rng: random.Random) -> list[ActionRecord]:
    """random_actions noise plus one to four cohorts: each cohort's members
    post one artifact inside the same 300 s bucket in several windows and
    action types, so the same (action type, members) group repeats, as in a
    coordinated event. Cohorts draw from the noise's users and may overlap."""
    records = random_actions(rng, max_users=30, max_records=120)
    users = [f"u{i:03d}" for i in range(30)]
    for cohort in range(rng.randint(1, 4)):
        members = rng.sample(users, rng.randint(2, 12))
        action_types = rng.sample(ACTION_TYPES, rng.randint(1, len(ACTION_TYPES)))
        for bucket in rng.sample(range(6), rng.randint(1, 6)):
            for action_type in action_types:
                artifact = f"c{cohort}_{rng.randrange(2)}"
                for member in members:
                    for _ in range(rng.randint(1, 2)):
                        timestamp = bucket * 300 + rng.randrange(300)
                        records.append(ActionRecord(member, timestamp, action_type, artifact))
    rng.shuffle(records)
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
    BFS from every source on the whole graph: the oracle of the block kernel,
    which must match it within 1e-12 relative, with the same zeros, and bit
    for bit on forests."""
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


def bfs_hierarchy(graph: nx.Graph, user_scores: dict[str, float] | None = None) -> float:
    """Krackhardt hierarchy by definition: orient the edges from lower to
    higher score, BFS from every node, then count reachable and mutually
    reachable node pairs."""

    def score(node: str) -> float:
        if user_scores is not None and node in user_scores:
            return float(user_scores[node])
        return float(graph.nodes[node].get("csi_user", 0.0))

    nodes = sorted(graph.nodes)
    out: dict[str, list[str]] = {node: [] for node in nodes}
    for u, v in graph.edges:
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


# The events parser's former per-field definition, kept verbatim as the
# oracle of the one-pass parse_events: each field is validated by its own
# helper, and CSV rows come from csv.DictReader. Only the ISO-8601 branch
# changed: it reads the README's grammar field by field, where the former
# definition took whatever the running Python's fromisoformat took.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
logger = logging.getLogger(__name__)
_ISO_FIELDS = re.compile(
    r"""(?P<year>[0-9]{4})-(?P<month>[0-9]{2})-(?P<day>[0-9]{2})
    (?:.(?P<hour>[0-9]{2})
       (?::(?P<minute>[0-9]{2})
          (?::(?P<second>[0-9]{2})(?:[.,](?P<fraction>[0-9]+))?)?)?)?
    [ ]?
    (?:Z
     |(?P<sign>[+-])(?P<offset_hours>[0-9]{2})
      (?:(?P<basic_minutes>[0-9]{2})
       |:(?P<offset_minutes>[0-9]{2})(?::(?P<offset_seconds>[0-9]{2})(?:\.[0-9]+)?)?)?)?""",
    re.VERBOSE | re.DOTALL,
)


def _iso_fields_datetime(text: str) -> datetime:
    """text in the README's ISO-8601 grammar as an aware datetime."""
    fields = _ISO_FIELDS.fullmatch(text)
    if fields is None:
        raise ValueError(f"not in the grammar: {text!r}")

    def number(name):
        return int(fields[name] or 0)

    minutes = number("basic_minutes") or number("offset_minutes")
    if number("offset_hours") > 23 or minutes > 59 or number("offset_seconds") > 59:
        raise ValueError(f"offset out of range: {text!r}")
    offset = timedelta(hours=number("offset_hours"), minutes=minutes, seconds=number("offset_seconds"))
    micro = int((fields["fraction"] or "")[:6].ljust(6, "0"))
    zone = timezone(-offset if fields["sign"] == "-" else offset)
    return datetime(
        number("year"), number("month"), number("day"), number("hour"), number("minute"), number("second"), micro,
        tzinfo=zone,
    )


def _coerce_timestamp(value: object) -> int:
    """Accept epoch seconds (int/float/int-string) or ISO-8601; return UTC epoch
    seconds, rounded down, in [0, MAX_TIMESTAMP]."""
    if isinstance(value, bool):
        raise ValueError("timestamp must be a number or ISO-8601 string")
    if isinstance(value, int):
        ts = value
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp: {value!r}")
        ts = math.floor(value)
    elif isinstance(value, str):
        text = value.strip()
        if not text:
            raise ValueError("empty timestamp")
        try:
            ts = int(text)
        except ValueError:
            ts = (_iso_fields_datetime(text) - _EPOCH) // _SECOND
    else:
        raise ValueError(f"bad timestamp type: {type(value).__name__}")
    if ts < 0:
        raise ValueError("timestamp before epoch")
    if ts > MAX_TIMESTAMP:
        raise ValueError("timestamp after 9999-12-31T23:59:59Z")
    return ts


def _valid_str(value: str, name: str) -> str:
    """value, stripped; a character XML 1.0 forbids is malformed.

    That covers control characters such as "\\x01" and lone surrogates (a
    JSON escape such as "\\ud800"), which no export could carry.
    """
    if _xml_forbidden(value):
        raise ValueError(f"{name} holds a character XML 1.0 forbids")
    return value.strip()


def _xml_forbidden(text: str) -> bool:
    """True when text holds a character XML 1.0 forbids."""
    return not text.isprintable() and _XML_FORBIDDEN.search(text) is not None


def dict_rows(handle: Iterable[str]) -> tuple[list[str], Iterator[tuple[dict, str] | None]]:
    """(header, rows) of a CSV with a header row, each row as csv.DictReader
    gives it with the raw text of the lines it was read from, which still
    holds a cell that DictReader drops for a repeated column name. A row the
    csv module cannot read (a cell over its field limit) is None, and reading
    resumes at the next row; ValueError when the header cannot be read."""
    lines: list[str] = []

    def recorded() -> Iterator[str]:
        for line in handle:
            lines.append(line)
            yield line

    reader = csv.DictReader(recorded())
    try:
        header = reader.fieldnames or []
    except csv.Error as exc:
        raise ValueError(f"CSV header: {exc}") from exc

    def rows() -> Iterator[tuple[dict, str] | None]:
        while True:
            lines.clear()
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error:
                yield None
                continue
            yield row, "".join(lines)

    return header, rows()


def _required_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise ValueError(f"missing or empty field: {key}")
    return _valid_str(value, key)


def _artifact_set(value: object) -> frozenset[str]:
    if value is None or value == "":
        return frozenset()
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise ValueError("artifact field must be a list")
    cleaned = set()
    for item in value:
        if not isinstance(item, str):
            raise ValueError("artifact entries must be strings")
        item = _valid_str(item, "artifact")
        if item:
            cleaned.add(item)
    return frozenset(cleaned)


def _post_from_mapping(obj: dict) -> PostEvent:
    post_type = _required_str(obj, "post_type")
    if post_type not in POST_TYPES:
        raise ValueError(f"unknown post_type: {post_type}")
    lang = obj.get("lang")
    if lang is not None:
        if not isinstance(lang, str):
            raise ValueError("lang must be a string")
        lang = _valid_str(lang, "lang").lower() or None
    return PostEvent(
        post_id=_required_str(obj, "post_id"),
        user_id=_required_str(obj, "user_id"),
        timestamp=_coerce_timestamp(obj["timestamp"]),
        post_type=post_type,
        lang=lang,
        hashtags=_artifact_set(obj.get("hashtags")),
        urls=_artifact_set(obj.get("urls")),
        mentions=_artifact_set(obj.get("mentions")),
    )


def _interaction_from_mapping(obj: dict) -> InteractionRecord | None:
    """Returns None for self-interactions, which are dropped (not malformed)."""
    interaction_type = _required_str(obj, "interaction_type")
    if interaction_type not in INTERACTION_TYPES:
        raise ValueError(f"unknown interaction_type: {interaction_type}")
    source = _required_str(obj, "source_user")
    target = _required_str(obj, "target_user")
    if source == target:
        return None
    return InteractionRecord(
        source_user=source,
        target_user=target,
        interaction_type=interaction_type,
        timestamp=_coerce_timestamp(obj["timestamp"]),
    )


def _undecodable(text: str) -> bool:
    """True when text holds bytes that were not UTF-8.

    Files are read with errors="surrogateescape", which maps each such byte
    to a lone surrogate; only a lone surrogate fails to encode.
    """
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _csv_row_to_mapping(row: dict, raw: str) -> dict | None:
    """Translate a CSV row to the JSONL record shape (pipe-delimited lists).

    None when the raw text of the row is not valid UTF-8, in any cell.
    """
    if _undecodable(raw):
        return None
    obj: dict = {k: v for k, v in row.items() if k is not None and v not in (None, "")}
    for key in ("hashtags", "urls", "mentions"):
        if key in obj:
            obj[key] = [part for part in obj[key].split("|") if part]
    return obj


def reference_parse_events(
    stream: Iterable[str] | Iterable[dict],
    format: str = "jsonl",
) -> EventDataset:
    """Parse line-delimited records into an EventDataset.

    Malformed lines are counted and skipped; duplicated post ids count as
    malformed, as do CSV rows holding a cell over the csv module's field
    limit, lines that are not valid UTF-8 (lone surrogates, as
    read_events_file decodes them), lines whose timestamp lies outside
    [0, MAX_TIMESTAMP], and lines whose id, type, artifact or lang string
    holds a character XML 1.0 forbids (a control character such as "\\x01",
    a lone surrogate such as the JSON escape "\\ud800", U+FFFE or U+FFFF).
    Raises CorpusRejectedError when more than half of the non-blank lines
    are malformed.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {format}")

    posts: list[PostEvent] = []
    interactions: list[InteractionRecord] = []
    seen_post_ids: set[str] = set()
    malformed = 0
    dropped_self = 0
    total = 0

    if format == "csv":
        records: Iterator[dict | None] = (
            None if row is None else _csv_row_to_mapping(*row) for row in dict_rows(stream)[1]
        )
    else:
        records = _iter_jsonl(stream)

    for obj in records:
        total += 1
        if obj is None:
            malformed += 1
            continue
        try:
            if "source_user" in obj or "target_user" in obj:
                record = _interaction_from_mapping(obj)
                if record is None:
                    dropped_self += 1
                else:
                    interactions.append(record)
            else:
                post = _post_from_mapping(obj)
                if post.post_id in seen_post_ids:
                    raise ValueError(f"duplicate post_id: {post.post_id}")
                seen_post_ids.add(post.post_id)
                posts.append(post)
        except (ValueError, KeyError, TypeError):
            malformed += 1

    if total and malformed * 2 > total:
        raise CorpusRejectedError(f"{malformed} of {total} lines malformed")
    if dropped_self:
        logger.warning("dropped %d self-interaction records", dropped_self)

    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    interactions.sort(key=lambda r: (r.timestamp, r.source_user, r.target_user, r.interaction_type))
    return EventDataset(
        posts=tuple(posts),
        interactions=tuple(interactions),
        malformed=malformed,
    )


def _iter_jsonl(stream: Iterable[str]) -> Iterator[dict | None]:
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if _undecodable(line):
            yield None
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):  # bad JSON, too-deep nesting, too many int digits
            yield None
            continue
        yield obj if isinstance(obj, dict) else None
