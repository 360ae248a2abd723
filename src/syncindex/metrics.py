"""Node centralities and whole-graph structure metrics.

Shortest paths are unweighted throughout: synchronization edge weights are
similarity strengths, not distances. Eigenvector centrality does use the
weights. All functions are pure and permutation-invariant; accumulation
orders are fixed (sorted nodes) so outputs are bit-deterministic.

Every metric reads a graphs.Graph: node i is the i-th node in sorted
order, so index order is id order, and the edges are two flat index lists.
The betweenness and eigenvector kernels read its sorted adjacency rows.
Power iteration sums each row in ascending neighbour order, starting from
the node's own value, so its floats are fixed. It runs on the non-isolated
nodes plus one neighbourless node standing for all isolated nodes. An
isolated node's next value is its own value, so all of them start at 1.0
and stay equal at every step; the one shared value enters the peak and the
convergence test as each of them did, so every float equals full
iteration's bit for bit.

Betweenness runs Brandes inside each biconnected block (Puzis et al. 2012;
Baglioni et al. 2012): a node's value is the number of ordered pairs it
separates, plus, per block, the block's Brandes sums with each member s
standing for weight_s = 1 + the nodes that reach the block only through s.
A two-node block has no interior, so a leaf costs nothing. The sums run in
a fixed order other than a whole-graph Brandes', so they match
tests/conftest.dict_betweenness to rounding, and bit for bit on a forest,
where every sum is an exact integer.

louvain_partition is networkx's louvain_communities(weight=None, seed) on
the graph relabeled to sorted integer indices, replayed move for move on
integer lists and dicts, so its partition equals the installed networkx's
on every graph. It keeps each order networkx has: the weight-1 copy adds
the relabeled edges by ascending lower end and, within one lower end, in
the graph's edge order (a stable sort of its edges by their lower end),
one random.Random(seed) shuffling the nodes at each level, a node's
candidate communities in the order its neighbours first reach them (its
own appended last when absent), the remove_cost and gain expressions as
written, community graphs merging edges in edge order, and a stop test that
sums modularity community by community with threshold 1e-7. A node's
candidate weights read only its neighbours' communities, so they are
rebuilt only after a neighbour moves; the kept dict equals networkx's
rebuilt one, order included. The sync graph keeps networkx's Graph.edges
order (see graphs), so its partition is too.

Triangle counts are exact integers from the graph's int bitsets: each
edge (a, b) adds (mask_a & mask_b).bit_count() to both ends, which counts
every triangle at a node twice. Counts on a class-induced subgraph AND the
same masks with a class mask.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from itertools import chain

from .graphs import Graph

logger = logging.getLogger(__name__)


def degree_centrality(graph: Graph) -> dict[str, float]:
    """Unweighted degree divided by (n - 1); the graph has at least 2 nodes."""
    n = graph.number_of_nodes()
    return {node: degree / (n - 1) for node, degree in graph.degree()}


def betweenness_centrality(graph: Graph) -> dict[str, float]:
    """Brandes betweenness on unweighted shortest paths, normalized by (n-1)(n-2)/2,
    computed block by block (see the module docstring).

    Fewer than 3 nodes: all zeros (no interior positions exist).
    """
    nodes = graph.nodes
    n = len(nodes)
    if n < 3:
        return dict.fromkeys(nodes, 0.0)
    adjacency = graph.adjacency
    accum, blocks = _blocks(adjacency)
    for members, weights in blocks:
        # Brandes on the block's local rows, each member s standing for
        # weights[s] sources and weights[s] targets.
        local = {v: i for i, v in enumerate(members)}
        rows = [[local[u] for u in adjacency[v] if u in local] for v in members]
        m = len(rows)
        for source, copies in enumerate(weights):
            dist = [-1] * m
            sigma = [0] * m
            delta = [0.0] * m
            dist[source] = 0
            sigma[source] = 1
            order = [source]  # BFS order; the loop below appends while it reads
            for v in order:
                next_dist = dist[v] + 1
                paths = sigma[v]
                for w in rows[v]:
                    d = dist[w]
                    if d < 0:
                        dist[w] = next_dist
                        sigma[w] = paths
                        order.append(w)
                    elif d == next_dist:
                        sigma[w] += paths
            # Dependencies in reverse BFS order. The predecessors of w are its
            # neighbours one level up; the root has none and is skipped.
            for w in reversed(order[1:]):
                up = dist[w] - 1
                paths = sigma[w]
                weight = weights[w] + delta[w]
                for v in rows[w]:
                    if dist[v] == up:
                        delta[v] += (sigma[v] / paths) * weight
                accum[members[w]] += copies * delta[w]
    # Each unordered pair is counted from both endpoints, so the pair-halving
    # and the (n-1)(n-2)/2 normalizer combine into one factor.
    scale = 1.0 / ((n - 1) * (n - 2))
    return {node: value * scale for node, value in zip(nodes, accum)}


def _blocks(adjacency: list[list[int]]) -> tuple[list[int], list[tuple[list[int], list[int]]]]:
    """One iterative Hopcroft-Tarjan DFS from ascending roots, scanning each
    row ascending. Returns each node's separated ordered-pair count (the
    ordered pairs of other nodes in different components of its component
    minus the node: sum |C_i| * |C_j|, i != j) and the blocks of 3 or more
    nodes as (members ascending, weights), a member's weight being 1 plus the
    nodes that reach the block only through it."""
    n = len(adjacency)
    disc = [-1] * n
    low = [0] * n
    size = [1] * n
    cut = [0] * n  # nodes in the DFS subtrees cut off at the node
    squares = [0] * n  # the sum of their sizes squared
    pairs = [0] * n
    blocks = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0 or not adjacency[root]:
            continue
        disc[root] = low[root] = clock
        clock += 1
        component = [root]
        stack = [root]  # nodes not yet assigned to a block
        trail = [(root, iter(adjacency[root]))]
        found = []  # (top, child, members) of each block of 3 or more nodes
        while trail:
            v, scan = trail[-1]
            for w in scan:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    component.append(w)
                    stack.append(w)
                    trail.append((w, iter(adjacency[w])))
                    break
                if disc[w] < low[v]:  # the edge to the parent included: harmless
                    low[v] = disc[w]
            else:
                trail.pop()
                if not trail:
                    break
                p = trail[-1][0]
                size[p] += size[v]
                if low[v] < low[p]:
                    low[p] = low[v]
                elif low[v] >= disc[p]:  # p separates v's subtree: a block ends
                    cut[p] += size[v]
                    squares[p] += size[v] * size[v]
                    members = [p]
                    while members[-1] != v:
                        members.append(stack.pop())
                    if len(members) > 2:
                        found.append((p, v, members))
        total = len(component)
        for v in component:
            rest = total - 1 - cut[v]  # the part holding the DFS parent
            pairs[v] = (total - 1) ** 2 - squares[v] - rest * rest
        for top, child, members in found:
            members.sort()
            blocks.append((members, [total - size[child] if v == top else 1 + cut[v] for v in members]))
    return pairs, blocks


def eigenvector_centrality(graph: Graph, tol: float = 1e-9, max_iter: int = 1000) -> dict[str, float] | None:
    """Power iteration on the weighted adjacency, scaled so the max component is 1.

    Starts from a uniform positive vector; converged when successive
    max-normalized iterates differ by less than tol in max norm. Iterates
    with the identity added so bipartite graphs cannot oscillate. Isolated
    nodes share one value (see the module docstring). The graph has an edge.
    None when max_iter iterations do not converge.
    """
    rows: list[list[tuple[int, float]]] = [[] for _ in graph.nodes]
    for a, b, w in zip(graph.sources, graph.targets, graph.weights):
        rows[a].append((b, float(w)))
        rows[b].append((a, float(w)))
    # The non-isolated nodes in ascending order, then one neighbourless
    # node standing for every isolated node.
    position = {i: k for k, i in enumerate(i for i, row in enumerate(rows) if row)}
    weighted = [[(position[j], w) for j, w in sorted(row)] for row in rows if row]
    shared = len(weighted)
    if shared < len(rows):
        weighted.append([])
    x = [1.0] * len(weighted)
    for _ in range(max_iter):
        nxt = []
        for acc, row in zip(x, weighted):
            for j, w in row:
                acc += w * x[j]
            nxt.append(acc)
        peak = max(nxt)
        nxt = [value / peak for value in nxt]
        delta = max(abs(new - old) for new, old in zip(nxt, x))
        x = nxt
        if delta < tol:
            return {node: x[position.get(i, shared)] for i, node in enumerate(graph.nodes)}
    return None


# Centralities.row's column names, in its order, for every centrality table.
CENTRALITY_COLUMNS = ("total_degree", "betweenness", "eigenvector")


@dataclass(frozen=True)
class Centralities:
    """Degree, betweenness and eigenvector centrality of one graph, keyed by every node.

    eigenvector is None when power iteration did not converge.
    """

    degree: dict[str, float]
    betweenness: dict[str, float]
    eigenvector: dict[str, float] | None

    def row(self, node: str) -> tuple[float, float, float | None]:
        """(degree, betweenness, eigenvector) of node, the cells of every
        centrality table; eigenvector is None when it did not converge."""
        eigenvector = None if self.eigenvector is None else self.eigenvector[node]
        return self.degree[node], self.betweenness[node], eigenvector


def node_centralities(graph: Graph) -> Centralities:
    """All three centralities, each computed once.

    Where a centrality is undefined it is 0 for every node: degree below 2
    nodes, eigenvector on an edgeless graph. Eigenvector centrality is None
    when power iteration does not converge (e.g. two components with close
    spectral radii).
    """
    zeros = dict.fromkeys(graph.nodes, 0.0)
    eigenvector: dict[str, float] | None = zeros
    if graph.number_of_edges() > 0:
        eigenvector = eigenvector_centrality(graph)
        if eigenvector is None:
            logger.warning("eigenvector centrality undefined: power iteration did not converge")
    return Centralities(
        degree=degree_centrality(graph) if graph.number_of_nodes() >= 2 else zeros,
        betweenness=betweenness_centrality(graph),
        eigenvector=eigenvector,
    )


def newman_modularity(graph: Graph, partition: dict[str, int]) -> float:
    """Unweighted Q = sum_c (e_cc - a_c^2) over communities, for a graph with
    an edge and a partition covering its nodes (as louvain_partition's does)."""
    m = graph.number_of_edges()
    internal: dict[int, int] = {}
    degree_sum: dict[int, int] = {}
    communities = [partition[node] for node in graph.nodes]
    for community, degree in zip(communities, graph.degrees):
        degree_sum[community] = degree_sum.get(community, 0) + degree
    for a, b in zip(graph.sources, graph.targets):
        community = communities[a]
        if community == communities[b]:
            internal[community] = internal.get(community, 0) + 1
    q = 0.0
    for community in sorted(degree_sum):
        e_cc = internal.get(community, 0) / m
        a_c = degree_sum[community] / (2 * m)
        q += e_cc - a_c * a_c
    return q


def louvain_partition(graph: Graph, seed: int) -> dict[str, int]:
    """Greedy modularity partition (Blondel et al. 2008; unweighted, seeded).

    The partition is networkx's louvain_communities(weight=None, seed=seed,
    resolution 1, threshold 1e-7) on the graph relabeled to sorted integer
    indices (edges added in the graph's edge order), replayed move for move on
    integer lists; see the module docstring. Community ids are assigned
    0..k-1 in order of each community's smallest member. The graph has an
    edge.
    """
    nodes = graph.nodes
    # The weight-1 copy adds the relabeled graph's edges in its edge order:
    # ascending lower end, then the graph's edge order (the sort is stable).
    adjacency: list[dict[int, int]] = [{} for _ in nodes]
    for a, b in sorted(zip(graph.sources, graph.targets), key=min):
        adjacency[a][b] = adjacency[b][a] = 1
    degrees = _weighted_degrees(adjacency)
    m = sum(degrees) / 2
    norm = 1 / sum(degrees) ** 2
    mod = _singleton_modularity(adjacency, degrees, m, norm)
    rng = random.Random(seed)
    label = list(range(len(nodes)))  # original node -> node of the current level
    level = 0
    while True:
        com, moved = _louvain_level(adjacency, degrees, m, rng)
        if level and not moved:
            break
        # Non-empty communities in ascending index order become the nodes of
        # the community graph, which merges edges in edge order: a merged edge
        # keeps the adjacency position of its first member, and the edges
        # inside a community become its self-loop.
        renumber = {c: i for i, c in enumerate(sorted(set(com)))}
        com = [renumber[c] for c in com]
        label = [com[x] for x in label]
        merged: list[dict[int, int]] = [{} for _ in renumber]
        for u, row in enumerate(adjacency):
            cu = com[u]
            for v, w in row.items():
                if v >= u:
                    cv = com[v]
                    merged[cu][cv] = merged[cv][cu] = w + merged[cu].get(cv, 0)
        adjacency = merged
        degrees = _weighted_degrees(adjacency)
        # The partition's modularity is its community graph's singleton modularity.
        new_mod = _singleton_modularity(adjacency, degrees, m, norm)
        if new_mod - mod <= 1e-7:
            break
        mod = new_mod
        level += 1
    ids: dict[int, int] = {}
    return {node: ids.setdefault(c, len(ids)) for node, c in zip(nodes, label)}


def _weighted_degrees(adjacency: list[dict[int, int]]) -> list[int]:
    """Edge-weight sums per node; a self-loop counts twice."""
    return [sum(row.values()) + row.get(u, 0) for u, row in enumerate(adjacency)]


def _singleton_modularity(adjacency: list[dict[int, int]], degrees: list[int], m: float, norm: float) -> float:
    """Modularity of the partition into single nodes, summed in node order as
    networkx's modularity sums communities."""
    return sum(row.get(u, 0) / m - d * d * norm for u, (row, d) in enumerate(zip(adjacency, degrees)))


def _louvain_level(
    adjacency: list[dict[int, int]], degrees: list[int], m: float, rng: random.Random
) -> tuple[list[int], bool]:
    """One Louvain level: local moves until none improves modularity.

    Returns each node's community index (a node index) and whether any node
    moved. Nodes are visited in rng-shuffled order; a node's candidate
    communities are its neighbours' in adjacency order, then its own when no
    neighbour shares it; the first strictly best gain wins.

    Each node keeps its community weights until a neighbour moves: a move
    drops the cached weights of the mover's neighbours. A cached dict is
    never changed, so an absent own community is scored after it with
    weight 0.0, where networkx's setdefault appends it.
    """
    neighbours = [[(v, w) for v, w in row.items() if v != u] for u, row in enumerate(adjacency)]
    node2com = list(range(len(adjacency)))
    cached: list[dict[int, float] | None] = [None] * len(adjacency)
    stot = list(degrees)
    order = list(range(len(adjacency)))
    rng.shuffle(order)
    scale = 2 * m**2
    moved = False
    moves = 1
    while moves:
        moves = 0
        for u in order:
            best_mod = 0
            best = own = node2com[u]
            weights = cached[u]
            if weights is None:
                weights = cached[u] = {}
                for v, w in neighbours[u]:
                    c = node2com[v]
                    weights[c] = weights.get(c, 0.0) + w
            degree = degrees[u]
            stot[own] -= degree
            own_weight = weights.get(own)
            remove_cost = -(own_weight or 0.0) / m + (stot[own] * degree) / scale
            candidates = weights.items() if own_weight is not None else chain(weights.items(), ((own, 0.0),))
            for c, w in candidates:
                gain = remove_cost + w / m - (stot[c] * degree) / scale
                if gain > best_mod:
                    best_mod = gain
                    best = c
            stot[best] += degree
            if best != own:
                node2com[u] = best
                for v, _ in neighbours[u]:
                    cached[v] = None
                moved = True
                moves += 1
    return node2com, moved


def krackhardt_hierarchy(graph: Graph) -> float:
    """1 minus the fraction of reachable node pairs that are mutually reachable,
    with each edge oriented from the lower-scoring endpoint to the higher
    (scores from the csi_user node attribute, 0 for an unscored node; ties
    point toward the lexicographically larger id). Graphs with no reachable
    pairs score 1 by convention.

    The value has a closed form, so no reachability is computed: every arc
    u -> v has key(u) < key(v) for key(x) = (score(x), x), a strict total
    order, since every score is finite (users.csv rejects a non-finite one,
    and compute_tables gives finite scores). Keys strictly increase along any
    directed path, so there is no directed cycle and no pair of distinct nodes
    reaches each other both ways. Mutual pairs are 0, so the value is
    1 - 0 / reachable = 1, or 1 by convention when nothing is reachable.
    """
    return 1.0


def triangle_counts(graph: Graph, members: int = -1) -> tuple[list[int], list[int]]:
    """Per node index: the number of edges among its neighbours, and
    C(degree, 2), on the subgraph induced by members (a bitset of node
    indices; -1 is every node). Nodes outside it count 0.

    Each edge (a, b) adds the number of common neighbours to both ends, so
    every node receives each of its triangles twice.
    """
    masks = graph.masks
    if members != -1:
        masks = [mask & members if members >> i & 1 else 0 for i, mask in enumerate(masks)]
    twice = [0] * len(masks)
    for a, b in zip(graph.sources, graph.targets):
        common = (masks[a] & masks[b]).bit_count()
        twice[a] += common
        twice[b] += common
    degrees = [mask.bit_count() for mask in masks]
    return [count >> 1 for count in twice], [d * (d - 1) // 2 for d in degrees]


def transitivity(counts: tuple[list[int], list[int]]) -> float:
    """Global clustering coefficient, 3 * triangles / connected triples, from
    triangle_counts; 0 without triples."""
    triangles, triples = counts
    total_triples = sum(triples)
    if total_triples == 0:
        return 0.0
    return sum(triangles) / total_triples


def avg_local_clustering(counts: tuple[list[int], list[int]]) -> float:
    """Mean per-node clustering from triangle_counts of a graph with an edge,
    summed in index order; nodes with degree < 2 contribute 0."""
    triangles, triples = counts
    total = 0.0
    for closed, pairs in zip(triangles, triples):
        if pairs > 0:
            total += closed / pairs
    return total / len(triples)


def density(graph: Graph) -> float:
    """2|E| / (n(n-1)); the graph has at least 2 nodes."""
    n = graph.number_of_nodes()
    return 2.0 * graph.number_of_edges() / (n * (n - 1))


def centrality_by_action_type_count(
    centralities: Centralities, participation: dict[str, int]
) -> list[tuple[str, int, float, float, float | None]]:
    """(user, number of action types, *centralities.row(user)) rows, sorted
    by user, for the synchronizing users, each a node of the graph (every
    synchronizing user is a post author).
    """
    return [(user, participation[user], *centralities.row(user)) for user in sorted(participation)]
