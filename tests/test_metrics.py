from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    bfs_hierarchy,
    dict_betweenness,
    dict_eigenvector,
    eigenvector_residual,
    from_nx,
    naive_betweenness,
    nx_louvain_partition,
    random_graph,
    set_transitivity,
    set_triangle_counts,
)
from syncindex.bots import BotScoreTable, class_triangle_counts, clustering_by_class
from syncindex.metrics import (
    avg_local_clustering,
    betweenness_centrality,
    centrality_by_action_type_count,
    degree_centrality,
    density,
    eigenvector_centrality,
    krackhardt_hierarchy,
    louvain_partition,
    newman_modularity,
    node_centralities,
    transitivity,
    triangle_counts,
)


def triangles_of(graph):
    return triangle_counts(from_nx(graph))


def path3():
    return nx.Graph([("u", "v"), ("v", "w")])


def two_triangles():
    return nx.Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


class TestDegree:
    def test_complete_graph(self):
        assert set(degree_centrality(from_nx(nx.complete_graph(3))).values()) == {1.0}

    def test_path(self):
        values = degree_centrality(from_nx(path3()))
        assert values == {"u": 0.5, "v": 1.0, "w": 0.5}

    def test_isolated_node(self):
        graph = nx.Graph([("a", "b")])
        graph.add_node("c")
        assert degree_centrality(from_nx(graph))["c"] == 0.0


class TestBetweenness:
    def test_path_center(self):
        values = betweenness_centrality(from_nx(path3()))
        assert values["v"] == pytest.approx(1.0)
        assert values["u"] == values["w"] == 0.0

    def test_complete_graph_all_zero(self):
        assert set(betweenness_centrality(from_nx(nx.complete_graph(4))).values()) == {0.0}

    def test_star_center(self):
        star = nx.star_graph(4)
        assert betweenness_centrality(from_nx(star))[0] == pytest.approx(1.0)

    def test_small_graphs_all_zero(self):
        assert set(betweenness_centrality(from_nx(nx.Graph([("a", "b")]))).values()) == {0.0}

    def test_matches_naive_oracle(self):
        rng = random.Random(13)
        for _ in range(15):
            graph = random_graph(rng, max_nodes=20)
            mine = betweenness_centrality(from_nx(graph))
            oracle = naive_betweenness(graph)
            for node in graph.nodes:
                assert mine[node] == pytest.approx(oracle[node], abs=1e-9)


class TestEigenvector:
    def test_symmetric_triangle(self):
        values = eigenvector_centrality(from_nx(nx.complete_graph(3)))
        assert all(v == pytest.approx(1.0) for v in values.values())

    def test_path_fixture(self):
        values = eigenvector_centrality(from_nx(path3()))
        assert values["v"] == pytest.approx(1.0)
        assert values["u"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)

    def test_weight_concentration(self):
        graph = nx.Graph()
        graph.add_edge("a", "b", weight=5.0)
        graph.add_edge("c", "d", weight=1.0)
        values = eigenvector_centrality(from_nx(graph))
        assert values["a"] == pytest.approx(1.0)
        assert values["c"] == pytest.approx(0.0, abs=1e-6)

    def test_residual_invariant(self):
        rng = random.Random(37)
        for _ in range(10):
            graph = random_graph(rng, max_nodes=25)
            if graph.number_of_edges() == 0:
                continue
            values = eigenvector_centrality(from_nx(graph))
            assert eigenvector_residual(graph, values) < 1e-6

    def test_max_component_is_one(self):
        values = eigenvector_centrality(from_nx(path3()))
        assert max(values.values()) == 1.0

    def test_non_convergence_returns_none(self):
        assert eigenvector_centrality(from_nx(path3()), tol=0.0, max_iter=3) is None


@st.composite
def multi_component_graphs(draw):
    """Weighted random graphs of one to three components plus isolated nodes.

    Ids are added in a shuffled order, so insertion order is rarely sorted,
    and some edges carry no weight attribute.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = [f"{rng.choice('abxyz')}{i}" for i in range(draw(st.integers(0, 24)))]
    rng.shuffle(ids)
    components = draw(st.integers(1, 3))
    component = {node: rng.randrange(components) for node in ids}
    edge_prob = draw(st.sampled_from([0.1, 0.25, 0.5]))
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if component[u] == component[v] and rng.random() < edge_prob:
                weight = rng.choice([None, 1.0, 2.0, rng.uniform(0.125, 8.0)])
                graph.add_edge(u, v, **({} if weight is None else {"weight": weight}))
    return graph


@st.composite
def mostly_isolated_graphs(draw):
    """A few weighted components among many isolated nodes, as in the
    all-communication graph of a coordination-heavy event."""
    graph = draw(multi_component_graphs())
    rng = random.Random(draw(st.integers(0, 2**32)))
    graph.add_nodes_from(f"{rng.choice('abxyz')}i{i}" for i in range(draw(st.integers(1, 60))))
    return graph


@st.composite
def leafy_graphs(draw, chords=2):
    """Graphs made mostly of leaves: random trees (each with up to `chords`
    chords), stars, combs, K2 components and isolated nodes, with
    interleaved ids. chords=0 gives only forests.

    A comb is a path whose every node carries one leaf; its parent ids sort
    either all before or all after its leaf ids.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    serial = iter(range(1_000_000))

    def fresh(letters: str) -> str:
        return f"{rng.choice(letters)}{next(serial)}"

    graph = nx.Graph()
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["tree", "star", "comb", "k2", "isolated"]))
        size = draw(st.integers(1, 10))
        if kind == "tree":
            nodes = [fresh("abxyz") for _ in range(size + 1)]
            graph.add_edges_from((nodes[i], rng.choice(nodes[:i])) for i in range(1, len(nodes)))
            for _ in range(rng.randrange(chords + 1)):
                graph.add_edge(*rng.sample(nodes, 2))
        elif kind == "star":
            center = fresh("abxyz")
            graph.add_edges_from((center, fresh("abxyz")) for _ in range(size))
        elif kind == "comb":
            parents, leaves = ("ab", "yz") if draw(st.booleans()) else ("yz", "ab")
            spine = [fresh(parents) for _ in range(size)]
            nx.add_path(graph, spine)
            graph.add_edges_from((node, fresh(leaves)) for node in spine)
        elif kind == "k2":
            graph.add_edge(fresh("abxyz"), fresh("abxyz"))
        else:
            graph.add_node(fresh("abxyz"))
    return graph


@st.composite
def blocky_graphs(draw, forest=False):
    """Graphs of many biconnected blocks: one to three components, each
    grown from one node by gluing cycles, cliques, bridges and pendant trees
    at existing nodes (which become cut vertices), plus isolated nodes, under
    shuffled string ids. forest=True glues only bridges and trees."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = [f"{rng.choice('abxyz')}{i}" for i in range(200)]
    rng.shuffle(ids)
    fresh = iter(ids)
    shapes = ["bridge", "tree"] if forest else ["cycle", "clique", "bridge", "tree"]
    graph = nx.Graph()
    for _ in range(draw(st.integers(1, 3))):
        placed = [next(fresh)]
        graph.add_node(placed[0])
        for _ in range(draw(st.integers(0, 6))):
            at = rng.choice(placed)
            shape = draw(st.sampled_from(shapes))
            new = [next(fresh) for _ in range(1 if shape == "bridge" else rng.randint(2, 5))]
            if shape == "cycle":
                nx.add_cycle(graph, [at, *new])
            elif shape == "clique":
                graph.add_edges_from(itertools.combinations([at, *new], 2))
            elif shape == "bridge":
                graph.add_edge(at, new[0])
            else:
                for i, node in enumerate(new):
                    graph.add_edge(node, rng.choice([at, *new[:i]]))
            placed += new
    graph.add_nodes_from(next(fresh) for _ in range(draw(st.integers(0, 3))))
    return graph


def comb(spine: int) -> nx.Graph:
    """A path of spine parents, each with one leaf."""
    graph = nx.Graph()
    nx.add_path(graph, [f"p{i:05d}" for i in range(spine)])
    graph.add_edges_from((f"p{i:05d}", f"q{i:05d}") for i in range(spine))
    return graph


def hexed(values: dict) -> dict:
    return {node: value.hex() for node, value in values.items()}


def assert_close_to_oracle(values: dict, graph: nx.Graph) -> None:
    """The block kernel's contract: the dict oracle's nodes in its order,
    each value within 1e-12 relative of the oracle's and zero exactly where
    the oracle's is."""
    expected = dict_betweenness(graph)
    assert list(values) == list(expected)
    for node, value in expected.items():
        assert (values[node] == 0.0) == (value == 0.0), node
        assert values[node] == pytest.approx(value, rel=1e-12, abs=0.0), node


class TestKernelsMatchDictOracles:
    """The betweenness kernel matches the dict-based Brandes within 1e-12
    (bit for bit on forests); power iteration matches its dict-based
    definition bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(multi_component_graphs())
    def test_betweenness_within_1e12_of_dict_oracle(self, graph):
        assert_close_to_oracle(betweenness_centrality(from_nx(graph)), graph)

    @settings(max_examples=300, deadline=None)
    @given(multi_component_graphs() | mostly_isolated_graphs(), st.sampled_from([3, 1000]))
    def test_eigenvector_bit_identical(self, graph, max_iter):
        if graph.number_of_edges() == 0:
            return
        expected, converged = dict_eigenvector(graph, max_iter=max_iter)
        values = eigenvector_centrality(from_nx(graph), max_iter=max_iter)
        if converged:
            assert hexed(values) == hexed(expected)
        else:
            assert values is None
        if max_iter == 1000 and converged:
            shared = node_centralities(from_nx(graph))
            assert hexed(shared.eigenvector) == hexed(expected)
            assert_close_to_oracle(shared.betweenness, graph)

    # The cap bounds the chords of each random tree: cap 0 leaves only
    # forests, cap 12 makes most trees a few blocks with cycles.
    @pytest.mark.parametrize("cap", [2, 0, 12], ids=["default-cap", "cap-0", "cap-12"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_betweenness_bit_identical_on_leafy_graphs(self, data, cap):
        """Within 1e-12 of the oracle, float.hex-equal to it on forests, and
        float.hex-equal to itself with the edges listed in another order and
        orientation."""
        graph = data.draw(leafy_graphs(chords=cap))
        values = betweenness_centrality(from_nx(graph))
        assert_close_to_oracle(values, graph)
        if nx.is_forest(graph):
            assert hexed(values) == hexed(dict_betweenness(graph))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        edges = [rng.sample(edge, 2) for edge in graph.edges]
        rng.shuffle(edges)
        relisted = nx.Graph()
        relisted.add_nodes_from(graph.nodes)
        relisted.add_edges_from(edges)
        assert hexed(betweenness_centrality(from_nx(relisted))) == hexed(values)

    @settings(max_examples=200, deadline=None)
    @given(blocky_graphs())
    def test_betweenness_within_1e12_on_blocky_graphs(self, graph):
        assert_close_to_oracle(betweenness_centrality(from_nx(graph)), graph)

    @settings(max_examples=150, deadline=None)
    @given(blocky_graphs(forest=True) | leafy_graphs().filter(nx.is_forest))
    def test_betweenness_bit_identical_on_forests(self, graph):
        assert hexed(betweenness_centrality(from_nx(graph))) == hexed(dict_betweenness(graph))

    @settings(max_examples=150, deadline=None)
    @given(blocky_graphs() | multi_component_graphs())
    def test_betweenness_matches_networkx(self, graph):
        values = betweenness_centrality(from_nx(graph))
        for node, value in nx.betweenness_centrality(graph).items():
            assert values[node] == pytest.approx(value, rel=0.0, abs=1e-9), node

    def test_comb_peak_memory_linear(self):
        graph = comb(600)  # 1,200 nodes, 1,199 two-node blocks
        indexed = from_nx(graph)
        indexed.adjacency  # built outside the measured region
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = betweenness_centrality(indexed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(value > 0.0 for value in values.values()) == 600  # every spine node is a cut vertex
        # 512 bytes per node for the kernel's per-node lists, the DFS trail
        # and the result.
        assert peak <= 512 * graph.number_of_nodes()


@st.composite
def clustered_graphs(draw):
    """Unweighted graphs of one to three components, each two clusters that
    are dense inside and sparse between, plus isolated nodes.

    Nodes and edges are added in shuffled orders under shuffled string ids,
    and each edge's endpoints in either order.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = [f"{rng.choice('abxyz')}{i}" for i in range(draw(st.integers(2, 40)))]
    rng.shuffle(ids)
    components = draw(st.integers(1, 3))
    cluster = {node: rng.randrange(2 * components) for node in ids}
    inside, between = draw(st.sampled_from([(0.6, 0.05), (0.3, 0.1), (0.2, 0.2)]))
    edges = []
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            if cluster[u] // 2 == cluster[v] // 2:
                if rng.random() < (inside if cluster[u] == cluster[v] else between):
                    edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(ids)
    graph.add_edges_from(edges)
    return graph


def caveman_with_paths(rng: random.Random) -> nx.Graph:
    """connected_caveman_graph(10, 12) with a pendant path of 1 to 4 nodes on
    about a third of its nodes: dense cliques settle early, so later local
    move passes recompute only the community weights next to a move."""
    graph = nx.connected_caveman_graph(10, 12)
    fresh = graph.number_of_nodes()
    for node in list(graph):
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 4)):
                graph.add_edge(node, fresh)
                node, fresh = fresh, fresh + 1
    return graph


class TestStructureMatchesOracles:
    """Louvain replays networkx move for move; the bitset triangle counts
    equal the set-based ones."""

    @settings(max_examples=300, deadline=None)
    @given(clustered_graphs(), st.integers(0, 50))
    def test_louvain_equals_networkx(self, graph, seed):
        if graph.number_of_edges() == 0:
            return
        assert louvain_partition(from_nx(graph), seed=seed) == nx_louvain_partition(graph, seed=seed)

    @pytest.mark.parametrize(
        "graph",
        [
            nx.barabasi_albert_graph(300, 3, seed=1),
            nx.connected_caveman_graph(12, 8),
            caveman_with_paths(random.Random(5)),
            nx.relabel_nodes(nx.gnp_random_graph(150, 0.05, seed=4), lambda v: f"u{(v * 37) % 151}"),
        ],
        ids=["barabasi-albert", "caveman", "caveman-with-paths", "gnp-string-ids"],
    )
    def test_louvain_equals_networkx_on_larger_graphs(self, graph):
        indexed = from_nx(graph)
        for seed in (0, 7, 11, 23):
            assert louvain_partition(indexed, seed=seed) == nx_louvain_partition(graph, seed=seed)

    def test_louvain_leaves_no_cyclic_garbage(self):
        graph = nx.barabasi_albert_graph(300, 3, seed=2)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            louvain_partition(from_nx(graph), seed=0)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @settings(max_examples=200, deadline=None)
    @given(clustered_graphs(), st.integers(0, 2**32))
    def test_triangles_and_class_transitivity_equal_set_oracle(self, graph, draw_seed):
        indexed = from_nx(graph)
        counts = triangle_counts(indexed)
        assert tuple(dict(zip(indexed.nodes, column)) for column in counts) == set_triangle_counts(graph)
        assert transitivity(counts) == set_transitivity(graph)
        rng = random.Random(draw_seed)
        table = BotScoreTable(scores={node: rng.random() for node in graph if rng.random() < 0.8})
        expected = {}
        for cls in ("bot", "human"):
            members = [node for node in graph if table.classify(node) == cls]
            if members:
                expected[cls] = set_transitivity(graph.subgraph(members))
        classified = replace(indexed, user_class=[table.classify(node) for node in indexed.nodes])
        assert clustering_by_class(class_triangle_counts(classified)) == expected


class TestModularity:
    def test_two_triangles(self):
        partition = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
        assert newman_modularity(from_nx(two_triangles()), partition) == pytest.approx(0.5, abs=1e-12)

    def test_single_community_zero(self):
        graph = two_triangles()
        assert newman_modularity(from_nx(graph), dict.fromkeys(graph, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_singletons_in_triangle(self):
        graph = nx.complete_graph(3)
        assert newman_modularity(from_nx(graph), {0: 0, 1: 1, 2: 2}) == pytest.approx(-1 / 3, abs=1e-12)

    def test_bounds_on_random_partitions(self):
        rng = random.Random(41)
        for _ in range(10):
            graph = random_graph(rng, max_nodes=15)
            if graph.number_of_edges() == 0:
                continue
            partition = {node: rng.randrange(3) for node in graph.nodes}
            q = newman_modularity(from_nx(graph), partition)
            assert -0.5 - 1e-9 <= q <= 1.0 + 1e-9


class TestLouvain:
    def test_recovers_disjoint_triangles(self):
        graph = two_triangles()
        partition = louvain_partition(from_nx(graph), seed=5)
        assert {partition[0], partition[1], partition[2]} == {partition[0]}
        assert partition[0] != partition[3]
        assert newman_modularity(from_nx(graph), partition) == pytest.approx(0.5)

    def test_complete_graph_single_community(self):
        partition = louvain_partition(from_nx(nx.complete_graph(4)), seed=5)
        assert len(set(partition.values())) == 1

    def test_fixed_seed_is_deterministic(self):
        rng = random.Random(43)
        graph = random_graph(rng, max_nodes=25, edge_prob=0.25)
        first = louvain_partition(from_nx(graph), seed=9)
        for _ in range(3):
            assert louvain_partition(from_nx(graph), seed=9) == first


@st.composite
def scored_graphs(draw):
    """Small graphs, some isolated nodes, finite scores with frequent ties; some nodes unscored."""
    nodes = [f"n{i}" for i in range(draw(st.integers(1, 9)))]
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    if pairs:
        graph.add_edges_from(draw(st.lists(st.sampled_from(pairs), unique=True)))
    score = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(allow_nan=False, allow_infinity=False))
    return graph, draw(st.dictionaries(st.sampled_from(nodes), score))


def scored(graph, scores):
    """The Graph of a networkx graph with csi_user from scores (None: unscored)."""
    indexed = from_nx(graph)
    return replace(indexed, csi_user=[scores.get(node) for node in indexed.nodes])


class TestHierarchy:
    def test_star_oriented_to_center(self):
        star = nx.star_graph(4)
        star = nx.relabel_nodes(star, {i: f"n{i}" for i in star})
        scores = {"n0": 9.0, "n1": 1.0, "n2": 1.0, "n3": 1.0, "n4": 1.0}
        assert krackhardt_hierarchy(scored(star, scores)) == 1.0

    def test_single_node_is_one(self):
        assert krackhardt_hierarchy(from_nx(nx.empty_graph(1))) == 1.0

    def test_ties_break_toward_larger_id(self):
        graph = nx.Graph([("a", "b")])
        # equal scores: arc points a -> b, one-way reachable pair
        assert krackhardt_hierarchy(scored(graph, {"a": 1.0, "b": 1.0})) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(scored_graphs())
    def test_closed_form_matches_bfs_definition(self, case):
        graph, scores = case
        assert krackhardt_hierarchy(scored(graph, scores)) == bfs_hierarchy(graph, scores)

    def test_scores_from_node_attributes(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        graph.nodes["a"]["csi_user"] = 5.0
        graph.nodes["b"]["csi_user"] = 1.0
        assert krackhardt_hierarchy(from_nx(graph)) == 1.0


class TestClustering:
    def test_triangle_transitivity(self):
        assert transitivity(triangles_of(nx.complete_graph(3))) == 1.0

    def test_path_transitivity(self):
        assert transitivity(triangles_of(path3())) == 0.0

    def test_k4_minus_edge(self):
        graph = nx.complete_graph(4)
        graph.remove_edge(2, 3)
        assert transitivity(triangles_of(graph)) == pytest.approx(0.75, abs=1e-12)

    def test_no_triples_warns_zero(self):
        assert transitivity(triangles_of(nx.Graph([("a", "b")]))) == 0.0

    def test_both_one_on_complete_graphs(self):
        for n in (3, 4, 6):
            graph = nx.complete_graph(n)
            counts = triangles_of(nx.complete_graph(n))
            assert transitivity(counts) == 1.0
            assert avg_local_clustering(counts) == 1.0

    def test_both_zero_on_trees(self):
        counts = triangles_of(nx.balanced_tree(2, 3))
        assert transitivity(counts) == 0.0
        assert avg_local_clustering(counts) == 0.0

    def test_low_degree_nodes_contribute_zero(self):
        graph = nx.Graph([("a", "b"), ("b", "c"), ("c", "a"), ("a", "pendant")])
        expected = (1 + 1 + (1 / 3) + 0) / 4  # "a" has degree 3 with 1 of 3 pairs closed
        assert avg_local_clustering(triangles_of(graph)) == pytest.approx(expected)


class TestDensity:
    def test_complete(self):
        assert density(from_nx(nx.complete_graph(5))) == 1.0

    def test_four_nodes_three_edges(self):
        graph = nx.Graph([("a", "b"), ("b", "c"), ("c", "d")])
        assert density(from_nx(graph)) == pytest.approx(0.5)

    def test_edgeless(self):
        assert density(from_nx(nx.empty_graph(4))) == 0.0

    def test_relabel_invariant(self):
        rng = random.Random(51)
        graph = random_graph(rng)
        relabeled = nx.relabel_nodes(graph, {n: f"x{n}" for n in graph})
        assert density(from_nx(graph)) == density(from_nx(relabeled))


class TestParticipationCentrality:
    def fixture_graph(self):
        # two triangles bridged by e: closed forms are easy to recompute by hand
        return nx.Graph(
            [("a", "b"), ("b", "c"), ("c", "a"), ("c", "e"), ("e", "f"), ("f", "g"), ("g", "e")]
        )

    def test_all_sync_users_isolated(self):
        graph = nx.empty_graph(0)
        graph.add_nodes_from(["u", "v"])
        rows = centrality_by_action_type_count(node_centralities(from_nx(graph)), {"u": 1, "v": 2})
        assert rows == [("u", 1, 0.0, 0.0, 0.0), ("v", 2, 0.0, 0.0, 0.0)]

    def test_rows_match_centrality_functions(self):
        graph = self.fixture_graph()
        participation = {"g": 2, "a": 1, "e": 3, "b": 1, "c": 3, "f": 2}
        rows = centrality_by_action_type_count(node_centralities(from_nx(graph)), participation)
        degrees = degree_centrality(from_nx(graph))
        betweenness = betweenness_centrality(from_nx(graph))
        eigen = eigenvector_centrality(from_nx(graph))
        assert rows == [
            (user, participation[user], degrees[user], betweenness[user], eigen[user])
            for user in sorted(participation)
        ]

    def test_empty_participation(self):
        assert centrality_by_action_type_count(node_centralities(from_nx(nx.Graph([("a", "b")]))), {}) == []
