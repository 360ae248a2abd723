from __future__ import annotations

import json
import random
from xml.sax import saxutils

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (
    from_nx,
    induced_subgraph,
    nx_allcomm_graph,
    nx_degree_centrality,
    nx_density,
    nx_graphml_text,
    nx_newman_modularity,
    nx_sync_graph,
    to_nx,
)
from syncindex.events import CorpusRejectedError, InteractionRecord, parse_events
from syncindex.graphs import _escape, _quoteattr, build_allcomm_graph, build_sync_graph, export, prune_by_partner_count
from syncindex.metrics import degree_centrality, density, newman_modularity


def parsed_user_id(text: str) -> str | None:
    """The user id the event parser keeps for text, or None when it rejects it."""
    line = json.dumps({"post_id": "p", "user_id": text, "timestamp": 0, "post_type": "original"})
    try:
        return parse_events([line]).posts[0].user_id
    except CorpusRejectedError:
        return None


# Any id the parser accepts: arbitrary text with XML's special characters,
# the controls XML allows (escaped in attributes) and some it forbids,
# which the parser rejects.
graphml_ids = (
    st.text(
        st.one_of(st.characters(), st.sampled_from("&<>'\",\t\n\r\x00\x01\x0b\x7f\x85\ud800\ufffe\uffff")),
        min_size=1,
    )
    .map(parsed_user_id)
    .filter(lambda user_id: user_id is not None)
)


def interaction(source, target, kind="retweet", t=0):
    return InteractionRecord(source_user=source, target_user=target, interaction_type=kind, timestamp=t)


def exported(graph, directory, core=None):
    """The GraphML texts of graph and of its nodes flagged in core (all of
    them for None), written by one export call."""
    files = {directory / "whole.graphml": None, directory / "core.graphml": core}
    export(graph, files)
    return [path.read_bytes().decode("utf-8") for path in files]


def core_nodes(graph, core):
    return {node for node, kept in zip(graph.nodes, core) if kept}


class TestSyncGraph:
    def test_counts(self):
        scores = {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 3.0}
        graph = build_sync_graph(scores)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3

    def test_empty(self):
        graph = build_sync_graph({})
        assert graph.number_of_nodes() == 0

    def test_weights_reproduce_pair_scores(self):
        scores = {("u", "v"): 8.0, ("v", "w"): 1.5}
        graph = to_nx(build_sync_graph(scores))
        assert graph["u"]["v"]["weight"] == 8.0
        read_back = {tuple(sorted((u, v))): d["weight"] for u, v, d in graph.edges(data=True)}
        assert read_back == scores

    def test_node_attributes(self):
        graph = to_nx(
            build_sync_graph(
                {("u", "v"): 2.0},
                user_classes={"u": "bot"},
                user_scores={"u": 4.0, "v": 4.0},
            )
        )
        assert graph.nodes["u"]["user_class"] == "bot"
        assert graph.nodes["v"]["user_class"] == "unknown"
        assert graph.nodes["v"]["csi_user"] == 4.0


class TestAllCommGraph:
    def test_directionless_weight_sum(self):
        records = [interaction("u", "v"), interaction("u", "v"), interaction("v", "u", "mention")]
        graph = to_nx(build_allcomm_graph(records))
        assert graph["u"]["v"]["weight"] == 3

    def test_self_interaction_dropped(self):
        graph = build_allcomm_graph([interaction("u", "u")])
        assert graph.number_of_edges() == 0

    def test_post_users_become_isolated_nodes(self):
        graph = build_allcomm_graph([], users=["a", "b"])
        assert graph.nodes == ["a", "b"]
        assert graph.number_of_edges() == 0


class TestPrune:
    def test_star_collapses(self):
        star = {("hub", f"leaf{i}"): 1.0 for i in range(4)}
        assert prune_by_partner_count(build_sync_graph(star), 5) == [False] * 5

    def test_k6_unchanged(self):
        assert prune_by_partner_count(from_nx(nx.complete_graph(6)), 5) == [True] * 6

    def test_zero_threshold_is_identity(self):
        graph = build_sync_graph({("a", "b"): 1.0, ("c", "d"): 2.0})
        assert prune_by_partner_count(graph, 0) == [True] * 4

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune_by_partner_count(build_sync_graph({}), -1)

    def test_fixed_point_property(self):
        rng = random.Random(4)
        for _ in range(10):
            reference = nx.gnp_random_graph(25, 0.2, seed=rng.randrange(10_000))
            graph = from_nx(reference)
            k = rng.randint(1, 5)
            core = prune_by_partner_count(graph, k)
            # a fixed point: every kept node keeps at least k kept neighbours
            assert all(sum(core[j] for j in graph.adjacency[i]) >= k for i, kept in enumerate(core) if kept)
            assert core_nodes(graph, core) == set(nx.k_core(reference, k))


class TestPartition:
    def build(self):
        scores = {("b1", "b2"): 1.0, ("b1", "h1"): 2.0, ("h1", "h2"): 3.0, ("h2", "x1"): 1.0}
        classes = {"b1": "bot", "b2": "bot", "h1": "human", "h2": "human"}
        return build_sync_graph(scores, user_classes=classes)

    def test_same_class_edge_survives(self):
        bots = induced_subgraph(self.build(), "bot")
        assert bots.has_edge("b1", "b2")

    def test_cross_class_edge_in_neither(self):
        graph = self.build()
        assert not induced_subgraph(graph, "bot").has_edge("b1", "h1")
        assert not induced_subgraph(graph, "human").has_edge("b1", "h1")

    def test_unclassified_excluded(self):
        graph = self.build()
        for cls in ("bot", "human"):
            assert "x1" not in induced_subgraph(graph, cls)

    def test_all_human_graph_has_empty_bot_partition(self):
        graph = build_sync_graph({("h1", "h2"): 1.0}, user_classes={"h1": "human", "h2": "human"})
        assert induced_subgraph(graph, "bot").number_of_nodes() == 0

    def test_edge_disjointness(self):
        graph = self.build()
        bot_edges = set(map(frozenset, induced_subgraph(graph, "bot").edges))
        human_edges = set(map(frozenset, induced_subgraph(graph, "human").edges))
        all_edges = set(map(frozenset, to_nx(graph).edges))
        cross = all_edges - bot_edges - human_edges
        assert bot_edges | human_edges | cross == all_edges
        assert not bot_edges & human_edges


class TestExport:
    def build(self):
        return build_sync_graph(
            {("a", "b"): 1.0, ("b", "c"): 2.5, ("c", "d"): 8.0},
            user_classes={"a": "bot", "b": "human", "c": "human", "d": "human"},
            user_scores={"a": 1.0, "b": 3.5, "c": 10.5, "d": 8.0},
        )

    def test_graphml_counts_and_attributes(self, tmp_path):
        path = tmp_path / "g.graphml"
        export(self.build(), {path: None})
        parsed = nx.read_graphml(path)
        assert parsed.number_of_nodes() == 4
        assert parsed.number_of_edges() == 3
        assert parsed.nodes["a"]["user_class"] == "bot"
        assert parsed.nodes["c"]["csi_user"] == 10.5
        assert parsed["c"]["d"]["weight"] == 8.0

    def test_empty_graph_is_valid(self, tmp_path):
        path = tmp_path / "empty.graphml"
        export(build_sync_graph({}), {path: None})
        parsed = nx.read_graphml(path)
        assert parsed.number_of_nodes() == 0

    def test_flags_keep_their_nodes_and_the_edges_between_them(self, tmp_path):
        exported(self.build(), tmp_path, [False, True, True, True])
        assert nx.read_graphml(tmp_path / "whole.graphml").number_of_nodes() == 4
        parsed = nx.read_graphml(tmp_path / "core.graphml")
        assert sorted(parsed.nodes) == ["b", "c", "d"]
        assert sorted(map(sorted, parsed.edges)) == [["b", "c"], ["c", "d"]]

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(graphml_ids, graphml_ids), min_size=1, max_size=6),
        st.sampled_from(["bot", "human", "unknown"]),
    )
    def test_graphml_round_trips_any_printable_id(self, tmp_path, pairs, user_class):
        """Any id the event parser accepts, printable or not, reads back unchanged."""
        scores = {}
        for i, (u, v) in enumerate(pairs):
            if u != v and (v, u) not in scores:
                scores[(u, v)] = 1.5 + i
        users = {u for pair in scores for u in pair}
        graph = build_sync_graph(
            scores,
            user_classes=dict.fromkeys(users, user_class),
            user_scores={u: 0.25 * len(u) for u in users},
        )
        path = tmp_path / "g.graphml"
        export(graph, {path: None})
        parsed = nx.read_graphml(path)
        graph = to_nx(graph)

        def edges(g):
            return sorted((*sorted((u, v)), w) for u, v, w in g.edges(data="weight"))

        assert sorted(parsed.nodes(data=True)) == sorted(graph.nodes(data=True))
        assert edges(parsed) == edges(graph)

    def test_export_is_byte_stable(self, tmp_path):
        one, two = tmp_path / "one.graphml", tmp_path / "two.graphml"
        export(self.build(), {one: None})
        export(self.build(), {two: None})
        assert one.read_bytes() == two.read_bytes()

    @given(st.text(st.sampled_from("ab\"'&<>\n\r\t xé")))
    def test_escapes_equal_saxutils(self, text):
        assert _escape(text) == saxutils.escape(text)
        assert _quoteattr(text) == saxutils.quoteattr(text)


@st.composite
def pair_tables(draw):
    """Scored pairs over a few ids, each given in either order, with bot
    classes and user scores that are absent or miss some users."""
    ids = draw(st.lists(st.text("abcxyz&<", min_size=1, max_size=3), min_size=2, max_size=12, unique=True))
    candidates = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]]
    scores = {}
    for u, v in draw(st.lists(st.sampled_from(candidates), unique=True, max_size=40)):
        pair = (v, u) if draw(st.booleans()) else (u, v)
        scores[pair] = draw(st.sampled_from([0.5, 1.0, 2.25]) | st.floats(0.0, 100.0))
    classes = draw(st.none() | st.dictionaries(st.sampled_from(ids), st.sampled_from(["bot", "human"])))
    users = draw(st.none() | st.dictionaries(st.sampled_from(ids), st.floats(0.0, 10.0)))
    return scores, classes, users


def named_edges(graph):
    return [(graph.nodes[a], graph.nodes[b], w) for a, b, w in zip(graph.sources, graph.targets, graph.weights)]


class TestMatchesNetworkx:
    """The Graph builders, pruning, GraphML text and simple metrics equal
    their former networkx definitions in tests/conftest.py."""

    @settings(max_examples=300, deadline=None)
    @given(pair_tables())
    def test_edge_order_equals_networkx(self, table):
        scores, _, _ = table
        assert named_edges(build_sync_graph(scores)) == list(nx_sync_graph(scores).edges(data="weight"))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair_tables(), st.integers(0, 7))
    @example(({("a", "b"): 1.0}, {"a": "bot"}, {"a": 1.0}), 5)  # pruned to nothing
    def test_prune_and_graphml_equal_k_core(self, tmp_path, table, k):
        scores, classes, users = table
        graph = build_sync_graph(scores, user_classes=classes, user_scores=users)
        reference = nx_sync_graph(scores, classes, users)
        core = prune_by_partner_count(graph, k)
        assert core_nodes(graph, core) == set(nx.k_core(reference, k))
        whole, pruned = exported(graph, tmp_path, core)
        assert whole == nx_graphml_text(reference)
        assert pruned == nx_graphml_text(nx.k_core(reference, k))

    @settings(max_examples=200, deadline=None)
    @given(pair_tables(), st.randoms(use_true_random=False))
    def test_simple_metrics_equal_former_definitions(self, table, rnd):
        scores, _, _ = table
        graph = build_sync_graph(scores)
        reference = nx_sync_graph(scores)
        if graph.number_of_nodes() >= 2:
            assert degree_centrality(graph) == nx_degree_centrality(reference)
            assert density(graph).hex() == nx_density(reference).hex()
        partition = {node: rnd.randrange(3) for node in graph.nodes}
        assert newman_modularity(graph, partition).hex() == nx_newman_modularity(reference, partition).hex()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")), max_size=20),
        st.lists(st.sampled_from("abcdefg"), max_size=5),
    )
    def test_allcomm_equals_networkx(self, tmp_path, ends, users):
        records = [interaction(u, v, t=t) for t, (u, v) in enumerate(ends)]
        graph = build_allcomm_graph(records, users=users)
        reference = nx_allcomm_graph(records, users=users)
        assert graph.nodes == sorted(reference.nodes)
        assert sorted(named_edges(graph)) == sorted((*sorted((u, v)), w) for u, v, w in reference.edges(data="weight"))
        assert exported(graph, tmp_path)[0] == nx_graphml_text(reference)
