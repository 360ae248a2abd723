from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    from_nx,
    induced_subgraph,
    table_average_csi_by_pair_class,
    table_average_csi_by_user_class,
    table_centrality_by_class,
    table_pair_class,
)
from syncindex.bots import (
    BotScoreTable,
    ScoreError,
    average_csi_by_pair_class,
    average_csi_by_user_class,
    centrality_by_class,
    class_triangle_counts,
    clustering_by_class,
    load_bot_scores,
    pair_class,
    user_classes,
)
from syncindex.graphs import build_allcomm_graph, build_sync_graph
from syncindex.metrics import Centralities, node_centralities, transitivity, triangle_counts
from syncindex.events import InteractionRecord
from syncindex.pipeline import sync_graph


def table(scores, threshold=0.70):
    return BotScoreTable(scores=scores, threshold=threshold)


class TestClassify:
    @pytest.mark.parametrize("score,expected", [(0.71, "bot"), (0.70, "human"), (0.0, "human"), (1.0, "bot")])
    def test_threshold_is_strict(self, score, expected):
        assert table({"a": score}).classify("a") == expected

    @pytest.mark.parametrize("score", [-0.1, 1.2])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ScoreError):
            table({"a": score}).classify("a")

    def test_unknown_when_unscored(self):
        assert table({"a": 0.9}).classify("b") == "unknown"

    def test_threshold_one_makes_everyone_human(self):
        scores = {"a": 0.2, "b": 0.9, "c": 1.0}
        t = table(scores, threshold=1.0)
        assert {t.classify(u) for u in scores} == {"human"}

    def test_threshold_below_min_makes_everyone_bot(self):
        scores = {"a": 0.2, "b": 0.9}
        t = table(scores, threshold=0.1)
        assert {t.classify(u) for u in scores} == {"bot"}

    def test_pair_class_symmetric(self):
        t = table({"bot": 0.9, "hum": 0.1})
        bot, hum = t.classify("bot"), t.classify("hum")
        assert pair_class(bot, hum) == pair_class(hum, bot) == "bot-human"

    def test_table_rejects_bad_scores(self):
        with pytest.raises(ScoreError):
            table({"a": 1.5})

    @pytest.mark.parametrize("threshold", [math.nan, -0.1, 2.0])
    def test_table_rejects_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ScoreError, match="threshold outside"):
            table({"a": 0.9}, threshold=threshold)


class TestLoad:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score\nalice,0.95\nbob,0.10\n")
        t = load_bot_scores(path)
        assert t.classify("alice") == "bot"
        assert t.classify("bob") == "human"

    def test_header_required(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text("alice,0.95\n")
        with pytest.raises(ScoreError):
            load_bot_scores(path)

    def test_bad_rows_rejected_not_fatal(self, tmp_path):
        path = tmp_path / "bots.csv"
        rows = ["alice,0.95", "bob,notanumber", "carol,1.7", "dave,\uff10.1", "erin,0_1"]
        path.write_text("user_id,score\n" + "\n".join(rows) + "\n", encoding="utf-8")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice"}
        assert t.rejected == 4

    def test_bad_byte_row_rejected_not_fatal(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_bytes(b"user_id,score\nalice,0.95\nb\xffb,0.10\n")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice"}
        assert t.rejected == 1

    def test_cell_over_field_limit_row_rejected(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text(f"user_id,score\nalice,0.95\n{'b' * 200_000},0.10\ncarol,0.2\n", encoding="utf-8")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice", "carol"}
        assert t.rejected == 1

    def test_header_over_field_limit_is_score_error(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text(f"user_id,{'s' * 200_000}\nalice,0.95\n", encoding="utf-8")
        with pytest.raises(ScoreError, match="field larger than field limit"):
            load_bot_scores(path)

    def test_repeated_user_keeps_first_row(self, tmp_path, caplog):
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score\nc0_u000,0.95\nbob,0.10\nc0_u000,0.10\n c0_u000 ,0.2\n")
        with caplog.at_level(logging.WARNING, logger="syncindex.bots"):
            t = load_bot_scores(path)
        assert t.scores == {"c0_u000": 0.95, "bob": 0.10}
        assert t.classify("c0_u000") == "bot"
        assert t.rejected == 2
        assert [r.getMessage() for r in caplog.records] == [f"rejected 2 bot score rows from {path}"]

    def test_repeated_column_reads_the_last(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score,score\nalice,0.95,0.10\nbob,0.10,0.95\n")
        t = load_bot_scores(path)
        assert t.scores == {"alice": 0.10, "bob": 0.95}
        assert t.rejected == 0

    def test_nul_byte_row_rejected(self, tmp_path):
        # Python 3.10's csv module cannot read the row; later ones read it,
        # and the id then holds a character XML 1.0 forbids.
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score\nalice,0.95\nb\x00b,0.10\ncarol,0.2\n", encoding="utf-8")
        t = load_bot_scores(path)
        assert t.scores == {"alice": 0.95, "carol": 0.2}
        assert t.rejected == 1

    def test_xml_forbidden_id_row_rejected(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score\nalice,0.95\nb\x01b,0.10\nc\ufffe,0.2\n", encoding="utf-8")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice"}
        assert t.rejected == 2


def scored_graph(user_scores, t):
    """The sync graph report builds on the users of user_scores, joined in a path."""
    users = sorted(user_scores)
    return sync_graph({pair: 1.0 for pair in zip(users, users[1:])}, user_scores, t)


class TestPairClassAverages:
    def test_hand_means(self):
        t = table({"b1": 0.9, "b2": 0.8, "h1": 0.1, "h2": 0.2})
        pair_scores = {("b1", "b2"): 2.0, ("b1", "h1"): 4.0, ("h1", "h2"): 3.0}
        result = average_csi_by_pair_class(sync_graph(pair_scores, None, t))
        assert result == {
            "bot-bot": {"mean": 2.0, "count": 1},
            "bot-human": {"mean": 4.0, "count": 1},
            "human-human": {"mean": 3.0, "count": 1},
        }
        assert list(result) == sorted(result)

    def test_single_pair_single_key(self):
        t = table({"a": 0.9, "b": 0.9})
        result = average_csi_by_pair_class(sync_graph({("a", "b"): 5.0}, None, t))
        assert set(result) == {"bot-bot"}

    def test_unknown_reported_separately(self):
        t = table({"a": 0.9})
        result = average_csi_by_pair_class(sync_graph({("a", "mystery"): 5.0}, None, t))
        assert result == {"unknown-involved": {"mean": 5.0, "count": 1}}

    def test_counts_partition_pairs(self):
        t = table({"b": 0.9, "h": 0.1})
        pair_scores = {("b", "h"): 1.0, ("b", "x"): 1.0, ("h", "x"): 1.0}
        result = average_csi_by_pair_class(sync_graph(pair_scores, None, t))
        assert sum(row["count"] for row in result.values()) == len(pair_scores)
        assert result["unknown-involved"]["count"] == 2


class TestUserClassAverages:
    def test_mean_and_population_sd(self):
        t = table({"b1": 0.9, "b2": 0.8, "h1": 0.1})
        result, unknown = average_csi_by_user_class(scored_graph({"b1": 2.0, "b2": 4.0, "h1": 3.0}, t))
        assert result["bot"]["mean"] == pytest.approx(3.0)
        assert result["bot"]["sd"] == pytest.approx(1.0)
        assert result["human"]["mean"] == pytest.approx(3.0)
        assert result["human"]["sd"] == 0.0
        assert (result["bot"]["count"], result["human"]["count"], unknown) == (2, 1, 0)

    def test_single_user(self):
        t = table({"x": 0.9})
        result, _ = average_csi_by_user_class(scored_graph({"x": 7.0, "y": 1.0}, t))  # y is unscored
        assert result == {"bot": {"mean": 7.0, "sd": 0.0, "count": 1}}

    def test_unknowns_counted(self):
        t = table({"x": 0.9})
        result, unknown = average_csi_by_user_class(scored_graph({"x": 1.0, "ghost": 2.0}, t))
        assert unknown == 1
        assert "unknown" not in result


class TestCentralityByClass:
    def fixture(self):
        records = [
            InteractionRecord("b1", "h1", "retweet", 0),
            InteractionRecord("b1", "h2", "retweet", 1),
            InteractionRecord("h1", "h2", "mention", 2),
            InteractionRecord("b1", "x1", "quote", 3),
        ]
        return build_allcomm_graph(records)

    def test_hand_fixture_means(self):
        graph = self.fixture()
        t = table({"b1": 0.9, "h1": 0.1, "h2": 0.2})
        sync = sync_graph({("b1", "h1"): 1.0, ("h1", "h2"): 1.0}, None, t)
        result = centrality_by_class(node_centralities(graph), sync)
        from syncindex.metrics import betweenness_centrality, degree_centrality, eigenvector_centrality

        degrees = degree_centrality(graph)
        betweenness = betweenness_centrality(graph)
        eigen = eigenvector_centrality(graph)
        assert result["bot"]["total_degree"] == pytest.approx(degrees["b1"])
        assert result["bot"]["betweenness"] == pytest.approx(betweenness["b1"])
        assert result["human"]["eigenvector"] == pytest.approx((eigen["h1"] + eigen["h2"]) / 2)
        assert result["bot"]["count"] == 1
        assert result["human"]["count"] == 2

    def test_restricted_to_sync_users(self):
        graph = self.fixture()
        t = table({"b1": 0.9, "h1": 0.1, "h2": 0.2, "x1": 0.1, "y1": 0.1})
        sync = sync_graph({("b1", "y1"): 1.0}, None, t)  # y1 has no interaction
        result = centrality_by_class(node_centralities(graph), sync)
        assert set(result) == {"bot"}

    def test_single_class_only(self):
        graph = self.fixture()
        t = table({"h1": 0.1, "h2": 0.2})
        result = centrality_by_class(node_centralities(graph), sync_graph({("h1", "h2"): 1.0}, None, t))
        assert set(result) == {"human"}

    def test_empty_when_no_overlap(self):
        graph = self.fixture()
        t = table({"b1": 0.9, "nobody": 0.9})
        assert centrality_by_class(node_centralities(graph), sync_graph({("nobody", "z"): 1.0}, None, t)) == {}


def _hexed(obj):
    """obj with every float replaced by its float.hex text."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: _hexed(value) for key, value in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_hexed(value) for value in obj)
    return obj


values = st.one_of(st.floats(-1e9, 1e9), st.integers(0, 9).map(float))


class TestClassSectionsMatchTableOracles:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_graph_sections_equal_table_oracles(self, data):
        """The class sections on the sync graph equal, float for float, the
        former table-based sections on the pair and user score tables."""
        users = [f"u{i}" for i in range(data.draw(st.integers(2, 10)))]
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(users)), max_size=30))
        pair_scores = {}
        for u, v in pairs:
            if u != v and (v, u) not in pair_scores:  # either orientation, as pairs.csv may list it
                pair_scores[u, v] = data.draw(values)
        nodes = sorted({u for pair in pair_scores for u in pair})
        user_scores = {u: data.draw(values) for u in nodes}
        one_score = data.draw(st.sampled_from([None, 0.1, 0.9]))  # 0.1 or 0.9: a one-class table
        scores = st.just(one_score) if one_score is not None else st.one_of(
            st.sampled_from([0.0, 0.69, 0.70, 0.71, 1.0]), st.floats(0.0, 1.0)
        )
        scored = data.draw(st.lists(st.sampled_from(users), unique=True))
        t = table({u: data.draw(scores) for u in scored})
        present = data.draw(st.lists(st.sampled_from(users + ["w0", "w1"]), unique=True))
        unit = st.floats(0.0, 1.0)
        eigenvector = data.draw(st.booleans())
        centralities = Centralities(
            degree={u: data.draw(unit) for u in present},
            betweenness={u: data.draw(unit) for u in present},
            eigenvector={u: data.draw(unit) for u in present} if eigenvector else None,
        )

        sync = sync_graph(pair_scores, user_scores, t)
        assert _hexed(average_csi_by_pair_class(sync)) == _hexed(table_average_csi_by_pair_class(pair_scores, t))
        assert _hexed(average_csi_by_user_class(sync)) == _hexed(table_average_csi_by_user_class(user_scores, t))
        assert _hexed(centrality_by_class(centralities, sync)) == _hexed(
            table_centrality_by_class(centralities, t, set(user_scores))
        )
        for u, v in pair_scores:
            assert pair_class(t.classify(u), t.classify(v)) == table_pair_class(t, u, v)


class TestClusteringByClass:
    def test_triangle_vs_path(self):
        scores = {
            ("b1", "b2"): 1.0,
            ("b2", "b3"): 1.0,
            ("b1", "b3"): 1.0,
            ("h1", "h2"): 1.0,
            ("h2", "h3"): 1.0,
        }
        t = table({"b1": 0.9, "b2": 0.9, "b3": 0.9, "h1": 0.1, "h2": 0.1, "h3": 0.1})
        sync = build_sync_graph(scores, user_classes=user_classes(sorted({u for p in scores for u in p}), t))
        result = clustering_by_class(class_triangle_counts(sync))
        assert result == {"bot": 1.0, "human": 0.0}

    def test_empty_partition_key_absent(self):
        scores = {("h1", "h2"): 1.0}
        t = table({"h1": 0.1, "h2": 0.1})
        sync = build_sync_graph(scores, user_classes=user_classes(["h1", "h2"], t))
        result = clustering_by_class(class_triangle_counts(sync))
        assert set(result) == {"human"}

    def test_matches_induced_subgraph_transitivity(self):
        scores = {("b1", "b2"): 1.0, ("b2", "b3"): 2.0, ("b1", "b3"): 1.0, ("b1", "h1"): 1.0}
        t = table({"b1": 0.9, "b2": 0.9, "b3": 0.9, "h1": 0.1})
        classes = user_classes(["b1", "b2", "b3", "h1"], t)
        sync = build_sync_graph(scores, user_classes=classes)
        result = clustering_by_class(class_triangle_counts(sync))
        assert result["bot"] == transitivity(triangle_counts(from_nx(induced_subgraph(sync, "bot"))))
