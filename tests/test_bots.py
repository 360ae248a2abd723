from __future__ import annotations

import pytest

from conftest import from_nx, induced_subgraph, pair_class_counts
from syncindex.bots import (
    BotScoreTable,
    ScoreError,
    average_csi_by_pair_class,
    average_csi_by_user_class,
    centrality_by_class,
    classify_user,
    class_triangle_totals,
    clustering_by_class,
    load_bot_scores,
    user_classes,
)
from syncindex.graphs import build_allcomm_graph, build_sync_graph
from syncindex.metrics import node_centralities, transitivity, triangle_counts
from syncindex.events import InteractionRecord


def table(scores, threshold=0.70):
    return BotScoreTable(scores=scores, threshold=threshold)


class TestClassify:
    @pytest.mark.parametrize("score,expected", [(0.71, "bot"), (0.70, "human"), (0.0, "human"), (1.0, "bot")])
    def test_threshold_is_strict(self, score, expected):
        assert classify_user(score) == expected

    @pytest.mark.parametrize("score", [-0.1, 1.2])
    def test_out_of_range_rejected(self, score):
        with pytest.raises(ScoreError):
            classify_user(score)

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
        assert t.pair_class("bot", "hum") == t.pair_class("hum", "bot") == "bot-human"

    def test_table_rejects_bad_scores(self):
        with pytest.raises(ScoreError):
            table({"a": 1.5})


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
        path.write_text("user_id,score\nalice,0.95\nbob,notanumber\ncarol,1.7\n")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice"}
        assert t.rejected == 2

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

    def test_xml_forbidden_id_row_rejected(self, tmp_path):
        path = tmp_path / "bots.csv"
        path.write_text("user_id,score\nalice,0.95\nb\x01b,0.10\nc\ufffe,0.2\n", encoding="utf-8")
        t = load_bot_scores(path)
        assert set(t.scores) == {"alice"}
        assert t.rejected == 2


class TestPairClassAverages:
    def test_hand_means(self):
        t = table({"b1": 0.9, "b2": 0.8, "h1": 0.1, "h2": 0.2})
        pair_scores = {("b1", "b2"): 2.0, ("b1", "h1"): 4.0, ("h1", "h2"): 3.0}
        result = average_csi_by_pair_class(pair_scores, t)
        assert result == {
            "bot-bot": {"mean": 2.0, "count": 1},
            "bot-human": {"mean": 4.0, "count": 1},
            "human-human": {"mean": 3.0, "count": 1},
        }
        assert list(result) == sorted(result)

    def test_single_pair_single_key(self):
        t = table({"a": 0.9, "b": 0.9})
        result = average_csi_by_pair_class({("a", "b"): 5.0}, t)
        assert set(result) == {"bot-bot"}

    def test_unknown_reported_separately(self):
        t = table({"a": 0.9})
        result = average_csi_by_pair_class({("a", "mystery"): 5.0}, t)
        assert result == {"unknown-involved": {"mean": 5.0, "count": 1}}

    def test_counts_partition_pairs(self):
        t = table({"b": 0.9, "h": 0.1})
        pair_scores = {("b", "h"): 1.0, ("b", "x"): 1.0, ("h", "x"): 1.0}
        counts = pair_class_counts(pair_scores, t)
        assert sum(counts.values()) == len(pair_scores)
        assert counts["unknown-involved"] == 2


class TestUserClassAverages:
    def test_mean_and_population_sd(self):
        t = table({"b1": 0.9, "b2": 0.8, "h1": 0.1})
        result, unknown = average_csi_by_user_class({"b1": 2.0, "b2": 4.0, "h1": 3.0}, t)
        assert result["bot"]["mean"] == pytest.approx(3.0)
        assert result["bot"]["sd"] == pytest.approx(1.0)
        assert result["human"]["mean"] == pytest.approx(3.0)
        assert result["human"]["sd"] == 0.0
        assert (result["bot"]["count"], result["human"]["count"], unknown) == (2, 1, 0)

    def test_single_user(self):
        t = table({"x": 0.9})
        result, _ = average_csi_by_user_class({"x": 7.0}, t)
        assert result == {"bot": {"mean": 7.0, "sd": 0.0, "count": 1}}

    def test_unknowns_counted(self):
        t = table({"x": 0.9})
        result, unknown = average_csi_by_user_class({"x": 1.0, "ghost": 2.0}, t)
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
        sync_users = {"b1", "h1", "h2"}
        result = centrality_by_class(node_centralities(graph), t, sync_users)
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
        t = table({"b1": 0.9, "h1": 0.1, "h2": 0.2, "x1": 0.1})
        result = centrality_by_class(node_centralities(graph), t, {"b1"})
        assert set(result) == {"bot"}

    def test_single_class_only(self):
        graph = self.fixture()
        t = table({"h1": 0.1, "h2": 0.2})
        result = centrality_by_class(node_centralities(graph), t, {"h1", "h2"})
        assert set(result) == {"human"}

    def test_empty_when_no_overlap(self):
        graph = self.fixture()
        t = table({"b1": 0.9})
        assert centrality_by_class(node_centralities(graph), t, {"nobody"}) == {}


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
        result = clustering_by_class(class_triangle_totals(sync))
        assert result == {"bot": 1.0, "human": 0.0}

    def test_empty_partition_key_absent(self):
        scores = {("h1", "h2"): 1.0}
        t = table({"h1": 0.1, "h2": 0.1})
        sync = build_sync_graph(scores, user_classes=user_classes(["h1", "h2"], t))
        result = clustering_by_class(class_triangle_totals(sync))
        assert set(result) == {"human"}

    def test_matches_induced_subgraph_transitivity(self):
        scores = {("b1", "b2"): 1.0, ("b2", "b3"): 2.0, ("b1", "b3"): 1.0, ("b1", "h1"): 1.0}
        t = table({"b1": 0.9, "b2": 0.9, "b3": 0.9, "h1": 0.1})
        classes = user_classes(["b1", "b2", "b3", "h1"], t)
        sync = build_sync_graph(scores, user_classes=classes)
        result = clustering_by_class(class_triangle_totals(sync))
        assert result["bot"] == transitivity(triangle_counts(from_nx(induced_subgraph(sync, "bot"))))
