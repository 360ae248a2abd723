"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them).
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import networkx as nx
import pytest

from conftest import (
    brute_force_detect,
    count_of,
    counts_from_mapping,
    eigenvector_residual,
    from_nx,
    naive_betweenness,
    random_actions,
    random_graph,
)
from syncindex.bots import BotScoreTable
from syncindex.csi import compute_tables
from syncindex.events import ActionRecord, extract_actions, filter_originals
from syncindex.graphs import build_sync_graph, prune_by_partner_count
from syncindex.metrics import (
    betweenness_centrality,
    density,
    eigenvector_centrality,
    newman_modularity,
    transitivity,
    triangle_counts,
)
from syncindex.pipeline import compare, run_pipeline, write_report_json
from syncindex.simulate import CohortSpec, SimConfig, generate
from syncindex.synchrony import detect

DATA = Path(__file__).parent / "data"


class criterion:
    """Context manager that prints the per-criterion verdict line."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.number:02d} {status}: {self.description}")
        return False


def test_criterion_01_oracle_equivalence():
    with criterion(1, "detect equals brute-force oracle on 200 random instances in < 10 s"):
        rng = random.Random(1001)
        started = time.perf_counter()
        for _ in range(200):
            actions = random_actions(rng, max_users=50, max_records=500, vocabulary=20)
            assert detect(actions) == brute_force_detect(actions)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.2f} s"


def test_criterion_02_csi_unit_fixtures():
    with criterion(2, "index unit fixtures reproduce to 1e-12; variants match closed forms"):
        one = counts_from_mapping({("u", "v"): {"hashtag": 1}})
        two = counts_from_mapping({("u", "v"): {"hashtag": 2, "url": 3}})
        three = counts_from_mapping({("u", "v"): {"hashtag": 1, "url": 1, "mention": 1}})
        assert compute_tables(one).pair_scores[("u", "v")] == pytest.approx(1.0, abs=1e-12)
        assert compute_tables(two).pair_scores[("u", "v")] == pytest.approx(8.0, abs=1e-12)
        assert compute_tables(three).pair_scores[("u", "v")] == pytest.approx(3.0, abs=1e-12)

        user_fixture = counts_from_mapping(
            {("u", "v"): {"hashtag": 2}, ("u", "w"): {"hashtag": 1}}
        )
        tables = compute_tables(user_fixture)
        assert tables.user_scores["u"] == pytest.approx(5.0, abs=1e-12)

        from syncindex.csi import csi_network

        assert csi_network({"a": 5.0, "b": 4.0, "c": 1.0}) == pytest.approx(10 / 3, abs=1e-12)

        from syncindex.csi import CsiConfig

        for counts, prose_expected, literal_expected in (
            (one, 1 * (1 - 1), 1 - 1),
            (two, 2 * (5 - 2), 5 - 4),
            (three, 3 * (3 - 3), 3 - 9),
        ):
            prose = compute_tables(counts, CsiConfig(pair_formula="prose")).pair_scores[("u", "v")]
            literal = compute_tables(counts, CsiConfig(pair_formula="literal")).pair_scores[("u", "v")]
            assert prose == pytest.approx(prose_expected, abs=1e-12)
            assert literal == pytest.approx(literal_expected, abs=1e-12)


def test_criterion_03_planted_coordination_recovery():
    with criterion(3, "planted 5-user/4-window cohort recovered, top-10 by pair score, deterministic"):
        config = SimConfig(
            seed=77,
            duration_seconds=4 * 3600,
            window_seconds=300,
            background_users=40,
            background_rate_per_hour=3.0,
            cohorts=(CohortSpec(member_count=5, user_class="bot", windows_active=4),),
        )

        def build():
            dataset, truth = generate(config)
            actions = extract_actions(filter_originals(dataset))
            counts = detect(actions, config.window_seconds)
            return actions, counts, truth

        actions, counts, truth = build()
        planted_pairs = {(p.user_u, p.user_v) for p in truth.pairs}
        assert len(planted_pairs) == 10
        for p in truth.pairs:
            assert count_of(counts, p.user_u, p.user_v, p.action_type) >= p.min_count

        scores = compute_tables(counts).pair_scores
        top10 = {
            pair
            for pair, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        }
        assert top10 == planted_pairs

        for _ in range(3):
            _, again, _ = build()
            assert again == counts
            assert compute_tables(again).pair_scores == scores



def test_criterion_04_metric_closed_forms():
    with criterion(4, "closed-form metric fixtures hold"):
        assert density(from_nx(nx.complete_graph(5))) == 1.0
        assert transitivity(triangle_counts(from_nx(nx.complete_graph(3)))) == 1.0
        path = from_nx(nx.Graph([("u", "v"), ("v", "w")]))
        assert betweenness_centrality(path)["v"] == pytest.approx(1.0)
        triangles = from_nx(nx.Graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
        q = newman_modularity(triangles, {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1})
        assert q == pytest.approx(0.5, abs=1e-9)
        rng = random.Random(404)
        for _ in range(5):
            graph = random_graph(rng, max_nodes=20)
            if graph.number_of_edges() == 0:
                continue
            for u, v in graph.edges:
                graph[u][v]["weight"] = rng.uniform(0.5, 5.0)
            values = eigenvector_centrality(from_nx(graph))
            assert eigenvector_residual(graph, values) < 1e-6


def test_criterion_05_brandes_vs_naive():
    with criterion(5, "Brandes agrees with naive path counting on 50 random graphs"):
        rng = random.Random(505)
        for _ in range(50):
            graph = random_graph(rng, max_nodes=30, edge_prob=rng.uniform(0.08, 0.4))
            mine = betweenness_centrality(from_nx(graph))
            oracle = naive_betweenness(graph)
            for node in graph.nodes:
                assert abs(mine[node] - oracle[node]) <= 1e-9


def test_criterion_06_monotonicity_suite():
    with criterion(6, "appending a synchronous event never lowers S, pair, or member scores"):
        rng = random.Random(606)
        for _ in range(100):
            actions = random_actions(rng, max_users=15, max_records=80, vocabulary=10)
            users = sorted({a.user_id for a in actions})
            anchor = actions[rng.randrange(len(actions))]
            partner = users[rng.randrange(len(users))]
            if partner == anchor.user_id:
                partner = f"{partner}_alt"
            extra = ActionRecord(partner, anchor.timestamp, anchor.action_type, anchor.artifact_id)

            before = detect(actions)
            after = detect(actions + [extra])
            for pair, actions in before.items():
                for action, count in actions.items():
                    assert count_of(after, *pair, action) >= count

            before_scores = compute_tables(before).pair_scores if before else {}
            after_scores = compute_tables(after).pair_scores if after else {}
            for pair, score in before_scores.items():
                assert after_scores[pair] >= score - 1e-12

            before_users = compute_tables(before).user_scores if before else {}
            after_users = compute_tables(after).user_scores if after else {}
            for member in (anchor.user_id, partner):
                assert after_users.get(member, 0.0) >= before_users.get(member, 0.0) - 1e-12


def test_criterion_07_boundary_semantics():
    with criterion(7, "threshold, bucket boundary, and k-core fixed point semantics"):
        assert BotScoreTable({"u": 0.70}).classify("u") == "human"
        assert BotScoreTable({"u": 0.71}).classify("u") == "bot"
        boundary = detect(
            [
                ActionRecord("u", 299, "hashtag", "x"),
                ActionRecord("v", 301, "hashtag", "x"),
            ]
        )
        assert not boundary
        star = build_sync_graph({("hub", f"leaf{i}"): 1.0 for i in range(4)})
        assert not any(prune_by_partner_count(star, 5))  # the empty core, a vacuous fixed point
        k6 = build_sync_graph({(f"u{i}", f"u{j}"): 1.0 for i in range(6) for j in range(i + 1, 6)})
        assert all(prune_by_partner_count(k6, 5))  # already a fixed point: every node has 5 partners


def test_criterion_08_end_to_end_determinism(tmp_path):
    with criterion(8, "golden 1,000-event fixture reproduces byte-identically in < 5 s"):
        events = DATA / "fixture_events.jsonl"
        bots = DATA / "fixture_bots.csv"
        golden = (DATA / "golden_report.json").read_bytes()
        with events.open() as handle:
            assert sum(1 for _ in handle) == 1000

        started = time.perf_counter()
        run_pipeline(events, tmp_path / "one", bots_path=bots)
        elapsed = time.perf_counter() - started
        run_pipeline(events, tmp_path / "two", bots_path=bots)

        first = (tmp_path / "one" / "report.json").read_bytes()
        second = (tmp_path / "two" / "report.json").read_bytes()
        assert first == golden
        assert second == golden
        assert elapsed < 5.0, f"pipeline took {elapsed:.2f} s"


def test_criterion_09_single_vs_combined_consistency():
    with criterion(9, "single-action pipelines recombine exactly into the combined score"):
        counts = counts_from_mapping(
            {
                ("a", "b"): {"hashtag": 2},
                ("c", "d"): {"hashtag": 1},
                ("e", "f"): {"url": 3},
                ("a", "g"): {"mention": 1},
            }
        )
        tables = compute_tables(counts)
        combined_total = tables.network_score * len(tables.user_scores)

        recombined = 0.0
        for action, single in tables.per_action_network.items():
            users = {u for pair, actions in counts.items() if action in actions for u in pair}
            recombined += single * len(users)
        assert recombined == combined_total == 30.0  # integer-valued fixture: exact
        assert tables.network_score == 30 / 7


def test_criterion_10_compare_ordering_fixture(tmp_path):
    with criterion(10, "published per-event scores rank in ascending order"):
        published = [
            ("black_panther_2018", 2.81),
            ("charlie_hebdo_2020", 4.16),
            ("reopen_america_2020", 12.42),
            ("covid_vaccine_2021", 2.57),
            ("us_elections_primaries_2020", 33.73),
            ("capitol_riots_2021", 9.05),
        ]
        paths = []
        for label, value in published:
            report = {"event_label": label, "csi_network_combined": value}
            paths.append(write_report_json(report, tmp_path / f"{label}.json"))
        ranking = compare(paths)
        assert [label for label, _ in ranking] == [
            "covid_vaccine_2021",
            "black_panther_2018",
            "charlie_hebdo_2020",
            "capitol_riots_2021",
            "reopen_america_2020",
            "us_elections_primaries_2020",
        ]
        assert [value for _, value in ranking] == sorted(v for _, v in published)
