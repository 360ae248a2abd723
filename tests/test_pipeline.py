from __future__ import annotations

import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import printable_ids
import syncindex
from syncindex import cli
from syncindex import csi as csimod
from syncindex import metrics as metricmod
from syncindex import synchrony
from syncindex.events import write_events_jsonl
from syncindex.metrics import node_centralities
from syncindex.pipeline import (
    EventReport,
    PipelineOptions,
    ReportParseError,
    compare,
    round_floats,
    run_pipeline,
    structure_section,
    write_centrality_csv,
    write_report_json,
)
from syncindex.simulate import (
    CohortSpec,
    SimConfig,
    bot_scores_from_truth,
    generate,
    write_bot_scores_csv,
)


@pytest.fixture(scope="module")
def sim_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("simdata")
    config = SimConfig(
        seed=11,
        duration_seconds=3 * 3600,
        window_seconds=300,
        background_users=15,
        background_rate_per_hour=2.0,
        cohorts=(
            CohortSpec(member_count=5, user_class="bot", windows_active=4),
            CohortSpec(member_count=3, user_class="human", action_types=("url",), windows_active=2),
        ),
    )
    dataset, truth = generate(config)
    events = write_events_jsonl(dataset, root / "events.jsonl")
    bots = write_bot_scores_csv(bot_scores_from_truth(truth), root / "bots.csv")
    return events, bots, truth


@pytest.fixture(scope="module")
def no_sync_inputs(tmp_path_factory):
    """Five users, each with its own hashtag, hours apart: no synchronized pairs."""
    root = tmp_path_factory.mktemp("nosync")
    lines = [
        json.dumps(
            {
                "post_id": f"p{i}",
                "user_id": f"u{i}",
                "timestamp": i * 100_000,
                "post_type": "original",
                "hashtags": [f"#only{i}"],
            }
        )
        for i in range(5)
    ]
    events = root / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    bots = root / "bots.csv"
    bots.write_text("user_id,score\nu0,0.9\nu1,0.1\n")
    return events, bots


# Files written by both `report` and the stage chain.
SHARED_ARTIFACTS = (
    "pair_counts.csv",
    "pairs.csv",
    "users.csv",
    "network.json",
    "sync.graphml",
    "sync_pruned.graphml",
    "metrics.json",
)


class TestRunPipeline:
    def test_report_fields_and_artifacts(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out = tmp_path / "out"
        report = run_pipeline(events, bots_path=bots, out_dir=out)
        assert report.csi_network_combined is not None
        assert report.reason is None
        assert report.structure is not None
        assert 0.0 <= report.structure["density"] <= 1.0
        for name in (
            "pair_counts.csv",
            "pairs.csv",
            "users.csv",
            "network.json",
            "sync.graphml",
            "sync_pruned.graphml",
            "metrics.json",
            "centrality_by_action_types.csv",
            "report.json",
        ):
            assert (out / name).exists(), name

    def test_dominant_class_matches_planted_cohort(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        report = run_pipeline(events, bots_path=bots, out_dir=None)
        # the 5-member 4-window bot cohort dominates the 3-member 2-window human one
        assert report.dominant_sync_class == "bot"
        assert report.avg_csi_user_by_user_class["bot"]["mean"] > report.avg_csi_user_by_user_class["human"]["mean"]

    def test_network_equals_mean_of_emitted_user_scores(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out = tmp_path / "out"
        report = run_pipeline(events, bots_path=bots, out_dir=out)
        from syncindex.csi import read_user_scores_csv

        users = read_user_scores_csv(out / "users.csv")
        mean = sum(users.values()) / len(users)
        assert abs(report.csi_network_combined - mean) < 1e-9

    def test_byte_identical_reports_across_runs(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_pipeline(events, bots_path=bots, out_dir=out1)
        run_pipeline(events, bots_path=bots, out_dir=out2)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "sync.graphml").read_bytes() == (out2 / "sync.graphml").read_bytes()

    def test_missing_bots_omits_class_sections(self, sim_inputs):
        events, _, _ = sim_inputs
        report = run_pipeline(events)
        assert report.avg_csi_user_by_user_class is None
        assert report.centrality_by_class is None
        assert report.dominant_sync_class is None
        assert any("bot scores" in note for note in report.notices)

    def test_no_synchrony_report(self, no_sync_inputs, tmp_path):
        events, _ = no_sync_inputs
        report = run_pipeline(events, out_dir=tmp_path / "out")
        assert report.csi_network_combined is None
        assert report.reason == "no synchronized pairs detected"
        assert (tmp_path / "out" / "report.json").exists()
        assert json.loads((tmp_path / "out" / "metrics.json").read_text()) == {}

    @pytest.mark.parametrize("inputs", ["sim_inputs", "no_sync_inputs"])
    def test_stage_chain_matches_report(self, inputs, request, tmp_path):
        events, bots = request.getfixturevalue(inputs)[:2]
        full, stage = tmp_path / "full", tmp_path / "stage"
        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(full)]) == 0
        staged = ["--pairs", str(stage / "pairs.csv"), "--users", str(stage / "users.csv"), "--bots", str(bots)]
        for argv in (
            ["ingest", "--events", str(events)],
            ["detect", "--events", str(stage / "events.jsonl")],
            ["score", "--pairs", str(stage / "pair_counts.csv")],
            ["graph", *staged],
            ["metrics", *staged, "--events", str(stage / "events.jsonl")],
        ):
            assert cli.main([*argv, "--out", str(stage)]) == 0, argv[0]
        for name in SHARED_ARTIFACTS:
            assert (stage / name).read_bytes() == (full / name).read_bytes(), name

    def test_language_filter_drops_everything_when_tagless(self, sim_inputs, tmp_path):
        events, _, _ = sim_inputs
        report = run_pipeline(events, options=PipelineOptions(lang="xx"))
        assert report.csi_network_combined is None


# Ids holding the CSV separator and quote, line breaks, tabs and spaces; the
# parser strips ids, so each is wrapped in letters.
odd_ids = st.text(st.sampled_from([",", '"', "\n", "\r", "\t", " ", "a"]), min_size=1, max_size=5).map(
    lambda core: f"u{core}z"
)


@settings(max_examples=12, deadline=None)
@given(st.lists(odd_ids, min_size=3, max_size=9, unique=True), st.randoms(use_true_random=False))
def test_stage_chain_matches_report_on_odd_ids(tmp_path_factory, users, rnd):
    root = tmp_path_factory.mktemp("odd")
    lines = []
    for i, user in enumerate(users):
        post = {"post_id": f"p{i}", "user_id": user, "timestamp": 60 * rnd.randrange(3),
                "post_type": "original", "hashtags": [f"#h{rnd.randrange(2)}"]}
        if rnd.random() < 0.5:
            post["mentions"] = [f"@{rnd.choice(users)}"]
        lines.append(json.dumps(post))
        target = rnd.choice(users)
        if target != user:
            lines.append(json.dumps({"source_user": user, "target_user": target,
                                     "interaction_type": "retweet", "timestamp": 100 + i}))
    events = root / "events.jsonl"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bots = root / "bots.csv"
    with bots.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "score"])
        writer.writerows([user, rnd.choice(["0.1", "0.9"])] for user in users[1:])
    full, stage = root / "full", root / "stage"
    assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(full)]) == 0
    staged = ["--pairs", str(stage / "pairs.csv"), "--users", str(stage / "users.csv"), "--bots", str(bots)]
    for argv in (
        ["ingest", "--events", str(events)],
        ["detect", "--events", str(stage / "events.jsonl")],
        ["score", "--pairs", str(stage / "pair_counts.csv")],
        ["graph", *staged],
        ["metrics", *staged, "--events", str(stage / "events.jsonl")],
    ):
        assert cli.main([*argv, "--out", str(stage)]) == 0, argv[0]
    for name in SHARED_ARTIFACTS:
        assert (stage / name).read_bytes() == (full / name).read_bytes(), name


# Stage-table cells: ids, action types and numbers, well formed or not.
stage_cells = st.one_of(
    st.sampled_from(["a", "b", "c", "hashtag", "url", "mention", "Hashtag", "1", "2", "0", "-1", "2.5",
                     "1e308", "nan", "1e999", "", "9" * 5000, "9" * 400]),
    st.text(st.sampled_from(["a", "b", "1", ",", '"', "\x01", "\n", " ", "."]), max_size=4),
)


def stage_tables(columns: tuple[str, ...]):
    """(header, rows) of a stage table: its columns, some dropped, reordered or
    extra, over rows of any length."""
    header = st.one_of(st.permutations(columns), st.lists(st.sampled_from([*columns, "extra"]), max_size=6))
    return st.tuples(header, st.lists(st.lists(stage_cells, max_size=6), max_size=5))


@settings(max_examples=120, deadline=None)
@given(
    counts=stage_tables(synchrony.PAIR_COUNT_COLUMNS),
    pairs=stage_tables(csimod.PAIR_COLUMNS),
    users=stage_tables(csimod.USER_COLUMNS),
)
def test_stage_tables_exit_0_or_2(tmp_path_factory, counts, pairs, users):
    root = tmp_path_factory.mktemp("tables")
    for name, (header, rows) in (("pair_counts.csv", counts), ("pairs.csv", pairs), ("users.csv", users)):
        with (root / name).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
    scored = ["--pairs", str(root / "pairs.csv"), "--users", str(root / "users.csv")]
    for argv in (
        ["score", "--pairs", str(root / "pair_counts.csv")],
        ["graph", *scored],
        ["metrics", *scored],
    ):
        assert cli.main([*argv, "--out", str(root / argv[0])]) in (0, 2), argv[0]


def test_every_table_has_one_dialect(sim_inputs, no_sync_inputs, tmp_path):
    """Every CSV the package writes ends its lines in "\\r\\n", header-only ones included."""
    for inputs in (sim_inputs, no_sync_inputs):
        events, bots = inputs[:2]
        out = tmp_path / events.parent.name
        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--format", "csv",
                         "--out", str(out)]) == 0
        assert cli.main(["metrics", "--pairs", str(out / "pairs.csv"), "--events", str(events),
                         "--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert len(tables) == 6
        for table in tables:
            data = table.read_bytes()
            assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n"), table.name


def test_run_pipeline_counts_action_types_once(sim_inputs, monkeypatch):
    calls = []
    count = synchrony.user_action_type_counts
    monkeypatch.setattr(synchrony, "user_action_type_counts", lambda counts: calls.append(counts) or count(counts))
    events, bots, _ = sim_inputs
    report = run_pipeline(events, bots_path=bots)
    assert len(calls) == 1
    assert report.action_type_participation == {
        str(level): value for level, value in synchrony.action_type_participation(calls[0]).items()
    }


def test_report_independent_of_hash_seed(tmp_path):
    """String hashing is randomized per process; no artifact may depend on it."""
    data = Path(__file__).parent / "data"
    env = dict(os.environ, PYTHONPATH=str(Path(syncindex.__file__).resolve().parents[1]))
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        argv = [
            sys.executable, "-m", "syncindex.cli", "report",
            "--events", str(data / "fixture_events.jsonl"),
            "--bots", str(data / "fixture_bots.csv"),
            "--out", str(out),
        ]
        subprocess.run(argv, env={**env, "PYTHONHASHSEED": seed}, check=True, capture_output=True)
        outputs.append(out)
    names = (*SHARED_ARTIFACTS, "centrality_by_action_types.csv", "report.json")
    assert sorted(p.name for p in outputs[0].iterdir()) == sorted(names)
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), name


def test_structure_section_counts_triangles_once(monkeypatch):
    calls = []
    count = metricmod.triangle_counts
    monkeypatch.setattr(
        metricmod, "triangle_counts", lambda graph, **kwargs: calls.append(graph) or count(graph, **kwargs)
    )
    sync = nx.Graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    section = structure_section(sync, None, None, seed=0)
    assert calls == [sync]
    assert section["transitivity"] == metricmod.transitivity(sync)
    assert section["avg_local_clustering"] == metricmod.avg_local_clustering(sync)


def test_transitivity_without_triples_warns_once(tmp_path, caplog):
    """One synchronized pair (u0 bot, u1 human) and a late third post: the sync,
    bot and human graphs all lack connected triples."""
    lines = [
        json.dumps(
            {"post_id": f"p{i}", "user_id": f"u{i}", "timestamp": t, "post_type": "original", "hashtags": ["#x"]}
        )
        for i, t in enumerate((0, 10, 100_000))
    ]
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    bots = tmp_path / "bots.csv"
    bots.write_text("user_id,score\nu0,0.9\nu1,0.1\n")
    with caplog.at_level(logging.WARNING, logger="syncindex"):
        report = run_pipeline(events, bots_path=bots, out_dir=tmp_path / "out")
    assert report.structure["transitivity"] == 0.0
    assert [r.getMessage() for r in caplog.records if "triples" in r.getMessage()] == [
        "no connected triples: transitivity reported as 0 for sync, bot, human"
    ]


class TestCentralityCsv:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(printable_ids, min_size=1, max_size=6, unique=True))
    def test_round_trips_any_printable_id(self, tmp_path, users):
        centralities = node_centralities(nx.path_graph(users))
        path = tmp_path / "centrality.csv"
        write_centrality_csv(centralities, path)
        with path.open(encoding="utf-8", newline="") as handle:
            rows = {
                row["user_id"]: (float(row["total_degree"]), float(row["betweenness"]), float(row["eigenvector"]))
                for row in csv.DictReader(handle)
            }
        assert rows == {
            user: (centralities.degree[user], centralities.betweenness[user], centralities.eigenvector[user])
            for user in users
        }


class TestReportSerialization:
    def test_six_significant_digits(self):
        assert round_floats(1.23456789) == 1.23457
        assert round_floats(0.000123456789) == 0.000123457
        assert round_floats({"x": [1 / 3]}) == {"x": [0.333333]}
        assert round_floats(True) is True
        assert round_floats(7) == 7

    def test_json_text_stable(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        report = run_pipeline(events, bots_path=bots)
        first = write_report_json(report, tmp_path / "one.json").read_bytes()
        assert write_report_json(report, tmp_path / "two.json").read_bytes() == first
        payload = json.loads(first)
        assert payload["event_label"] == report.event_label


class TestCompare:
    def write_report(self, path, label, value):
        report = EventReport(
            event_label=label,
            config={},
            counts={},
            action_type_participation={},
            csi_network_combined=value,
        )
        write_report_json(report, path)
        return path

    def test_orders_ascending(self, tmp_path):
        paths = [
            self.write_report(tmp_path / "a.json", "mid", 9.05),
            self.write_report(tmp_path / "b.json", "low", 2.57),
            self.write_report(tmp_path / "c.json", "high", 33.73),
        ]
        ranking = compare(paths)
        assert [label for label, _ in ranking] == ["low", "mid", "high"]

    def test_singleton(self, tmp_path):
        path = self.write_report(tmp_path / "one.json", "only", 1.5)
        assert compare([path]) == [("only", 1.5)]

    def test_ties_break_by_label(self, tmp_path):
        paths = [
            self.write_report(tmp_path / "a.json", "zeta", 2.0),
            self.write_report(tmp_path / "b.json", "alpha", 2.0),
        ]
        assert [label for label, _ in compare(paths)] == ["alpha", "zeta"]

    def test_malformed_named_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ReportParseError) as err:
            compare([bad])
        assert "bad.json" in str(err.value)

    def test_null_score_is_parse_error(self, tmp_path):
        path = self.write_report(tmp_path / "null.json", "empty", None)
        with pytest.raises(ReportParseError):
            compare([path])


class TestCli:
    def test_end_to_end_subcommands(self, sim_inputs, tmp_path, capsys):
        events, bots, _ = sim_inputs
        out = tmp_path / "cli"
        assert cli.main(["ingest", "--events", str(events), "--out", str(out)]) == 0
        assert cli.main(["detect", "--events", str(out / "events.jsonl"), "--out", str(out)]) == 0
        assert cli.main(["score", "--pairs", str(out / "pair_counts.csv"), "--out", str(out)]) == 0
        assert cli.main(
            ["graph", "--pairs", str(out / "pairs.csv"), "--users", str(out / "users.csv"), "--out", str(out)]
        ) == 0
        assert cli.main(
            [
                "metrics",
                "--pairs", str(out / "pairs.csv"),
                "--users", str(out / "users.csv"),
                "--events", str(out / "events.jsonl"),
                "--out", str(out),
            ]
        ) == 0
        assert cli.main(
            ["report", "--events", str(events), "--bots", str(bots), "--out", str(out / "rep")]
        ) == 0
        assert (out / "metrics.json").exists()
        assert (out / "centrality.csv").exists()
        capsys.readouterr()

    def test_simulate_subcommand(self, tmp_path):
        config = {
            "seed": 5,
            "duration_seconds": 3600,
            "background_users": 3,
            "cohorts": [{"member_count": 3, "windows_active": 2}],
        }
        config_path = tmp_path / "sim.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "events.jsonl").exists()
        assert (out / "ground_truth.csv").exists()
        assert (out / "bots.csv").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        r1 = tmp_path / "one.json"
        r2 = tmp_path / "two.json"
        TestCompare().write_report(r1, "one", 5.0)
        TestCompare().write_report(r2, "two", 1.0)
        assert cli.main(["compare", str(r1), str(r2)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("two")
        assert lines[1].endswith("one")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["report"])  # missing --events
        assert err.value.code == 1

    def test_unknown_subcommand_exit_code(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1

    def test_data_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.jsonl"
        assert cli.main(["report", "--events", str(missing), "--out", str(tmp_path)]) == 2

    def test_bad_byte_line_is_counted_not_fatal(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        good = b'{"post_id": "p1", "user_id": "a", "timestamp": 1, "post_type": "original"}'
        events.write_bytes(good + b"\n" + good.replace(b'"a"', b'"\xff"').replace(b"p1", b"p2") + b"\n")
        assert cli.main(["ingest", "--events", str(events), "--out", str(tmp_path / "out")]) == 0
        assert "1 posts, 0 interactions, 1 malformed lines" in capsys.readouterr().out

    def test_non_finite_user_score_is_data_error(self, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "user_u,user_v,num_action_types,s_total,csi_userpair\n"
            "a,b,1,1,1.0\na,c,1,1,1.0\nb,c,1,1,1.0\n"
        )
        users = tmp_path / "users.csv"
        users.write_text("user_id,csi_user\na,2.0\nb,nan\nc,1.0\n")
        argv = ["metrics", "--pairs", str(pairs), "--users", str(users), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == 2

    def test_xml_forbidden_stage_id_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "pair_counts.csv"
        counts.write_text("user_u,user_v,action_type,count\na\x01b,c,hashtag,2\n")
        assert cli.main(["score", "--pairs", str(counts), "--out", str(tmp_path / "s")]) == 2
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\na\x01b,c,1,2,2.0\n")
        assert cli.main(["graph", "--pairs", str(pairs), "--out", str(tmp_path / "g")]) == 2
        assert not (tmp_path / "g" / "sync.graphml").exists()
        assert "line 2: user_u holds a character XML 1.0 forbids" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("stage", "name", "text", "message"),
        [
            ("score", "pair_counts.csv", "user_u,user_v,action_type,count\na,b,hashtag\n", "line 2: 3 cells, header has 4"),
            ("score", "pair_counts.csv", "user_u,user_v\na,b\n", "line 1: header lacks column action_type"),
            ("graph", "pairs.csv", "user_u,user_v,num_action_types,s_total,csi_userpair\na,b,1,2\n",
             "line 2: 4 cells, header has 5"),
        ],
        ids=["short-pair-count-row", "pair-counts-without-action-type", "short-pair-score-row"],
    )
    def test_malformed_stage_table_is_data_error(self, tmp_path, capsys, stage, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        assert cli.main([stage, "--pairs", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    def test_unknown_action_type_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "pair_counts.csv"
        counts.write_text("user_u,user_v,action_type,count\na,b,Hashtag,2\nb,c,bogus,3\n")
        assert cli.main(["score", "--pairs", str(counts), "--out", str(tmp_path / "s")]) == 2
        assert f"{counts}: line 2: unknown action_type 'Hashtag'" in capsys.readouterr().err
        assert not (tmp_path / "s" / "network.json").exists()

    def test_csv_report_format(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out = tmp_path / "csvrep"
        assert cli.main(
            ["report", "--events", str(events), "--bots", str(bots), "--out", str(out), "--format", "csv"]
        ) == 0
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()

    def test_control_character_id_is_one_malformed_line(self, tmp_path, capsys):
        lines = [
            json.dumps({"post_id": f"p{i}", "user_id": user, "timestamp": 100 + i, "post_type": "original",
                        "hashtags": ["#same"]})
            for i, user in enumerate(("a\u0001b", "c", "d"))
        ]
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"

        assert cli.main(["report", "--events", str(events), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["counts"]["malformed_lines"] == 1
        graph = nx.read_graphml(out / "sync.graphml")
        assert sorted(graph.nodes) == ["c", "d"]
        capsys.readouterr()

    def test_unconverged_eigenvector_reported_as_null(self, tmp_path, capsys):
        # Two reply chains (7 and 6 users) have close spectral radii, so power
        # iteration does not converge within its budget; s1 and s2 share a hashtag.
        lines = [
            json.dumps({"post_id": f"q{i}", "user_id": user, "timestamp": 100 + i, "post_type": "original",
                        "hashtags": ["#same"]})
            for i, user in enumerate(("s1", "s2"))
        ]
        for prefix, length in (("a", 7), ("b", 6)):
            lines += [
                json.dumps({"source_user": f"{prefix}{i}", "target_user": f"{prefix}{i + 1}",
                            "interaction_type": "reply", "timestamp": 200 + i})
                for i in range(length - 1)
            ]
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        bots = tmp_path / "bots.csv"
        bots.write_text("user_id,score\ns1,0.9\ns2,0.1\n")
        full = tmp_path / "full"

        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(full)]) == 0
        report = json.loads((full / "report.json").read_text())
        assert {cls: row["eigenvector"] for cls, row in report["centrality_by_class"].items()} == {
            "bot": None,
            "human": None,
        }
        assert "eigenvector centrality did not converge; reported as null" in report["notices"]
        with (full / "centrality_by_action_types.csv").open(newline="") as handle:
            assert [row["eigenvector"] for row in csv.DictReader(handle)] == ["", ""]

        argv = ["metrics", "--pairs", str(full / "pairs.csv"), "--events", str(events), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == 0
        with (tmp_path / "m" / "centrality.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 15
        assert {row["eigenvector"] for row in rows} == {""}
        capsys.readouterr()
