from __future__ import annotations

import csv
import dataclasses
import gc
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import from_nx, printable_ids
import syncindex
from syncindex import cli
from syncindex import csi as csimod
from syncindex import metrics as metricmod
from syncindex import pipeline, synchrony
from syncindex.events import (
    ACTION_TYPES,
    INTERACTION_TYPES,
    dataset_lines,
    load_events,
    write_events_jsonl,
    write_json,
)
from syncindex.graphs import build_sync_graph
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


def run_chain(events: Path, bots: Path, stage: Path) -> None:
    """The five stages ingest, detect, score, graph and metrics (with --bots),
    each reading what the one before wrote into stage."""
    staged = ["--pairs", str(stage / "pairs.csv"), "--users", str(stage / "users.csv"), "--bots", str(bots)]
    for argv in (
        ["ingest", "--events", str(events)],
        ["detect", "--events", str(stage / "events.jsonl")],
        ["score", "--pairs", str(stage / "pair_counts.csv")],
        ["graph", *staged],
        ["metrics", *staged, "--events", str(stage / "events.jsonl")],
    ):
        assert cli.main([*argv, "--out", str(stage)]) == 0, argv[0]


def assert_same_files(one: Path, two: Path, names=None) -> None:
    """The named files (default: every file of either directory) are byte-identical."""
    if names is None:
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


class TestRunPipeline:
    def test_report_fields_and_artifacts(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out = tmp_path / "out"
        report = run_pipeline(events, out, bots_path=bots)
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
        report = run_pipeline(events, tmp_path, bots_path=bots)
        # the 5-member 4-window bot cohort dominates the 3-member 2-window human one
        assert report.dominant_sync_class == "bot"
        assert report.avg_csi_user_by_user_class["bot"]["mean"] > report.avg_csi_user_by_user_class["human"]["mean"]

    def test_network_equals_mean_of_emitted_user_scores(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out = tmp_path / "out"
        report = run_pipeline(events, out, bots_path=bots)
        from syncindex.csi import read_user_scores_csv

        users = read_user_scores_csv(out / "users.csv")
        mean = sum(users.values()) / len(users)
        assert abs(report.csi_network_combined - mean) < 1e-9

    def test_byte_identical_reports_across_runs(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_pipeline(events, out1, bots_path=bots)
        run_pipeline(events, out2, bots_path=bots)
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "sync.graphml").read_bytes() == (out2 / "sync.graphml").read_bytes()

    def test_missing_bots_omits_class_sections(self, sim_inputs, tmp_path):
        events, _, _ = sim_inputs
        report = run_pipeline(events, tmp_path)
        assert report.avg_csi_user_by_user_class is None
        assert report.centrality_by_class is None
        assert report.dominant_sync_class is None
        assert any("bot scores" in note for note in report.notices)

    def test_event_label_is_option_or_events_stem(self, no_sync_inputs, tmp_path):
        events, _ = no_sync_inputs
        assert run_pipeline(events, tmp_path / "a").event_label == "events"
        assert run_pipeline(events, tmp_path / "b", options=PipelineOptions(label="XYZ")).event_label == "XYZ"
        assert b'"event_label": "XYZ"' in (tmp_path / "b" / "report.json").read_bytes()

    def test_no_synchrony_report(self, no_sync_inputs, tmp_path):
        events, _ = no_sync_inputs
        report = run_pipeline(events, tmp_path / "out")
        assert report.csi_network_combined is None
        assert report.reason == "no synchronized pairs detected"
        assert (tmp_path / "out" / "report.json").exists()
        assert json.loads((tmp_path / "out" / "metrics.json").read_text()) == {}

    @pytest.mark.parametrize("inputs", ["sim_inputs", "no_sync_inputs"])
    def test_stage_chain_matches_report(self, inputs, request, tmp_path):
        events, bots = request.getfixturevalue(inputs)[:2]
        full, stage = tmp_path / "full", tmp_path / "stage"
        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(full)]) == 0
        run_chain(events, bots, stage)
        assert_same_files(stage, full, SHARED_ARTIFACTS)

    def test_post_id_repeated_across_files_counts_as_malformed(self, tmp_path, capsys):
        def post(post_id, user, timestamp):
            record = {"post_id": post_id, "user_id": user, "timestamp": timestamp, "post_type": "original",
                      "hashtags": ["#x"]}
            return json.dumps(record) + "\n"

        events, interactions = tmp_path / "events.jsonl", tmp_path / "interactions.jsonl"
        events.write_text(post("p1", "u1", 0) + post("p2", "u2", 10))
        interactions.write_text(post("p1", "u3", 20))
        full, stage = tmp_path / "full", tmp_path / "stage"
        files = ["--events", str(events), "--interactions", str(interactions)]
        assert cli.main(["report", *files, "--out", str(full)]) == 0
        counts = json.loads((full / "report.json").read_text())["counts"]
        assert (counts["posts"], counts["malformed_lines"], counts["sync_pairs"]) == (2, 1, 1)
        capsys.readouterr()
        assert cli.main(["ingest", *files, "--out", str(stage)]) == 0
        assert "2 posts, 0 interactions, 1 malformed lines" in capsys.readouterr().out
        assert cli.main(["detect", "--events", str(stage / "events.jsonl"), "--out", str(stage)]) == 0
        assert "1 pairs over 2 users" in capsys.readouterr().out
        assert (stage / "pair_counts.csv").read_bytes() == (full / "pair_counts.csv").read_bytes()

    def test_language_filter_drops_everything_when_tagless(self, sim_inputs, tmp_path):
        events, _, _ = sim_inputs
        report = run_pipeline(events, tmp_path, options=PipelineOptions(lang="xx"))
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
    run_chain(events, bots, stage)
    assert_same_files(stage, full, SHARED_ARTIFACTS)


@st.composite
def simulated_events(draw):
    """(events lines, bot scores) of a small simulated event: planted cohorts,
    background posts and random interactions. Post ids are unique, so every
    line is kept whatever the order."""
    cohorts = draw(st.lists(st.builds(
        CohortSpec,
        member_count=st.integers(2, 4),
        user_class=st.sampled_from(["bot", "human"]),
        action_types=st.lists(st.sampled_from(ACTION_TYPES), min_size=1, max_size=3, unique=True).map(tuple),
        windows_active=st.integers(1, 3),
    ), max_size=2))
    config = SimConfig(
        seed=draw(st.integers(0, 2**16)),
        duration_seconds=3600,
        background_users=draw(st.integers(0 if cohorts else 1, 6)),
        background_rate_per_hour=4.0,
        cohorts=tuple(cohorts),
    )
    dataset, truth = generate(config)
    lines = list(dataset_lines(dataset))
    users = sorted({post.user_id for post in dataset.posts})
    if users:
        interactions = st.tuples(st.sampled_from(users), st.sampled_from(users), st.sampled_from(INTERACTION_TYPES),
                                 st.integers(0, 3599))
        lines += [
            json.dumps({"source_user": u, "target_user": v, "interaction_type": kind, "timestamp": t})
            for u, v, kind, t in draw(st.lists(interactions, max_size=12))
        ]
    return lines, bot_scores_from_truth(truth)


def write_inputs(root: Path, lines: list[str], scores: dict[str, float]) -> tuple[Path, Path]:
    events = root / "events.jsonl"
    events.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return events, write_bot_scores_csv(scores, root / "bots.csv")


@settings(max_examples=15, deadline=None)
@given(simulated_events(), st.randoms(use_true_random=False))
def test_permuted_lines_give_identical_artifacts(tmp_path_factory, case, rnd):
    """Every artifact of report and of the stage chain is independent of line order."""
    lines, scores = case
    shuffled = rnd.sample(lines, len(lines))
    roots = []
    for order in (lines, shuffled):
        root = tmp_path_factory.mktemp("order")
        events, bots = write_inputs(root, order, scores)
        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(root / "full")]) == 0
        run_chain(events, bots, root / "stage")
        assert_same_files(root / "stage", root / "full", SHARED_ARTIFACTS)
        roots.append(root)
    for name in ("full", "stage"):
        assert_same_files(roots[0] / name, roots[1] / name)


@settings(max_examples=15, deadline=None)
@given(simulated_events(), st.sampled_from([60, 300, 900]), st.integers(1, 10**6))
def test_shift_by_whole_windows_gives_identical_artifacts(tmp_path_factory, case, window, windows):
    """Shifting every timestamp by a multiple of --window moves every post to
    the same bucket offset, so no report artifact changes."""
    lines, scores = case
    shifted = []
    for line in lines:
        record = json.loads(line)
        record["timestamp"] += windows * window
        shifted.append(json.dumps(record))
    outs = []
    for given_lines in (lines, shifted):
        root = tmp_path_factory.mktemp("shift")
        events, bots = write_inputs(root, given_lines, scores)
        argv = ["report", "--events", str(events), "--bots", str(bots), "--window", str(window)]
        assert cli.main([*argv, "--out", str(root / "full")]) == 0
        outs.append(root / "full")
    assert_same_files(*outs)


@settings(max_examples=15, deadline=None)
@given(simulated_events())
def test_split_posts_and_interactions_give_identical_artifacts(tmp_path_factory, case):
    """Posts in --events and interactions in --interactions give the report
    artifacts, and the ingest output, of one file holding both."""
    lines, scores = case
    is_post = ["source_user" not in json.loads(line) for line in lines]
    whole, split = tmp_path_factory.mktemp("whole"), tmp_path_factory.mktemp("split")
    events, bots = write_inputs(whole, lines, scores)
    posts, _ = write_inputs(split, [line for line, post in zip(lines, is_post) if post], scores)
    interactions = split / "interactions.jsonl"
    interactions.write_text("".join(line + "\n" for line, post in zip(lines, is_post) if not post), encoding="utf-8")
    for root, files in ((whole, ["--events", str(events)]),
                        (split, ["--events", str(posts), "--interactions", str(interactions)])):
        argv = ["report", *files, "--bots", str(bots), "--label", "L", "--out", str(root / "full")]
        assert cli.main(argv) == 0
        assert cli.main(["ingest", *files, "--out", str(root / "stage")]) == 0
    for name in ("full", "stage"):
        assert_same_files(whole / name, split / name)


@settings(max_examples=15, deadline=None)
@given(simulated_events(), st.text("xyz_", min_size=1, max_size=3))
def test_prefixed_user_ids_give_the_renamed_artifacts(tmp_path_factory, case, prefix):
    """A common prefix on every user id keeps the ids' order, so each report
    artifact is the original one with every id renamed."""
    lines, scores = case
    renamed = []
    for line in lines:
        record = json.loads(line)
        for key in ("user_id", "source_user", "target_user"):
            if key in record:
                record[key] = prefix + record[key]
        renamed.append(json.dumps(record))
    outs = []
    for given_lines, given_scores in ((lines, scores), (renamed, {prefix + u: s for u, s in scores.items()})):
        root = tmp_path_factory.mktemp("rename")
        events, bots = write_inputs(root, given_lines, given_scores)
        argv = ["report", "--events", str(events), "--bots", str(bots), "--label", "L"]
        assert cli.main([*argv, "--out", str(root / "full")]) == 0
        outs.append(root / "full")
    # bots.csv scores every simulated user, so its ids are all the ids.
    ids = re.compile(r"\b(?:%s)\b" % "|".join(map(re.escape, sorted(scores, key=len, reverse=True))))
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        original = (outs[0] / name).read_text(encoding="utf-8")
        assert ids.sub(lambda m: prefix + m.group(), original) == (outs[1] / name).read_text(encoding="utf-8"), name


def first_column(path: Path) -> list[str]:
    with path.open(encoding="utf-8", newline="") as handle:
        return [row[0] for row in csv.reader(handle)][1:]


@settings(max_examples=15, deadline=None)
@given(simulated_events())
def test_centrality_rows_are_the_scored_users(tmp_path_factory, case):
    """Every synchronizing user is a post author, so a node of the
    all-communication graph: centrality_by_action_types.csv lists exactly the
    users of users.csv, also when --lang drops every third post and the
    interactions come in their own file."""
    lines, _ = case
    posts, interactions = [], []
    for line in lines:
        record = json.loads(line)
        if "source_user" in record:
            interactions.append(line)
        else:
            record["lang"] = "de" if len(posts) % 3 == 0 else "en"
            posts.append(json.dumps(record))
    root = tmp_path_factory.mktemp("rows")
    (root / "events.jsonl").write_text("".join(line + "\n" for line in posts), encoding="utf-8")
    (root / "interactions.jsonl").write_text("".join(line + "\n" for line in interactions), encoding="utf-8")
    argv = ["report", "--events", str(root / "events.jsonl"), "--interactions", str(root / "interactions.jsonl"),
            "--lang", "en", "--out", str(root / "out")]
    assert cli.main(argv) == 0
    report = json.loads((root / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["counts"]["posts"] == len(posts) - len(posts[::3])
    assert first_column(root / "out" / "centrality_by_action_types.csv") == first_column(root / "out" / "users.csv")


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


def test_run_pipeline_counts_action_types_once(sim_inputs, monkeypatch, tmp_path):
    calls = []
    count = synchrony.user_action_type_counts
    monkeypatch.setattr(synchrony, "user_action_type_counts", lambda counts: calls.append(counts) or count(counts))
    events, bots, _ = sim_inputs
    report = run_pipeline(events, tmp_path, bots_path=bots)
    assert len(calls) == 1
    assert report.action_type_participation == {
        str(level): value for level, value in synchrony.action_type_participation(count(calls[0])).items()
    }


FIXTURE_EVENTS = Path(__file__).parent / "data" / "fixture_events.jsonl"
FIXTURE_BOTS = Path(__file__).parent / "data" / "fixture_bots.csv"


def test_no_frame_holds_the_dataset_during_detection(monkeypatch, tmp_path, capsys):
    """report and detect let the parsed dataset, and its originals, go once
    their actions are extracted, so grouping and every later stage run
    without the posts."""
    refs = []
    live = []
    filter_originals, detect = pipeline.filter_originals, synchrony.detect

    def recording_filter(dataset):
        originals = filter_originals(dataset)
        refs.extend((weakref.ref(dataset), weakref.ref(originals)))
        return originals

    def checking_detect(actions, window_seconds):
        live.append(sum(ref() is not None for ref in refs))
        return detect(actions, window_seconds)

    monkeypatch.setattr(pipeline, "filter_originals", recording_filter)
    monkeypatch.setattr(synchrony, "detect", checking_detect)
    run_pipeline(FIXTURE_EVENTS, tmp_path / "report", bots_path=FIXTURE_BOTS)
    assert cli.main(["detect", "--events", str(FIXTURE_EVENTS), "--out", str(tmp_path / "detect")]) == 0
    capsys.readouterr()
    assert len(refs) == 4 and live == [0, 0]


def heap_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one call after a warm-up call."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_and_detect_heap_peaks_stay_near_the_parse(tmp_path, capsys):
    """Holding the posts only until extraction keeps the heap peak of report
    and of detect within 1.25 times the peak of parsing the same file."""
    load = heap_peak(lambda: load_events(FIXTURE_EVENTS, lang=""))
    report = heap_peak(lambda: run_pipeline(FIXTURE_EVENTS, tmp_path / "report", bots_path=FIXTURE_BOTS))
    detect = heap_peak(
        lambda: cli.main(["detect", "--events", str(FIXTURE_EVENTS), "--out", str(tmp_path / "detect")])
    )
    capsys.readouterr()
    assert report <= 1.25 * load, (report, load)
    assert detect <= 1.25 * load, (detect, load)


# Two cycles of fixture users sharing the cut vertex c0_u002, plus a pendant
# edge: an all-communication graph of several biconnected blocks.
BLOCK_INTERACTIONS = (
    ("retweet", "c0_u000", "c0_u001"), ("reply", "c0_u001", "c0_u002"), ("quote", "c0_u002", "c0_u000"),
    ("retweet", "c0_u002", "c0_u003"), ("reply", "c0_u003", "c0_u004"), ("mention", "c0_u004", "c1_u000"),
    ("retweet", "c1_u000", "c0_u002"), ("reply", "c1_u001", "c1_u000"),
)


def test_report_independent_of_hash_seed(tmp_path):
    """String hashing is randomized per process; no artifact may depend on it,
    on the fixture alone or with the block interactions."""
    data = Path(__file__).parent / "data"
    blocks = tmp_path / "blocks.jsonl"
    blocks.write_text("".join(
        json.dumps({"interaction_type": kind, "source_user": source, "target_user": target, "timestamp": 10 * i})
        + "\n"
        for i, (kind, source, target) in enumerate(BLOCK_INTERACTIONS, 1)
    ))
    env = dict(os.environ, PYTHONPATH=str(Path(syncindex.__file__).resolve().parents[1]))
    names = (*SHARED_ARTIFACTS, "centrality_by_action_types.csv", "report.json")
    for case, extra in (("fixture", []), ("blocks", ["--interactions", str(blocks)])):
        outputs = []
        for seed in ("1", "2"):
            out = tmp_path / f"{case}{seed}"
            argv = [
                sys.executable, "-m", "syncindex.cli", "report",
                "--events", str(data / "fixture_events.jsonl"), *extra,
                "--bots", str(data / "fixture_bots.csv"),
                "--out", str(out),
            ]
            subprocess.run(argv, env={**env, "PYTHONHASHSEED": seed}, check=True, capture_output=True)
            outputs.append(out)
        assert sorted(p.name for p in outputs[0].iterdir()) == sorted(names)
        for name in names:
            assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes(), (case, name)


def test_structure_section_counts_triangles_once(monkeypatch, tmp_path):
    counted = []
    count = metricmod.triangle_counts
    monkeypatch.setattr(
        metricmod, "triangle_counts", lambda graph, *members: counted.append(members) or count(graph, *members)
    )
    sync = build_sync_graph({("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0, ("c", "d"): 1.0})
    section = structure_section(sync, 0, tmp_path)
    assert counted == [()]
    counts = count(sync)
    assert section["transitivity"] == metricmod.transitivity(counts)
    assert section["avg_local_clustering"] == metricmod.avg_local_clustering(counts)


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
        report = run_pipeline(events, tmp_path / "out", bots_path=bots)
    assert report.structure["transitivity"] == 0.0
    assert [r.getMessage() for r in caplog.records if "triples" in r.getMessage()] == [
        "no connected triples: transitivity reported as 0 for sync, bot, human"
    ]


class TestCentralityCsv:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(printable_ids, min_size=1, max_size=6, unique=True))
    def test_round_trips_any_printable_id(self, tmp_path, users):
        centralities = node_centralities(from_nx(nx.path_graph(users)))
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

    def test_non_finite_float_is_not_written(self, tmp_path):
        report = EventReport(event_label="x", config={}, counts={}, action_type_participation={},
                             csi_network_combined=math.nan)
        with pytest.raises(ValueError):
            write_report_json(report, tmp_path / "report.json")

    def test_json_text_stable(self, sim_inputs, tmp_path):
        events, bots, _ = sim_inputs
        report = run_pipeline(events, tmp_path / "out", bots_path=bots)
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

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_score_is_parse_error(self, tmp_path, capsys, score):
        path = tmp_path / "report.json"
        path.write_text(f'{{"event_label": "x", "csi_network_combined": {score}}}')
        assert cli.main(["compare", str(path), "--out", str(tmp_path / "ranking.json")]) == 2
        assert f"syncindex compare: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "ranking.json").exists()

    def test_label_not_utf8_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"event_label": "ev\\udcff", "csi_network_combined": 1.5}')
        with pytest.raises(ReportParseError, match=re.escape(str(path))):
            compare([path])
        assert cli.main(["compare", str(path), "--out", str(tmp_path / "ranking.json")]) == 2
        assert f"syncindex compare: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "ranking.json").exists()

    def test_label_not_a_string_is_named(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"event_label": 5, "csi_network_combined": 1.5}')
        with pytest.raises(ReportParseError, match=re.escape(f"{path}: event_label 5 is not a UTF-8 string")):
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

    @pytest.mark.parametrize("k", [0, 3])
    def test_graph_prints_k_core_counts(self, tmp_path, capsys, k):
        # A 4-clique with a two-node tail and a separate pair: k = 3 keeps the clique only.
        reference = nx.complete_graph(["a", "b", "c", "d"])
        reference.add_edges_from([("d", "e"), ("e", "f"), ("x", "y")])
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("user_u,user_v,csi_userpair\n" + "".join(f"{u},{v},1.0\n" for u, v in reference.edges))
        argv = ["graph", "--pairs", str(pairs), "--min-partners", str(k), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        core = nx.k_core(reference, k)
        assert k == 0 or core.number_of_nodes() < 8 and core.number_of_edges() < 9
        assert capsys.readouterr().out == (
            "sync graph: 8 nodes, 9 edges; "
            f"pruned(k={k}): {core.number_of_nodes()} nodes, {core.number_of_edges()} edges\n"
        )

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

    def test_simulate_seed_flag_overrides_config_seed(self, tmp_path):
        config = {"duration_seconds": 3600, "background_users": 4, "cohorts": [{"member_count": 3}]}
        outs = {}
        for name, seed, argv in (("flag", 0, ["--seed", "7"]), ("config", 7, []), ("zero", 0, [])):
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps({"seed": seed, **config}))
            outs[name] = tmp_path / name
            assert cli.main(["simulate", "--config", str(config_path), *argv, "--out", str(outs[name])]) == 0
        assert_same_files(outs["flag"], outs["config"], ["events.jsonl", "ground_truth.csv", "bots.csv"])
        assert (outs["flag"] / "events.jsonl").read_bytes() != (outs["zero"] / "events.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "setting,message",
        [('"background_rate_per_hour": NaN', "background settings must be finite and non-negative"),
         ('"background_rate_per_hour": 1e9',
          "background_rate_per_hour * duration_seconds / 3600 must be <= 10000 expected posts per user,"
          " not 4000000000.0"),
         ('"vocabulary_sizes": {"url": 0}', "vocabulary_sizes['url'] must be >= 1"),
         ('"vocabulary_size": {"hashtag": 0}, "background_rate": NaN',
          "unknown key 'background_rate', 'vocabulary_size'"),
         ('"cohorts": [{"member_count": 3, "windows": 2}]', "unknown cohort key 'windows'"),
         ('"background_rate_per_hour": 1e-7, "duration_seconds": 253402300801',
          "duration_seconds must be <= 253402300800, not 253402300801"),
         ('"vocabulary_sizes": {"hashtags": 1}', "vocabulary_sizes key 'hashtags' is not an action type"),
         ('"cohorts": [{"member_count": 2.9}]',
          "not a simulation config (TypeError: cohort key 'member_count' must be an integer, not 2.9)"),
         ('"cohorts": [{"member_count": 3, "artifacts": "abc"}]',
          """not a simulation config (TypeError: cohort key 'artifacts' must be a list of strings, not "abc")"""),
         ('"seed": "7"', """not a simulation config (TypeError: key 'seed' must be an integer, not "7")"""),
         ('"duration_seconds": true',
          "not a simulation config (TypeError: key 'duration_seconds' must be an integer, not true)"),
         ('"cohorts": [{"member_count": 3, "user_class": "robot"}]', "unknown user class: robot"),
         ('"cohorts": [{"member_count": 3, "action_types": []}]', "cohorts need at least one action type"),
         ('"cohorts": [{"member_count": 3, "windows_active": 0}]', "windows_active and posts_per_window must be >= 1"),
         ('"cohorts": [{"member_count": 3, "posts_per_window": 0}]',
          "windows_active and posts_per_window must be >= 1")],
        ids=["nan-rate", "rate-past-expected-posts", "zero-vocabulary", "unknown-keys", "unknown-cohort-key", "duration-past-max-timestamp",
             "vocabulary-key-not-an-action-type", "float-member-count", "string-artifacts", "string-seed",
             "bool-duration", "unknown-user-class", "no-action-types", "zero-windows-active", "zero-posts-per-window"],
    )
    def test_simulate_bad_config_value_is_data_error(self, tmp_path, capsys, setting, message):
        config_path = tmp_path / "sim.json"
        config_path.write_text('{"background_users": 3, %s}' % setting)
        assert cli.main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "sim")]) == 2
        assert f"syncindex simulate: {config_path}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        r1 = tmp_path / "one.json"
        r2 = tmp_path / "two.json"
        TestCompare().write_report(r1, "one", 5.0)
        TestCompare().write_report(r2, "two", 1.0)
        assert cli.main(["compare", str(r1), str(r2)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("two")
        assert lines[1].endswith("one")

    def test_compare_out_is_the_rounded_ranking(self, tmp_path):
        paths = [
            TestCompare().write_report(tmp_path / f"{label}.json", label, value)
            for label, value in (("mid", 9.05123), ("low", 1 / 3), ("high", 33.7))
        ]
        out = tmp_path / "ranking.json"
        assert cli.main(["compare", *map(str, paths), "--out", str(out)]) == 0
        payload = [{"event_label": label, "csi_network_combined": value} for label, value in compare(paths)]
        assert out.read_bytes() == write_json(tmp_path / "expected.json", round_floats(payload)).read_bytes()
        ranking = [(entry["event_label"], entry["csi_network_combined"]) for entry in json.loads(out.read_text())]
        assert ranking == [("low", 0.333333), ("mid", 9.05123), ("high", 33.7)]

    def test_flag_defaults_are_pipeline_options(self, tmp_path):
        fields = {field.name for field in dataclasses.fields(PipelineOptions)}
        defaults = PipelineOptions()
        parser = cli.build_parser()
        checked = set()
        for argv in (["ingest", "--events", "e.jsonl"], ["detect", "--events", "e.jsonl"],
                     ["score", "--pairs", "p.csv"], ["graph", "--pairs", "p.csv"],
                     ["metrics", "--pairs", "p.csv"], ["report", "--events", "e.jsonl"]):
            args = vars(parser.parse_args(argv))
            for name in fields & args.keys():
                assert args[name] == getattr(defaults, name), (argv[0], name)
                checked.add(name)
            if argv[0] == "report":
                assert fields <= args.keys()
        assert checked == fields
        # every option off its default: report.json echoes each one
        values = {
            "bot_threshold": 0.5, "window_seconds": 600, "pair_formula": "prose",
            "normalization": "per_action_max", "min_partners": 2, "lang": "en", "seed": 7, "label": "XYZ",
        }
        assert values.keys() == fields
        assert all(value != getattr(defaults, name) for name, value in values.items())
        fixture = Path(__file__).parent / "data" / "fixture_events.jsonl"
        out = tmp_path / "out"
        assert cli.main(
            ["report", "--events", str(fixture), "--bot-threshold", "0.5", "--window", "600",
             "--pair-formula", "prose", "--normalization", "per_action_max", "--min-partners", "2",
             "--lang", "en", "--seed", "7", "--label", "XYZ", "--out", str(out)]
        ) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config"] == {name: value for name, value in values.items() if name != "label"}
        assert report["event_label"] == "XYZ"

    @pytest.mark.parametrize(
        "name,argv",
        [
            ("events.csv", ["ingest", "--events", "events.csv"]),
            ("events.jsonl", ["ingest", "--events", "events.jsonl"]),
            ("bots.csv", ["report", "--events", "events.jsonl", "--bots", "bots.csv", "--label", "demo"]),
            ("pairs.csv", ["graph", "--pairs", "pairs.csv", "--users", "users.csv", "--bots", "bots.csv"]),
        ],
        ids=["events-csv", "events-jsonl", "bots", "pairs"],
    )
    def test_byte_order_mark_is_ignored(self, sim_inputs, tmp_path, capsys, name, argv):
        """An input file that starts with a UTF-8 byte order mark gives the exit
        code, stdout and artifacts of the same file without one."""
        events, bots, _ = sim_inputs
        plain = tmp_path / "plain"
        assert cli.main(["report", "--events", str(events), "--out", str(plain)]) == 0
        shutil.copy(events, plain)
        shutil.copy(bots, plain)
        rows = [f"p{i},u{i % 3},{100 + i},original,#x|#y{i % 2}" for i in range(6)]
        (plain / "events.csv").write_text("\r\n".join(["post_id,user_id,timestamp,post_type,hashtags", *rows]))
        marked = tmp_path / "marked"
        shutil.copytree(plain, marked)
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
        capsys.readouterr()
        results = []
        for root in (plain, marked):
            out = tmp_path / f"out_{root.name}"
            code = cli.main([str(root / arg) if "." in arg else arg for arg in argv] + ["--out", str(out)])
            results.append((code, capsys.readouterr().out.replace(str(out), "OUT")))
        assert results[0] == results[1]
        assert results[0][0] == 0
        assert_same_files(tmp_path / "out_plain", tmp_path / "out_marked")

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5", "\uff10.5", "0_1"])
    @pytest.mark.parametrize("stage", ["graph", "metrics", "report"])
    def test_bot_threshold_outside_unit_interval_is_usage_error(self, tmp_path, capsys, stage, value):
        source = ["--events", "events.jsonl"] if stage == "report" else ["--pairs", "pairs.csv"]
        with pytest.raises(SystemExit) as err:
            cli.main([stage, *source, "--bot-threshold", value, "--out", str(tmp_path)])
        assert err.value.code == 1
        assert f"argument --bot-threshold: {value!r} is not a number in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "1", "0.7"])
    def test_bot_threshold_bounds_accepted(self, value):
        args = cli.build_parser().parse_args(["graph", "--pairs", "pairs.csv", "--bot-threshold", value])
        assert args.bot_threshold == float(value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--events", "FIXTURE", "--min-partners", "-1"],
            ["report", "--events", "FIXTURE", "--min-partners", "2.5"],
            ["graph", "--pairs", "pairs.csv", "--min-partners", "-1"],
            ["report", "--events", "FIXTURE", "--window", "0"],
            ["report", "--events", "FIXTURE", "--window", "-300"],
            ["detect", "--events", "FIXTURE", "--window", "-5"],
            ["detect", "--events", "FIXTURE", "--window", "five"],
            ["report", "--events", "FIXTURE", "--window", "\uff13_00"],
            ["report", "--events", "FIXTURE", "--seed", "1_0"],
            ["simulate", "--config", "sim.json", "--seed", "1_0"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
    )
    def test_bad_integer_flag_is_usage_error_before_any_stage(self, tmp_path, capsys, argv):
        fixture = str(Path(__file__).parent / "data" / "fixture_events.jsonl")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli.main([fixture if arg == "FIXTURE" else arg for arg in argv] + ["--out", str(out)])
        assert err.value.code == 1
        what = {"--min-partners": "an integer >= 0", "--window": "an integer >= 1"}.get(argv[-2], "an integer")
        assert f"argument {argv[-2]}: {argv[-1]!r} is not {what}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["graph", "--pairs", "p.csv", "--min-partners", "0"],
                                      ["detect", "--events", "e.jsonl", "--window", "1"]])
    def test_integer_flag_bounds_accepted(self, argv):
        args = cli.build_parser().parse_args(argv)
        dest = {"--min-partners": "min_partners", "--window": "window_seconds"}[argv[-2]]
        assert getattr(args, dest) == int(argv[-1])

    @pytest.mark.parametrize(
        "stem,flags,message",
        [("events", ["--label", "l\udcff"], "label is not valid UTF-8: 'l\\udcff'"),
         ("events", ["--lang", "\udcff"], "lang is not valid UTF-8: '\\udcff'"),
         ("ev\udcff", [], "label (the stem of events file ")],
        ids=["label", "lang", "file-stem"],
    )
    def test_report_text_not_utf8_is_data_error_before_any_file(self, tmp_path, capsys, stem, flags, message):
        """A label or lang that does not encode as UTF-8 (argv and file names
        decode with surrogateescape) would reach report.json and report.csv."""
        events = tmp_path / f"{stem}.jsonl"
        shutil.copy(Path(__file__).parent / "data" / "fixture_events.jsonl", events)
        out = tmp_path / "out"
        assert cli.main(["report", "--events", str(events), *flags, "--format", "csv", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_label_names_an_events_file_whose_stem_is_not_utf8(self, tmp_path, capsys):
        """With --label, an events file whose name is not UTF-8 gives the nine
        artifacts of the same file under a plain name."""
        data = Path(__file__).parent / "data"
        outs = []
        for stem in ("events", "ev\udcff"):
            events = tmp_path / f"{stem}.jsonl"
            shutil.copy(data / "fixture_events.jsonl", events)
            outs.append(tmp_path / f"out{len(outs)}")
            argv = ["report", "--events", str(events), "--bots", str(data / "fixture_bots.csv"), "--label", "demo"]
            assert cli.main([*argv, "--out", str(outs[-1])]) == 0
        capsys.readouterr()
        assert len(list(outs[0].iterdir())) == 9
        assert_same_files(*outs)

    @pytest.mark.parametrize(
        "command", ["ingest", "detect", "score", "graph", "metrics", "report", "simulate", "compare"]
    )
    def test_help_exits_0(self, capsys, command):
        """argparse formats help text, with defaults taken from other modules,
        only on --help."""
        with pytest.raises(SystemExit) as err:
            cli.main([command, "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: syncindex {command} ")

    def test_ingest_has_no_label_flag(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["ingest", "--events", "e.jsonl", "--label", "XYZ", "--out", str(tmp_path)])
        assert err.value.code == 1

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
            ("graph", "pairs.csv", "user_u,user_v,num_action_types,s_total,csi_userpair\na,a,1,1,1.0\n",
             "line 2: self-pair 'a'"),
            ("graph", "pairs.csv", "user_u,user_v,num_action_types,s_total,csi_userpair\na,b,1,1,1.0\nb,a,1,1,5.0\n",
             "line 3: pair ('b', 'a') listed twice"),
            ("score", "pair_counts.csv",
             f"user_u,user_v,action_type,count\na,b,hashtag,{2**53}\nb,a,hashtag,{2**53 - 1}\n",
             "line 3: pair ('b', 'a') with action_type 'hashtag' listed twice"),
            ("score", "pair_counts.csv", "user_u,user_v,action_type,count\na,b,hashtag,1_0\n",
             "line 2: count '1_0' is not an integer in 1..2**53"),
            ("score", "pair_counts.csv", "user_u,user_v,action_type,count\na,b,hashtag,\u0663\n",
             "line 2: count '\u0663' is not an integer in 1..2**53"),
            ("score", "pair_counts.csv", "user_u,user_v,action_type,count\na,b,hashtag,\uff13\n",
             "line 2: count '\uff13' is not an integer in 1..2**53"),
            ("score", "pair_counts.csv", f"user_u,user_v,action_type,count\na,b,hashtag,{'1' * 5000}\n",
             f"line 2: count '{'1' * 5000}' is not an integer in 1..2**53"),
            ("score", "pair_counts.csv", f"user_u,user_v,action_type,{'c' * 131_073}\na,b,hashtag,1\n",
             "line 1: field larger than field limit (131072)"),
            ("graph", "pairs.csv", "user_u,user_v,num_action_types,s_total,csi_userpair\na,b,1,1,1_0\n",
             "line 2: csi_userpair '1_0' is not a finite number"),
            ("metrics", "users.csv", "user_id,csi_user\na,\uff10.5\nb,1.0\n",
             "line 2: csi_user '\uff10.5' is not a finite number"),
        ],
        ids=["short-pair-count-row", "pair-counts-without-action-type", "short-pair-score-row", "pair-score-self-pair",
             "pair-score-repeated", "pair-count-repeated", "count-with-underscore", "count-arabic-indic-digit",
             "count-full-width-digit", "count-past-int-digit-limit", "header-over-field-limit",
             "pair-score-with-underscore", "user-score-full-width-digit"],
    )
    def test_malformed_stage_table_is_data_error(self, tmp_path, capsys, stage, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        tables = ["--pairs", str(path)]
        if name == "users.csv":
            pairs = tmp_path / "pairs.csv"
            pairs.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\na,b,1,1,1.0\n")
            tables = ["--pairs", str(pairs), "--users", str(path)]
        assert cli.main([stage, *tables, "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["graph", "metrics"])
    def test_repeated_user_score_is_data_error(self, tmp_path, capsys, stage):
        pairs, users = tmp_path / "pairs.csv", tmp_path / "users.csv"
        pairs.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\na,b,1,1,1.0\n")
        users.write_text("user_id,csi_user\na,1.0\nb,1.0\na,9.0\n")
        argv = [stage, "--pairs", str(pairs), "--users", str(users), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert f"{users}: line 4: user 'a' listed twice" in capsys.readouterr().err

    def test_unknown_action_type_is_data_error(self, tmp_path, capsys):
        counts = tmp_path / "pair_counts.csv"
        counts.write_text("user_u,user_v,action_type,count\na,b,Hashtag,2\nb,c,bogus,3\n")
        assert cli.main(["score", "--pairs", str(counts), "--out", str(tmp_path / "s")]) == 2
        assert f"{counts}: line 2: unknown action_type 'Hashtag'" in capsys.readouterr().err
        assert not (tmp_path / "s" / "network.json").exists()

    def test_url_urlsplit_rejects_is_a_rejected_artifact(self, tmp_path, capsys, caplog):
        # ingest keeps both urls; detect and report count them and go on
        posts = [
            ("p1", "a", {"hashtags": ["#x"]}),
            ("p2", "b", {"hashtags": ["#x"]}),
            ("p3", "a", {"urls": ["http://[abc/x"]}),
            ("p4", "b", {"urls": ["https://a\uff03b.example/x"]}),
        ]
        events = tmp_path / "events.jsonl"
        events.write_text("".join(
            json.dumps({"post_id": post_id, "user_id": user, "timestamp": 10, "post_type": "original", **fields})
            + "\n"
            for post_id, user, fields in posts
        ))
        for stage in ("ingest", "detect", "report"):
            caplog.clear()
            assert cli.main([stage, "--events", str(events), "--out", str(tmp_path / stage)]) == 0
            rejected = [r.getMessage() for r in caplog.records if r.getMessage().startswith("rejected")]
            assert rejected == ([] if stage == "ingest" else ["rejected 2 artifacts (url 2)"])
        staged = (tmp_path / "ingest" / "events.jsonl").read_text(encoding="utf-8")
        assert "http://[abc/x" in staged and "\\uff03" in staged
        assert (tmp_path / "detect" / "pair_counts.csv").read_bytes() == (
            b"user_u,user_v,action_type,count\r\na,b,hashtag,1\r\n"
        )
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["counts"]["sync_pairs"] == 1 and report["counts"]["action_records"] == 2
        capsys.readouterr()

    def test_two_users_one_hashtag_give_defined_values(self, tmp_path, capsys):
        """Two users posting one hashtag in one window, with no interactions: a
        two-node sync graph and an edgeless all-communication graph, every
        centrality cell of which is 0."""
        events, bots = tmp_path / "two.jsonl", tmp_path / "bots.csv"
        events.write_text("".join(
            json.dumps({"post_id": f"p{i}", "user_id": user, "timestamp": 10 * i, "post_type": "original",
                        "hashtags": ["#x"]}) + "\n"
            for i, user in enumerate("ab")
        ))
        bots.write_text("user_id,score\na,0.9\nb,0.1\n")
        out = tmp_path / "out"
        assert cli.main(["report", "--events", str(events), "--bots", str(bots), "--out", str(out)]) == 0
        capsys.readouterr()
        metrics = json.loads((out / "metrics.json").read_text())
        assert (metrics["density"], metrics["transitivity"]) == (1.0, 0.0)
        assert (out / "centrality_by_action_types.csv").read_bytes() == (
            b"user_id,num_action_types,total_degree,betweenness,eigenvector\r\n"
            b"a,1,0.0,0.0,0.0\r\nb,1,0.0,0.0,0.0\r\n"
        )

    def test_metrics_without_pairs_writes_empty_metrics(self, tmp_path, capsys):
        """A header-only pairs.csv: metrics.json is {} and the one post author
        has a row of zero centralities."""
        pairs, events = tmp_path / "pairs.csv", tmp_path / "one.jsonl"
        pairs.write_text("user_u,user_v,num_action_types,s_total,csi_userpair\n")
        events.write_text('{"post_id": "p1", "user_id": "a", "timestamp": 0, "post_type": "original"}\n')
        out = tmp_path / "out"
        assert cli.main(["metrics", "--pairs", str(pairs), "--events", str(events), "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "metrics.json").read_bytes() == b"{}\n"
        assert (out / "centrality.csv").read_bytes() == (
            b"user_id,total_degree,betweenness,eigenvector\r\na,0.0,0.0,0.0\r\n"
        )

    def test_csv_report_format(self, sim_inputs, tmp_path):
        """report.csv holds one field,value row per leaf of report.json, its
        path joined by "." for a key and [i] for a list entry, keys sorted."""

        def leaves(prefix, obj):
            if isinstance(obj, dict):
                return [row for key in sorted(obj) for row in leaves(f"{prefix}.{key}" if prefix else key, obj[key])]
            if isinstance(obj, list):
                return [row for i, item in enumerate(obj) for row in leaves(f"{prefix}[{i}]", item)]
            return [[prefix, "" if obj is None else str(obj)]]

        events, bots, _ = sim_inputs
        for name, flags in (("bots", ["--bots", str(bots)]), ("no-bots", [])):
            out = tmp_path / name
            assert cli.main(["report", "--events", str(events), *flags, "--out", str(out), "--format", "csv"]) == 0
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            with (out / "report.csv").open(encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))
            assert rows == [["field", "value"], *leaves("", report)]
        assert ["notices[0]", "bot scores not provided; class sections omitted"] in rows

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
