"""The benchmark's tracer must find every function it traces and count
what it sees.

perfbench/tracing.py names (module, function) pairs of the package; building
a Tracer looks each one up, so a renamed or deleted function fails here
instead of only in the benchmark's smoke run. Its counters call
number_of_nodes, number_of_edges and degree on the graphs it sees, so a
traced report checks those too.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from syncindex import cli
from syncindex.events import read_events_file

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
DATA = Path(__file__).parent / "data"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_finds_every_traced_function():
    load_tracing().Tracer()  # AttributeError when a traced function is missing


def test_traced_report_counts_match_report_sizes(tmp_path, capsys):
    tracer = load_tracing().Tracer()
    out = tmp_path / "out"
    argv = [
        "report",
        "--events", str(DATA / "fixture_events.jsonl"),
        "--bots", str(DATA / "fixture_bots.csv"),
        "--out", str(out),
    ]
    with tracer:
        assert tracer.cli(cli.main)(argv) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    dataset = read_events_file(DATA / "fixture_events.jsonl")
    users = {post.user_id for post in dataset.posts}
    pairs = set()
    for record in dataset.interactions:
        users |= {record.source_user, record.target_user}
        if record.source_user != record.target_user:
            pairs.add(frozenset((record.source_user, record.target_user)))
    assert report["counts"]["sync_pairs"] > 0 and pairs
    assert tracer.counts["graphs.sync_edges"] == report["counts"]["sync_pairs"]
    assert tracer.counts["graphs.allcomm_nodes"] == len(users)
    assert tracer.counts["graphs.allcomm_edges"] == len(pairs)
    assert tracer.counts["metrics.betweenness_calls"] == 1
