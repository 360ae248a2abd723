"""No input file makes the command line raise.

Mutated bytes go into every input slot through cli.main: events (JSONL and
CSV), interactions, bot scores, the three stage tables, the simulation
config and a report for compare. Every run must return 0, 1 or 2 (or exit
with one of them); any other exception fails the property.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from syncindex import cli

SIM_CONFIG = {
    "seed": 3,
    "duration_seconds": 3600,
    "background_users": 4,
    "background_rate_per_hour": 3.0,
    "cohorts": [
        {"member_count": 3, "windows_active": 2},
        {"member_count": 3, "user_class": "human", "action_types": ["url", "mention"], "windows_active": 2},
    ],
}

# Two cycles sharing c0_u002, and a pendant edge: three blocks.
INTERACTIONS = [
    ("retweet", "c0_u000", "c0_u001"), ("reply", "c0_u001", "c0_u002"), ("quote", "c0_u002", "c0_u000"),
    ("retweet", "c0_u002", "c1_u000"), ("mention", "c1_u000", "c1_u001"), ("reply", "c1_u001", "c0_u002"),
    ("retweet", "c1_u002", "c1_u001"),
]

CSV_COLUMNS = ("post_id", "user_id", "timestamp", "post_type", "lang", "hashtags", "urls", "mentions")

# Inserted often: separators, quotes, escapes, non-finite numbers, bytes
# that are not UTF-8, characters XML forbids, and deep nesting.
TOKENS = [
    b'"', b",", b"\n", b"\r\n", b"\\", b"|", b"NaN", b"-1", b"1e999", b"99999999999999999999",
    b"\x00", b"\xff\xfe", "\ufffe".encode(), b"{}", b"[]", b"null", b"true", b"[" * 5000, b"{\"a\":" * 3000,
]


@pytest.fixture(scope="module")
def seeds(tmp_path_factory) -> Path:
    """Valid inputs for every slot, the stage tables from one report run."""
    root = tmp_path_factory.mktemp("seeds")
    (root / "sim.json").write_text(json.dumps(SIM_CONFIG), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(root / "sim.json"), "--out", str(root)]) == 0
    with (root / "interactions.jsonl").open("w", encoding="utf-8") as handle:
        for timestamp, (kind, source, target) in enumerate(INTERACTIONS):
            record = {"interaction_type": kind, "source_user": source, "target_user": target, "timestamp": timestamp}
            handle.write(json.dumps(record) + "\n")
    posts = [json.loads(line) for line in (root / "events.jsonl").read_text(encoding="utf-8").splitlines()]
    with (root / "events.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for post in posts:
            lists = ("|".join(post[key]) for key in CSV_COLUMNS[5:])
            writer.writerow([*(post[key] for key in CSV_COLUMNS[:5]), *lists])
    report = [
        "report", "--events", str(root / "events.jsonl"), "--interactions", str(root / "interactions.jsonl"),
        "--bots", str(root / "bots.csv"), "--out", str(root / "report"),
    ]
    assert cli.main(report) == 0
    return root


# slot -> (seed file, arguments around the mutated file f, given the seeds directory s)
SLOTS = {
    "events": ("events.jsonl", lambda f, s: ["report", "--events", f, "--bots", s / "bots.csv"]),
    "events-csv": ("events.csv", lambda f, s: ["report", "--events", f]),
    "interactions": (
        "interactions.jsonl", lambda f, s: ["report", "--events", s / "events.jsonl", "--interactions", f]
    ),
    "bots": ("bots.csv", lambda f, s: ["report", "--events", s / "events.jsonl", "--bots", f]),
    "pair-counts": ("report/pair_counts.csv", lambda f, s: ["score", "--pairs", f]),
    "pairs": ("report/pairs.csv", lambda f, s: ["metrics", "--pairs", f, "--bots", s / "bots.csv"]),
    "users": ("report/users.csv", lambda f, s: ["graph", "--pairs", s / "report/pairs.csv", "--users", f]),
    "sim-config": ("sim.json", lambda f, s: ["simulate", "--config", f]),
    "report": ("report/report.json", lambda f, s: ["compare", f, s / "report/report.json"]),
}

mutation = st.one_of(
    st.tuples(st.just("replace"), st.integers(0), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("insert"), st.integers(0), st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), st.integers(0), st.integers(1, 64)),
    st.tuples(st.just("truncate"), st.integers(0), st.just(0)),
)


def mutate(data: bytes, edits) -> bytes:
    for kind, position, arg in edits:
        at = position % (len(data) + 1)
        if kind == "replace":
            data = data[:at] + arg + data[at + len(arg):]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        else:
            data = data[:at]
    return data


@pytest.mark.parametrize("slot", SLOTS)
@settings(max_examples=40, deadline=None)
@given(edits=st.lists(mutation, min_size=1, max_size=4))
@example(edits=[("insert", 0, b"[" * 5000)])
def test_mutated_input_exits_0_1_or_2(seeds, slot, edits):
    name, arguments = SLOTS[slot]
    with tempfile.TemporaryDirectory() as scratch:
        target = Path(scratch) / Path(name).name
        target.write_bytes(mutate((seeds / name).read_bytes(), edits))
        argv = [str(arg) for arg in arguments(target, seeds)]
        if argv[0] != "compare":
            argv += ["--out", str(Path(scratch) / "out")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
