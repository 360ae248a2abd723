"""Regenerate the checked-in 1,000-event fixture and its golden report.

Run from the repository root:

    python tests/data/generate_fixture.py

The fixture mixes simulated posts (two planted cohorts plus background
noise) with synthetic interaction records, padded to exactly 1,000 lines.
The golden report is the pipeline output over that fixture with default
options; the acceptance suite compares fresh runs against it byte by byte.
"""

from __future__ import annotations

import random
from pathlib import Path

from syncindex.events import EventDataset, InteractionRecord, write_events_jsonl
from syncindex.pipeline import run_pipeline
from syncindex.simulate import (
    CohortSpec,
    SimConfig,
    bot_scores_from_truth,
    generate,
    write_bot_scores_csv,
)

HERE = Path(__file__).parent
TOTAL_EVENTS = 1000

CONFIG = SimConfig(
    seed=2024,
    duration_seconds=6 * 3600,
    window_seconds=300,
    background_users=60,
    background_rate_per_hour=2.0,
    cohorts=(
        CohortSpec(member_count=5, user_class="bot", windows_active=4),
        CohortSpec(member_count=4, user_class="human", action_types=("url",), windows_active=3),
        CohortSpec(
            member_count=3,
            user_class="human",
            action_types=("hashtag", "mention"),
            windows_active=2,
        ),
    ),
    # small vocabularies on purpose: background users should occasionally
    # collide so the fixture exercises coincidental synchrony too
    vocabulary_sizes={"hashtag": 60, "url": 90, "mention": 90},
)


def synth_interactions(users: list[str], count: int, duration: int) -> list[InteractionRecord]:
    rng = random.Random(424242)
    kinds = ("retweet", "quote", "mention", "reply")
    records = []
    while len(records) < count:
        source, target = rng.sample(users, 2)
        records.append(
            InteractionRecord(
                source_user=source,
                target_user=target,
                interaction_type=kinds[rng.randrange(len(kinds))],
                timestamp=rng.randrange(duration),
            )
        )
    return records


def main() -> None:
    dataset, truth = generate(CONFIG)
    need = TOTAL_EVENTS - len(dataset.posts)
    if need < 0:
        raise SystemExit(f"simulation produced {len(dataset.posts)} posts, over the {TOTAL_EVENTS} budget")
    users = sorted({p.user_id for p in dataset.posts})
    interactions = synth_interactions(users, need, CONFIG.duration_seconds)
    combined = EventDataset(
        posts=dataset.posts,
        interactions=tuple(
            sorted(interactions, key=lambda r: (r.timestamp, r.source_user, r.target_user, r.interaction_type))
        ),
    )
    events_path = write_events_jsonl(combined, HERE / "fixture_events.jsonl")
    assert sum(1 for _ in events_path.open()) == TOTAL_EVENTS
    write_bot_scores_csv(bot_scores_from_truth(truth), HERE / "fixture_bots.csv")

    out = HERE / "_golden_build"
    run_pipeline(events_path, out, bots_path=HERE / "fixture_bots.csv")
    golden = (out / "report.json").read_bytes()
    (HERE / "golden_report.json").write_bytes(golden)
    for artifact in sorted(out.iterdir()):
        artifact.unlink()
    out.rmdir()
    print(f"fixture: {events_path} ({TOTAL_EVENTS} events), golden report refreshed")


if __name__ == "__main__":
    main()
