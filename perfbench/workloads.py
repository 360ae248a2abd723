"""Seeded input generators for the benchmark workloads.

Posts come from ``syncindex.simulate.generate`` (background noise plus planted
cohorts with ground truth). The simulator emits no interactions, so this
module adds seeded retweets and replies, aimed at a few hub accounts and with
cohort members amplifying each other. Files are written with this module's own
JSON and CSV writers, so the program only ever sees the generated files.

The same seed gives byte-identical files. Sizes are fixed per workload (user,
interaction and cohort counts never depend on the seed), so the cost of one
operation moves little from seed to seed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

from syncindex import simulate

# 2021-01-01T00:00:00Z; a multiple of the 300 s window, so shifting the
# simulator's timestamps by it keeps every post in its simulated bucket.
BASE_EPOCH = 1_609_459_200
DURATION_SECONDS = 4 * 3600
POSTS_PER_HOUR = 2.0  # background rate per user
HUB_SHARE = 0.6  # interactions aimed at a hub (after cohort amplification)
UNSCORED_SHARE = 0.02  # background users missing from bots.csv

CSV_COLUMNS = (
    "post_id", "user_id", "timestamp", "post_type", "lang", "hashtags", "urls", "mentions",
    "source_user", "target_user", "interaction_type",
)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's event; every count is independent of the seed."""

    background_users: int
    vocabulary: int
    cohorts: tuple[simulate.CohortSpec, ...]
    interactions: int
    hubs: int
    amplify_share: float
    raw_csv: bool = False
    malformed_lines: int = 0


ALL_TYPES = ("hashtag", "url", "mention")


def _cohorts(specs: list[tuple[int, str, tuple[str, ...], int]]) -> tuple[simulate.CohortSpec, ...]:
    return tuple(
        simulate.CohortSpec(member_count=n, user_class=cls, action_types=types, windows_active=w)
        for n, cls, types, w in specs
    )


SPECS = {
    # ~1k users, large vocabularies, small cohorts, thousands of hub-skewed
    # interactions: one large sparse all-communication component.
    "interact": Spec(
        background_users=800,
        vocabulary=10_000,
        cohorts=_cohorts([
            (6, "bot", ("hashtag",), 4),
            (5, "bot", ("url", "mention"), 3),
            (6, "human", ("hashtag", "url"), 3),
            (4, "human", ALL_TYPES, 2),
        ]),
        interactions=1100,
        hubs=25,
        amplify_share=0.5,
    ),
    # ~1k users, small vocabularies, large cohorts over all three action
    # types (>= 10k synchronized pairs), few interactions.
    "coord": Spec(
        background_users=800,
        vocabulary=40,
        cohorts=_cohorts([
            (55, "bot", ALL_TYPES, 6),
            (55, "bot", ALL_TYPES, 5),
            (55, "bot", ("hashtag", "url"), 4),
            (55, "human", ALL_TYPES, 3),
            (55, "human", ("mention", "hashtag"), 3),
        ]),
        interactions=120,
        hubs=5,
        amplify_share=0.3,
    ),
    # Mid-size event with interactions, written as a raw CSV with ISO-8601
    # timestamps, non-canonical artifacts and a few malformed lines.
    "chain": Spec(
        background_users=600,
        vocabulary=400,
        cohorts=_cohorts([
            (12, "bot", ALL_TYPES, 4),
            (10, "bot", ("hashtag", "mention"), 3),
            (10, "human", ("url",), 3),
            (8, "human", ("hashtag", "url"), 2),
        ]),
        interactions=1000,
        hubs=15,
        amplify_share=0.5,
        raw_csv=True,
        malformed_lines=120,
    ),
}


def scaled(spec: Spec, factor: float) -> Spec:
    """A smaller event of the same make-up (used by the smoke mode)."""
    cohorts = tuple(
        replace(c, member_count=max(2, round(c.member_count * factor))) for c in spec.cohorts
    )
    return replace(
        spec,
        background_users=max(10, round(spec.background_users * factor)),
        cohorts=cohorts,
        interactions=max(10, round(spec.interactions * factor)),
        hubs=max(2, round(spec.hubs * factor)),
        malformed_lines=round(spec.malformed_lines * factor),
    )


@dataclass
class Inputs:
    """Paths handed to the program plus the ground truth the checks use."""

    events: Path
    bots: Path
    planted: tuple[simulate.PlantedPair, ...]
    malformed_lines: int


def _canonical_posts(spec: Spec, seed: int):
    config = simulate.SimConfig(
        seed=seed,
        duration_seconds=DURATION_SECONDS,
        background_users=spec.background_users,
        background_rate_per_hour=POSTS_PER_HOUR,
        cohorts=spec.cohorts,
        vocabulary_sizes={a: spec.vocabulary for a in ALL_TYPES},
    )
    dataset, truth = simulate.generate(config)
    posts = []
    for post in dataset.posts:
        # Planted url artifacts are bare names; make them URLs like the noise.
        urls = sorted(
            u if u.startswith("http") else f"https://planted.example/{u}" for u in post.urls
        )
        posts.append({
            "post_id": post.post_id,
            "user_id": post.user_id,
            "timestamp": BASE_EPOCH + post.timestamp,
            "post_type": "original",
            "lang": "en",
            "hashtags": sorted(post.hashtags),
            "urls": urls,
            "mentions": sorted(post.mentions),
        })
    return posts, truth


def _interactions(spec: Spec, truth: simulate.GroundTruth, rng: random.Random) -> list[dict]:
    users = sorted(truth.user_classes)
    background = [u for u in users if u.startswith("bg_")]
    hubs = rng.sample(background, spec.hubs)
    hub_weights = [1.0 / (rank + 1) for rank in range(len(hubs))]
    cohort_of: dict[str, list[str]] = {}
    for user in users:
        if not user.startswith("bg_"):
            cohort_of.setdefault(user.split("_")[0], []).append(user)
    records = []
    for _ in range(spec.interactions):
        source = rng.choice(users)
        mates = cohort_of.get(source.split("_")[0], ())
        draw = rng.random()
        if mates and draw < spec.amplify_share:
            target = rng.choice(mates)
        elif draw < HUB_SHARE:
            target = rng.choices(hubs, hub_weights)[0]
        else:
            target = rng.choice(users)
        if target == source:
            target = users[(users.index(source) + 1) % len(users)]
        records.append({
            "source_user": source,
            "target_user": target,
            "interaction_type": "retweet" if rng.random() < 0.6 else "reply",
            "timestamp": BASE_EPOCH + rng.randrange(DURATION_SECONDS),
        })
    return records


def _bot_scores(truth: simulate.GroundTruth, spec: Spec, rng: random.Random) -> dict[str, str]:
    """Scores consistent with the planted classes; a few users stay unscored.

    Humans include scores of exactly 0.70 (the threshold is strict), bots start
    at 0.71, and background accounts sometimes score as bots.
    """
    scores = {}
    for user, cls in sorted(truth.user_classes.items()):
        if user.startswith("bg_") and rng.random() < UNSCORED_SHARE:
            continue
        if cls == "bot" or (user.startswith("bg_") and rng.random() < 0.1):
            value = rng.choice((0.71, 0.8, 0.9, 0.95, 0.99))
        else:
            value = rng.choice((0.0, 0.05, 0.2, 0.5, 0.69, 0.7))
        scores[user] = repr(value)
    return scores


def _mixed_case(text: str, rng: random.Random) -> str:
    return "".join(ch.upper() if rng.random() < 0.3 else ch for ch in text)


def _raw_url(url: str, rng: random.Random) -> str:
    scheme, rest = url.split("://", 1)
    host, _, path = rest.partition("/")
    raw = f"{_mixed_case(scheme, rng)}://{_mixed_case(host, rng)}/{path}"
    choice = rng.randrange(4)
    if choice == 1:
        raw += "/"
    elif choice == 2:
        raw += "#section"
    elif choice == 3:
        raw += "/#top"
    return raw


def _iso(epoch: int, rng: random.Random) -> str:
    moment = datetime.fromtimestamp(epoch, tz=timezone.utc)
    choice = rng.randrange(4)
    if choice == 0:
        return moment.strftime("%Y-%m-%dT%H:%M:%SZ")
    if choice == 1:
        return moment.isoformat()
    if choice == 2:  # same instant in another zone
        return moment.astimezone(timezone(timedelta(hours=2))).isoformat()
    return moment.strftime("%Y-%m-%dT%H:%M:%S") + f".{rng.randrange(1000):03d}Z"


_MALFORMED_KINDS = ("timestamp", "post_type", "user_id", "interaction_type")


def _raw_csv_rows(posts, interactions, spec: Spec, rng: random.Random) -> list[dict]:
    rows = []
    for post in posts:
        rows.append({
            "post_id": post["post_id"],
            "user_id": post["user_id"],
            "timestamp": _iso(post["timestamp"], rng),
            "post_type": post["post_type"],
            "lang": rng.choice(("en", "EN", " en")),
            "hashtags": "|".join("#" + _mixed_case(t, rng) for t in post["hashtags"]),
            "urls": "|".join(_raw_url(u, rng) for u in post["urls"]),
            "mentions": "|".join("@" + _mixed_case(m, rng) for m in post["mentions"]),
        })
    for record in interactions:
        rows.append({**record, "timestamp": _iso(record["timestamp"], rng)})
    for index in range(spec.malformed_lines):
        kind = _MALFORMED_KINDS[index % len(_MALFORMED_KINDS)]
        stamp = _iso(BASE_EPOCH + rng.randrange(DURATION_SECONDS), rng)
        if kind == "interaction_type":
            bad = {"source_user": "bg_u00001", "target_user": "bg_u00002",
                   "interaction_type": "like", "timestamp": stamp}
        else:
            bad = {"post_id": f"bad{index:05d}", "user_id": "bg_u00003", "timestamp": stamp,
                   "post_type": "original", "hashtags": "#noise_tag_1"}
            if kind == "timestamp":
                bad["timestamp"] = "yesterday"
            elif kind == "post_type":
                bad["post_type"] = "story"
            else:
                bad["user_id"] = " "
        rows.append(bad)
    rng.shuffle(rows)
    return rows


def generate(name: str, seed: int, out_dir: Path, spec: Spec | None = None) -> Inputs:
    """Write the workload's input files into out_dir and return their ground truth."""
    spec = spec or SPECS[name]
    rng = random.Random(f"{name}-{seed}")
    posts, truth = _canonical_posts(spec, seed)
    interactions = _interactions(spec, truth, rng)
    scores = _bot_scores(truth, spec, rng)
    out_dir.mkdir(parents=True, exist_ok=True)

    bots = out_dir / "bots.csv"
    with bots.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "score"])
        writer.writerows(sorted(scores.items()))

    if spec.raw_csv:
        events = out_dir / "raw.csv"
        with events.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(_raw_csv_rows(posts, interactions, spec, rng))
    else:
        events = out_dir / "events.jsonl"
        with events.open("w", encoding="utf-8") as handle:
            for record in posts + interactions:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    return Inputs(
        events=events,
        bots=bots,
        planted=truth.pairs,
        malformed_lines=spec.malformed_lines,
    )
