"""Synthetic event generator with planted coordinated cohorts.

Cohort members post a shared artifact inside a single detection bucket for
each of their active windows, so every planted pair is guaranteed a
synchrony count of at least windows_active per action type. Background
users post Poisson-distributed noise drawn uniformly from large artifact
vocabularies, keeping coincidental collisions negligible. Output is
byte-identical for a fixed seed; cohort and background draws use separate
random streams so tuning one leaves the other untouched.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Mapping

from .events import ACTION_TYPES, EventDataset, PostEvent, write_csv

DEFAULT_VOCABULARY = 10_000


class SimConfigError(ValueError):
    """Configuration cannot produce a dataset."""


@dataclass(frozen=True)
class CohortSpec:
    """A planted group posting shared artifacts in lockstep."""

    member_count: int
    user_class: str = "bot"
    action_types: tuple[str, ...] = ("hashtag",)
    artifacts: tuple[str, ...] = ()
    windows_active: int = 1
    posts_per_window: int = 1

    def __post_init__(self) -> None:
        if self.member_count < 2:
            raise SimConfigError("cohorts need at least 2 members")
        if self.user_class not in ("bot", "human"):
            raise SimConfigError(f"unknown user class: {self.user_class}")
        if not self.action_types:
            raise SimConfigError("cohorts need at least one action type")
        for action in self.action_types:
            if action not in ACTION_TYPES:
                raise SimConfigError(f"unknown action type: {action}")
        if self.windows_active < 1 or self.posts_per_window < 1:
            raise SimConfigError("windows_active and posts_per_window must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration_seconds: int = 4 * 3600
    window_seconds: int = 300
    background_users: int = 0
    background_rate_per_hour: float = 2.0
    cohorts: tuple[CohortSpec, ...] = ()
    vocabulary_sizes: Mapping[str, int] = field(
        default_factory=lambda: {a: DEFAULT_VOCABULARY for a in ACTION_TYPES}
    )

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0 or self.window_seconds <= 0:
            raise SimConfigError("duration and window must be positive")
        if self.background_users < 0 or self.background_rate_per_hour < 0:
            raise SimConfigError("background settings must be non-negative")
        if self.background_users == 0 and not self.cohorts:
            raise SimConfigError("nothing to generate: no users configured")
        buckets = self.duration_seconds // self.window_seconds
        for cohort in self.cohorts:
            if cohort.windows_active > buckets:
                raise SimConfigError(
                    f"cohort wants {cohort.windows_active} windows but only {buckets} exist"
                )


@dataclass(frozen=True)
class PlantedPair:
    user_u: str
    user_v: str
    action_type: str
    min_count: int


@dataclass(frozen=True)
class GroundTruth:
    pairs: tuple[PlantedPair, ...] = ()
    user_classes: Mapping[str, str] = field(default_factory=dict)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's method; fine for the small per-user rates used here."""
    if lam <= 0:
        return 0
    if lam > 1e4:
        raise SimConfigError("background rate too large")
    limit = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _background_artifact(rng: random.Random, action_type: str, vocabulary: int) -> str:
    index = rng.randrange(vocabulary)
    if action_type == "url":
        return f"https://noise.example/{index}"
    if action_type == "mention":
        return f"noise_user_{index}"
    return f"noise_tag_{index}"


def generate(config: SimConfig) -> tuple[EventDataset, GroundTruth]:
    """Build the synthetic dataset and the ground truth for its planted pairs."""
    cohort_rng = random.Random(config.seed * 1_000_003 + 1)
    background_rng = random.Random(config.seed * 1_000_003 + 2)
    buckets = config.duration_seconds // config.window_seconds

    posts: list[PostEvent] = []
    planted: list[PlantedPair] = []
    user_classes: dict[str, str] = {}
    post_serial = 0

    def emit(user: str, timestamp: int, action_type: str, artifact: str) -> None:
        nonlocal post_serial
        if action_type == "hashtag":
            kwargs = {"hashtags": frozenset({artifact})}
        elif action_type == "url":
            kwargs = {"urls": frozenset({artifact})}
        else:
            kwargs = {"mentions": frozenset({artifact})}
        posts.append(
            PostEvent(
                post_id=f"p{post_serial:08d}",
                user_id=user,
                timestamp=timestamp,
                post_type="original",
                lang="en",
                **kwargs,
            )
        )
        post_serial += 1

    for cohort_index, cohort in enumerate(config.cohorts):
        members = [f"c{cohort_index}_u{j:03d}" for j in range(cohort.member_count)]
        for member in members:
            user_classes[member] = cohort.user_class
        active = sorted(cohort_rng.sample(range(buckets), cohort.windows_active))
        for window_number, bucket in enumerate(active):
            start = bucket * config.window_seconds
            for action_type in cohort.action_types:
                if cohort.artifacts:
                    artifact = cohort.artifacts[window_number % len(cohort.artifacts)]
                else:
                    artifact = f"planted_c{cohort_index}_{action_type}"
                for member in members:
                    for _ in range(cohort.posts_per_window):
                        offset = cohort_rng.randrange(config.window_seconds)
                        emit(member, start + offset, action_type, artifact)
        for u, v in combinations(members, 2):
            for action_type in cohort.action_types:
                planted.append(PlantedPair(u, v, action_type, cohort.windows_active))

    for j in range(config.background_users):
        user = f"bg_u{j:05d}"
        user_classes[user] = "human"
        lam = config.background_rate_per_hour * config.duration_seconds / 3600.0
        for _ in range(_poisson(background_rng, lam)):
            timestamp = background_rng.randrange(config.duration_seconds)
            action_type = ACTION_TYPES[background_rng.randrange(len(ACTION_TYPES))]
            vocabulary = config.vocabulary_sizes.get(action_type, DEFAULT_VOCABULARY)
            emit(user, timestamp, action_type, _background_artifact(background_rng, action_type, vocabulary))

    ordered = tuple(sorted(posts, key=lambda p: (p.timestamp, p.post_id)))
    dataset = EventDataset(posts=ordered, interactions=(), label=f"sim-{config.seed}")
    truth = GroundTruth(pairs=tuple(planted), user_classes=user_classes)
    return dataset, truth


def bot_scores_from_truth(
    truth: GroundTruth, bot_score: float = 0.95, human_score: float = 0.05
) -> dict[str, float]:
    """Score table matching the planted classes, covering every generated user."""
    return {
        user: bot_score if cls == "bot" else human_score
        for user, cls in sorted(truth.user_classes.items())
    }


def write_ground_truth_csv(truth: GroundTruth, path: str | Path) -> Path:
    rows = sorted((p.user_u, p.user_v, p.action_type, p.min_count) for p in truth.pairs)
    return write_csv(path, ("user_u", "user_v", "action_type", "min_count"), rows)


def write_bot_scores_csv(scores: Mapping[str, float], path: str | Path) -> Path:
    rows = ((user, repr(float(scores[user]))) for user in sorted(scores))
    return write_csv(path, ("user_id", "score"), rows)


def config_from_json(path: str | Path) -> SimConfig:
    """Load a SimConfig from its documented JSON shape."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    cohorts = tuple(
        CohortSpec(
            member_count=int(c["member_count"]),
            user_class=c.get("user_class", "bot"),
            action_types=tuple(c.get("action_types", ["hashtag"])),
            artifacts=tuple(c.get("artifacts", [])),
            windows_active=int(c.get("windows_active", 1)),
            posts_per_window=int(c.get("posts_per_window", 1)),
        )
        for c in obj.get("cohorts", [])
    )
    return SimConfig(
        seed=int(obj.get("seed", 0)),
        duration_seconds=int(obj.get("duration_seconds", 4 * 3600)),
        window_seconds=int(obj.get("window_seconds", 300)),
        background_users=int(obj.get("background_users", 0)),
        background_rate_per_hour=float(obj.get("background_rate_per_hour", 2.0)),
        cohorts=cohorts,
        vocabulary_sizes={
            **{a: DEFAULT_VOCABULARY for a in ACTION_TYPES},
            **{k: int(v) for k, v in obj.get("vocabulary_sizes", {}).items()},
        },
    )
