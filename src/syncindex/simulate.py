"""Synthetic event generator with planted coordinated cohorts.

Cohort members post a shared artifact inside a single detection bucket for
each of their active windows, so every planted pair is guaranteed a
synchrony count of at least windows_active per action type. Background
users post Poisson-distributed noise drawn uniformly from large artifact
vocabularies, keeping coincidental collisions negligible. Posts that carry
the same artifact share one artifact set. Output is byte-identical for a
fixed seed; cohort and background draws use separate random streams so
tuning one leaves the other untouched.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Mapping, NamedTuple

from .events import (
    _NO_ARTIFACTS, ACTION_TYPES, MAX_TIMESTAMP, ArtifactError, EventDataset, PostEvent, _xml_forbidden,
    canonicalize_artifact, merge_datasets, write_csv,
)
from .synchrony import DEFAULT_WINDOW_SECONDS

DEFAULT_VOCABULARY = 10_000
# The most posts a background user may expect over the event; _poisson draws
# one random number per post.
MAX_EXPECTED_POSTS = 10_000
# The largest rate _poisson draws at once, well below the underflow of exp(-rate).
_POISSON_PART = 500.0
# Where each action type's artifacts go among PostEvent's hashtags, urls and mentions fields.
_ARTIFACT_SLOT = {action: slot for slot, action in enumerate(ACTION_TYPES)}


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
            if self.action_types.count(action) > 1:
                raise SimConfigError(f"repeated action type: {action}")
        if self.windows_active < 1 or self.posts_per_window < 1:
            raise SimConfigError("windows_active and posts_per_window must be >= 1")
        # An artifact the pipeline rejects would plant pairs it can never find.
        for artifact in self.artifacts:
            if _xml_forbidden(artifact):
                raise SimConfigError(f"artifact {artifact!r} holds a character XML 1.0 forbids")
            for action in self.action_types:
                try:
                    canonicalize_artifact(action, artifact)
                except ArtifactError as exc:
                    raise SimConfigError(f"artifact {artifact!r} is not a valid {action}: {exc}") from None


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration_seconds: int = 4 * 3600
    window_seconds: int = DEFAULT_WINDOW_SECONDS  # detect's default window
    background_users: int = 0
    background_rate_per_hour: float = 2.0
    cohorts: tuple[CohortSpec, ...] = ()
    vocabulary_sizes: Mapping[str, int] = field(default_factory=dict)  # DEFAULT_VOCABULARY for a missing type

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0 or self.window_seconds <= 0:
            raise SimConfigError("duration and window must be positive")
        if self.duration_seconds > MAX_TIMESTAMP + 1:  # every timestamp is below the duration
            raise SimConfigError(f"duration_seconds must be <= {MAX_TIMESTAMP + 1}, not {self.duration_seconds!r}")
        if self.background_users < 0 or not 0 <= self.background_rate_per_hour < math.inf:  # False for NaN
            raise SimConfigError("background settings must be finite and non-negative")
        expected = self.background_rate_per_hour * self.duration_seconds / 3600.0
        if self.background_users > 0 and expected > MAX_EXPECTED_POSTS:
            raise SimConfigError(
                f"background_rate_per_hour * duration_seconds / 3600 must be <= {MAX_EXPECTED_POSTS}"
                f" expected posts per user, not {expected!r}"
            )
        for action, size in self.vocabulary_sizes.items():
            if action not in ACTION_TYPES:
                raise SimConfigError(f"vocabulary_sizes key {action!r} is not an action type")
            if size < 1:
                raise SimConfigError(f"vocabulary_sizes[{action!r}] must be >= 1, not {size!r}")
        if self.background_users == 0 and not self.cohorts:
            raise SimConfigError("nothing to generate: no users configured")
        buckets = self.duration_seconds // self.window_seconds
        for cohort in self.cohorts:
            if cohort.windows_active > buckets:
                raise SimConfigError(
                    f"cohort wants {cohort.windows_active} windows but only {buckets} exist"
                )


class PlantedPair(NamedTuple):
    """One planted (pair, action type) row, with user_u < user_v."""

    user_u: str
    user_v: str
    action_type: str
    min_count: int


@dataclass(frozen=True)
class GroundTruth:
    pairs: tuple[PlantedPair, ...] = ()
    user_classes: Mapping[str, str] = field(default_factory=dict)


def _poisson(rng: random.Random, lam: float) -> int:
    """Knuth's method, for the per-user rates SimConfig bounds by MAX_EXPECTED_POSTS.

    exp(-lam) underflows to 0.0 past a rate of about 745, so a rate above
    _POISSON_PART is drawn as a sum of draws of at most _POISSON_PART each
    (a sum of independent Poisson variables is Poisson).
    """
    if lam > _POISSON_PART:
        return _poisson(rng, _POISSON_PART) + _poisson(rng, lam - _POISSON_PART)
    if lam <= 0:
        return 0
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
    artifact_sets: dict[str, frozenset[str]] = {}  # one set per distinct artifact, shared by its posts

    def emit(user: str, timestamp: int, action_type: str, artifact: str) -> None:
        shared = artifact_sets.get(artifact)
        if shared is None:
            shared = artifact_sets[artifact] = frozenset({artifact})
        sets = [_NO_ARTIFACTS] * len(ACTION_TYPES)  # shared, as frozenset() is a new object on each call
        sets[_ARTIFACT_SLOT[action_type]] = shared
        posts.append(PostEvent(f"p{len(posts):08d}", user, timestamp, "original", "en", *sets))

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
        for u, v in combinations(sorted(members), 2):  # c0_u1000 sorts before c0_u101
            for action_type in cohort.action_types:
                planted.append(PlantedPair(u, v, action_type, cohort.windows_active))

    lam = config.background_rate_per_hour * config.duration_seconds / 3600.0
    for j in range(config.background_users):
        user = f"bg_u{j:05d}"
        user_classes[user] = "human"
        for _ in range(_poisson(background_rng, lam)):
            timestamp = background_rng.randrange(config.duration_seconds)
            action_type = ACTION_TYPES[background_rng.randrange(len(ACTION_TYPES))]
            vocabulary = config.vocabulary_sizes.get(action_type, DEFAULT_VOCABULARY)
            emit(user, timestamp, action_type, _background_artifact(background_rng, action_type, vocabulary))

    truth = GroundTruth(pairs=tuple(planted), user_classes=user_classes)
    return merge_datasets(EventDataset(posts=tuple(posts))), truth


def bot_scores_from_truth(truth: GroundTruth) -> dict[str, float]:
    """Score table matching the planted classes, covering every generated user:
    0.95 for a bot, 0.05 for a human."""
    return {
        user: 0.95 if cls == "bot" else 0.05
        for user, cls in sorted(truth.user_classes.items())
    }


def write_ground_truth_csv(truth: GroundTruth, path: str | Path) -> Path:
    return write_csv(path, PlantedPair._fields, sorted(truth.pairs))


def write_bot_scores_csv(scores: Mapping[str, float], path: str | Path) -> Path:
    rows = ((user, float(scores[user])) for user in sorted(scores))
    return write_csv(path, ("user_id", "score"), rows)


# Each key of the JSON config with its JSON type (name, test, conversion to the
# field); a key the JSON lacks takes the dataclass default, and a key not
# listed is an error. A bool is not a number.
_INTEGER = ("an integer", lambda value: type(value) is int, int)
_STRINGS = ("a list of strings", lambda value: type(value) is list and all(type(v) is str for v in value), tuple)
_COHORT_KEYS = {
    "member_count": _INTEGER, "user_class": ("a string", lambda value: type(value) is str, str),
    "action_types": _STRINGS, "artifacts": _STRINGS, "windows_active": _INTEGER, "posts_per_window": _INTEGER,
}
_CONFIG_KEYS = {
    "seed": _INTEGER, "duration_seconds": _INTEGER, "window_seconds": _INTEGER, "background_users": _INTEGER,
    "background_rate_per_hour": ("a number", lambda value: type(value) in (int, float), float),
    "cohorts": (
        "a list of objects", lambda value: type(value) is list and all(type(v) is dict for v in value),
        lambda cohorts: tuple(CohortSpec(**_fields(c, _COHORT_KEYS, "cohort key")) for c in cohorts),
    ),
    "vocabulary_sizes": (
        "an object of integers",
        lambda value: type(value) is dict and all(type(v) is int for v in value.values()), dict,
    ),
}


def _fields(obj: dict, keys: dict, what: str) -> dict:
    """obj's fields, each converted; TypeError naming the key for a value
    that is not its JSON type."""
    unknown = sorted(obj.keys() - keys)
    if unknown:
        raise SimConfigError(f"unknown {what} {', '.join(map(repr, unknown))}")
    fields = {}
    for key, value in obj.items():
        name, fits, convert = keys[key]
        if not fits(value):
            raise TypeError(f"{what} {key!r} must be {name}, not {json.dumps(value)}")
        fields[key] = convert(value)
    return fields


def config_from_json(path: str | Path) -> SimConfig:
    """Load a SimConfig from its documented JSON shape; every error (a bad
    shape, a value not of its key's JSON type, an unknown key, a broken
    bound) is a SimConfigError that names the file."""
    try:
        return SimConfig(**_fields(json.loads(Path(path).read_text(encoding="utf-8")), _CONFIG_KEYS, "key"))
    except SimConfigError as exc:
        raise SimConfigError(f"{path}: {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise SimConfigError(f"{path}: not a simulation config ({type(exc).__name__}: {exc})") from exc
