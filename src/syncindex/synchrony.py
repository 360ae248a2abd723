"""Co-timed action detection within fixed 5-minute windows.

Two users synchronize on an action type when they post the same canonical
artifact inside the same epoch-aligned bucket (floor(timestamp / window)).
Every group of k distinct users sharing (action type, artifact, bucket)
contributes one count to each of its C(k, 2) unordered pairs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .events import ACTION_TYPES, ActionRecord, read_csv, write_csv

BRUTE_FORCE_LIMIT = 10_000
PAIR_COUNT_COLUMNS = ("user_u", "user_v", "action_type", "count")
# The largest count a stage table may carry: float(count) is exact up to
# 2**53, and every score and user sum stays finite.
MAX_COUNT = 2**53


@dataclass(frozen=True)
class SyncWindowConfig:
    """Fixed epoch-aligned bucketing; bucket = floor(timestamp / window_seconds)."""

    window_seconds: int = 300

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")

    def bucket(self, timestamp: int) -> int:
        return timestamp // self.window_seconds


def pair_key(u: str, v: str) -> tuple[str, str]:
    """Unordered pair as a lexicographically sorted tuple; self-pairs rejected."""
    if u == v:
        raise ValueError(f"self-pair: {u!r}")
    return (u, v) if u < v else (v, u)


class PairSyncCounts:
    """Per unordered user pair, per action type, the synchrony count S(u, v, a)."""

    __slots__ = ("_table",)

    def __init__(self) -> None:
        self._table: dict[tuple[str, str], dict[str, int]] = {}

    def add(self, u: str, v: str, action_type: str, amount: int = 1) -> None:
        if amount <= 0:
            raise ValueError("count increments must be positive")
        actions = self._table.setdefault(pair_key(u, v), {})
        actions[action_type] = actions.get(action_type, 0) + amount

    def get(self, u: str, v: str, action_type: str) -> int:
        return self._table.get(pair_key(u, v), {}).get(action_type, 0)

    def s_total(self, pair: tuple[str, str]) -> int:
        return sum(self._table.get(pair, {}).values())

    def num_action_types(self, pair: tuple[str, str]) -> int:
        return len(self._table.get(pair, {}))

    def items(self) -> list[tuple[tuple[str, str], dict[str, int]]]:
        """Sorted (pair, {action_type: count}) items; the dicts are the table's own."""
        return sorted(self._table.items())

    def users(self) -> list[str]:
        seen = {u for pair in self._table for u in pair}
        return sorted(seen)

    def rows(self) -> Iterator[tuple[str, str, str, int]]:
        """Sorted (user_u, user_v, action_type, count) rows."""
        for (u, v), actions in self.items():
            for action_type, count in sorted(actions.items()):
                yield u, v, action_type, count

    def __len__(self) -> int:
        return len(self._table)

    def __bool__(self) -> bool:
        return bool(self._table)

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairSyncCounts):
            return NotImplemented
        return self._table == other._table

    def __repr__(self) -> str:
        return f"PairSyncCounts({len(self._table)} pairs)"


def detect(
    actions: Iterable[ActionRecord],
    config: SyncWindowConfig | None = None,
) -> PairSyncCounts:
    """Group actions by (action type, artifact, bucket) and count pair co-memberships.

    A user appearing several times in one group contributes as a single
    member: no self-pairs and no double counting within a group. The result
    is independent of input order.
    """
    config = config or SyncWindowConfig()
    members: dict[tuple[str, str, int], set[str]] = defaultdict(set)
    for record in actions:
        key = (record.action_type, record.artifact_id, config.bucket(record.timestamp))
        members[key].add(record.user_id)

    groups = sorted(
        (key[0], tuple(sorted(users)))
        for key, users in members.items()
        if len(users) >= 2
    )
    counts = PairSyncCounts()
    table = counts._table
    for action_type, users in groups:
        for pair in combinations(users, 2):  # users are sorted, so u < v
            actions = table.setdefault(pair, {})
            actions[action_type] = actions.get(action_type, 0) + 1
    return counts


def brute_force_detect(
    actions: Sequence[ActionRecord],
    config: SyncWindowConfig | None = None,
) -> PairSyncCounts:
    """Oracle: enumerate every record pair, then collapse per-group duplicates.

    Same output contract as detect, computed without grouping. Intended for
    small inputs only.
    """
    if len(actions) > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force oracle limited to {BRUTE_FORCE_LIMIT} records")
    config = config or SyncWindowConfig()
    keys = [(r.action_type, r.artifact_id, config.bucket(r.timestamp)) for r in actions]
    users = [r.user_id for r in actions]

    hits: set[tuple[str, str, int, str, str]] = set()
    n = len(actions)
    for i in range(n):
        key_i = keys[i]
        user_i = users[i]
        for j in range(i + 1, n):
            if keys[j] == key_i and users[j] != user_i:
                u, v = (user_i, users[j]) if user_i < users[j] else (users[j], user_i)
                hits.add(key_i + (u, v))

    counts = PairSyncCounts()
    for action_type, _artifact, _bucket, u, v in hits:
        counts.add(u, v, action_type)
    return counts


def user_action_type_counts(counts: PairSyncCounts) -> dict[str, int]:
    """Per user, the number of distinct action types with at least one synchronizing pair."""
    per_user: dict[str, set[str]] = defaultdict(set)
    for (u, v), actions in counts.items():
        per_user[u].update(actions)
        per_user[v].update(actions)
    return {user: len(types) for user, types in per_user.items()}


def action_type_participation(
    counts: PairSyncCounts, per_user: dict[str, int] | None = None
) -> dict[int, float]:
    """Fraction of synchronizing users coordinating across 1, 2 and 3 action types.

    per_user, when given, must be user_action_type_counts(counts).
    """
    if per_user is None:
        per_user = user_action_type_counts(counts)
    if not per_user:
        return {}
    total = len(per_user)
    dist = {level: 0 for level in (1, 2, 3)}
    for count in per_user.values():
        dist[count] += 1
    return {level: dist[level] / total for level in (1, 2, 3)}


def write_pair_counts_csv(counts: PairSyncCounts, path: str | Path) -> Path:
    """Pair-count export: user_u,user_v,action_type,count with lexicographic rows."""
    return write_csv(path, PAIR_COUNT_COLUMNS, counts.rows())


def read_pair_counts_csv(path: str | Path) -> PairSyncCounts:
    """The pair-count table; ValueError naming the file and line for a self-pair,
    an action type outside ACTION_TYPES or a count outside 1..MAX_COUNT."""
    counts = PairSyncCounts()
    for line, (u, v, action_type, text) in read_csv(path, PAIR_COUNT_COLUMNS, ids=("user_u", "user_v")):
        try:
            count = int(text)
        except ValueError:
            count = 0
        if u == v:
            raise ValueError(f"{path}: line {line}: self-pair {u!r}")
        if action_type not in ACTION_TYPES:
            raise ValueError(f"{path}: line {line}: unknown action_type {action_type!r}")
        if not 0 < count <= MAX_COUNT:
            raise ValueError(f"{path}: line {line}: count {text!r} is not an integer in 1..2**53")
        counts.add(u, v, action_type, count)
    return counts
