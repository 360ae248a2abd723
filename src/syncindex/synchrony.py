"""Co-timed action detection within fixed windows of a configurable length.

Two users synchronize on an action type when they post the same canonical
artifact inside the same epoch-aligned bucket (floor(timestamp / window)).
Every group of k distinct users sharing (action type, artifact, bucket)
contributes one count to each of its C(k, 2) unordered pairs.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from pathlib import Path
from typing import Iterable

from .events import ACTION_TYPES, ActionRecord, read_csv, write_csv

PAIR_COUNT_COLUMNS = ("user_u", "user_v", "action_type", "count")
DEFAULT_WINDOW_SECONDS = 300
# The largest count a stage table may carry: float(count) is exact up to
# 2**53, and every score and user sum stays finite.
MAX_COUNT = 2**53


# Per unordered user pair (u, v) with u < v, per action type, the synchrony
# count S(u, v, a). detect and read_pair_counts_csv list the pairs in
# ascending order; a consumer that needs that order sorts the items, which
# costs one linear pass on a sorted table.
PairCounts = dict[tuple[str, str], dict[str, int]]


def detect(
    actions: Iterable[ActionRecord],
    window_seconds: int = DEFAULT_WINDOW_SECONDS,
) -> PairCounts:
    """Group actions by (action type, artifact, timestamp // window_seconds)
    and count pair co-memberships; ValueError for a window below 1 second.

    A user appearing several times in one group contributes as a single
    member: no self-pairs and no double counting within a group. The result
    is independent of input order.
    """
    if window_seconds <= 0:
        raise ValueError("window_seconds must be positive")
    members: dict[tuple[str, str, int], set[str]] = defaultdict(set)
    for record in actions:
        key = (record.action_type, record.artifact_id, record.timestamp // window_seconds)
        members[key].add(record.user_id)

    # A cohort posting together forms the same group in many buckets and
    # artifacts, so each distinct (action type, members) group is walked once,
    # adding its multiplicity. Walking them in sorted order adds each pair's
    # action types in ascending order.
    groups = Counter(
        (key[0], tuple(sorted(users)))
        for key, users in members.items()
        if len(users) >= 2
    )
    table: PairCounts = {}
    for (action_type, users), multiplicity in sorted(groups.items()):
        for pair in combinations(users, 2):  # users are sorted, so u < v
            actions = table.setdefault(pair, {})
            actions[action_type] = actions.get(action_type, 0) + multiplicity
    return dict(sorted(table.items()))


def user_action_type_counts(counts: PairCounts) -> dict[str, int]:
    """Per user, the number of distinct action types with at least one synchronizing pair."""
    per_user: dict[str, set[str]] = defaultdict(set)
    for (u, v), actions in counts.items():
        per_user[u].update(actions)
        per_user[v].update(actions)
    return {user: len(types) for user, types in per_user.items()}


def action_type_participation(per_user: dict[str, int]) -> dict[int, float]:
    """Fraction of synchronizing users coordinating across 1, 2 and 3 action
    types, from user_action_type_counts."""
    if not per_user:
        return {}
    total = len(per_user)
    dist = {level: 0 for level in (1, 2, 3)}
    for count in per_user.values():
        dist[count] += 1
    return {level: dist[level] / total for level in (1, 2, 3)}


def write_pair_counts_csv(counts: PairCounts, path: str | Path) -> Path:
    """Pair-count export: user_u,user_v,action_type,count with lexicographic rows."""
    rows = (
        (*pair, action_type, count)
        for pair, actions in sorted(counts.items())
        for action_type, count in sorted(actions.items())
    )
    return write_csv(path, PAIR_COUNT_COLUMNS, rows)


def read_pair_counts_csv(path: str | Path) -> PairCounts:
    """The pair-count table; ValueError naming the file and line for a self-pair,
    an action type outside ACTION_TYPES, a count outside 1..MAX_COUNT or a
    pair and action type listed twice (in either order)."""
    table: PairCounts = {}
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
        actions = table.setdefault((u, v) if u < v else (v, u), {})
        if action_type in actions:
            raise ValueError(
                f"{path}: line {line}: pair ({u!r}, {v!r}) with action_type {action_type!r} listed twice"
            )
        actions[action_type] = count
    return dict(sorted(table.items()))
