"""Hierarchical combined synchronization index: pair, user, and network levels.

Pair scores combine per-action synchrony counts with a duplicate correction
and a scaling by the number of action types the pair synchronizes in. User
scores are frequency-weighted sums of pair scores; the network score is the
mean user score over synchronizing users.

Three pair formulas are selectable (k = number of synchronized action types,
sigma = sum of normalized per-action counts):

    anchored (default):  k * (sigma - (k - 1))   one synchronization = one point
    prose:               k * (sigma - k)
    literal:             sigma - k * k
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .events import ACTION_TYPES, read_csv, write_csv, write_json
from .synchrony import PairSyncCounts

PAIR_FORMULAS = ("anchored", "prose", "literal")
NORMALIZATIONS = ("none", "per_action_max")


class UndefinedNetworkError(ValueError):
    """No synchronizing users: the network score does not exist."""


@dataclass(frozen=True)
class CsiConfig:
    pair_formula: str = "anchored"
    normalization: str = "none"

    def __post_init__(self) -> None:
        if self.pair_formula not in PAIR_FORMULAS:
            raise ValueError(f"unknown pair formula: {self.pair_formula}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization: {self.normalization}")


@dataclass
class CsiTables:
    """All three index levels for one dataset under one configuration."""

    pair_scores: dict[tuple[str, str], float]
    user_scores: dict[str, float]
    network_score: float
    per_action_network: dict[str, float]


def _formula_score(values: list[float], formula: str) -> float:
    k = len(values)
    sigma = sum(values)
    if formula == "anchored":
        return k * (sigma - (k - 1))
    if formula == "prose":
        return k * (sigma - k)
    if formula == "literal":
        return sigma - k * k
    raise ValueError(f"unknown pair formula: {formula}")


def csi_network(user_scores: dict[str, float]) -> float:
    """Mean user score over synchronizing users; undefined when there are none."""
    if not user_scores:
        raise UndefinedNetworkError("no synchronizing users")
    total = 0.0
    for user in sorted(user_scores):
        total += user_scores[user]
    return total / len(user_scores)


def compute_tables(counts: PairSyncCounts, config: CsiConfig | None = None) -> CsiTables:
    """All index levels in one pass over the pairs in ascending order.

    n(u, v, a) is S(u, v, a), divided under per_action_max by the largest
    count of action type a over all pairs. Each pair adds S_total(u, v) * its
    score to both users' sums and, for each of its action types a,
    S(u, v, a) * the one-action score of n(u, v, a) to a's user sums: the
    index of the table restricted to a. Every sum receives its additions in
    pair order (README "Determinism"). Per-action networks cover action
    types with pairs.
    """
    config = config or CsiConfig()
    formula = config.pair_formula
    items = counts.items()
    scale: dict[str, int] | None = None
    if config.normalization == "per_action_max":
        scale = {}
        for _, actions in items:
            for action_type, count in actions.items():
                if count > scale.get(action_type, 0):
                    scale[action_type] = count
    pair_scores: dict[tuple[str, str], float] = {}
    user_scores: dict[str, float] = {}
    action_user_scores: dict[str, dict[str, float]] = {}
    for pair, actions in items:
        types = sorted(actions)
        values = [float(actions[a]) if scale is None else actions[a] / scale[a] for a in types]
        score = _formula_score(values, formula)
        pair_scores[pair] = score
        term = sum(actions.values()) * score
        for user in pair:
            user_scores[user] = user_scores.get(user, 0.0) + term
        for action_type, value in zip(types, values):
            single = actions[action_type] * _formula_score([value], formula)
            sums = action_user_scores.setdefault(action_type, {})
            for user in pair:
                sums[user] = sums.get(user, 0.0) + single
    return CsiTables(
        pair_scores=pair_scores,
        user_scores=user_scores,
        network_score=csi_network(user_scores),
        per_action_network={a: csi_network(action_user_scores[a]) for a in sorted(action_user_scores)},
    )


PAIR_COLUMNS = ("user_u", "user_v", "num_action_types", "s_total", "csi_userpair")
USER_COLUMNS = ("user_id", "csi_user")


def write_pair_scores_csv(
    tables: CsiTables, counts: PairSyncCounts, path: str | Path
) -> Path:
    rows = (
        (*pair, counts.num_action_types(pair), counts.s_total(pair), repr(tables.pair_scores[pair]))
        for pair in sorted(tables.pair_scores)
    )
    return write_csv(path, PAIR_COLUMNS, rows)


def _finite_score(text: str, column: str, path: str | Path, line: int) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: {column} {text!r} is not a finite number")
    return value


def read_pair_scores_csv(path: str | Path) -> dict[tuple[str, str], float]:
    rows = read_csv(path, ("user_u", "user_v", "csi_userpair"), ids=("user_u", "user_v"))
    return {(u, v): _finite_score(score, "csi_userpair", path, line) for line, (u, v, score) in rows}


def write_user_scores_csv(tables: CsiTables, path: str | Path) -> Path:
    rows = ((user, repr(tables.user_scores[user])) for user in sorted(tables.user_scores))
    return write_csv(path, USER_COLUMNS, rows)


def read_user_scores_csv(path: str | Path) -> dict[str, float]:
    rows = read_csv(path, USER_COLUMNS, ids=("user_id",))
    return {user: _finite_score(score, "csi_user", path, line) for line, (user, score) in rows}


def network_summary(tables: CsiTables | None, config: CsiConfig) -> dict:
    """Network and per-action scores; without tables (no pairs) they are null, with a reason."""
    per_action = tables.per_action_network if tables is not None else {}
    summary = {
        "csi_network": tables.network_score if tables is not None else None,
        "per_action": {action: per_action.get(action) for action in ACTION_TYPES},
        "formula": config.pair_formula,
        "normalization": config.normalization,
    }
    if tables is None:
        summary["reason"] = "no synchronized pairs"
    return summary


def write_network_summary_json(summary: dict, path: str | Path) -> Path:
    return write_json(path, summary)


def write_score_artifacts(
    tables: CsiTables | None, counts: PairSyncCounts, config: CsiConfig, out: Path
) -> None:
    """pairs.csv, users.csv and network.json; header-only tables when there are no pairs."""
    if tables is None:
        write_csv(out / "pairs.csv", PAIR_COLUMNS, ())
        write_csv(out / "users.csv", USER_COLUMNS, ())
    else:
        write_pair_scores_csv(tables, counts, out / "pairs.csv")
        write_user_scores_csv(tables, out / "users.csv")
    write_network_summary_json(network_summary(tables, config), out / "network.json")
