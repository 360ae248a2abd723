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

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .events import ACTION_TYPES
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
    config: CsiConfig


def normalize_counts(
    counts: PairSyncCounts, strategy: str = "none"
) -> dict[tuple[str, str], dict[str, float]]:
    """Per-pair normalized counts n(u, v, a).

    none: identity. per_action_max: divide by the maximum count observed for
    that action type across all pairs, so values land in (0, 1]. Action
    types with no pairs contribute nothing.
    """
    if strategy not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization: {strategy}")
    table = {pair: counts.actions(pair) for pair in counts.pairs()}
    if strategy == "none":
        return {
            pair: {a: float(s) for a, s in sorted(actions.items())}
            for pair, actions in table.items()
        }
    max_per_action: dict[str, int] = {}
    for actions in table.values():
        for action_type, count in actions.items():
            if count > max_per_action.get(action_type, 0):
                max_per_action[action_type] = count
    return {
        pair: {a: s / max_per_action[a] for a, s in sorted(actions.items())}
        for pair, actions in table.items()
    }


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


def csi_userpair(
    normalized: dict[tuple[str, str], dict[str, float]],
    pair: tuple[str, str],
    formula: str = "anchored",
) -> float:
    """Pair score from normalized per-action counts; the pair must be present."""
    actions = normalized.get(pair)
    if not actions:
        raise ValueError(f"pair not in synchrony table: {pair}")
    return _formula_score([actions[a] for a in sorted(actions)], formula)


def compute_pair_scores(
    counts: PairSyncCounts, config: CsiConfig | None = None
) -> dict[tuple[str, str], float]:
    config = config or CsiConfig()
    normalized = normalize_counts(counts, config.normalization)
    return {
        pair: csi_userpair(normalized, pair, config.pair_formula)
        for pair in counts.pairs()
    }


def csi_user(
    pair_scores: dict[tuple[str, str], float], counts: PairSyncCounts
) -> dict[str, float]:
    """User score: sum over the user's pairs of S_total(u, v) * pair score.

    Accumulation runs in lexicographic pair order so results are
    bit-identical regardless of evaluation strategy.
    """
    scores: dict[str, float] = {}
    for pair in sorted(pair_scores):
        term = counts.s_total(pair) * pair_scores[pair]
        for user in pair:
            scores[user] = scores.get(user, 0.0) + term
    return scores


def csi_network(user_scores: dict[str, float]) -> float:
    """Mean user score over synchronizing users; undefined when there are none."""
    if not user_scores:
        raise UndefinedNetworkError("no synchronizing users")
    total = 0.0
    for user in sorted(user_scores):
        total += user_scores[user]
    return total / len(user_scores)


def csi_single_action(
    counts: PairSyncCounts, action_type: str, config: CsiConfig | None = None
) -> float:
    """Network score of the pipeline restricted to pairs of one action type."""
    restricted = counts.restrict(action_type)
    if not restricted:
        raise UndefinedNetworkError(f"no synchronizing pairs for action type {action_type!r}")
    config = config or CsiConfig()
    pair_scores = compute_pair_scores(restricted, config)
    return csi_network(csi_user(pair_scores, restricted))


def compute_tables(counts: PairSyncCounts, config: CsiConfig | None = None) -> CsiTables:
    """Run the full hierarchy; per-action networks cover action types with pairs."""
    config = config or CsiConfig()
    pair_scores = compute_pair_scores(counts, config)
    user_scores = csi_user(pair_scores, counts)
    network = csi_network(user_scores)
    per_action: dict[str, float] = {}
    present = sorted({a for pair in counts.pairs() for a in counts.actions(pair)})
    for action_type in present:
        per_action[action_type] = csi_single_action(counts, action_type, config)
    return CsiTables(
        pair_scores=pair_scores,
        user_scores=user_scores,
        network_score=network,
        per_action_network=per_action,
        config=config,
    )


PAIR_COLUMNS = ("user_u", "user_v", "num_action_types", "s_total", "csi_userpair")
USER_COLUMNS = ("user_id", "csi_user")


def write_pair_scores_csv(
    tables: CsiTables, counts: PairSyncCounts, path: str | Path
) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(PAIR_COLUMNS)
        for pair in sorted(tables.pair_scores):
            writer.writerow(
                [
                    pair[0],
                    pair[1],
                    counts.num_action_types(pair),
                    counts.s_total(pair),
                    repr(tables.pair_scores[pair]),
                ]
            )
    return path


def _finite_score(row: dict, column: str, path: str | Path, line: int) -> float:
    value = float(row[column])
    if not math.isfinite(value):
        raise ValueError(f"{path}: line {line}: non-finite {column} {row[column]!r}")
    return value


def read_pair_scores_csv(path: str | Path) -> dict[tuple[str, str], float]:
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return {
            (row["user_u"], row["user_v"]): _finite_score(row, "csi_userpair", path, reader.line_num)
            for row in reader
        }


def write_user_scores_csv(tables: CsiTables, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(USER_COLUMNS)
        for user in sorted(tables.user_scores):
            writer.writerow([user, repr(tables.user_scores[user])])
    return path


def read_user_scores_csv(path: str | Path) -> dict[str, float]:
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        return {
            row["user_id"]: _finite_score(row, "csi_user", path, reader.line_num) for row in reader
        }


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
    path = Path(path)
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def write_score_artifacts(
    tables: CsiTables | None, counts: PairSyncCounts, config: CsiConfig, out: Path
) -> None:
    """pairs.csv, users.csv and network.json; header-only tables when there are no pairs."""
    if tables is None:
        (out / "pairs.csv").write_text(",".join(PAIR_COLUMNS) + "\n", encoding="utf-8")
        (out / "users.csv").write_text(",".join(USER_COLUMNS) + "\n", encoding="utf-8")
    else:
        write_pair_scores_csv(tables, counts, out / "pairs.csv")
        write_user_scores_csv(tables, out / "users.csv")
    write_network_summary_json(network_summary(tables, config), out / "network.json")
