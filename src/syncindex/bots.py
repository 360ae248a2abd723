"""External bot-likelihood ingestion and class-partitioned statistics.

Scores come from an upstream classifier and are ingested, never computed.
A user is a bot when its likelihood is strictly above the threshold
(default 0.70). Users without a score stay "unknown" and are surfaced
separately rather than silently defaulted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, pstdev
from typing import Iterable, Mapping

from . import metrics
from .events import _xml_forbidden, csv_rows, open_input, parse_float
from .graphs import Graph

logger = logging.getLogger(__name__)

DEFAULT_THRESHOLD = 0.70


class ScoreError(ValueError):
    """Bot likelihood outside [0, 1] or unreadable score table."""


@dataclass(frozen=True)
class BotScoreTable:
    """Read-only user -> likelihood mapping with a classification threshold;
    ScoreError for a score or threshold outside [0, 1]."""

    scores: Mapping[str, float]
    threshold: float = DEFAULT_THRESHOLD
    rejected: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:  # False for NaN
            raise ScoreError(f"threshold outside [0, 1]: {self.threshold!r}")
        for user, score in self.scores.items():
            if not 0.0 <= score <= 1.0:
                raise ScoreError(f"score outside [0, 1] for {user!r}: {score!r}")

    def classify(self, user: str) -> str:
        """bot when the user's score is strictly above the threshold, human
        otherwise, unknown when the user has no score."""
        score = self.scores.get(user)
        if score is None:
            return "unknown"
        return "bot" if score > self.threshold else "human"


def load_bot_scores(path: str | Path, threshold: float = DEFAULT_THRESHOLD) -> BotScoreTable:
    """Read the user_id,score CSV (header required) through events.csv_rows;
    a row whose score events.parse_float does not read into [0, 1] is rejected.

    A row whose user id is not valid UTF-8 or holds another character XML 1.0
    forbids is one rejected row, as is a row the csv module cannot read, and
    a row whose user id an earlier row holds (the first row's score is kept).
    """
    scores: dict[str, float] = {}
    rejected = 0
    with open_input(path) as handle:
        try:
            _, position, rows = csv_rows(handle)
        except ValueError as exc:
            raise ScoreError(f"bot score file {path}: {exc}") from exc
        if "user_id" not in position or "score" not in position:
            raise ScoreError(f"bot score file {path} must have a user_id,score header")
        user_at, score_at = position["user_id"], position["score"]
        for _, cells in rows:
            if isinstance(cells, list) and max(user_at, score_at) < len(cells):
                user, score = cells[user_at].strip(), parse_float(cells[score_at])
            else:  # a csv.Error, or a row short of a column
                user, score = "", None
            if score is None or not 0.0 <= score <= 1.0 or not user or user in scores or _xml_forbidden(user):
                rejected += 1
            else:
                scores[user] = score
    if rejected:
        logger.warning("rejected %d bot score rows from %s", rejected, path)
    return BotScoreTable(scores=scores, threshold=threshold, rejected=rejected)


def pair_class(u_class: str, v_class: str) -> str:
    """bot-bot, bot-human or human-human; unknown-involved when either user is unknown."""
    if "unknown" in (u_class, v_class):
        return "unknown-involved"
    return "-".join(sorted((u_class, v_class)))


def average_csi_by_pair_class(graph: Graph) -> dict[str, dict]:
    """{pair class: {"mean", "count"}} over the sync graph's edge weights (the
    pair scores) by its user_class list, classes in sorted order; pairs with
    an unknown member form their own class, and classes with no pairs are
    absent."""
    classes = graph.user_class
    kinds = set(classes)
    names = {(u_class, v_class): pair_class(u_class, v_class) for u_class in kinds for v_class in kinds}
    buckets: dict[str, list[float]] = {}
    for a, b, score in zip(graph.sources, graph.targets, graph.weights):
        buckets.setdefault(names[classes[a], classes[b]], []).append(score)
    return {
        cls: {"mean": fmean(values), "count": len(values)}
        for cls, values in sorted(buckets.items())
    }


def class_members(graph: Graph) -> tuple[dict[str, list[int]], int]:
    """({user class: node indices}, number of unknown nodes) by the sync
    graph's user_class list: the scored classes in sorted order, empty
    classes absent. Every user-class section groups its users here."""
    members: dict[str, list[int]] = {}
    for i, cls in enumerate(graph.user_class):
        members.setdefault(cls, []).append(i)
    unknown = len(members.pop("unknown", ()))
    return dict(sorted(members.items())), unknown


def average_csi_by_user_class(graph: Graph) -> tuple[dict[str, dict], int]:
    """({user class: {"mean", "sd", "count"}}, number of unscored users) over
    the sync graph's csi_user list by class_members.

    sd is the population standard deviation (0 for one user). Classes are in
    sorted order; unscored users are only counted, and empty classes are absent.
    """
    members, unknown = class_members(graph)
    scores = {cls: [graph.csi_user[i] for i in nodes] for cls, nodes in members.items()}
    return {cls: {"mean": fmean(v), "sd": pstdev(v), "count": len(v)} for cls, v in scores.items()}, unknown


def centrality_by_class(
    centralities: metrics.Centralities, graph: Graph
) -> dict[str, dict[str, float | None]]:
    """Per class of class_members, the mean of each centralities.row column,
    keyed by metrics.CENTRALITY_COLUMNS, and the count, over the class's users
    in the all-communication graph; a column of None (a non-converged
    eigenvector) has mean None, and a class with no such user is absent."""
    out: dict[str, dict[str, float | None]] = {}
    for cls, nodes in class_members(graph)[0].items():
        rows = [centralities.row(graph.nodes[i]) for i in nodes if graph.nodes[i] in centralities.degree]
        if rows:
            means = [None if None in column else fmean(column) for column in zip(*rows)]
            out[cls] = {**dict(zip(metrics.CENTRALITY_COLUMNS, means)), "count": len(rows)}
    return out


def class_triangle_counts(graph: Graph) -> dict[str, tuple[list[int], list[int]]]:
    """Per class of class_members, metrics.triangle_counts on the
    class-induced subgraph; empty classes are absent."""
    return {
        cls: metrics.triangle_counts(graph, sum(1 << i for i in nodes))
        for cls, nodes in class_members(graph)[0].items()
    }


def clustering_by_class(counts: dict[str, tuple[list[int], list[int]]]) -> dict[str, float]:
    """metrics.transitivity of each class-induced subgraph from
    class_triangle_counts; empty classes are absent."""
    return {cls: metrics.transitivity(class_counts) for cls, class_counts in counts.items()}


def user_classes(users: Iterable[str], table: BotScoreTable) -> dict[str, str]:
    """Classify a user collection; handy for graph node attributes."""
    return {user: table.classify(user) for user in users}
