"""End-to-end orchestration: events in, event report and artifacts out.

The pipeline runs detect -> index -> graphs -> metrics -> bot overlay and
emits a deterministic report. Report floats are serialized with 6
significant digits; intermediate CSV artifacts keep full precision so
stages can be re-run from files bit-exactly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import networkx as nx

from . import bots as botmod
from . import csi as csimod
from . import graphs as graphmod
from . import metrics as metricmod
from . import synchrony
from .events import EventDataset, extract_actions, filter_originals, load_events, write_csv, write_json

logger = logging.getLogger(__name__)


class ReportParseError(ValueError):
    """A report file could not be read or lacks required fields."""


@dataclass(frozen=True)
class PipelineOptions:
    window_seconds: int = 300
    bot_threshold: float = botmod.DEFAULT_THRESHOLD
    pair_formula: str = "anchored"
    normalization: str = "none"
    min_partners: int = 5
    lang: str = ""
    seed: int = 0
    label: str = ""


@dataclass
class EventReport:
    event_label: str
    config: dict
    counts: dict
    action_type_participation: dict[str, float]
    csi_network_combined: float | None = None
    csi_per_action: dict[str, float | None] = field(default_factory=dict)
    reason: str | None = None
    avg_csi_userpair_by_pair_class: dict | None = None
    avg_csi_user_by_user_class: dict | None = None
    centrality_by_class: dict | None = None
    dominant_sync_class: str | None = None
    structure: dict | None = None
    notices: list[str] = field(default_factory=list)


def _round_sig(value: float, digits: int = 6) -> float:
    return float(f"{value:.{digits}g}")


def round_floats(obj: object, digits: int = 6) -> object:
    """Recursively round floats to significant digits for serialization."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _round_sig(obj, digits)
    if isinstance(obj, dict):
        return {key: round_floats(value, digits) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value, digits) for value in obj]
    return obj


def write_report_json(report: EventReport, path: str | Path) -> Path:
    return write_json(path, round_floats(asdict(report)))


def write_report_csv(report: EventReport, path: str | Path) -> Path:
    """Flattened section,name,value view of the report."""

    def rows(prefix: str, obj: object):
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from rows(f"{prefix}.{key}" if prefix else str(key), obj[key])
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                yield from rows(f"{prefix}[{i}]", item)
        else:
            yield prefix, obj

    return write_csv(path, ("field", "value"), rows("", round_floats(asdict(report))))  # None is written ""


@dataclass(frozen=True)
class Detection:
    """Output of the detect stage: pair counts and the sizes the report echoes."""

    counts: synchrony.PairSyncCounts
    original_posts: int
    action_records: int


def detect_pairs(dataset: EventDataset, window_seconds: int) -> Detection:
    """Synchronized pairs among the original posts of a dataset."""
    originals = filter_originals(dataset)
    actions = extract_actions(originals)
    window = synchrony.SyncWindowConfig(window_seconds=window_seconds)
    return Detection(synchrony.detect(actions, window), len(originals.posts), len(actions))


def score_pairs(
    counts: synchrony.PairSyncCounts, config: csimod.CsiConfig
) -> csimod.CsiTables | None:
    """The index hierarchy, or None when there are no synchronized pairs."""
    return csimod.compute_tables(counts, config) if counts else None


def sync_graphs(
    pair_scores: dict[tuple[str, str], float],
    user_scores: dict[str, float] | None,
    bot_table: botmod.BotScoreTable | None,
    min_partners: int,
) -> tuple[nx.Graph, nx.Graph]:
    """The sync graph (with class and score node attributes) and its k-core pruning."""
    classes = None
    if bot_table is not None:
        classes = botmod.user_classes({u for pair in pair_scores for u in pair}, bot_table)
    sync = graphmod.build_sync_graph(pair_scores, user_classes=classes, user_scores=user_scores)
    return sync, graphmod.prune_by_partner_count(sync, min_partners)


def write_sync_graphs(sync: nx.Graph, pruned: nx.Graph, out: Path) -> None:
    graphmod.export(sync, out / "sync.graphml")
    graphmod.export(pruned, out / "sync_pruned.graphml")


def structure_section(
    sync: nx.Graph,
    user_scores: dict[str, float] | None,
    bot_table: botmod.BotScoreTable | None,
    seed: int,
) -> dict | None:
    """Structure metrics of the sync graph; None when it has no edges (no pairs).

    Logs one warning naming each graph (sync, bot, human) whose transitivity
    is reported as 0 because it has no connected triples.
    """
    if sync.number_of_edges() == 0:
        return None
    partition = metricmod.louvain_partition(sync, seed=seed)
    bits = metricmod.neighbour_bits(sync)
    counts = metricmod.triangle_counts(sync, bits=bits)
    section = {
        "density": metricmod.density(sync),
        "modularity": metricmod.newman_modularity(sync, partition),
        "partition_method": "louvain",
        "hierarchy": metricmod.krackhardt_hierarchy(sync, "csi_order", user_scores=user_scores),
        "hierarchy_orientation": "csi_order",
        "transitivity": metricmod.transitivity(sync, counts),
        "avg_local_clustering": metricmod.avg_local_clustering(sync, counts),
    }
    no_triples = [] if any(counts[1].values()) else ["sync"]
    if bot_table is not None:
        totals = botmod.class_triangle_totals(bits, bot_table)
        section["clustering_by_class"] = botmod.clustering_by_class(sync, bot_table, totals=totals)
        no_triples += [cls for cls, (_, triples) in totals.items() if not triples]
    if no_triples:
        logger.warning("no connected triples: transitivity reported as 0 for %s", ", ".join(no_triples))
    return section


def write_metrics_json(structure: dict | None, path: Path) -> None:
    write_json(path, round_floats(structure if structure is not None else {}))


def allcomm_centralities(dataset: EventDataset) -> metricmod.Centralities:
    """Centralities on the all-communication graph of every user in the dataset.

    Post authors without interactions are isolated nodes.
    """
    users = {p.user_id for p in dataset.posts}
    for record in dataset.interactions:
        users.add(record.source_user)
        users.add(record.target_user)
    return metricmod.node_centralities(graphmod.build_allcomm_graph(dataset.interactions, users=users))


def write_centrality_csv(centralities: metricmod.Centralities, path: Path) -> None:
    """All three centralities at full precision; eigenvector cells are empty when
    it did not converge."""
    eigenvector = centralities.eigenvector
    rows = (
        (
            user,
            repr(centralities.degree[user]),
            repr(centralities.betweenness[user]),
            "" if eigenvector is None else repr(eigenvector[user]),
        )
        for user in sorted(centralities.degree)
    )
    write_csv(path, ("user_id", "total_degree", "betweenness", "eigenvector"), rows)


def _dominant_class(by_user: dict[str, dict]) -> str | None:
    candidates = {cls: by_user[cls]["mean"] for cls in ("bot", "human") if cls in by_user}
    if not candidates:
        return None
    return max(sorted(candidates), key=lambda cls: candidates[cls])


def run_pipeline(
    events_path: str | Path,
    bots_path: str | Path | None = None,
    out_dir: str | Path | None = None,
    options: PipelineOptions | None = None,
    interactions_path: str | Path | None = None,
) -> EventReport:
    """Run the full analysis over an events file; write artifacts when out_dir given.

    The stages are the ones the CLI runs one at a time (ingest, detect,
    score, graph, metrics), so their shared artifacts are byte-identical:
    pair_counts.csv, pairs.csv, users.csv, network.json, sync GraphML (raw
    and pruned) and metrics.json. Also written: centrality_by_action_types.csv
    and report.json. With no synchronized pairs the tables are header-only,
    the graphs have no nodes and metrics.json is {}. Deterministic for fixed
    inputs and options.
    """
    options = options or PipelineOptions()
    dataset = load_events(events_path, interactions_path, lang=options.lang, label=options.label)
    detection = detect_pairs(dataset, options.window_seconds)
    counts = detection.counts

    bot_table = None
    notices: list[str] = []
    if bots_path is not None:
        bot_table = botmod.load_bot_scores(bots_path, threshold=options.bot_threshold)
    else:
        notices.append("bot scores not provided; class sections omitted")

    csi_config = csimod.CsiConfig(
        pair_formula=options.pair_formula, normalization=options.normalization
    )
    tables = score_pairs(counts, csi_config)
    summary = csimod.network_summary(tables, csi_config)
    user_scores = tables.user_scores if tables is not None else {}
    sync, pruned = sync_graphs(
        tables.pair_scores if tables is not None else {}, user_scores, bot_table, options.min_partners
    )
    per_user = synchrony.user_action_type_counts(counts)

    report = EventReport(
        event_label=dataset.label or Path(events_path).stem,
        config={key: value for key, value in asdict(options).items() if key != "label"},
        counts={
            "posts": len(dataset.posts),
            "original_posts": detection.original_posts,
            "interactions": len(dataset.interactions),
            "action_records": detection.action_records,
            "malformed_lines": dataset.malformed,
            "sync_users": len(counts.users()),
            "sync_pairs": len(counts),
        },
        action_type_participation={
            str(level): value
            for level, value in synchrony.action_type_participation(counts, per_user).items()
        },
        csi_network_combined=summary["csi_network"],
        csi_per_action=summary["per_action"],
        structure=structure_section(sync, user_scores, bot_table, options.seed),
        notices=notices,
    )
    out = Path(out_dir) if out_dir is not None else None
    participation = []
    if tables is None:
        report.reason = "no synchronized pairs detected"
    else:
        centralities = allcomm_centralities(dataset)
        if centralities.eigenvector is None:
            notices.append("eigenvector centrality did not converge; reported as null")
        participation = metricmod.centrality_by_action_type_count(centralities, per_user)
    if tables is not None and bot_table is not None:
        report.avg_csi_userpair_by_pair_class = botmod.average_csi_by_pair_class(
            tables.pair_scores, bot_table
        )
        by_user, unknown = botmod.average_csi_by_user_class(tables.user_scores, bot_table)
        report.avg_csi_user_by_user_class = by_user
        if unknown:
            notices.append(f"{unknown} synchronizing users without bot scores")
        report.centrality_by_class = botmod.centrality_by_class(
            centralities, bot_table, set(tables.user_scores)
        )
        report.dominant_sync_class = _dominant_class(by_user)

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        synchrony.write_pair_counts_csv(counts, out / "pair_counts.csv")
        csimod.write_score_artifacts(tables, counts, csi_config, out)
        write_sync_graphs(sync, pruned, out)
        write_metrics_json(report.structure, out / "metrics.json")
        write_csv(
            out / "centrality_by_action_types.csv",
            ("user_id", "num_action_types", "total_degree", "betweenness", "eigenvector"),
            (
                (user, level, repr(deg), repr(bet), "" if eig is None else repr(eig))
                for user, level, deg, bet, eig in participation
            ),
        )
        write_report_json(report, out / "report.json")
    return report


def compare(report_paths: Sequence[str | Path]) -> list[tuple[str, float]]:
    """Rank events ascending by combined network score; ties break by label."""
    entries: list[tuple[str, float]] = []
    for path in report_paths:
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
            label = obj["event_label"]
            value = obj["csi_network_combined"]
            if not isinstance(label, str) or isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("missing or non-numeric csi_network_combined")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ReportParseError(f"{path}: {exc}") from exc
        entries.append((label, float(value)))
    entries.sort(key=lambda entry: (entry[1], entry[0]))
    return entries
