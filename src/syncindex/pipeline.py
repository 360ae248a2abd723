"""End-to-end orchestration: events in, event report and artifacts out.

The pipeline runs detect -> index -> graphs -> metrics -> bot overlay and
emits a deterministic report. Report floats are serialized with 6
significant digits; intermediate CSV artifacts keep full precision so
stages can be re-run from files bit-exactly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import bots as botmod
from . import csi as csimod
from . import graphs as graphmod
from . import metrics as metricmod
from . import synchrony
from .events import (
    ActionRecord, EventDataset, _undecodable, extract_actions, filter_originals, load_events, write_csv, write_json,
)

logger = logging.getLogger(__name__)


class ReportParseError(ValueError):
    """A report file could not be read or lacks required fields."""


@dataclass(frozen=True)
class PipelineOptions:
    window_seconds: int = synchrony.DEFAULT_WINDOW_SECONDS
    bot_threshold: float = botmod.DEFAULT_THRESHOLD
    pair_formula: str = csimod.CsiConfig.pair_formula
    normalization: str = csimod.CsiConfig.normalization
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


def round_floats(obj: object) -> object:
    """Recursively round floats to 6 significant digits for serialization."""
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
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

    return write_csv(path, ("field", "value"), rows("", round_floats(asdict(report))))


def original_actions(dataset: EventDataset) -> tuple[list[ActionRecord], int]:
    """The action records of a dataset's original posts, and the number of those posts."""
    originals = filter_originals(dataset)
    return extract_actions(originals), len(originals.posts)


def detect_pairs(actions: list[ActionRecord], window_seconds: int, out: Path) -> synchrony.PairCounts:
    """Synchronized pairs among the records original_actions returns; writes pair_counts.csv."""
    counts = synchrony.detect(actions, window_seconds)
    synchrony.write_pair_counts_csv(counts, out / "pair_counts.csv")
    return counts


def score_pairs(
    counts: synchrony.PairCounts, config: csimod.CsiConfig, out: Path
) -> tuple[csimod.CsiTables, dict]:
    """The index hierarchy (empty, network_score None, when there are no
    synchronized pairs) and its network summary; writes pairs.csv, users.csv
    and network.json."""
    tables = csimod.compute_tables(counts, config) if counts else csimod.CsiTables({}, {}, None, {})
    summary = csimod.network_summary(tables, config)
    csimod.write_pair_scores_csv(tables, counts, out / "pairs.csv")
    csimod.write_user_scores_csv(tables, out / "users.csv")
    csimod.write_network_summary_json(summary, out / "network.json")
    return tables, summary


def sync_graph(
    pair_scores: dict[tuple[str, str], float],
    user_scores: dict[str, float] | None,
    bot_table: botmod.BotScoreTable | None,
) -> graphmod.Graph:
    """The sync graph with csi_user node attributes and, given bot scores, user_class ones."""
    classes = None
    if bot_table is not None:
        classes = botmod.user_classes({u for pair in pair_scores for u in pair}, bot_table)
    return graphmod.build_sync_graph(pair_scores, user_classes=classes, user_scores=user_scores)


def write_sync_graphs(sync: graphmod.Graph, min_partners: int, out: Path) -> list[bool]:
    """Writes sync.graphml and sync_pruned.graphml, its k-core for k =
    min_partners, in one export; returns the core's flag per node index."""
    core = graphmod.prune_by_partner_count(sync, min_partners)
    graphmod.export(sync, {out / "sync.graphml": None, out / "sync_pruned.graphml": core})
    return core


def structure_section(sync: graphmod.Graph, seed: int, out: Path) -> dict | None:
    """Structure metrics of the sync graph, written to metrics.json; None ({}
    in the file) when it has no edges (no pairs). The per-class clustering
    reads the graph's user_class attribute.

    Logs one warning naming each graph (sync, bot, human) whose transitivity
    is reported as 0 because it has no connected triples.
    """
    section = None
    if sync.number_of_edges():
        partition = metricmod.louvain_partition(sync, seed=seed)
        counts = metricmod.triangle_counts(sync)
        section = {
            "density": metricmod.density(sync),
            "modularity": metricmod.newman_modularity(sync, partition),
            "partition_method": "louvain",
            "hierarchy": metricmod.krackhardt_hierarchy(sync),
            "hierarchy_orientation": "csi_order",
            "transitivity": metricmod.transitivity(counts),
            "avg_local_clustering": metricmod.avg_local_clustering(counts),
        }
        by_class = {}
        if sync.user_class is not None:
            by_class = botmod.class_triangle_counts(sync)
            section["clustering_by_class"] = botmod.clustering_by_class(by_class)
        no_triples = [name for name, (_, triples) in {"sync": counts, **by_class}.items() if not any(triples)]
        if no_triples:
            logger.warning("no connected triples: transitivity reported as 0 for %s", ", ".join(no_triples))
    write_json(out / "metrics.json", round_floats(section or {}))
    return section


def allcomm_graph(dataset: EventDataset) -> graphmod.Graph:
    """The all-communication graph of every user in the dataset.

    Post authors without interactions are isolated nodes; an interaction's
    endpoints are nodes through its edge, since parsing drops self-interactions.
    """
    authors = {p.user_id for p in dataset.posts}
    return graphmod.build_allcomm_graph(dataset.interactions, users=authors)


def write_centrality_csv(centralities: metricmod.Centralities, path: Path) -> None:
    """centralities.row of every node, sorted by user; the eigenvector cells
    are empty when it did not converge."""
    rows = ((user, *centralities.row(user)) for user in sorted(centralities.degree))
    write_csv(path, ("user_id", *metricmod.CENTRALITY_COLUMNS), rows)


def run_pipeline(
    events_path: str | Path,
    out_dir: str | Path,
    bots_path: str | Path | None = None,
    options: PipelineOptions | None = None,
    interactions_path: str | Path | None = None,
) -> EventReport:
    """Run the full analysis over an events file, writing its artifacts to out_dir.

    The stages are the functions the CLI runs one at a time (ingest, detect,
    score, graph, metrics), so their shared artifacts are byte-identical:
    pair_counts.csv, pairs.csv, users.csv, network.json, sync GraphML (raw
    and pruned) and metrics.json. Also written: centrality_by_action_types.csv
    and report.json. With no synchronized pairs the tables are header-only,
    the graphs have no nodes and metrics.json is {}. Deterministic for fixed
    inputs and options. The event label (options.label, or the events file's
    stem without one) and options.lang must be valid UTF-8, since report.json
    carries both; otherwise ValueError, before any file is written.
    """
    options = options or PipelineOptions()
    event_label = options.label or Path(events_path).stem
    label_source = "label" if options.label else f"label (the stem of events file {str(events_path)!r})"
    for source, text in ((label_source, event_label), ("lang", options.lang)):
        if _undecodable(text):
            raise ValueError(f"{source} is not valid UTF-8: {text!r}")
    dataset = load_events(events_path, interactions_path, lang=options.lang)
    bot_table = None
    notices: list[str] = []
    if bots_path is not None:
        bot_table = botmod.load_bot_scores(bots_path, threshold=options.bot_threshold)
    else:
        notices.append("bot scores not provided; class sections omitted")
    csi_config = csimod.CsiConfig(pair_formula=options.pair_formula, normalization=options.normalization)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Extraction is the posts' last reader: the report's counts and the
    # all-communication graph are taken first, and the dataset is dropped
    # before detection, so no later stage carries the posts.
    posts, interactions, malformed = len(dataset.posts), len(dataset.interactions), dataset.malformed
    allcomm = allcomm_graph(dataset)
    actions, original_posts = original_actions(dataset)
    del dataset
    counts = detect_pairs(actions, options.window_seconds, out)
    action_records = len(actions)
    del actions
    tables, summary = score_pairs(counts, csi_config, out)
    sync = sync_graph(tables.pair_scores, tables.user_scores, bot_table)
    write_sync_graphs(sync, options.min_partners, out)
    per_user = synchrony.user_action_type_counts(counts)

    report = EventReport(
        event_label=event_label,
        config={key: value for key, value in asdict(options).items() if key != "label"},
        counts={
            "posts": posts,
            "original_posts": original_posts,
            "interactions": interactions,
            "action_records": action_records,
            "malformed_lines": malformed,
            "sync_users": len(per_user),
            "sync_pairs": len(counts),
        },
        action_type_participation={
            str(level): value
            for level, value in synchrony.action_type_participation(per_user).items()
        },
        csi_network_combined=summary["csi_network"],
        csi_per_action=summary["per_action"],
        structure=structure_section(sync, options.seed, out),
        notices=notices,
    )
    participation = []
    if not counts:
        report.reason = "no synchronized pairs detected"
    else:
        centralities = metricmod.node_centralities(allcomm)
        if centralities.eigenvector is None:
            notices.append("eigenvector centrality did not converge; reported as null")
        participation = metricmod.centrality_by_action_type_count(centralities, per_user)
        if sync.user_class is not None:  # bot scores given
            report.avg_csi_userpair_by_pair_class = botmod.average_csi_by_pair_class(sync)
            by_user, unknown = botmod.average_csi_by_user_class(sync)
            report.avg_csi_user_by_user_class = by_user
            if unknown:
                notices.append(f"{unknown} synchronizing users without bot scores")
            report.centrality_by_class = botmod.centrality_by_class(centralities, sync)
            # the class of highest mean user score; by_user is sorted, so bot on a tie
            report.dominant_sync_class = max(by_user, key=lambda cls: by_user[cls]["mean"], default=None)

    write_csv(
        out / "centrality_by_action_types.csv",
        ("user_id", "num_action_types", *metricmod.CENTRALITY_COLUMNS),
        participation,
    )
    write_report_json(report, out / "report.json")
    return report


def compare(report_paths: Sequence[str | Path]) -> list[tuple[str, float]]:
    """Rank events ascending by combined network score; ties break by label.
    ReportParseError names the file of a report without a UTF-8 string
    event_label or a finite csi_network_combined."""
    entries: list[tuple[str, float]] = []
    for path in report_paths:
        path = Path(path)
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
            label = obj["event_label"]
            value = obj["csi_network_combined"]
            if not isinstance(label, str) or _undecodable(label):
                raise ValueError(f"event_label {label!r} is not a UTF-8 string")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("missing or non-numeric csi_network_combined")
            if not math.isfinite(value):  # OverflowError for an int beyond the float range
                raise ValueError(f"csi_network_combined {value!r} is not finite")
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ReportParseError(f"{path}: {exc}") from exc
        entries.append((label, float(value)))
    entries.sort(key=lambda entry: (entry[1], entry[0]))
    return entries
