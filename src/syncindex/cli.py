"""Command line front end.

Subcommands mirror the pipeline stages (ingest, detect, score, graph,
metrics, report, simulate, compare); each reads and writes the documented
file formats so stages can be chained or run independently.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import sys
from pathlib import Path

from . import bots as botmod
from . import csi as csimod
from . import metrics as metricmod
from . import pipeline
from . import synchrony
from .events import load_events, parse_float, parse_integer, read_events_file, write_events_jsonl, write_json

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory (default: current)")


def _bounded(convert, low: float, high: float, what: str):
    """An argparse type: convert(text), an events parser, in [low, high]; any
    other text is a usage error naming the flag and what it takes."""

    def parse(text: str):
        value = convert(text)
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value

    return parse


# Each report option, in the order report lists them: its PipelineOptions
# field, its flag and its add_argument keywords. The field is the flag's dest
# and its class attribute the flag's default, so a flag reads the same on
# every subcommand that takes it.
_OPTIONS = {
    "bot_threshold": ("--bot-threshold", {"type": _bounded(parse_float, 0.0, 1.0, "a number in [0, 1]")}),
    "window_seconds": ("--window", {"type": _bounded(parse_integer, 1, math.inf, "an integer >= 1"),
                                    "metavar": "WINDOW", "help": "window seconds (default %(default)s)"}),
    "pair_formula": ("--pair-formula", {"choices": csimod.PAIR_FORMULAS}),
    "normalization": ("--normalization", {"choices": csimod.NORMALIZATIONS}),
    "min_partners": ("--min-partners", {"type": _bounded(parse_integer, 0, math.inf, "an integer >= 0")}),
    "lang": ("--lang", {"help": "keep only posts with this language tag"}),
    "seed": ("--seed", {"type": _bounded(parse_integer, -math.inf, math.inf, "an integer")}),
    "label": ("--label", {"help": "event label in report.json (default: the events file's stem)"}),
}


def _add_options(parser: argparse.ArgumentParser, *fields: str) -> None:
    for name in fields:
        flag, keywords = _OPTIONS[name]
        parser.add_argument(flag, dest=name, default=getattr(pipeline.PipelineOptions, name), **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncindex", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and canonicalize raw event data")
    p.add_argument("--events", required=True, help="raw events file (JSONL or CSV)")
    p.add_argument("--interactions", help="optional separate interactions file")
    _add_options(p, "lang")
    _add_out(p)

    p = sub.add_parser("detect", help="detect synchronous user pairs")
    p.add_argument("--events", required=True)
    _add_options(p, "window_seconds", "lang")
    _add_out(p)

    p = sub.add_parser("score", help="compute the synchronization index hierarchy")
    p.add_argument("--pairs", required=True, help="pair_counts.csv from detect")
    _add_options(p, "pair_formula", "normalization")
    _add_out(p)

    p = sub.add_parser("graph", help="build and export synchronization graphs")
    p.add_argument("--pairs", required=True, help="pairs.csv from score")
    p.add_argument("--users", help="users.csv from score (adds csi_user attributes)")
    p.add_argument("--bots", help="bot score CSV (adds user_class attributes)")
    _add_options(p, "bot_threshold", "min_partners")
    _add_out(p)

    p = sub.add_parser("metrics", help="structure metrics and centralities")
    p.add_argument("--pairs", required=True, help="pairs.csv from score")
    p.add_argument("--users", help="users.csv from score (read and checked; changes no output)")
    p.add_argument("--bots", help="bot score CSV (class clustering)")
    _add_options(p, "bot_threshold")
    p.add_argument("--events", help="events file; adds all-communication centrality CSV")
    _add_options(p, "seed")
    _add_out(p)

    p = sub.add_parser("report", help="run the full pipeline and emit the event report")
    p.add_argument("--events", required=True)
    p.add_argument("--interactions")
    p.add_argument("--bots")
    _add_options(p, *_OPTIONS)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_out(p)

    p = sub.add_parser("simulate", help="generate a synthetic dataset with ground truth")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--seed", type=_bounded(parse_integer, -math.inf, math.inf, "an integer"),
                   help="override the config seed")
    _add_out(p)

    p = sub.add_parser("compare", help="rank event reports by synchronization level")
    p.add_argument("reports", nargs="+", help="report.json files")
    p.add_argument("--out", help="optional ranking.json output path")

    return parser


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_ingest(args: argparse.Namespace) -> int:
    dataset = load_events(args.events, args.interactions, lang=args.lang)
    path = write_events_jsonl(dataset, _out_dir(args) / "events.jsonl")
    print(
        f"wrote {path}: {len(dataset.posts)} posts, {len(dataset.interactions)} interactions, "
        f"{dataset.malformed} malformed lines"
    )
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    actions, _ = pipeline.original_actions(load_events(args.events, lang=args.lang))
    counts = pipeline.detect_pairs(actions, args.window_seconds, out)
    users = {user for pair in counts for user in pair}
    print(f"wrote {out / 'pair_counts.csv'}: {len(counts)} pairs over {len(users)} users")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    counts = synchrony.read_pair_counts_csv(args.pairs)
    config = csimod.CsiConfig(pair_formula=args.pair_formula, normalization=args.normalization)
    tables, _ = pipeline.score_pairs(counts, config, _out_dir(args))
    if tables.network_score is None:
        print("no synchronized pairs; wrote empty score tables")
    else:
        print(f"csi_network={tables.network_score!r} over {len(tables.user_scores)} users")
    return 0


def _sync_graph(args: argparse.Namespace):
    pair_scores = csimod.read_pair_scores_csv(args.pairs)
    user_scores = csimod.read_user_scores_csv(args.users) if args.users else None
    table = botmod.load_bot_scores(args.bots, threshold=args.bot_threshold) if args.bots else None
    return pipeline.sync_graph(pair_scores, user_scores, table)


def _cmd_graph(args: argparse.Namespace) -> int:
    sync = _sync_graph(args)
    core = pipeline.write_sync_graphs(sync, args.min_partners, _out_dir(args))
    core_edges = sum(core[a] and core[b] for a, b in zip(sync.sources, sync.targets))
    print(
        f"sync graph: {sync.number_of_nodes()} nodes, {sync.number_of_edges()} edges; "
        f"pruned(k={args.min_partners}): {sum(core)} nodes, {core_edges} edges"
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    sync = _sync_graph(args)
    out = _out_dir(args)
    pipeline.structure_section(sync, args.seed, out)
    if args.events:
        centralities = metricmod.node_centralities(pipeline.allcomm_graph(read_events_file(args.events)))
        pipeline.write_centrality_csv(centralities, out / "centrality.csv")
    print(f"wrote metrics for {sync.number_of_nodes()} nodes to {out / 'metrics.json'}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    options = pipeline.PipelineOptions(**{name: getattr(args, name) for name in _OPTIONS})
    report = pipeline.run_pipeline(
        args.events,
        args.out,
        bots_path=args.bots,
        options=options,
        interactions_path=args.interactions,
    )
    if args.format == "csv":
        pipeline.write_report_csv(report, Path(args.out) / "report.csv")
    value = report["csi_network_combined"]
    detail = report["reason"] if value is None else f"csi_network={pipeline.round_floats(value)}"
    print(f"report written to {Path(args.out) / 'report.json'} ({detail})")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate as simmod  # only this command loads the simulator

    config = simmod.config_from_json(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    dataset, truth = simmod.generate(config)
    out = _out_dir(args)
    write_events_jsonl(dataset, out / "events.jsonl")
    simmod.write_ground_truth_csv(truth, out / "ground_truth.csv")
    simmod.write_bot_scores_csv(simmod.bot_scores_from_truth(truth), out / "bots.csv")
    print(
        f"wrote {len(dataset.posts)} posts, {len(truth.pairs)} planted pair rows, "
        f"{len(truth.user_classes)} scored users to {out}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    ranking = pipeline.compare(args.reports)
    for label, value in ranking:
        print(f"{pipeline.round_floats(value)}\t{label}")
    if args.out:
        payload = [
            {"event_label": label, "csi_network_combined": value} for label, value in ranking
        ]
        write_json(args.out, pipeline.round_floats(payload))
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "detect": _cmd_detect,
    "score": _cmd_score,
    "graph": _cmd_graph,
    "metrics": _cmd_metrics,
    "report": _cmd_report,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # every package error is a ValueError
        print(f"syncindex {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
