"""Span tracing wrapped around the package's public functions from outside.

While installed, the tracer replaces each listed function with a wrapper in
every ``syncindex`` module namespace that holds it (so ``from .events import
read_events_file`` call sites are traced too). Each call records a span with
its parent; a layer's self time is its spans' durations minus their child
spans. Counts are taken from call arguments and results at the same boundary.
Uninstalling restores the original functions, so untraced operations run the
program unchanged.
"""

from __future__ import annotations

import gc
import importlib
import sys
from time import perf_counter

MODULES = ("events", "synchrony", "csi", "graphs", "metrics", "bots", "pipeline", "cli")

# metric name -> (module, function) pairs whose self time it sums.
LAYERS = {
    "events.read_s": [
        ("events", "read_events_file"), ("events", "parse_events"), ("events", "merge_datasets"),
        ("events", "filter_originals"), ("events", "filter_language"),
    ],
    "events.extract_s": [("events", "extract_actions")],
    "events.write_s": [("events", "write_events_jsonl")],
    "synchrony.detect_s": [("synchrony", "detect")],
    "synchrony.io_s": [("synchrony", "write_pair_counts_csv"), ("synchrony", "read_pair_counts_csv")],
    "synchrony.participation_s": [
        ("synchrony", "action_type_participation"), ("synchrony", "user_action_type_counts"),
    ],
    "csi.tables_s": [("csi", "compute_tables")],
    "csi.io_s": [
        ("csi", "write_pair_scores_csv"), ("csi", "read_pair_scores_csv"),
        ("csi", "write_user_scores_csv"), ("csi", "read_user_scores_csv"),
        ("csi", "write_network_summary_json"),
    ],
    "graphs.build_s": [
        ("graphs", "build_sync_graph"), ("graphs", "build_allcomm_graph"),
        ("graphs", "prune_by_partner_count"),
    ],
    "graphs.export_s": [("graphs", "export")],
    "metrics.betweenness_s": [("metrics", "betweenness_centrality")],
    "metrics.eigenvector_s": [("metrics", "eigenvector_centrality")],
    "metrics.louvain_s": [("metrics", "louvain_partition")],
    "metrics.hierarchy_s": [("metrics", "krackhardt_hierarchy")],
    "metrics.clustering_s": [("metrics", "transitivity"), ("metrics", "avg_local_clustering")],
    "metrics.other_s": [
        ("metrics", "degree_centrality"), ("metrics", "density"), ("metrics", "newman_modularity"),
        ("metrics", "centrality_by_action_type_count"),
    ],
    "bots.self_s": [
        ("bots", "load_bot_scores"), ("bots", "user_classes"),
        ("bots", "average_csi_by_pair_class"), ("bots", "average_csi_by_user_class"),
        ("bots", "centrality_by_class"), ("bots", "clustering_by_class"),
    ],
    "pipeline.self_s": [
        ("pipeline", "run_pipeline"), ("pipeline", "write_report_json"),
        ("pipeline", "write_report_csv"),
    ],
}

CLI_STAGES = ("ingest", "detect", "score", "graph", "metrics", "report")

# Counts: name -> (unit, better). Times are "s", "lower".
COUNTS = {
    "events.posts": ("count", "lower"),
    "synchrony.pairs": ("count", "higher"),
    "csi.users": ("count", "higher"),
    "graphs.sync_edges": ("count", "higher"),
    "graphs.allcomm_nodes": ("count", "higher"),
    "graphs.allcomm_edges": ("count", "higher"),
    "metrics.betweenness_calls": ("count", "lower"),
    "metrics.betweenness_nonisolated_ratio": ("ratio", "higher"),
    "gc.collections": ("count", "lower"),
}


def _count_posts(counts, args, result):
    counts["events.posts"] += len(result.posts)


def _count_pairs(counts, args, result):
    counts["synchrony.pairs"] = max(counts["synchrony.pairs"], len(result))


def _count_users(counts, args, result):
    counts["csi.users"] = max(counts["csi.users"], len(result.user_scores))


def _count_sync(counts, args, result):
    counts["graphs.sync_edges"] = max(counts["graphs.sync_edges"], result.number_of_edges())


def _count_allcomm(counts, args, result):
    counts["graphs.allcomm_nodes"] = max(counts["graphs.allcomm_nodes"], result.number_of_nodes())
    counts["graphs.allcomm_edges"] = max(counts["graphs.allcomm_edges"], result.number_of_edges())


def _count_betweenness(counts, args, result):
    graph = args[0]
    counts["metrics.betweenness_calls"] += 1
    if graph.number_of_nodes() >= 3:  # smaller graphs run no source at all
        counts["_sources_run"] += graph.number_of_nodes()
        counts["_sources_reaching"] += sum(1 for _, degree in graph.degree() if degree > 0)


AFTER = {
    ("events", "read_events_file"): _count_posts,
    ("synchrony", "detect"): _count_pairs,
    ("csi", "compute_tables"): _count_users,
    ("graphs", "build_sync_graph"): _count_sync,
    ("graphs", "build_allcomm_graph"): _count_allcomm,
    ("metrics", "betweenness_centrality"): _count_betweenness,
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    names = [(name, "s", "lower") for name in LAYERS]
    names += [(f"cli.{stage}_s", "s", "lower") for stage in CLI_STAGES]
    names += [(name, unit, better) for name, (unit, better) in COUNTS.items()]
    names += [
        ("gc.pause_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.self_time_share", "ratio", "higher"),
    ]
    return names


class Tracer:
    """Records spans and counts for one operation at a time."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(f"syncindex.{m}") for m in MODULES]
        self.modules.append(sys.modules["syncindex"])
        self._wrappers: dict[int, object] = {}
        self._patched: list[tuple[object, str, object]] = []
        for metric, functions in LAYERS.items():
            for module_name, attr in functions:
                original = getattr(importlib.import_module(f"syncindex.{module_name}"), attr)
                after = AFTER.get((module_name, attr))
                self._wrappers[id(original)] = self._wrap(metric, original, after)
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [metric, parent index, start, end]
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.counts["_sources_run"] = 0
        self.counts["_sources_reaching"] = 0
        self.gc_pause = 0.0
        self._gc_start = 0.0

    def _wrap(self, metric, fn, after):
        def wrapper(*args, **kwargs):
            record = [metric, self._stack[-1] if self._stack else -1, perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def cli(self, main):
        """Wrap cli.main so each call is a root span named after its subcommand."""
        def traced_main(argv):
            return self._wrap(f"cli.{argv[0]}_s", main, None)(argv)

        return traced_main

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1

    def __enter__(self) -> "Tracer":
        self.reset()
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer values of the last operation; wall is its traced duration."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name, unit, _ in metric_names() if unit == "s"}
        for (name, _, start, end), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        self_total = sum(out.values())
        for name in COUNTS:
            out[name] = float(self.counts[name])
        run = self.counts["_sources_run"]
        out["metrics.betweenness_nonisolated_ratio"] = (
            self.counts["_sources_reaching"] / run if run else 0.0
        )
        out["gc.pause_s"] = self.gc_pause
        out["trace.wall_s"] = wall
        out["trace.self_time_share"] = self_total / wall if wall > 0 else 0.0
        return out
