"""Output checks computed apart from the program.

The events file is parsed here with the standard library and this module's
own canonicalization and grouping; the index is recomputed from the written
pair counts with the anchored formula; centralities are recomputed with
networkx's own implementations. Each check appends a message to a list of
failures, so one run reports every disagreement it finds.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path
from statistics import fmean, pstdev

import networkx as nx

WINDOW = 300
THRESHOLD = 0.70
ACTION_FIELDS = (("hashtag", "hashtags"), ("url", "urls"), ("mention", "mentions"))
POST_TYPES = {"original", "retweet", "quote", "reply"}
INTERACTION_TYPES = {"retweet", "quote", "mention", "reply"}
# Files written by both `report` and the stage chain.
SHARED_ARTIFACTS = (
    "pair_counts.csv", "pairs.csv", "users.csv", "network.json",
    "sync.graphml", "sync_pruned.graphml", "metrics.json",
)


class Failures(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


def close(a: float, b: float, rel: float, abs_tol: float = 1e-12) -> bool:
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------- parsing

def _epoch(value) -> int:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return int(value)
    text = str(value).strip()
    try:
        return int(text)
    except ValueError:
        moment = datetime.fromisoformat(text)
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return int(moment.timestamp())


def canonical(action_type: str, raw: str) -> str:
    text = raw.strip()
    if action_type == "hashtag":
        return text.lstrip("#").lower()
    if action_type == "mention":
        return text.lstrip("@").lower()
    text = text.split("#", 1)[0]
    scheme, rest = text.split("://", 1)
    host, slash, path = rest.partition("/")
    return f"{scheme.lower()}://{host.lower()}{(slash + path).rstrip('/')}"


class Events:
    """The events file as this module reads it."""

    def __init__(self, path: Path) -> None:
        self.posts: list[dict] = []
        self.interactions: list[tuple[str, str]] = []
        self.malformed = 0
        seen: set[str] = set()
        for obj in self._records(path):
            try:
                if "source_user" in obj or "target_user" in obj:
                    source, target = obj["source_user"].strip(), obj["target_user"].strip()
                    if obj["interaction_type"].strip() not in INTERACTION_TYPES:
                        raise ValueError("interaction type")
                    if not source or not target:
                        raise ValueError("endpoint")
                    _epoch(obj["timestamp"])
                    if source != target:
                        self.interactions.append((source, target))
                    continue
                post_id, user = obj["post_id"].strip(), obj["user_id"].strip()
                if not post_id or not user or post_id in seen:
                    raise ValueError("id")
                if obj["post_type"].strip() not in POST_TYPES:
                    raise ValueError("post type")
                post = {
                    "user": user,
                    "post_type": obj["post_type"].strip(),
                    "bucket": _epoch(obj["timestamp"]) // WINDOW,
                }
                for action_type, field in ACTION_FIELDS:
                    raws = obj.get(field) or []
                    post[action_type] = {canonical(action_type, r) for r in raws if r.strip()}
                seen.add(post_id)
                self.posts.append(post)
            except (KeyError, ValueError, AttributeError):
                self.malformed += 1

    @staticmethod
    def _records(path: Path):
        with path.open(encoding="utf-8", newline="") as handle:
            if path.suffix == ".csv":
                for row in csv.DictReader(handle):
                    obj = {k: v for k, v in row.items() if v not in (None, "")}
                    for _, field in ACTION_FIELDS:
                        if field in obj:
                            obj[field] = [p for p in obj[field].split("|") if p]
                    yield obj
            else:
                for line in handle:
                    if line.strip():
                        yield json.loads(line)

    def originals(self) -> list[dict]:
        return [p for p in self.posts if p["post_type"] == "original"]

    def pair_counts(self) -> dict[tuple[str, str, str], int]:
        members: dict[tuple, set[str]] = defaultdict(set)
        for post in self.originals():
            for action_type, _ in ACTION_FIELDS:
                for artifact in post[action_type]:
                    members[(action_type, artifact, post["bucket"])].add(post["user"])
        counts: Counter = Counter()
        for (action_type, _, _), users in members.items():
            for u, v in combinations(sorted(users), 2):
                counts[(u, v, action_type)] += 1
        return dict(counts)

    def allcomm(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(p["user"] for p in self.posts)
        for u, v in self.interactions:
            if graph.has_edge(u, v):
                graph[u][v]["weight"] += 1
            else:
                graph.add_edge(u, v, weight=1)
        return graph


def read_pair_counts(path: Path) -> dict[tuple[str, str, str], int]:
    with path.open(encoding="utf-8", newline="") as handle:
        return {
            (r["user_u"], r["user_v"], r["action_type"]): int(r["count"])
            for r in csv.DictReader(handle)
        }


def read_classes(path: Path) -> dict[str, str]:
    with path.open(encoding="utf-8", newline="") as handle:
        return {
            r["user_id"]: "bot" if float(r["score"]) > THRESHOLD else "human"
            for r in csv.DictReader(handle)
        }


# ---------------------------------------------------------------- index

class Index:
    """Pair, user and network index recomputed with the anchored formula."""

    def __init__(self, pair_counts: dict[tuple[str, str, str], int]) -> None:
        per_pair: dict[tuple[str, str], dict[str, int]] = defaultdict(dict)
        for (u, v, action_type), count in pair_counts.items():
            per_pair[(u, v)][action_type] = count
        self.per_pair = dict(per_pair)
        self.pair = {}
        self.user: dict[str, float] = defaultdict(float)
        for pair, actions in sorted(self.per_pair.items()):
            k = len(actions)
            score = k * (sum(actions.values()) - (k - 1))
            self.pair[pair] = score
            for user in pair:
                self.user[user] += sum(actions.values()) * score
        self.network = fmean(self.user.values())
        self.per_action = {}
        for action_type in ("hashtag", "url", "mention"):
            scores: dict[str, float] = defaultdict(float)
            for pair, actions in self.per_pair.items():
                if action_type in actions:
                    for user in pair:
                        scores[user] += actions[action_type] ** 2
            self.per_action[action_type] = fmean(scores.values()) if scores else None
        types: dict[str, set[str]] = defaultdict(set)
        for pair, actions in self.per_pair.items():
            for user in pair:
                types[user].update(actions)
        self.levels = {user: len(t) for user, t in types.items()}


def _pair_class(classes: dict[str, str], u: str, v: str) -> str:
    found = {classes.get(u, "unknown"), classes.get(v, "unknown")}
    if "unknown" in found:
        return "unknown-involved"
    if len(found) == 2:
        return "bot-human"
    return "bot-bot" if found == {"bot"} else "human-human"


def check_pair_counts(fails: Failures, events: Events, out: Path, planted) -> dict:
    written = read_pair_counts(out / "pair_counts.csv")
    recount = events.pair_counts()
    fails.expect(written == recount, f"pair_counts.csv: {len(written)} rows written, "
                 f"{len(recount)} recounted, {sum(written.get(k) != c for k, c in recount.items())} differ")
    missing = [
        p for p in planted
        if written.get((min(p.user_u, p.user_v), max(p.user_u, p.user_v), p.action_type), 0) < p.min_count
    ]
    fails.expect(not missing, f"{len(missing)} of {len(planted)} planted pairs below windows_active")
    return written


def check_index(fails: Failures, index: Index, out: Path) -> None:
    with (out / "pairs.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    fails.expect(len(rows) == len(index.pair), "pairs.csv row count")
    for r in rows:
        pair = (r["user_u"], r["user_v"])
        actions = index.per_pair.get(pair, {})
        if (
            int(r["num_action_types"]) != len(actions)
            or int(r["s_total"]) != sum(actions.values())
            or not close(r["csi_userpair"], index.pair.get(pair, math.nan), 1e-12)
        ):
            fails.append(f"pairs.csv row {pair} disagrees with the recomputed index")
            break
    with (out / "users.csv").open(encoding="utf-8", newline="") as handle:
        users = {r["user_id"]: float(r["csi_user"]) for r in csv.DictReader(handle)}
    fails.expect(
        users.keys() == index.user.keys()
        and all(close(users[u], index.user[u], 1e-9) for u in users),
        "users.csv disagrees with the recomputed user index",
    )
    network = json.loads((out / "network.json").read_text(encoding="utf-8"))
    fails.expect(close(network["csi_network"], index.network, 1e-9), "network.json csi_network")


def check_report(fails: Failures, report: dict, events: Events, index: Index, classes: dict[str, str]) -> None:
    """report.json against the recomputed index; its floats carry 6 significant digits."""
    rel = 1e-5
    counts = report["counts"]
    originals = events.originals()
    expected_counts = {
        "posts": len(events.posts),
        "original_posts": len(originals),
        "interactions": len(events.interactions),
        "action_records": sum(len(p[a]) for p in originals for a, _ in ACTION_FIELDS),
        "malformed_lines": events.malformed,
        "sync_users": len(index.user),
        "sync_pairs": len(index.pair),
    }
    fails.expect(counts == expected_counts, f"report counts {counts} != {expected_counts}")
    fails.expect(close(report["csi_network_combined"], index.network, rel), "csi_network_combined")
    for action_type, value in index.per_action.items():
        got = report["csi_per_action"][action_type]
        fails.expect(
            (got is None and value is None) or (got is not None and value is not None and close(got, value, rel)),
            f"csi_per_action.{action_type}: {got} != {value}",
        )
    levels = Counter(index.levels.values())
    for level in (1, 2, 3):
        fails.expect(
            close(report["action_type_participation"][str(level)], levels[level] / len(index.levels), rel),
            f"action_type_participation.{level}",
        )

    by_pair: dict[str, list[float]] = defaultdict(list)
    for pair in sorted(index.pair):
        by_pair[_pair_class(classes, *pair)].append(index.pair[pair])
    got_pairs = report["avg_csi_userpair_by_pair_class"]
    fails.expect(got_pairs.keys() == by_pair.keys(), "pair classes present")
    for cls, values in by_pair.items():
        entry = got_pairs.get(cls, {})
        fails.expect(entry.get("count") == len(values) and close(entry.get("mean", math.nan), fmean(values), rel),
                     f"avg_csi_userpair_by_pair_class.{cls}")

    by_user: dict[str, list[float]] = defaultdict(list)
    for user in sorted(index.user):
        by_user[classes.get(user, "unknown")].append(index.user[user])
    unknown = len(by_user.pop("unknown", []))
    got_users = report["avg_csi_user_by_user_class"]
    fails.expect(got_users.keys() == by_user.keys(), "user classes present")
    for cls, values in by_user.items():
        entry = got_users.get(cls, {})
        sd = pstdev(values) if len(values) > 1 else 0.0
        fails.expect(
            entry.get("count") == len(values)
            and close(entry.get("mean", math.nan), fmean(values), rel)
            and close(entry.get("sd", math.nan), sd, rel, 1e-9),
            f"avg_csi_user_by_user_class.{cls}",
        )
    notice = f"{unknown} synchronizing users without bot scores"
    fails.expect((notice in report["notices"]) == (unknown > 0), "unscored-user notice")
    means = {cls: fmean(v) for cls, v in by_user.items()}
    dominant = max(sorted(means), key=means.get) if means else None
    fails.expect(report["dominant_sync_class"] == dominant, "dominant_sync_class")


# ---------------------------------------------------------------- graphs

def _graphml(path: Path) -> tuple[dict[str, dict[str, str]], dict[tuple[str, str], float]]:
    ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
    root = ET.parse(path).getroot()
    nodes = {
        n.get("id"): {d.get("key"): d.text for d in n.findall("g:data", ns)}
        for n in root.iter("{http://graphml.graphdrawing.org/xmlns}node")
    }
    edges = {
        tuple(sorted((e.get("source"), e.get("target")))): float(e.find("g:data", ns).text)
        for e in root.iter("{http://graphml.graphdrawing.org/xmlns}edge")
    }
    return nodes, edges


def check_sync_graphs(fails: Failures, index: Index, classes: dict[str, str], out: Path, min_partners: int = 5) -> nx.Graph:
    nodes, edges = _graphml(out / "sync.graphml")
    fails.expect(nodes.keys() == index.user.keys(), "sync.graphml node set")
    fails.expect(
        all(d.get("user_class") == classes.get(u, "unknown") and close(d.get("csi_user", "nan"), index.user[u], 1e-12)
            for u, d in nodes.items() if u in index.user),
        "sync.graphml node attributes",
    )
    fails.expect(edges.keys() == index.pair.keys()
                 and all(close(w, index.pair[p], 1e-12) for p, w in edges.items()), "sync.graphml edges")
    sync = nx.Graph()
    sync.add_edges_from(index.pair)
    core = nx.k_core(sync, min_partners)
    pruned_nodes, pruned_edges = _graphml(out / "sync_pruned.graphml")
    fails.expect(pruned_nodes.keys() == set(core.nodes)
                 and pruned_edges.keys() == {tuple(sorted(e)) for e in core.edges}, "sync_pruned.graphml is the k-core")
    return sync


def check_structure(fails: Failures, sync: nx.Graph, classes: dict[str, str], out: Path) -> None:
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    rel = 1e-5
    fails.expect(close(metrics["density"], nx.density(sync), rel), "metrics.json density")
    fails.expect(close(metrics["transitivity"], nx.transitivity(sync), rel), "metrics.json transitivity")
    fails.expect(close(metrics["avg_local_clustering"], nx.average_clustering(sync), rel),
                 "metrics.json avg_local_clustering")
    # csi_order orients every edge along a strict total order, so the oriented
    # graph is acyclic, no pair is mutually reachable, and the hierarchy is 1.
    fails.expect(metrics["hierarchy"] == 1.0, "metrics.json hierarchy under csi_order")
    fails.expect(-0.5 <= metrics["modularity"] <= 1.0, "metrics.json modularity range")
    for cls in ("bot", "human"):
        members = [n for n in sync if classes.get(n) == cls]
        if members:
            fails.expect(close(metrics["clustering_by_class"][cls], nx.transitivity(sync.subgraph(members)), rel),
                         f"metrics.json clustering_by_class.{cls}")


def reference_centralities(events: Events) -> tuple[nx.Graph, dict, dict]:
    graph = events.allcomm()
    betweenness = nx.betweenness_centrality(graph)
    eigen = nx.eigenvector_centrality(graph, max_iter=10_000, tol=1e-13, weight="weight")
    peak = max(eigen.values())
    return graph, betweenness, {n: v / peak for n, v in eigen.items()}


def _centrality_rows_match(fails, rows, graph, betweenness, eigen, name) -> None:
    n = graph.number_of_nodes()
    bad = [
        r["user_id"] for r in rows
        if not close(r["total_degree"], graph.degree(r["user_id"]) / (n - 1), 1e-12)
        or not close(r["betweenness"], betweenness[r["user_id"]], 1e-9)
        or abs(float(r["eigenvector"]) - eigen[r["user_id"]]) > 1e-6
    ]
    fails.expect(not bad, f"{name}: {len(bad)} users disagree with networkx, e.g. {bad[:3]}")


def check_report_centralities(fails, report: dict, index: Index, classes, events: Events, out: Path) -> None:
    graph, betweenness, eigen = reference_centralities(events)
    with (out / "centrality_by_action_types.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    eligible = sorted(u for u in index.levels if u in graph)
    fails.expect([r["user_id"] for r in rows] == eligible, "centrality_by_action_types.csv users")
    fails.expect(all(int(r["num_action_types"]) == index.levels[r["user_id"]] for r in rows),
                 "centrality_by_action_types.csv levels")
    _centrality_rows_match(fails, rows, graph, betweenness, eigen, "centrality_by_action_types.csv")
    n = graph.number_of_nodes()
    for cls in ("bot", "human"):
        users = [u for u in eligible if classes.get(u) == cls]
        entry = report["centrality_by_class"].get(cls)
        if not users:
            fails.expect(entry is None, f"centrality_by_class.{cls} present without members")
            continue
        fails.expect(
            entry is not None
            and entry["count"] == len(users)
            and close(entry["total_degree"], fmean(graph.degree(u) / (n - 1) for u in users), 1e-5)
            and close(entry["betweenness"], fmean(betweenness[u] for u in users), 1e-5, 1e-12)
            and close(entry["eigenvector"], fmean(eigen[u] for u in users), 1e-5, 1e-6),
            f"centrality_by_class.{cls}",
        )


def check_chain_centralities(fails, events: Events, out: Path) -> None:
    graph, betweenness, eigen = reference_centralities(events)
    with (out / "centrality.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    fails.expect(sorted(r["user_id"] for r in rows) == sorted(graph.nodes), "centrality.csv users")
    _centrality_rows_match(fails, rows, graph, betweenness, eigen, "centrality.csv")


# ---------------------------------------------------------------- entry points

def check_report_run(inputs, out: Path, events: Events | None = None) -> Failures:
    """Every check on one `report` output directory."""
    fails = Failures()
    events = events or Events(inputs.events)
    fails.expect(events.malformed == inputs.malformed_lines,
                 f"{events.malformed} malformed lines read, {inputs.malformed_lines} planted")
    classes = read_classes(inputs.bots)
    written = check_pair_counts(fails, events, out, inputs.planted)
    index = Index(written)
    check_index(fails, index, out)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    check_report(fails, report, events, index, classes)
    sync = check_sync_graphs(fails, index, classes, out)
    check_structure(fails, sync, classes, out)
    check_report_centralities(fails, report, index, classes, events, out)
    return fails


def check_chain_run(inputs, stages: Path, report_dir: Path) -> Failures:
    """The stage chain against a `report` run on the same input, plus its own centralities."""
    events = Events(inputs.events)
    fails = check_report_run(inputs, report_dir, events)
    for name in SHARED_ARTIFACTS:
        same = (stages / name).read_bytes() == (report_dir / name).read_bytes()
        fails.expect(same, f"chain {name} differs from report {name}")
    check_chain_centralities(fails, events, stages)
    return fails
