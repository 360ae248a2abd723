"""The package has no runtime dependency: every import in it is the
standard library or the package itself, and no command loads networkx
(the tests use it as an oracle) or the network stack. Every name it
defines is used in it."""

from __future__ import annotations

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import syncindex

ALLOWED = set(sys.stdlib_module_names) | {"syncindex"}
DATA = Path(__file__).parent / "data"
CALLED_FROM_OUTSIDE = {"_Parser.error"}  # methods only a library calls: argparse, on a usage error


@functools.cache
def parsed_modules() -> tuple[tuple[str, ast.Module], ...]:
    """Each module of the package, by stem, and its syntax tree, parsed once
    for every test here."""
    sources = sorted(Path(syncindex.__file__).parent.glob("*.py"))
    assert sources
    return tuple((path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) for path in sources)


def test_runtime_imports_are_stdlib():
    foreign = []
    for stem, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{stem}.py:{node.lineno} {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_every_definition_is_referenced():
    """Each function, class and method the package defines is named somewhere
    in the package: in a call, an attribute or an import (__init__'s
    re-exports count), so none is kept only for the tests. Dunders are
    exempt, and so are the methods only a library calls."""
    defined = []
    referenced = set()
    for stem, tree in parsed_modules():
        qualname = {}
        # Breadth first, so a class comes before its methods.
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                qualname.update((child, f"{node.name}.{child.name}") for child in node.body if hasattr(child, "name"))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, qualname.get(node, node.name), f"{stem}.py:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    unused = [
        f"{where} {qual}"
        for name, qual, where in defined
        if name not in referenced
        and not (name.startswith("__") and name.endswith("__"))
        and qual not in CALLED_FROM_OUTSIDE
    ]
    assert unused == []


def test_one_csv_reader_and_one_csv_writer():
    """csv.reader is built only in events.csv_rows, which reads every CSV
    input, and csv.writer only in events.write_csv, which writes every table.
    The csv module's other readers and writers, and names imported from it,
    count too, so neither rule can be kept twice."""
    uses = []
    for stem, tree in parsed_modules():
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "csv"
                    and node.attr in ("reader", "writer", "DictReader", "DictWriter")
                ):
                    uses.append((stem, owner, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                    uses.append((stem, owner, "from csv import"))
    assert sorted(uses) == [("events", "csv_rows", "reader"), ("events", "write_csv", "writer")]


def test_one_user_class_grouping_and_one_centrality_column_list():
    """In bots, .user_class is read only by class_members, which groups the
    users of every user-class section, and by average_csi_by_pair_class,
    which classes each pair. The centrality column names are string
    constants only in metrics.CENTRALITY_COLUMNS (a docstring never equals
    one)."""
    columns = {"total_degree", "betweenness", "eigenvector"}
    class_readers = set()
    names = []
    for stem, tree in parsed_modules():
        for top in tree.body:
            targets = [target.id for target in getattr(top, "targets", ()) if isinstance(target, ast.Name)]
            owner = getattr(top, "name", None) or ",".join(targets) or "<module>"
            for node in ast.walk(top):
                if stem == "bots" and isinstance(node, ast.Attribute) and node.attr == "user_class":
                    class_readers.add(owner)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in columns:
                    names.append((stem, owner, node.value))
    assert sorted(class_readers) == ["average_csi_by_pair_class", "class_members"]
    assert sorted(names) == sorted(("metrics", "CENTRALITY_COLUMNS", name) for name in columns)


def test_graphs_are_built_only_by_the_two_builders():
    """A Graph is constructed only in graphs.build_sync_graph and
    graphs.build_allcomm_graph, so no second copy of a graph, such as a
    pruned one, is built: a subset of nodes is a flag per node index."""
    builders = []
    for stem, tree in parsed_modules():
        for top in tree.body:
            for func in (node.func for node in ast.walk(top) if isinstance(node, ast.Call)):
                if "Graph" in (getattr(func, "id", None), getattr(func, "attr", None)):
                    builders.append((stem, getattr(top, "name", "<module>")))
    assert sorted(builders) == [("graphs", "build_allcomm_graph"), ("graphs", "build_sync_graph")]


def test_report_loads_no_networkx(tmp_path):
    """The five stages and report, run in one fresh interpreter, load neither
    networkx nor the network stack (xml.sax.saxutils would bring in
    urllib.request, http.client, email and ssl), and only simulate loads the
    simulator. Modules loaded before the package (by site) do not count."""
    script = (
        "import sys\n"
        "preloaded = set(sys.modules)\n"
        "import json\n"
        "from syncindex import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "unwanted = ('networkx.', 'ssl.', 'http.client.', 'urllib.request.', 'email.', 'xml.sax.',\n"
        "            'syncindex.simulate.')\n"
        "loaded = sorted(m for m in set(sys.modules) - preloaded if (m + '.').startswith(unwanted))\n"
        "assert loaded == [], loaded\n"
    )
    bots, out = str(DATA / "fixture_bots.csv"), tmp_path / "out"
    chain = [
        ["ingest", "--events", str(DATA / "fixture_events.jsonl"), "--out", str(out)],
        ["detect", "--events", str(out / "events.jsonl"), "--out", str(out)],
        ["score", "--pairs", str(out / "pair_counts.csv"), "--out", str(out)],
        ["graph", "--pairs", str(out / "pairs.csv"), "--users", str(out / "users.csv"), "--bots", bots,
         "--out", str(out)],
        ["metrics", "--pairs", str(out / "pairs.csv"), "--events", str(out / "events.jsonl"), "--out", str(out)],
        ["report", "--events", str(DATA / "fixture_events.jsonl"), "--bots", bots, "--out", str(tmp_path / "report")],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(syncindex.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script, json.dumps(chain)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
