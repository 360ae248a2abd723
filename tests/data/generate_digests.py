"""Regenerate the checked-in sha256 digests of every artifact.

Run from the repository root:

    PYTHONPATH=src python tests/data/generate_digests.py

Five runs are digested, each as its input files and its output files:

- ``fixture``: ``report`` on the 1,000-event fixture with its bot scores;
- ``interact`` and ``coord``: ``report`` on the benchmark workloads' inputs
  at seed 11, full size;
- ``chain``: the five-stage chain (ingest, detect, score, graph, metrics)
  on the benchmark's raw CSV workload at seed 11;
- ``simulate``: ``simulate`` on the README's quick-start ``sim.json``, read
  from the README itself.

The benchmark inputs come from ``perfbench/workloads.py``. The test in
``tests/test_golden_digests.py`` rebuilds the same runs and compares their
digests with ``golden_digests.json``, inputs first. A change that moves a
digest regenerates the file with this script and says which files changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from syncindex import cli

HERE = Path(__file__).parent
WORKLOADS = HERE.parents[1] / "perfbench" / "workloads.py"
GOLDEN = HERE / "golden_digests.json"
README = HERE.parents[1] / "README.md"
SEED = 11


def _workloads():
    """perfbench/workloads.py as a module; its dataclasses need it registered."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _digests(paths) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(paths)}


def _run(argvs: list[list[str]]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            if cli.main(argv) != 0:
                raise RuntimeError(f"syncindex {argv[0]} failed")


def _report(events: Path, bots: Path, out: Path) -> dict[str, dict[str, str]]:
    _run([["report", "--events", str(events), "--bots", str(bots), "--out", str(out)]])
    return {"inputs": _digests([events, bots]), "outputs": _digests(out.iterdir())}


def _chain(events: Path, bots: Path, out: Path) -> dict[str, dict[str, str]]:
    staged, pairs, users = str(out / "events.jsonl"), str(out / "pairs.csv"), str(out / "users.csv")
    _run([
        ["ingest", "--events", str(events), "--out", str(out)],
        ["detect", "--events", staged, "--out", str(out)],
        ["score", "--pairs", str(out / "pair_counts.csv"), "--out", str(out)],
        ["graph", "--pairs", pairs, "--users", users, "--bots", str(bots), "--out", str(out)],
        ["metrics", "--pairs", pairs, "--users", users, "--bots", str(bots), "--events", staged,
         "--out", str(out)],
    ])
    return {"inputs": _digests([events, bots]), "outputs": _digests(out.iterdir())}


def _simulate(config: Path, out: Path) -> dict[str, dict[str, str]]:
    readme = README.read_text(encoding="utf-8")
    config.write_text(re.search(r"^cat > sim\.json <<'EOF'\n(.*?^)EOF$", readme, re.M | re.S)[1], encoding="utf-8")
    _run([["simulate", "--config", str(config), "--out", str(out)]])
    return {"inputs": _digests([config]), "outputs": _digests(out.iterdir())}


def build(work: Path) -> dict[str, dict[str, dict[str, str]]]:
    """Run name -> {"inputs": file -> sha256, "outputs": file -> sha256}."""
    workloads = _workloads()
    runs = {"fixture": _report(HERE / "fixture_events.jsonl", HERE / "fixture_bots.csv", work / "fixture")}
    for name in ("interact", "coord", "chain"):
        inputs = workloads.generate(name, SEED, work / name / "in")
        run = _chain if name == "chain" else _report
        runs[name] = run(inputs.events, inputs.bots, work / name / "out")
    runs["simulate"] = _simulate(work / "sim.json", work / "simulate")
    return runs


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        runs = build(Path(work))
    GOLDEN.write_text(json.dumps(runs, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    files = sum(len(files) for run in runs.values() for files in run.values())
    print(f"wrote {GOLDEN}: {files} digests over {len(runs)} runs", file=sys.stderr)


if __name__ == "__main__":
    main()
