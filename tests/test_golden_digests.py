"""Every artifact of every workload shape is byte-identical to its golden digest.

tests/data/golden_digests.json holds the sha256 of the inputs and outputs of
five runs: report on the 1,000-event fixture, report on the benchmark's
interact and coord workloads at seed 11, the five-stage chain on its
chain workload at seed 11, and simulate on the README's quick-start config
(see tests/data/generate_digests.py, which regenerates the file). Input digests are compared first, so a simulator or
workload change is told apart from a change in what the program writes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

DATA = Path(__file__).parent / "data"


def load_generator():
    spec = importlib.util.spec_from_file_location("generate_digests", DATA / "generate_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))


def test_every_artifact_matches_its_golden_digest(tmp_path):
    golden = json.loads((DATA / "golden_digests.json").read_text(encoding="utf-8"))
    runs = load_generator().build(tmp_path)
    assert sorted(runs) == sorted(golden)
    for part in ("inputs", "outputs"):
        changed = {name: differing(golden[name][part], runs[name][part]) for name in golden}
        assert not any(changed.values()), f"{part} whose digest differs: " + "; ".join(
            f"{name}: {', '.join(files)}" for name, files in changed.items() if files
        )
