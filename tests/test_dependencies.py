"""The package has no runtime dependency: every import in it is the
standard library or the package itself, and a report run loads no
networkx (the tests use it as an oracle)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import syncindex

ALLOWED = set(sys.stdlib_module_names) | {"syncindex"}
DATA = Path(__file__).parent / "data"


def test_runtime_imports_are_stdlib():
    sources = sorted(Path(syncindex.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_report_loads_no_networkx(tmp_path):
    script = (
        "import sys\n"
        "from syncindex import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "assert code == 0, code\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    argv = [
        sys.executable, "-c", script, "report",
        "--events", str(DATA / "fixture_events.jsonl"),
        "--bots", str(DATA / "fixture_bots.csv"),
        "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(syncindex.__file__).resolve().parents[1]))
    result = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
