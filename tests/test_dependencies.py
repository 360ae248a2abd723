"""The only runtime dependency is networkx: every import in the package is
the standard library, networkx or the package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import syncindex

ALLOWED = set(sys.stdlib_module_names) | {"networkx", "syncindex"}


def test_runtime_imports_are_stdlib_or_networkx():
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
