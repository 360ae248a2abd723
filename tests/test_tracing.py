"""The benchmark's tracer must find every function it traces.

perfbench/tracing.py names (module, function) pairs of the package; building
a Tracer looks each one up, so a renamed or deleted function fails here
instead of only in the benchmark's smoke run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_finds_every_traced_function():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.Tracer()  # AttributeError when a traced function is missing
