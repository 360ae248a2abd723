"""Benchmark for syncindex: seeded workloads, timed operations, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload interact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

One process, one thread, no subprocesses. The package is imported from the
checkout's ``src/`` and driven only through its public functions and the
in-process CLI (``syncindex.cli.main``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from traced operations.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("interact", "coord", "chain")
SETUP_REPEATS = 3
MIN_REPEATS = 3
SMOKE_SCALE = 0.1


class OperationFailed(RuntimeError):
    pass


def _digest(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Workload:
    """Inputs plus the operation a workload repeats."""

    def __init__(self, name: str, inputs, work: Path) -> None:
        self.name = name
        self.inputs = inputs
        self.out = work / ("stages" if name == "chain" else "report")

    def argv_list(self) -> list[list[str]]:
        events, bots, out = str(self.inputs.events), str(self.inputs.bots), str(self.out)
        if self.name != "chain":
            return [["report", "--events", events, "--bots", bots, "--out", out]]
        staged = str(self.out / "events.jsonl")
        pairs, users = str(self.out / "pairs.csv"), str(self.out / "users.csv")
        return [
            ["ingest", "--events", events, "--out", out],
            ["detect", "--events", staged, "--out", out],
            ["score", "--pairs", str(self.out / "pair_counts.csv"), "--out", out],
            ["graph", "--pairs", pairs, "--users", users, "--bots", bots, "--out", out],
            ["metrics", "--pairs", pairs, "--users", users, "--bots", bots, "--events", staged, "--out", out],
        ]

    def run(self, main) -> float:
        """One operation through the given cli.main; returns its wall time."""
        argvs = self.argv_list()
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            for argv in argvs:
                code = main(argv)
                if code != 0:
                    raise OperationFailed(f"syncindex {argv[0]} exited {code}")
            return perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    import checks
    import tracing
    import workloads
    from syncindex import cli

    work = BENCH_DIR / "work" / name
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.SPECS[name]
    if scale != 1.0:
        spec = workloads.scaled(spec, scale)

    failures: list[str] = []
    setup_times: list[float] = []
    input_digest = None

    def set_up():
        nonlocal input_digest
        gc.collect()
        start = perf_counter()
        generated = workloads.generate(name, seed, work / "in", spec)
        setup_times.append(perf_counter() - start)
        digest = _digest(work / "in")
        if input_digest is None:
            input_digest = digest
        elif digest != input_digest:
            failures.append("input generation is not deterministic for a fixed seed")
        return generated

    for _ in range(SETUP_REPEATS):
        inputs = set_up()
    setup_rss = _peak_rss_mb()

    workload = Workload(name, inputs, work)
    attempted = failed = 0
    reference = None
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    tracer = tracing.Tracer() if trace else None

    def attempt(traced_run: bool) -> None:
        nonlocal attempted, failed, reference
        attempted += 1
        try:
            if traced_run:
                with tracer:
                    wall = workload.run(tracer.cli(cli.main))
                traced.append(tracer.layer_metrics(wall))
            else:
                wall = workload.run(cli.main)
        except Exception as exc:  # an operation that fails is counted, not fatal
            failed += 1
            print(f"{name}: operation failed: {exc!r}", file=sys.stderr)
            return
        digest = _digest(workload.out)
        if reference is None:
            reference = digest
            return  # the warm-up operation is not timed
        if digest != reference:
            failures.append(f"outputs of operation {attempted} differ from the first operation's")
        if not traced_run:
            untraced.append(wall)

    attempt(False)
    # Whole rounds (a set-up, one untraced operation, plus one traced operation
    # when tracing) until another round would overrun the measuring time, but
    # at least `minimum` rounds.
    began = perf_counter()
    minimum = MIN_REPEATS if scale == 1.0 else 1
    for round_number in range(1, 10_000):
        round_start = perf_counter()
        set_up()  # set-up samples spread over the run, like the operations
        attempt(False)
        if trace:
            attempt(True)
        elapsed, last_round = perf_counter() - began, perf_counter() - round_start
        if round_number >= minimum and elapsed + last_round > seconds:
            break
    peak_rss = _peak_rss_mb()
    if peak_rss <= setup_rss:
        print(f"{name}: peak RSS was set by input generation ({setup_rss:.1f} MiB)", file=sys.stderr)

    if reference is None:
        failures.append("no operation succeeded")
    else:
        if name == "chain":
            report_dir = work / "report"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["report", "--events", str(inputs.events), "--bots", str(inputs.bots),
                                 "--out", str(report_dir)])
            if code != 0:
                failures.append(f"report on the chain input exited {code}")
            else:
                failures += checks.check_chain_run(inputs, workload.out, report_dir)
        else:
            failures += checks.check_report_run(inputs, workload.out)
    for message in failures:
        print(f"{name}: check failed: {message}", file=sys.stderr)
    print(
        f"{name}: seed {seed}, {len(untraced)} timed operations: "
        + " ".join(f"{t:.3f}" for t in untraced),
        file=sys.stderr,
    )

    if trace:
        metrics = {}
        for metric, unit, _ in tracing.metric_names():
            values = [m[metric] for m in traced if metric in m]
            metrics[metric] = {"value": median(values) if values else 0.0, "unit": unit}
        overhead = metrics["trace.wall_s"]["value"] - (median(untraced) if untraced else 0.0)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": median(untraced) if untraced else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MiB"},
            "setup_s": {"value": median(setup_times), "unit": "s"},
        }
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def _import_package() -> bool:
    src = ROOT / "src"
    if not (src / "syncindex" / "__init__.py").is_file():
        print(f"syncindex sources not found under {src}", file=sys.stderr)
        return False
    sys.dont_write_bytecode = True  # leave the checkout as it was
    sys.path.insert(0, str(src))
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a small size, traced and untraced, with all checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not _import_package():
        return 2

    if not args.smoke:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            results[f"{name}/trace{int(trace)}"] = run_workload(name, args.seed, 0.0, trace, SMOKE_SCALE)
    correct = all(r["correct"] and not r["failed"] for r in results.values())
    for key, result in results.items():
        print(f"{key}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    print(json.dumps({"correct": correct, "runs": {k: r["correct"] for k, r in results.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
