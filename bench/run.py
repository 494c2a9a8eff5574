"""rwtv benchmark: one run of one workload.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The seed defaults to 0, the measuring
time to ``run_seconds`` of BENCHMARK.json, and tracing to off. The workloads are ``mc-table1``,
``walk-design`` and ``edge-list-pipeline`` (see README.md). This process
makes the run's inputs from ``--seed``, times the import of ``rwtv.cli``
in fresh interpreters (``setup_s``), and starts ``worker.py``, which
measures the workload for ``--seconds`` seconds and checks its outputs.
The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its
per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("mc-table1", "walk-design", "edge-list-pipeline")
SETUP_REPEATS = 7
DEADLINE_S = 170.0


def setup_seconds():
    """Median time to import rwtv.cli in a fresh interpreter, scaled to the
    reference host's speed by the probe the same interpreter runs next.
    One extra import first writes the bytecode caches, a one-off cost."""
    code = (
        "import sys, time; t = time.perf_counter(); import rwtv.cli; "
        f"t = time.perf_counter() - t; sys.path.insert(0, {str(BENCH)!r}); "
        "import speed; probe = min(speed.SMALL.time(), speed.SMALL.time()); "
        "print(t * speed.SMALL.ref / probe, rwtv.cli.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(ROOT / "src"):
            sys.exit(f"rwtv.cli was imported from {out[1]}, not from this checkout")
        times.append(float(out[0]))
    return statistics.median(times[1:])


def make_inputs(workload, seed, inputs):
    inputs.mkdir(parents=True)
    if workload == "edge-list-pipeline":
        import numpy as np

        sys.path.insert(0, str(BENCH))
        from edgelist import ClusteredEdgeList

        source = ClusteredEdgeList(seed)
        source.write(inputs / "graph.txt", inputs / "signal.csv")
        np.save(inputs / "edges.npy", source.edges)


def run_worker(args, inputs, work, deadline):
    work.mkdir(parents=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--inputs", str(inputs), "--work", str(work),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"worker for {args.workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"worker for {args.workload} exited with {proc.returncode}")
    with open(work / "result.json") as fh:
        return json.load(fh)


def main():
    deadline = time.monotonic() + DEADLINE_S
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (ROOT / "src" / "rwtv" / "__init__.py").is_file():
        sys.exit(f"no rwtv sources under {ROOT / 'src'}; run from a checkout")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    base = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        make_inputs(args.workload, args.seed, base / "inputs")
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = {"value": setup_seconds(), "unit": "s"}
        result = run_worker(args, base / "inputs", base / "run", deadline)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics.update(result["metrics"])
    names = [(m["name"], m["unit"]) for m in wanted]
    if sorted(names) != sorted((k, v["unit"]) for k, v in metrics.items()):
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
    for p in result["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name, _ in names},
    }))


if __name__ == "__main__":
    main()
