"""One measured run of one workload, in a process of its own.

Started by ``run.py``, which has already written the run's inputs. The
process imports rwtv from the checkout's ``src`` and runs whole rounds of
the workload as a closed loop from one caller, with no worker pool, until
the measuring time is spent. Round ``i`` draws its inputs from the run
seed and ``i``.

The host's CPU speed swings by up to 1.8x over seconds to minutes, so
the workload's reference probe from ``speed.py`` runs about once a second
between rounds, and each round's time is scaled to the reference host's
speed with the mean of the probes before and after it.

In a traced run each round runs twice on the same inputs, first untraced
and then with spans around rwtv's public functions; the per-layer metrics
come from the traced rounds, and the ratio of the two halves' times is the
tracing overhead.

After measuring, the process records its peak resident memory, reruns
round 0 (whose outputs must be identical), checks every output, and
writes ``result.json`` into its work directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import rwtv  # noqa: E402
from rwtv import cli, graph, sampling, synth  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer  # noqa: E402

# The paper's reference planted-partition setup, kept here rather than read
# from the program so that the checks do not trust the program's constants.
SIZES = (10, 20, 30, 40)
P_INTRA, Q_INTER = 0.3, 0.05
TABLE1_BUDGETS = (10, 20, 30, 40, 50)
TABLE2_LENGTHS = (20, 40, 80, 160, 320)
WALK_BUDGET = 50
PROBE_EVERY_S = 1.0

clock = time.perf_counter


def derived_seed(seed, index):
    """A 32-bit seed for round ``index`` of a run with seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Round:
    name: str
    elapsed: float
    attempted: int
    failed: int
    data: object = None
    traced: bool = False
    spans: tuple = (0, 0)
    ref_elapsed: float = 0.0


@contextlib.contextmanager
def quiet_stdout():
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        yield


def same_files(a, b, names):
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


# ------------------------------------------------------------ mc-table1


class McTable1:
    """``rwtv experiment table1`` sweeps; an operation is one trial."""

    RUNS = 4
    # 40 trials per budget keep budget 50's mean NMSE (0.062, SE 0.014)
    # six standard errors under the 0.15 bound
    MIN_ROUNDS = 10
    PROBE = speed.SMALL
    FILES = ("table1_summary.csv",) + tuple(
        f"table1_trials_budget{b}.csv" for b in TABLE1_BUDGETS
    )

    def __init__(self, seed, work, inputs):
        self.seed, self.work = seed, work
        self.pooled = defaultdict(list)

    def keep_solve(self, index):
        return index % 10 == 0

    def round(self, index, name):
        out = self.work / name
        argv = [
            "experiment", "table1", "--runs", str(self.RUNS),
            "--seed", str(derived_seed(self.seed, index)),
            "--out-dir", str(out), "--workers", "1",
        ]
        with quiet_stdout():
            t0 = clock()
            rc = cli.main(argv)
            elapsed = clock() - t0
        attempted = self.RUNS * len(TABLE1_BUDGETS)
        if rc != 0:
            return Round(name, elapsed, attempted, attempted)
        failures = checks.read_columns(
            out / "table1_summary.csv",
            ("budget", "mean_nmse", "std_nmse_population", "failures"),
        )[3]
        return Round(name, elapsed, attempted, sum(map(int, failures)), out)

    def same(self, a, b):
        return same_files(a.data, b.data, self.FILES)

    def check(self, r, pool):
        problems, trials = checks.check_table1_sweep(
            r.data, self.RUNS, TABLE1_BUDGETS, len(SIZES)
        )
        if pool:
            for b, rows in trials.items():
                self.pooled[b] += rows
        return problems

    def finish(self):
        return checks.check_table1_statistics(self.pooled, SIZES, Q_INTER)


# ------------------------------------------------------------ walk-design


class WalkDesign:
    """Walk sampling sets on fresh reference draws, one per Table 2 walk
    length; an operation is one set (draw, sample, check, count)."""

    MIN_ROUNDS = 1
    PROBE = speed.SMALL

    def __init__(self, seed, work, inputs):
        self.seed = seed
        self.spec = synth.AppmSpec(SIZES, P_INTRA, Q_INTER)
        self.sets = 0
        self.counts = np.zeros(len(SIZES))
        self.cuts = np.zeros(len(SIZES))

    def keep_solve(self, index):
        return False

    def round(self, index, name):
        gens = [
            np.random.default_rng(np.random.SeedSequence([self.seed, index, j]))
            for j in range(len(TABLE2_LENGTHS))
        ]
        sets, failed = [], 0
        t0 = clock()
        for gen, length in zip(gens, TABLE2_LENGTHS):
            try:
                g, part = synth.generate_appm(self.spec, gen)
                m = sampling.random_walk_sampling(
                    g, sampling.WalkConfig(length=length, budget=WALK_BUDGET), gen
                )
                report = sampling.check_nullspace_condition(g, part, m)
                counts = np.bincount(part.labels[m.nodes], minlength=len(SIZES))
                cuts = [graph.cut_size(g, part, c) for c in range(len(SIZES))]
            except (sampling.SamplingBudgetError, ValueError):
                failed += 1
                continue
            sets.append((g, part, m, report, counts, cuts))
        elapsed = clock() - t0
        return Round(name, elapsed, len(TABLE2_LENGTHS), failed, sets)

    def same(self, a, b):
        return len(a.data) == len(b.data) and all(
            np.array_equal(x[0].edges, y[0].edges)
            and np.array_equal(x[2].nodes, y[2].nodes)
            and x[3] == y[3]
            and list(x[5]) == list(y[5])
            for x, y in zip(a.data, b.data)
        )

    def check(self, r, pool):
        problems = []
        for k, (g, part, m, report, counts, cuts) in enumerate(r.data):
            found = checks.check_sampling_set(m.nodes, WALK_BUDGET, g.node_count)
            want = checks.nullspace_violations(g.edges, part.labels.tolist(), m.nodes)
            got = {
                (int(g.edges[v.edge][0]), int(g.edges[v.edge][1]), v.node, v.achieved)
                for v in report.violations
            }
            if got != want or report.satisfied != (not want):
                found.append("nullspace report differs from the recount")
            la = part.labels
            recount = [
                int(np.count_nonzero((la[g.tails] == c) != (la[g.heads] == c)))
                for c in range(len(SIZES))
            ]
            if recount != list(cuts):
                found.append(f"cut sizes {cuts} differ from the recount {recount}")
            problems += [f"set {k}: {p}" for p in found]
            if pool:
                self.sets += 1
                self.counts += counts
                self.cuts += cuts
        return problems

    def finish(self):
        r = checks.pearson(self.counts / self.sets, self.cuts / self.sets)
        if r >= 0.9:
            return []
        return [f"per-cluster samples vs cuts correlate at r = {r:.4f} < 0.9"]


# ------------------------------------------------------------ edge-list-pipeline


class EdgeListPipeline:
    """extract-subgraph, sample, recover on the generated edge list; an
    operation is one pass from the edge-list file to the recovered signal."""

    MIN_ROUNDS = 1
    PROBE = speed.PARSE
    WALK_LENGTH = 400
    SAMPLE_WALK_LENGTH = 20
    SAMPLE_RATE = 0.1
    SOLVER = ("--max-iter", "5000", "--tol", "1e-5")
    FILES = ("sub.txt", "map.csv", "x.csv", "m.csv", "xhat.csv")

    def __init__(self, seed, work, inputs):
        self.seed, self.work, self.inputs = seed, work, inputs
        ids, values = checks.read_columns(inputs / "signal.csv", ("node_id", "value"))
        self.ext = np.array(ids, dtype=np.int64)
        self.values = np.array(values, dtype=float)
        self.source_edges = np.load(inputs / "edges.npy")
        self.passes = []

    def keep_solve(self, index):
        return True

    def round(self, index, name):
        d = self.work / name
        d.mkdir(parents=True)
        seed = str(derived_seed(self.seed, index))
        files = {k: str(d / k) for k in self.FILES}
        with quiet_stdout():
            t0 = clock()
            rc = cli.main([
                "extract-subgraph", "--graph", str(self.inputs / "graph.txt"),
                "--walk-length", str(self.WALK_LENGTH), "--seed", seed,
                "--out", files["sub.txt"], "--out-map", files["map.csv"],
            ])
            if rc == 0:
                budget = self._write_truth(files["map.csv"], files["x.csv"])
                rc = cli.main([
                    "sample", "--graph", files["sub.txt"], "--method", "walk",
                    "--budget", str(budget), "--walk-length", str(self.SAMPLE_WALK_LENGTH),
                    "--seed", seed, "--out", files["m.csv"],
                ])
            if rc == 0:
                rc = cli.main([
                    "recover", "--graph", files["sub.txt"], "--samples", files["m.csv"],
                    "--signal", files["x.csv"], *self.SOLVER, "--out", files["xhat.csv"],
                ])
            elapsed = clock() - t0
        return Round(name, elapsed, 1, int(rc != 0), d)

    def _write_truth(self, map_path, signal_path):
        """Signal on the subgraph's ids, from the source signal; returns
        the sampling budget (10% of the subgraph's nodes)."""
        src = np.loadtxt(map_path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)[:, 1]
        x = self.values[np.searchsorted(self.ext, src)]
        with open(signal_path, "w") as fh:
            fh.write("node_id,value\n")
            fh.write("".join(f"{k},{v!r}\n" for k, v in enumerate(x.tolist())))
        return max(1, round(self.SAMPLE_RATE * src.size))

    def same(self, a, b):
        return same_files(a.data, b.data, self.FILES)

    def check(self, r, pool):
        """The subgraph now; the sampling set and the recovered signal, whose
        check imports scipy for the LP optimum, after the peak memory is read."""
        self.passes.append(r.data)
        return checks.check_induced_subgraph(
            self.source_edges, r.data / "map.csv", r.data / "sub.txt"
        )

    def finish(self):
        problems = []
        for d in self.passes:
            _, src = checks.read_columns(d / "map.csv", ("new_id", "source_id"))
            src = np.array(src, dtype=np.int64)
            truth = self.values[np.searchsorted(self.ext, src)]
            nodes = checks.read_nodes(d / "m.csv")
            found = checks.check_sampling_set(
                nodes, max(1, round(self.SAMPLE_RATE * src.size)), src.size
            )
            edges, _ = checks.read_edges(d / "sub.txt")
            found += checks.check_recovery(
                edges, src.size, nodes, truth, checks.read_signal(d / "xhat.csv")
            )
            problems += [f"{d.name}: {p}" for p in found]
        return problems


WORKLOADS = {
    "mc-table1": McTable1,
    "walk-design": WalkDesign,
    "edge-list-pipeline": EdgeListPipeline,
}


# ------------------------------------------------------------ measuring


def measure(workload, seconds, tracer):
    """Rounds until ``seconds`` have passed, at least the workload's
    ``MIN_ROUNDS``. Each round is checked as soon as it is timed and then
    lets go of its outputs, so that neither the process's memory nor the
    garbage collector's work grows with the run. Returns ``(rounds,
    problems, first round)``."""
    rounds, block, problems = [], [], []
    start = clock()
    probe = workload.PROBE
    before, probed = probe.time(), clock()
    index = 0
    while True:
        r = workload.round(index, f"r{index}")
        problems += check_round(workload, r, pool=True)
        block.append(r)
        if tracer is not None:
            first = len(tracer.spans)
            tracer.install()
            try:
                t = workload.round(index, f"r{index}-traced")
            finally:
                tracer.uninstall()
            t.traced, t.spans = True, (first, len(tracer.spans))
            problems += check_round(workload, t, pool=False) + compare(workload, t, r)
            block.append(t)
            t.data = None
        if index == 0:
            first_round = r
        else:
            r.data = None
        index += 1
        done = index >= workload.MIN_ROUNDS and clock() - start >= seconds
        if done or clock() - probed >= PROBE_EVERY_S:
            after, probed = probe.time(), clock()
            scale = probe.ref / ((before + after) / 2)
            for b in block:
                b.ref_elapsed = b.elapsed * scale
            rounds += block
            block, before = [], after
        if done:
            return rounds, problems, first_round


def check_round(workload, r, pool):
    """Checks one round; ``pool`` adds its outputs to the run's statistics,
    which must see each input once."""
    if r.failed == r.attempted:
        return []
    return [f"{r.name}: {p}" for p in workload.check(r, pool)]


def compare(workload, r, first):
    """A failed operation fails every time, and a repeat of a round's
    inputs gives its outputs again."""
    if r.failed != first.failed:
        return [f"{r.name}: {r.failed} failed operations, {first.name} {first.failed}"]
    if r.failed < r.attempted and not workload.same(r, first):
        return [f"{r.name}: outputs differ from {first.name}"]
    return []


def end_to_end(rounds, peak_rss_mb):
    done = sum(r.attempted - r.failed for r in rounds)
    return {
        "ops_per_s": (done / sum(r.ref_elapsed for r in rounds), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer, rounds):
    """Per-layer numbers from the spans of the traced rounds; a layer the
    workload does not call reads 0."""
    traced = [r for r in rounds if r.traced]
    scale = np.zeros(len(tracer.spans))
    for r in traced:
        scale[r.spans[0]:r.spans[1]] = r.ref_elapsed / r.elapsed
    spans = [
        (name, (t1 - t0) * scale[k], parent, info)
        for k, (name, t0, t1, parent, info) in enumerate(tracer.spans)
    ]
    by_name = defaultdict(list)
    for k, (name, d, parent, info) in enumerate(spans):
        by_name[name].append((d, info, k, parent))

    def durations(name):
        return [d for d, *_ in by_name[name]]

    def per_round(fn):
        return [fn(spans[r.spans[0]:r.spans[1]]) for r in traced]

    def total(prefix):
        return lambda s: sum(d for name, d, *_ in s if name.startswith(prefix))

    def sweep_overhead(s):
        return sum(d if name == "cli.main" else -d for name, d, *_ in s
                   if name in ("cli.main", "experiments.run_trial"))

    solves = by_name["slp.slp_recover"]
    iters = [info[0] for _, info, *_ in solves]
    excess = []
    for g, nodes, values, recovered in tracer.solves:
        lp = checks.tv_lp_optimum(g.node_count, g.edges, nodes, values)
        if lp > 0.0:
            excess.append((checks.total_variation(g.edges, recovered) - lp) / lp)

    sets = by_name["sampling.random_walk_sampling"]
    set_index = {k for _, _, k, _ in sets}
    walks = by_name["sampling.random_walk"]
    set_walks = sum(1 for *_, parent in walks if parent in set_index)
    walk_time = sum(durations("sampling.random_walk"))
    parses = by_name["fileio.parse_edge_list"]
    trial_ms = durations("experiments.run_trial")

    def cli_median(command):
        return _median([d for d, info, *_ in by_name["cli.main"] if info == command])

    return {
        "slp.recover_ms_p50": (_median(durations("slp.slp_recover"), 1e3), "ms"),
        "slp.iterations_p50": (_median(iters), "count"),
        "slp.iterations_p90": (float(np.percentile(iters, 90)) if iters else 0.0, "count"),
        "slp.us_per_iteration": (
            1e6 * sum(durations("slp.slp_recover")) / sum(iters) if iters else 0.0, "us"),
        "slp.cap_hits": (
            sum(1 for _, (it, cap), *_ in solves if cap is not None and it >= cap), "count"),
        "slp.tv_excess_p50": (_median(excess), "ratio"),
        "sampling.set_ms_p50": (_median(durations("sampling.random_walk_sampling"), 1e3), "ms"),
        "sampling.walks_per_set": (set_walks / len(sets) if sets else 0.0, "count"),
        "sampling.endpoint_yield": (
            sum(info for _, info, *_ in sets) / set_walks if set_walks else 0.0, "1/walk"),
        "sampling.steps_per_s": (
            sum(info - 1 for _, info, *_ in walks) / walk_time if walk_time else 0.0, "1/s"),
        "sampling.nullspace_check_ms_p50": (
            _median(durations("sampling.check_nullspace_condition"), 1e3), "ms"),
        "synth.generate_ms_p50": (_median(durations("synth.generate_appm"), 1e3), "ms"),
        "graph.construct_ms_p50": (_median(durations("graph.Graph"), 1e3), "ms"),
        "graph.cut_size_ms_p50": (_median(durations("graph.cut_size"), 1e3), "ms"),
        "fileio.parse_s": (
            _median(per_round(total("fileio.parse_edge_list"))) if parses else 0.0, "s"),
        "fileio.parse_lines_per_s": (
            sum(info for _, info, *_ in parses if info) / sum(d for d, *_ in parses)
            if parses else 0.0, "1/s"),
        "fileio.extract_subgraph_ms": (_median(durations("fileio.extract_subgraph"), 1e3), "ms"),
        "fileio.write_ms": (
            _median(per_round(total("fileio.write_")), 1e3)
            if any(n.startswith("fileio.write_") for n in by_name) else 0.0, "ms"),
        "experiments.trial_ms_p50": (_median(trial_ms, 1e3), "ms"),
        "experiments.trial_ms_p95": (
            float(np.percentile(trial_ms, 95)) * 1e3 if trial_ms else 0.0, "ms"),
        "experiments.overhead_ms": (
            _median(per_round(sweep_overhead), 1e3) if trial_ms else 0.0, "ms"),
        "cli.extract_subgraph_s": (cli_median("extract-subgraph"), "s"),
        "cli.sample_s": (cli_median("sample"), "s"),
        "cli.recover_s": (cli_median("recover"), "s"),
        "trace.overhead_pct": (
            100.0 * (sum(r.ref_elapsed for r in traced)
                     / sum(r.ref_elapsed for r in rounds if not r.traced) - 1.0),
            "%"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    if not Path(rwtv.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"rwtv was imported from {rwtv.__file__}, not from this checkout")
    workload = WORKLOADS[args.workload](args.seed, args.work, args.inputs)
    tracer = Tracer(workload.keep_solve) if args.trace else None
    rounds, problems, first = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rerun = workload.round(0, "rerun")
    problems += check_round(workload, rerun, pool=False) + compare(workload, rerun, first)
    problems += workload.finish()
    metrics = layer_metrics(tracer, rounds) if tracer else end_to_end(rounds, peak_rss_mb)
    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(args.work / "result.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
