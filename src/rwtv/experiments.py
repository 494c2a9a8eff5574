"""Monte-Carlo harness: repeated generate/sample/recover pipelines.

Each trial draws a fresh planted-partition graph and clustered signal,
builds a walk-based sampling set, recovers the signal, and records the
normalized recovery error together with per-cluster sampling statistics.
A sweep runs one set of trials per walk configuration; its rows
aggregate into mean/STD summaries and dump to per-trial and summary CSV
files. Trials are drawn one by one and recovered in chunks, all trials of
a chunk in one batched solve, with the same results as one at a time.

Trial RNG streams derive from the spec's master seed plus the trial
index; sweep variants are offset by ``variant_index << 32``, so results
are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .fileio import _read_table
from .graph import cut_size
from .rng import RngSeed
from .sampling import SamplingBudgetError, WalkConfig, random_walk_sampling
from .slp import SlpConfig, _recover_batch, nmse
from .synth import AppmSpec, generate_appm, random_clustered_signal

__all__ = [
    "TrialSpec",
    "TrialRow",
    "TrialSummary",
    "BENCHMARK_CLUSTER_SIZES",
    "BENCHMARK_P_INTRA",
    "BENCHMARK_Q_INTER",
    "BENCHMARK_WALK_LENGTH",
    "BENCHMARK_SLP",
    "TABLE1_BUDGETS",
    "TABLE2_LENGTHS",
    "TABLE2_BUDGET",
    "CLUSTER_STATS_BUDGET",
    "benchmark_trial_spec",
    "run_trial",
    "run_trials",
    "aggregate_rows",
    "run_sweep",
    "write_trials_csv",
    "read_trials_csv",
    "write_summary_csv",
    "write_cluster_summary_csv",
]

# Reference benchmark setup: four clusters of sizes 10/20/30/40 with
# intra/inter edge probabilities 0.3/0.05, walk length 10.
BENCHMARK_CLUSTER_SIZES = (10, 20, 30, 40)
BENCHMARK_P_INTRA = 0.3
BENCHMARK_Q_INTER = 0.05
BENCHMARK_WALK_LENGTH = 10
TABLE1_BUDGETS = (10, 20, 30, 40, 50)
TABLE2_LENGTHS = (20, 40, 80, 160, 320)
TABLE2_BUDGET = 10
CLUSTER_STATS_BUDGET = 50

# Stopping parameters used by the benchmark sweeps. Calibrated so that
# mean NMSE over 1000-run sweeps stays within ~0.02 of fully converged
# solves. A table1 reference trial (draw, sample, recover, score) takes
# ~10 ms in a batched sweep and ~29 ms recovered on its own (2-core x86
# host, bench/run.py mc-table1 with times scaled to its reference speed).
BENCHMARK_SLP = SlpConfig(max_iterations=5000, rel_change_tol=1e-5)

# Trials recovered together in one batch, which spreads the solver's
# per-iteration overhead over the chunk. Chunks of 20, 32 and 64 trials
# gave the same throughput on table1 sweeps.
_CHUNK_TRIALS = 32


@dataclass(frozen=True)
class TrialSpec:
    """Full parameterization of one batch of simulation trials."""

    appm: AppmSpec
    walk: WalkConfig
    slp: SlpConfig
    runs: int
    master_seed: RngSeed

    def __post_init__(self):
        if int(self.runs) < 1:
            raise ValueError("runs must be >= 1")
        object.__setattr__(self, "runs", int(self.runs))
        if self.walk.budget > self.appm.node_count:
            raise ValueError(
                f"budget {self.walk.budget} exceeds node count "
                f"{self.appm.node_count}"
            )


@dataclass(frozen=True)
class TrialRow:
    """Per-trial record: recovery error plus cluster-level statistics."""

    index: int
    nmse: float
    samples_per_cluster: tuple[int, ...]
    cut_per_cluster: tuple[int, ...]


@dataclass(frozen=True)
class TrialSummary:
    """Aggregate over trials; STD is the population standard deviation
    (divisor n) of the per-trial NMSE values."""

    mean_nmse: float
    std_nmse: float
    per_cluster_mean_samples: tuple[float, ...]
    per_cluster_mean_cut: tuple[float, ...]
    failures: int = 0


def benchmark_trial_spec(runs=1000, seed=0):
    """TrialSpec for the reference four-cluster benchmark setup."""
    return TrialSpec(
        appm=AppmSpec(BENCHMARK_CLUSTER_SIZES, BENCHMARK_P_INTRA, BENCHMARK_Q_INTER),
        walk=WalkConfig(length=BENCHMARK_WALK_LENGTH, budget=CLUSTER_STATS_BUDGET),
        slp=BENCHMARK_SLP,
        runs=runs,
        master_seed=seed if isinstance(seed, RngSeed) else RngSeed(seed),
    )


def run_trial(spec, trial_index):
    """One full pipeline pass: generate, sample, recover, score.

    Returns ``(nmse, per-cluster sample counts, per-cluster cut sizes)``.
    Deterministic in ``(spec.master_seed, trial_index)``.
    """
    return _recover_and_score(spec.slp, [_draw(spec, trial_index)])[0]


def _draw(spec, trial_index):
    """Graph, partition, true signal and sampling set of one trial."""
    gen = spec.master_seed.substream(trial_index).generator()
    g, part = generate_appm(spec.appm, gen)
    x_true = random_clustered_signal(part, gen)
    m = random_walk_sampling(g, spec.walk, gen)
    return g, part, x_true, m


def _recover_and_score(cfg, draws):
    """Recover every drawn trial in one batch and score each."""
    results = _recover_batch([(g, m, x[m.nodes]) for g, _, x, m in draws], cfg)
    scored = []
    for (g, part, x_true, m), result in zip(draws, results):
        k = part.cluster_count
        counts = np.bincount(part.labels[m.nodes], minlength=k)
        cuts = np.array([cut_size(g, part, c) for c in range(k)])
        scored.append((nmse(result.recovered, x_true), counts, cuts))
    return scored


def _run_chunk(jobs):
    """Rows of the ``(spec, trial index)`` jobs, ``None`` where the sampling
    budget was unreachable. The specs of one sweep share one SlpConfig."""
    draws = {}
    for j, (spec, index) in enumerate(jobs):
        try:
            draws[j] = _draw(spec, index)
        except SamplingBudgetError:
            pass
    rows = [None] * len(jobs)
    scored = _recover_and_score(jobs[0][0].slp, list(draws.values()))
    for j, (error, counts, cuts) in zip(draws, scored):
        rows[j] = TrialRow(
            jobs[j][1], error, tuple(counts.tolist()), tuple(cuts.tolist())
        )
    return rows


def _check_workers(workers):
    if int(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return int(workers)


def _run_specs(specs, workers):
    """Every trial of every spec, solved in chunks of at most
    ``_CHUNK_TRIALS``; returns one ``(rows, failures)`` per spec."""
    workers = _check_workers(workers)
    jobs = [(spec, i) for spec in specs for i in range(spec.runs)]
    # with a pool, smaller chunks so that every worker gets some
    size = max(1, min(_CHUNK_TRIALS, -(-len(jobs) // workers)))
    chunks = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(chunk) for chunk in chunks]
    rows = [row for chunk in results for row in chunk]
    out, start = [], 0
    for spec in specs:
        done = [row for row in rows[start : start + spec.runs] if row is not None]
        out.append((done, spec.runs - len(done)))
        start += spec.runs
    return out


def run_trials(spec, workers=1):
    """Run all trials of a spec; returns ``(rows, failures)``.

    Trials whose sampling budget is unreachable are counted in
    ``failures`` and omitted from ``rows`` (their indices are skipped, so
    the gap stays visible in per-trial dumps). Rows come back ordered by
    trial index regardless of worker scheduling. The pool holds at most
    ``spec.runs`` of the ``workers >= 1`` processes.
    """
    return _run_specs([spec], workers)[0]


def aggregate_rows(rows, cluster_count, failures=0):
    """Exact mean/STD aggregation of trial rows.

    Sums use ``math.fsum``, which is correctly rounded, so the summary is
    invariant under permutations of the rows.
    """
    if not rows:
        raise ValueError("cannot aggregate zero successful trials")
    n = len(rows)
    mean = math.fsum(r.nmse for r in rows) / n
    var = math.fsum((r.nmse - mean) ** 2 for r in rows) / n
    mean_samples = tuple(
        math.fsum(r.samples_per_cluster[c] for r in rows) / n
        for c in range(cluster_count)
    )
    mean_cut = tuple(
        math.fsum(r.cut_per_cluster[c] for r in rows) / n
        for c in range(cluster_count)
    )
    return TrialSummary(
        mean_nmse=mean,
        std_nmse=math.sqrt(var),
        per_cluster_mean_samples=mean_samples,
        per_cluster_mean_cut=mean_cut,
        failures=failures,
    )


def run_sweep(base, walks, workers=1):
    """Run the base spec once per walk configuration.

    Returns one ``(spec, rows, failures)`` tuple per entry of ``walks``;
    :func:`aggregate_rows` summarizes each. Variant ``i`` draws from the
    stream block ``base.master_seed.substream(i << 32)``. Trials of all
    variants are solved together in batches, with the same results as
    one at a time.
    """
    specs = [
        replace(base, walk=walk, master_seed=base.master_seed.substream(i << 32))
        for i, walk in enumerate(walks)
    ]
    results = _run_specs(specs, workers)
    return [(spec, rows, failures) for spec, (rows, failures) in zip(specs, results)]


def _trials_header(cluster_count):
    return (
        ["trial_index", "nmse"]
        + [f"samples_c{c}" for c in range(cluster_count)]
        + [f"cut_c{c}" for c in range(cluster_count)]
    )


def write_trials_csv(fh, rows, cluster_count):
    """Per-trial dump; floats are written with shortest round-trip precision."""
    writer = csv.writer(fh)
    writer.writerow(_trials_header(cluster_count))
    for r in rows:
        writer.writerow(
            [r.index, float(r.nmse), *r.samples_per_cluster, *r.cut_per_cluster]
        )


def read_trials_csv(fh):
    """Inverse of :func:`write_trials_csv`; round-trips values exactly.

    The header must be the one written for as many clusters as it names
    ``samples_c*`` columns, and rows are read like the other CSV tables.
    """
    first = fh.readline()
    k = sum(h.strip().startswith("samples_c") for h in next(csv.reader([first])))
    index, errors, *counts = _read_table(
        [first, *fh] if first else [],
        _trials_header(k),
        (int, float) + (int,) * (2 * k),
    )
    counts = np.array(counts, dtype=np.int64).reshape(2 * k, index.size).T.tolist()
    return [
        TrialRow(i, e, tuple(c[:k]), tuple(c[k:]))
        for i, e, c in zip(index.tolist(), errors.tolist(), counts)
    ]


def write_summary_csv(fh, param_name, param_values, summaries):
    """One row per swept parameter value. The std column is the population
    standard deviation, as the column name records."""
    writer = csv.writer(fh)
    writer.writerow([param_name, "mean_nmse", "std_nmse_population", "failures"])
    for value, s in zip(param_values, summaries):
        writer.writerow([value, float(s.mean_nmse), float(s.std_nmse), s.failures])


def write_cluster_summary_csv(fh, summary):
    """Per-cluster mean sample counts and mean cut sizes."""
    writer = csv.writer(fh)
    writer.writerow(["cluster", "mean_samples", "mean_cut"])
    for c, (samples, cut) in enumerate(
        zip(summary.per_cluster_mean_samples, summary.per_cluster_mean_cut)
    ):
        writer.writerow([c, float(samples), float(cut)])
