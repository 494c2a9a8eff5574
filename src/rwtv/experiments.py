"""Monte-Carlo harness: repeated generate/sample/recover pipelines.

Each trial draws a fresh planted-partition graph and clustered signal,
builds a walk-based sampling set, recovers the signal, and records the
normalized recovery error and per-cluster sampling statistics in one
:class:`TrialRow`. :func:`run_sweep` runs one set of trials per walk
configuration, recovering each chunk of trials in one batched solve with
the same rows as :func:`run_trial` one at a time; rows aggregate into
mean/STD summaries and dump to CSV files.

Trial RNG streams derive from the spec's master seed plus the trial
index; sweep variants are offset by ``variant_index << 32``, so results
are reproducible and independent of worker scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fileio import _write_table
from .graph import _check_count, cut_size
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
    "aggregate_rows",
    "run_sweep",
    "write_trials_csv",
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

# Stopping parameters used by the benchmark sweeps, which stop each solve
# within 0.1% of the optimal total variation. On the 40 reference trials at
# seed 7 and budgets 10 and 50, the recovered total variation equalled the
# LP optimum up to a relative 1e-12 in all 40, after a median of 50 and at
# most 200 iterations. A table1 reference trial (draw, sample, recover,
# score) takes ~0.71 ms in a batched sweep and ~1.4 ms recovered on its own
# (2-core x86 host, numpy 2.4.6, best of 3 runs of run_sweep over 1000
# trials and of run_trial over 200, both spread evenly over the five
# budgets).
BENCHMARK_SLP = SlpConfig(max_iterations=5000, gap_tol=1e-3)

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
        object.__setattr__(self, "runs", _check_count(self.runs, "runs"))
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
    """TrialSpec for the reference four-cluster benchmark setup (int seed)."""
    return TrialSpec(
        appm=AppmSpec(BENCHMARK_CLUSTER_SIZES, BENCHMARK_P_INTRA, BENCHMARK_Q_INTER),
        walk=WalkConfig(length=BENCHMARK_WALK_LENGTH, budget=CLUSTER_STATS_BUDGET),
        slp=BENCHMARK_SLP,
        runs=runs,
        master_seed=RngSeed(seed),
    )


def run_trial(spec, trial_index):
    """One full pipeline pass: generate, sample, recover, score.

    Returns the trial's :class:`TrialRow`; deterministic in
    ``(spec.master_seed, trial_index)``.
    """
    return _recover_and_score(spec.slp, [(trial_index, _draw(spec, trial_index))])[0]


def _draw(spec, trial_index):
    """Graph, partition, true signal and sampling set of one trial."""
    gen = spec.master_seed.substream(trial_index).generator()
    g, part = generate_appm(spec.appm, gen)
    x_true = random_clustered_signal(part, gen)
    m = random_walk_sampling(g, spec.walk, gen)
    return g, part, x_true, m


def _recover_and_score(cfg, drawn):
    """One :class:`TrialRow` per ``(trial index, draw)``, in one batch."""
    results = _recover_batch([(g, m, x[m.nodes]) for _, (g, _, x, m) in drawn], cfg)
    rows = []
    for (index, (g, part, x_true, m)), result in zip(drawn, results):
        k = part.cluster_count
        counts = np.bincount(part.labels[m.nodes], minlength=k).tolist()
        cuts = [cut_size(g, part, c) for c in range(k)]
        error = nmse(result.recovered, x_true)
        rows.append(TrialRow(index, error, tuple(counts), tuple(cuts)))
    return rows


def _run_chunk(jobs):
    """``(s, row)`` for each ``(s, spec, trial index)`` job whose sampling
    budget was reachable. The specs of one sweep share one SlpConfig."""
    variants, drawn = [], []
    for s, spec, index in jobs:
        try:
            drawn.append((index, _draw(spec, index)))
        except SamplingBudgetError:
            continue
        variants.append(s)
    return list(zip(variants, _recover_and_score(jobs[0][1].slp, drawn)))


def _cluster_count(rows):
    """The one length of every row's per-cluster tuples (0 for no rows)."""
    lengths = {len(r.samples_per_cluster) for r in rows}
    lengths |= {len(r.cut_per_cluster) for r in rows}
    if len(lengths) > 1:
        raise ValueError(f"rows disagree on the cluster count: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def aggregate_rows(rows, *, failures=0):
    """Exact mean/STD aggregation of trial rows.

    The cluster count is the length of the rows' per-cluster tuples,
    which must agree. Sums use ``math.fsum``, which is correctly rounded,
    so the summary is invariant under permutations of the rows.
    """
    if not rows:
        raise ValueError("cannot aggregate zero successful trials")
    n = len(rows)
    _cluster_count(rows)  # the rows must agree on it
    mean = math.fsum(r.nmse for r in rows) / n
    var = math.fsum((r.nmse - mean) ** 2 for r in rows) / n
    samples = zip(*[r.samples_per_cluster for r in rows])
    cuts = zip(*[r.cut_per_cluster for r in rows])
    return TrialSummary(
        mean_nmse=mean,
        std_nmse=math.sqrt(var),
        per_cluster_mean_samples=tuple(math.fsum(c) / n for c in samples),
        per_cluster_mean_cut=tuple(math.fsum(c) / n for c in cuts),
        failures=failures,
    )


def ProcessPoolExecutor(*args, **kwargs):
    """``concurrent.futures.ProcessPoolExecutor``, imported on the first
    call: its import pulls multiprocessing, socket and subprocess in, which
    only a sweep over several workers needs."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(*args, **kwargs)


def run_sweep(base, walks, workers=1):
    """Run the base spec's trials once per walk configuration.

    Returns one ``(spec, rows, failures)`` tuple per entry of ``walks``;
    :func:`aggregate_rows` summarizes each. Variant ``i`` draws from the
    stream block ``base.master_seed.substream(i << 32)``; block 0 is the
    base stream, so ``run_sweep(spec, [spec.walk])`` runs exactly
    ``spec``'s trials. Row ``i`` equals ``run_trial(spec, i)`` whatever
    the chunks and workers; trials whose sampling budget is unreachable
    are counted in ``failures`` and leave a gap in the indices. Rows come
    in trial-index order. The pool holds at most one of the ``workers``
    processes per chunk of at most ``_CHUNK_TRIALS`` trials.
    """
    workers = _check_count(workers, "workers")
    specs = [
        replace(base, walk=walk, master_seed=base.master_seed.substream(i << 32))
        for i, walk in enumerate(walks)
    ]
    jobs = [(s, spec, i) for s, spec in enumerate(specs) for i in range(spec.runs)]
    # with a pool, smaller chunks so that every worker gets some
    size = max(1, min(_CHUNK_TRIALS, -(-len(jobs) // workers)))
    chunks = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    if workers > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_run_chunk, chunks))
    else:
        results = [_run_chunk(chunk) for chunk in chunks]
    rows = [[] for _ in specs]
    for chunk in results:
        for s, row in chunk:
            rows[s].append(row)
    return [(spec, done, spec.runs - len(done)) for spec, done in zip(specs, rows)]


def write_trials_csv(fh, rows):
    """Per-trial dump, with as many clusters as the rows' tuples hold (none
    for no rows); floats are written with shortest round-trip precision."""
    k = range(_cluster_count(rows))
    header = ["trial_index", "nmse"]
    header += [f"samples_c{c}" for c in k] + [f"cut_c{c}" for c in k]
    _write_table(fh, header, [
        [r.index, float(r.nmse), *r.samples_per_cluster, *r.cut_per_cluster]
        for r in rows
    ])


def write_summary_csv(fh, param_name, param_values, summaries):
    """One row per swept parameter value. The std column is the population
    standard deviation, as the column name records."""
    _write_table(fh, [param_name, "mean_nmse", "std_nmse_population", "failures"], [
        [value, float(s.mean_nmse), float(s.std_nmse), s.failures]
        for value, s in zip(param_values, summaries)
    ])


def write_cluster_summary_csv(fh, summary):
    """Per-cluster mean sample counts and mean cut sizes."""
    means = zip(summary.per_cluster_mean_samples, summary.per_cluster_mean_cut)
    _write_table(fh, ["cluster", "mean_samples", "mean_cut"], [
        [c, float(samples), float(cut)] for c, (samples, cut) in enumerate(means)
    ])
