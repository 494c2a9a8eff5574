import csv
import io
import math
import random
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import rwtv.experiments
from rwtv import (
    AppmSpec,
    Graph,
    RngSeed,
    SamplingBudgetError,
    SlpConfig,
    WalkConfig,
    random_walk,
    uniform_sampling,
)
from rwtv.experiments import (
    TrialRow,
    TrialSpec,
    TrialSummary,
    aggregate_rows,
    benchmark_trial_spec,
    run_sweep,
    run_trial,
    write_cluster_summary_csv,
    write_summary_csv,
    write_trials_csv,
)


def small_spec(runs=4, budget=5, length=6, seed=0):
    return TrialSpec(
        appm=AppmSpec((5, 10), 0.5, 0.1),
        walk=WalkConfig(length=length, budget=budget),
        slp=SlpConfig(max_iterations=300, gap_tol=1e-4),
        runs=runs,
        master_seed=RngSeed(seed),
    )


def test_trial_is_deterministic():
    spec = small_spec()
    assert run_trial(spec, 2) == run_trial(spec, 2)


def test_distinct_trials_differ():
    spec = small_spec()
    assert run_trial(spec, 0).nmse != run_trial(spec, 1).nmse


def test_full_budget_gives_zero_error():
    spec = TrialSpec(
        appm=AppmSpec((3, 3), 1.0, 1.0),
        walk=WalkConfig(length=4, budget=6),
        slp=SlpConfig(max_iterations=50),
        runs=1,
        master_seed=RngSeed(3),
    )
    row = run_trial(spec, 0)
    assert row.nmse == 0.0
    assert row.samples_per_cluster == (3, 3)


def test_counts_sum_to_budget():
    spec = small_spec(runs=6)
    for t in range(spec.runs):
        assert sum(run_trial(spec, t).samples_per_cluster) == spec.walk.budget


def test_budget_above_nodes_rejected():
    with pytest.raises(ValueError, match="budget"):
        small_spec(budget=16)


def test_aggregate_matches_manual_recompute():
    spec = small_spec(runs=8)
    _, rows, failures = run_sweep(spec, [spec.walk])[0]
    assert failures == 0
    summary = aggregate_rows(rows, failures=failures)
    values = [r.nmse for r in rows]
    mean = math.fsum(values) / len(values)
    assert summary.mean_nmse == mean
    assert summary.std_nmse == math.sqrt(
        math.fsum((v - mean) ** 2 for v in values) / len(values)
    )
    assert sum(summary.per_cluster_mean_samples) == pytest.approx(
        small_spec().walk.budget, rel=1e-12
    )


def test_aggregate_is_permutation_invariant():
    spec = small_spec(runs=10)
    _, rows, _ = run_sweep(spec, [spec.walk])[0]
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert aggregate_rows(rows) == aggregate_rows(shuffled)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="zero successful"):
        aggregate_rows([])


def test_aggregate_reads_cluster_count_from_rows():
    rows = [
        TrialRow(0, 0.5, (1, 2, 3, 4), (5, 6, 7, 8)),
        TrialRow(1, 0.25, (3, 2, 1, 0), (1, 2, 3, 4)),
    ]
    assert aggregate_rows(rows, failures=3) == TrialSummary(
        mean_nmse=0.375,
        std_nmse=0.125,
        per_cluster_mean_samples=(2.0, 2.0, 2.0, 2.0),
        per_cluster_mean_cut=(3.0, 4.0, 5.0, 6.0),
        failures=3,
    )
    # failures is keyword-only, so a stale cluster-count argument cannot
    # pass for a failure count
    with pytest.raises(TypeError):
        aggregate_rows(rows, 4)


def read_trials(text):
    """The rows of a per-trial CSV, read back by the csv module."""
    header, *lines = csv.reader(io.StringIO(text))
    k = (len(header) - 2) // 2
    rows = []
    for i, e, *counts in lines:
        counts = tuple(map(int, counts))
        rows.append(TrialRow(int(i), float(e), counts[:k], counts[k:]))
    return rows


def test_trials_csv_round_trips_exactly():
    spec = small_spec(runs=5)
    _, rows, failures = run_sweep(spec, [spec.walk])[0]
    buf = io.StringIO()
    write_trials_csv(buf, rows)
    again = read_trials(buf.getvalue())
    assert again == rows
    assert aggregate_rows(again, failures=failures) == aggregate_rows(rows, failures=failures)


def test_trials_csv_with_no_rows_round_trips():
    buf = io.StringIO()
    write_trials_csv(buf, [])
    assert buf.getvalue() == "trial_index,nmse\r\n"
    assert read_trials(buf.getvalue()) == []


INF = np.float64(np.inf)
SUMMARY = TrialSummary(
    np.float64(0.1),
    np.float64(1 / 3),
    (np.float64(2.5), 1e-7),
    (np.float64(3.0), np.float64(1e22)),
    failures=np.int64(2),
)
NO_CLUSTERS = TrialSummary(INF, np.float64(0.0), (), ())


@pytest.mark.parametrize(
    "write, expected",
    [
        (
            lambda fh: write_trials_csv(fh, [
                TrialRow(0, np.float64(1 / 3), (np.int64(3), 2), (5, np.int64(7))),
                TrialRow(np.int64(2), INF, (0, 1), (4, 0)),
            ]),
            "trial_index,nmse,samples_c0,samples_c1,cut_c0,cut_c1\r\n"
            "0,0.3333333333333333,3,2,5,7\r\n2,inf,0,1,4,0\r\n",
        ),
        (
            lambda fh: write_trials_csv(fh, [
                TrialRow(0, np.float64(0.5), (), ()),
                TrialRow(1, np.float64(1e-17), (), ()),
            ]),
            "trial_index,nmse\r\n0,0.5\r\n1,1e-17\r\n",
        ),
        (
            lambda fh: write_summary_csv(
                fh, "budget", [10, np.int64(20)], [SUMMARY, NO_CLUSTERS]
            ),
            "budget,mean_nmse,std_nmse_population,failures\r\n"
            "10,0.1,0.3333333333333333,2\r\n20,inf,0.0,0\r\n",
        ),
        (
            lambda fh: write_cluster_summary_csv(fh, SUMMARY),
            "cluster,mean_samples,mean_cut\r\n0,2.5,3.0\r\n1,1e-07,1e+22\r\n",
        ),
        (
            lambda fh: write_cluster_summary_csv(fh, NO_CLUSTERS),
            "cluster,mean_samples,mean_cut\r\n",
        ),
    ],
)
def test_csv_writers_bytes(write, expected):
    # numpy scalars are written as the Python numbers they hold
    buf = io.StringIO()
    write(buf)
    assert buf.getvalue() == expected


@pytest.mark.parametrize(
    "consume", [aggregate_rows, lambda rows: write_trials_csv(io.StringIO(), rows)]
)
@pytest.mark.parametrize(
    "second",
    [TrialRow(1, 0.25, (1, 2, 3), (4, 5, 6)), TrialRow(1, 0.25, (1, 2), (4, 5, 6))],
)
def test_rows_that_disagree_on_the_cluster_count_are_rejected(consume, second):
    rows = [TrialRow(0, 0.5, (1, 2), (3, 4)), second]
    with pytest.raises(ValueError, match="rows disagree on the cluster count"):
        consume(rows)


def test_workers_do_not_change_results():
    spec = small_spec(runs=6)
    _, seq_rows, seq_fail = run_sweep(spec, [spec.walk], workers=1)[0]
    _, par_rows, par_fail = run_sweep(spec, [spec.walk], workers=2)[0]
    assert seq_rows == par_rows
    assert seq_fail == par_fail


@pytest.mark.parametrize("workers", [0, -2])
def test_run_sweep_rejects_workers_below_one(workers):
    spec = small_spec(runs=2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_sweep(spec, [spec.walk], workers=workers)


PATH3 = Graph(3, [(0, 1), (1, 2)])

# the calls that take each whole-number setting, built from one value; a
# sweep of one trial runs in one chunk, so no worker process starts
COUNT_SETTINGS = {
    "max_iterations": [lambda v: SlpConfig(max_iterations=v)],
    "walk length": [
        lambda v: WalkConfig(length=v, budget=2),
        lambda v: random_walk(PATH3, 0, v, RngSeed(0)),
    ],
    "sampling budget": [
        lambda v: WalkConfig(length=3, budget=v),
        lambda v: uniform_sampling(PATH3, v, RngSeed(0)),
    ],
    "runs": [lambda v: small_spec(runs=v)],
    "workers": [
        lambda v: run_sweep(small_spec(runs=1), [WalkConfig(6, 5)], workers=v)
    ],
}


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
@pytest.mark.parametrize("field", sorted(COUNT_SETTINGS))
def test_count_settings_reject_non_integers(field, value):
    # a fraction is rejected, not truncated; numpy and float integers pass
    for build in COUNT_SETTINGS[field]:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            build(value)
        build(np.int64(2))
        build(2.0)


def test_run_sweep_pool_never_exceeds_runs(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(rwtv.experiments, "ProcessPoolExecutor", RecordingPool)
    spec = small_spec(runs=3)
    one = replace(spec, runs=1)
    assert run_sweep(spec, [spec.walk], workers=64) == run_sweep(
        spec, [spec.walk], workers=1
    )
    assert run_sweep(one, [one.walk], workers=64)[0][2] == 0
    assert run_sweep(spec, [spec.walk], workers=2)[0][2] == 0
    assert sizes == [3, 2]


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # the pool's import pulls multiprocessing, socket and subprocess into
    # every command; only a sweep over several workers imports it
    code = (
        "import sys, rwtv.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["False"]


def test_failed_trials_recorded_and_excluded(monkeypatch):
    real = rwtv.experiments.random_walk_sampling
    calls = {"n": 0}

    def flaky(g, cfg, gen):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SamplingBudgetError("sampling budget unreachable")
        return real(g, cfg, gen)

    monkeypatch.setattr(rwtv.experiments, "random_walk_sampling", flaky)
    spec = small_spec(runs=4)
    _, rows, failures = run_sweep(spec, [spec.walk])[0]
    assert failures == 1
    assert [r.index for r in rows] == [0, 2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_with_every_budget_unreachable_returns_no_rows(monkeypatch, workers):
    def unreachable(g, cfg, gen):
        raise SamplingBudgetError("sampling budget unreachable")

    monkeypatch.setattr(rwtv.experiments, "random_walk_sampling", unreachable)
    monkeypatch.setattr(rwtv.experiments, "ProcessPoolExecutor", InProcessPool)
    spec = small_spec(runs=3)
    assert run_sweep(spec, [spec.walk], workers=workers) == [(spec, [], 3)]


class InProcessPool:
    """Stands in for ProcessPoolExecutor and maps in this process, so that
    monkeypatched functions apply inside the chunks."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


SWEEP_WALKS = [WalkConfig(4, 3), WalkConfig(6, 5), WalkConfig(8, 4)]


def test_sweep_rows_do_not_depend_on_workers():
    # 9 trials: one chunk serially, chunks of 5 and 4 with two workers
    base = small_spec(runs=3)
    assert run_sweep(base, SWEEP_WALKS, workers=1) == run_sweep(
        base, SWEEP_WALKS, workers=2
    )


def test_sweep_chunks_with_unreachable_budget_match_single_trials(monkeypatch):
    real = rwtv.experiments.random_walk_sampling

    def flaky(g, cfg, gen):
        if g.edge_count % 3 == 0:
            raise SamplingBudgetError("sampling budget unreachable")
        return real(g, cfg, gen)

    monkeypatch.setattr(rwtv.experiments, "random_walk_sampling", flaky)
    monkeypatch.setattr(rwtv.experiments, "ProcessPoolExecutor", InProcessPool)
    base = small_spec(runs=5)
    serial = run_sweep(base, SWEEP_WALKS, workers=1)
    assert serial == run_sweep(base, SWEEP_WALKS, workers=2)
    assert serial == run_sweep(base, SWEEP_WALKS, workers=4)
    assert 0 < sum(f for *_, f in serial) < 15
    for spec, rows, failures in serial:
        single = []
        for i in range(spec.runs):
            try:
                single.append(run_trial(spec, i))
            except SamplingBudgetError:
                continue
        assert rows == single
        assert failures == spec.runs - len(single)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_of_the_specs_own_walk_runs_its_trials(monkeypatch, workers):
    real = rwtv.experiments.random_walk_sampling

    def flaky(g, cfg, gen):
        if g.edge_count % 3 == 0:
            raise SamplingBudgetError("sampling budget unreachable")
        return real(g, cfg, gen)

    monkeypatch.setattr(rwtv.experiments, "random_walk_sampling", flaky)
    monkeypatch.setattr(rwtv.experiments, "ProcessPoolExecutor", InProcessPool)
    spec = small_spec(runs=8)
    single = []
    for i in range(spec.runs):
        try:
            single.append(run_trial(spec, i))
        except SamplingBudgetError:
            continue
    assert 0 < len(single) < spec.runs
    assert run_sweep(spec, [spec.walk], workers=workers) == [
        (spec, single, spec.runs - len(single))
    ]


def test_run_table1_shapes_and_reproducibility():
    base = small_spec(runs=3)
    budgets = (3, 6)
    walks = [WalkConfig(base.walk.length, b) for b in budgets]
    s1 = [aggregate_rows(rows, failures=f) for _, rows, f in run_sweep(base, walks)]
    s2 = [aggregate_rows(rows, failures=f) for _, rows, f in run_sweep(base, walks)]
    assert len(s1) == 2
    assert s1 == s2
    for budget, summary in zip(budgets, s1):
        assert summary.failures == 0
        assert sum(summary.per_cluster_mean_samples) == pytest.approx(budget)


def test_run_table2_uses_fixed_budget():
    base = small_spec(runs=2)
    collected = run_sweep(
        base, [WalkConfig(n, rwtv.experiments.TABLE2_BUDGET) for n in (3, 5)]
    )
    summaries = [aggregate_rows(rows, failures=f) for _, rows, f in collected]
    assert len(summaries) == 2
    for spec, rows, _ in collected:
        assert spec.walk.budget == rwtv.experiments.TABLE2_BUDGET
        for r in rows:
            assert sum(r.samples_per_cluster) == rwtv.experiments.TABLE2_BUDGET


def test_run_cluster_stats_summary():
    base = small_spec(runs=5)
    _, rows, failures = run_sweep(base, [base.walk])[0]
    summary = aggregate_rows(rows, failures=failures)
    assert len(summary.per_cluster_mean_samples) == 2
    assert sum(summary.per_cluster_mean_samples) == pytest.approx(
        base.walk.budget
    )


def test_run_sweep_variant_streams():
    base = small_spec(runs=3)
    walks = [WalkConfig(4, 3), WalkConfig(6, 5), WalkConfig(8, 4)]
    results = run_sweep(base, walks)
    assert len(results) == len(walks)
    for i, (walk, (spec, rows, failures)) in enumerate(zip(walks, results)):
        expected = replace(
            base, walk=walk, master_seed=base.master_seed.substream(i << 32)
        )
        assert spec == expected
        assert run_sweep(expected, [walk]) == [(expected, rows, failures)]


def test_benchmark_spec_defaults():
    spec = benchmark_trial_spec(runs=10, seed=4)
    assert spec.appm.cluster_sizes == (10, 20, 30, 40)
    assert spec.appm.p_intra == 0.3
    assert spec.appm.q_inter == 0.05
    assert spec.walk.length == 10
    assert spec.master_seed == RngSeed(4)
