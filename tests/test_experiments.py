import io
import math
import random
from dataclasses import replace

import numpy as np
import pytest

import rwtv.experiments
from rwtv import AppmSpec, RngSeed, SamplingBudgetError, SlpConfig, WalkConfig
from rwtv.experiments import (
    TrialRow,
    TrialSpec,
    aggregate_rows,
    benchmark_trial_spec,
    read_trials_csv,
    run_sweep,
    run_trial,
    run_trials,
    write_trials_csv,
)


def small_spec(runs=4, budget=5, length=6, seed=0):
    return TrialSpec(
        appm=AppmSpec((5, 10), 0.5, 0.1),
        walk=WalkConfig(length=length, budget=budget),
        slp=SlpConfig(max_iterations=300, rel_change_tol=1e-4),
        runs=runs,
        master_seed=RngSeed(seed),
    )


def test_trial_is_deterministic():
    spec = small_spec()
    e1, counts1, cuts1 = run_trial(spec, 2)
    e2, counts2, cuts2 = run_trial(spec, 2)
    assert e1 == e2
    assert np.array_equal(counts1, counts2)
    assert np.array_equal(cuts1, cuts2)


def test_distinct_trials_differ():
    spec = small_spec()
    e1, _, _ = run_trial(spec, 0)
    e2, _, _ = run_trial(spec, 1)
    assert e1 != e2


def test_full_budget_gives_zero_error():
    spec = TrialSpec(
        appm=AppmSpec((3, 3), 1.0, 1.0),
        walk=WalkConfig(length=4, budget=6),
        slp=SlpConfig(max_iterations=50),
        runs=1,
        master_seed=RngSeed(3),
    )
    error, counts, _ = run_trial(spec, 0)
    assert error == 0.0
    assert counts.tolist() == [3, 3]


def test_counts_sum_to_budget():
    spec = small_spec(runs=6)
    for t in range(spec.runs):
        _, counts, _ = run_trial(spec, t)
        assert counts.sum() == spec.walk.budget


def test_budget_above_nodes_rejected():
    with pytest.raises(ValueError, match="budget"):
        small_spec(budget=16)


def test_aggregate_matches_manual_recompute():
    rows, failures = run_trials(small_spec(runs=8))
    assert failures == 0
    summary = aggregate_rows(rows, 2, failures)
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
    rows, _ = run_trials(small_spec(runs=10))
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    assert aggregate_rows(rows, 2) == aggregate_rows(shuffled, 2)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="zero successful"):
        aggregate_rows([], 2)


def test_trials_csv_round_trips_exactly():
    rows, failures = run_trials(small_spec(runs=5))
    buf = io.StringIO()
    write_trials_csv(buf, rows, 2)
    buf.seek(0)
    again = read_trials_csv(buf)
    assert again == rows
    assert aggregate_rows(again, 2, failures) == aggregate_rows(rows, 2, failures)


TRIALS_HEADER = "trial_index,nmse,samples_c0,cut_c0\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (TRIALS_HEADER + "0\n", "line 2: expected 4 fields, got 1"),
        ("whatever\n0,0.5,1,2,zzz\n", "expected header 'trial_index,nmse'"),
        ("trial_index,nmse,cut_c0,samples_c0\n0,0.5,1,2\n", "expected header"),
        (TRIALS_HEADER + "0,0.5,1,2\n1,0.5,1_0,2\n", "non-integer field '1_0'"),
        (TRIALS_HEADER + "0,0.5,1,99999999999999999999\n", "int64"),
        ("", "missing header"),
        (TRIALS_HEADER + "0,0_5,1,2\n", "non-float field '0_5'"),
    ],
)
def test_read_trials_csv_rejects_malformed_files(text, message):
    with pytest.raises(ValueError, match=message):
        read_trials_csv(io.StringIO(text))


def test_workers_do_not_change_results():
    spec = small_spec(runs=6)
    seq_rows, seq_fail = run_trials(spec, workers=1)
    par_rows, par_fail = run_trials(spec, workers=2)
    assert seq_rows == par_rows
    assert seq_fail == par_fail


@pytest.mark.parametrize("workers", [0, -2])
def test_run_trials_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_trials(small_spec(runs=2), workers=workers)


def test_run_trials_pool_never_exceeds_runs(monkeypatch):
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
    assert run_trials(spec, workers=64) == run_trials(spec, workers=1)
    assert run_trials(replace(spec, runs=1), workers=64)[1] == 0
    assert run_trials(spec, workers=2)[1] == 0
    assert sizes == [3, 2]


def test_failed_trials_recorded_and_excluded(monkeypatch):
    real = rwtv.experiments.random_walk_sampling
    calls = {"n": 0}

    def flaky(g, cfg, gen):
        calls["n"] += 1
        if calls["n"] == 2:
            raise SamplingBudgetError("sampling budget unreachable")
        return real(g, cfg, gen)

    monkeypatch.setattr(rwtv.experiments, "random_walk_sampling", flaky)
    rows, failures = run_trials(small_spec(runs=4))
    assert failures == 1
    assert [r.index for r in rows] == [0, 2, 3]


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
                error, counts, cuts = run_trial(spec, i)
            except SamplingBudgetError:
                continue
            single.append(TrialRow(i, error, tuple(counts), tuple(cuts)))
        assert rows == single
        assert failures == spec.runs - len(single)


def test_run_table1_shapes_and_reproducibility():
    base = small_spec(runs=3)
    budgets = (3, 6)
    walks = [WalkConfig(base.walk.length, b) for b in budgets]
    s1 = [aggregate_rows(rows, 2, f) for _, rows, f in run_sweep(base, walks)]
    s2 = [aggregate_rows(rows, 2, f) for _, rows, f in run_sweep(base, walks)]
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
    summaries = [aggregate_rows(rows, 2, f) for _, rows, f in collected]
    assert len(summaries) == 2
    for spec, rows, _ in collected:
        assert spec.walk.budget == rwtv.experiments.TABLE2_BUDGET
        for r in rows:
            assert sum(r.samples_per_cluster) == rwtv.experiments.TABLE2_BUDGET


def test_run_cluster_stats_summary():
    base = small_spec(runs=5)
    _, rows, failures = run_sweep(base, [base.walk])[0]
    summary = aggregate_rows(rows, 2, failures)
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
        assert (rows, failures) == run_trials(expected)


def test_benchmark_spec_defaults():
    spec = benchmark_trial_spec(runs=10, seed=4)
    assert spec.appm.cluster_sizes == (10, 20, 30, 40)
    assert spec.appm.p_intra == 0.3
    assert spec.appm.q_inter == 0.05
    assert spec.walk.length == 10
    assert spec.master_seed == RngSeed(4)
