import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtv import (
    Graph,
    Partition,
    RngSeed,
    SamplingSet,
    SlpConfig,
    WalkConfig,
    check_nullspace_condition,
    clip,
    clustered_signal,
    generate_appm,
    nmse,
    random_clustered_signal,
    random_walk_sampling,
    slp_recover,
    total_variation,
    uniform_sampling,
)
from rwtv.experiments import BENCHMARK_SLP, BENCHMARK_WALK_LENGTH, benchmark_trial_spec
from rwtv.slp import _DUAL_STEP, _recover_batch, _steps
from lp_oracle import dense_incidence, tv_min_lp
from reference_slp import nearest_observed, reference_slp
from strategies import graphs


def sampling_set(nodes):
    nodes = np.asarray(nodes)
    return SamplingSet(nodes=nodes)


def random_instance(seed, max_nodes=10, p=0.4):
    """Random graph with at least one edge, a random sampling set, and values."""
    gen = RngSeed(seed).generator()
    n = int(gen.integers(2, max_nodes + 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = gen.random(len(pairs)) < p
    edges = [pr for pr, keep in zip(pairs, mask) if keep]
    if not edges:
        edges = [tuple(sorted(gen.choice(n, 2, replace=False).tolist()))]
    g = Graph(n, edges)
    m = uniform_sampling(g, int(gen.integers(1, n + 1)), gen)
    values = gen.random(len(m))
    return g, m, values


# ----------------------------------------------------------------------- clip

def test_clip_identity_inside_box():
    assert clip(np.array([0.5, -0.25, 1.0])).tolist() == [0.5, -0.25, 1.0]


def test_clip_saturates():
    assert clip(np.array([2.0, -3.0])).tolist() == [1.0, -1.0]


@given(
    st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=0, max_size=30)
)
def test_clip_idempotent_and_bounded(values):
    y = np.array(values)
    once = clip(y)
    assert np.all(np.abs(once) <= 1.0)
    assert np.array_equal(clip(once), once)


def test_clip_leaves_its_input_unchanged():
    # clip projects in place on a copy; a float64 input would alias without it
    y = np.array([0.5, -0.25, 1.0, -1.0, 2.0, -3.0, np.inf, -np.inf, -0.0, np.nan])
    before = y.tobytes()
    out = clip(y)
    assert y.tobytes() == before
    assert out.tobytes() == np.clip(y, -1.0, 1.0).tobytes()


# ----------------------------------------------------------------- iteration

def test_fully_sampled_returns_samples_exactly():
    g, m, values = random_instance(1)
    m_all = sampling_set(np.arange(g.node_count))
    x = RngSeed(2).generator().random(g.node_count)
    for max_iter in (1, 3, 17):
        res = slp_recover(g, m_all, x, SlpConfig(max_iterations=max_iter))
        assert np.array_equal(res.recovered, x)


def test_single_edge_extends_constant():
    g = Graph(2, [(0, 1)])
    res = slp_recover(g, sampling_set([0]), [0.8], SlpConfig(max_iterations=50000))
    assert res.recovered[0] == 0.8
    assert res.recovered[1] == pytest.approx(0.8, abs=1e-3)


def test_bridge_instance_exact_recovery():
    # two 4-cliques joined by a bridge; sampling satisfies the recovery
    # condition, so the minimizer is unique and equals the truth
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    edges.append((3, 4))
    g = Graph(8, edges)
    part = Partition([0, 0, 0, 0, 1, 1, 1, 1])
    x_true = clustered_signal(part, [1.0, 0.0])
    m = sampling_set([0, 1, 5, 6])
    assert check_nullspace_condition(g, part, m).satisfied
    cfg = SlpConfig(max_iterations=50000, gap_tol=1e-6)
    res = slp_recover(g, m, x_true[m.nodes], cfg)
    assert res.iterations_run <= 50000
    assert nmse(res.recovered, x_true) <= 1e-4
    # the truth is feasible, so the recovered TV cannot exceed it by much
    assert total_variation(g, res.recovered) <= total_variation(g, x_true) + 1e-3 * (
        1 + total_variation(g, x_true)
    )


def unit_values(values):
    """The solver's unit for ``values``: (mid, half, values mapped onto [-1, 1])."""
    lo, hi = values.min(), values.max()
    mid, half = (lo + hi) / 2, (hi - lo) / 2 or 1.0
    return mid, half, (values - mid) / half


def better_candidate(g, v, values):
    """``v``, or its rounding to the observed values when that has strictly
    lower total variation."""
    rounded = nearest_observed(v, values)
    return rounded if total_variation(g, rounded) < total_variation(g, v) else v


def test_matches_dense_reference_iteration():
    # up to the first gap check, which is at k = 10 or at the cap, no
    # restart happens; at the check the solver returns T's primal output,
    # or its rounding to the observed values when that has strictly lower
    # TV. The solver iterates on the values mapped onto [-1, 1], so the
    # reference runs on them too, and its output is mapped back
    for seed in range(6):
        g, m, values = random_instance(seed)
        mid, half, unit = unit_values(values)
        for k in (1, 2, 3, 10):
            res = slp_recover(g, m, values, SlpConfig(max_iterations=k))
            primals, duals = reference_slp(g, m.nodes, unit, k)
            out = better_candidate(g, primals[-1], unit)
            assert res.iterations_run == k
            assert res.recovered == pytest.approx(mid + half * out, abs=1e-12)
            # feasibility holds at every primal output of T, exactly
            for x in primals:
                assert np.array_equal(x[m.nodes], unit)
            # T's dual outputs stay inside the unit box at all iterations
            for y in duals:
                assert np.all(np.abs(y) <= 1.0)


def test_matches_dense_reference_through_the_first_two_restarts():
    # with gap_tol = 0, PDLP's rules restart every running problem at the
    # first two checks: at k = 10 because no restart gap is set yet, and at
    # k = 20 because its 10 iterations since the last restart reach 0.36 of
    # the 20 run. Each restart goes to T's output, its primal rounded to the
    # observed values when that strictly lowers the total variation, and
    # the primal weight stays 1 until k > 20. A solve that stopped before
    # its cap met a zero gap, and is skipped. At seed 6 the two candidates'
    # total variations tie up to the last bit at k = 10, so the order of
    # the sums decides the restart point, and it is left out
    problems = [random_instance(seed, max_nodes=30) for seed in range(13) if seed != 6]
    problems += [reference_trial(10, index) for index in range(4)]
    compared, rounded = 0, 0
    for g, m, values in problems:
        mid, half, unit = unit_values(values)
        for k in (11, 15, 20, 25):
            res = slp_recover(g, m, values, SlpConfig(max_iterations=k, gap_tol=0.0))
            if res.iterations_run < k:
                continue
            primals, _ = reference_slp(g, m.nodes, unit, k, restarts=(10, 20))
            out = better_candidate(g, primals[-1], unit)
            assert res.recovered == pytest.approx(mid + half * out, abs=1e-12)
            compared += 1
            # the restarts before k that went to the rounding
            rounded += sum(
                better_candidate(g, primals[r - 1], unit) is not primals[r - 1]
                for r in (10, 20)
                if r < k
            )
    assert compared > 40 and rounded > 20


def test_output_feasibility_exact_at_any_iteration_count():
    g, m, values = random_instance(7)
    for k in (1, 2, 5, 100):
        res = slp_recover(g, m, values, SlpConfig(max_iterations=k))
        assert np.array_equal(res.recovered[m.nodes], values)


def test_deterministic():
    g, m, values = random_instance(11)
    r1 = slp_recover(g, m, values, SlpConfig(max_iterations=500))
    r2 = slp_recover(g, m, values, SlpConfig(max_iterations=500))
    assert np.array_equal(r1.recovered, r2.recovered)
    assert r1.iterations_run == r2.iterations_run


# (budget, trial index, iterations_run, SHA-256 of recovered.tobytes()) of
# reference trials at seed 7, solved with BENCHMARK_SLP
PINNED_SOLVES = [
    (10, 0, 30, "9dd1e05d2093d475351e1fec8844a02350bedd75e5ca89a7927d9feae16ebcb6"),
    (10, 1, 50, "89cf3382cc119aa4ed0c483182ce7c2b522aa11e61bcc728e87b9ae9de03f4c1"),
    (10, 2, 90, "a83d134f0a19bb5ec975c34236c32ab8868a83a55922f23d8a542b8e40d612b9"),
    (10, 3, 60, "52ec8cf2f9c6f533a9fafcd0da628d9027f4cf8b5ba60318ed102590bdf581af"),
    (10, 4, 80, "a876ff8ef18bbf9424831b53ff52e3844768fba839a2b2ef9a9d1e4a947c61de"),
    (10, 5, 30, "7cabd69a01bc3fca6b232fe686fab9d51edc3782dbf1f1ed7be8c06726063af2"),
    (10, 6, 80, "7e160f274159f39398ef732998c55a86b5da15c7142b7d36542cb65b87618ce2"),
    (10, 7, 30, "a36518d4a3d90f71179ec901dea2bc2465dd70bfb98553225419096efb4d6ea4"),
    (10, 8, 70, "2d08dd30ec66a09b136c8f279ce637d733d82901327c599ec8b77e7afeb3dda8"),
    (10, 9, 60, "fe44dbe85a586f49336213d378f960d35c7c1bfec40e7c3ea3cc696f3b5ca4ee"),
    (50, 0, 30, "8f8724d11735d6d24195d96406b41f813cdd0ae87881a59554f1693fc0f81fc0"),
    (50, 1, 50, "ed2e5aa3893ff2c6f2a118d94871935afdcdfbe81ec306090fb0dacd4a46adcd"),
    (50, 2, 70, "895f44c86ef2d651bfd6a087eab59f6617c6af81365ad3fd8d42cdc2898f40c4"),
    (50, 3, 50, "a0f24c84e940f73ed890f34ed2569762c33bd76d0b03ce7f14e8d16f0eb3de76"),
    (50, 4, 30, "c811f05d7846931e3187cdc6f63e087fc1d134f37b3482663aaf7221204352d8"),
    (50, 5, 30, "e5297a7cfffdee27e73c3eeb374ab325d070f0aa529dbd404694559eb8f4f820"),
    (50, 6, 70, "ed0de2646a0d012dedbb24259cdc3acab43c9fc0dc2c677165f7cec6770da093"),
    (50, 7, 50, "776f219a5934e7b0cce3a090fa757bbf76481b97974cd27e5503462e8bae475e"),
    (50, 8, 80, "868a86bae9dd06698a4e7fe4672fe5a5106c9d0f045a48315f477fdb161dd5aa"),
    (50, 9, 40, "abdb33a29f185f27086bf6ae4f9baefe515d3b6a75ff740e09b15de2d86c9e08"),
]

# The same solves with the primal weight held at 1 (no re-balancing)
FIXED_WEIGHT_SOLVES = [
    (10, 0, 30, "9dd1e05d2093d475351e1fec8844a02350bedd75e5ca89a7927d9feae16ebcb6"),
    (10, 1, 60, "89cf3382cc119aa4ed0c483182ce7c2b522aa11e61bcc728e87b9ae9de03f4c1"),
    (10, 2, 90, "a83d134f0a19bb5ec975c34236c32ab8868a83a55922f23d8a542b8e40d612b9"),
    (10, 3, 120, "52ec8cf2f9c6f533a9fafcd0da628d9027f4cf8b5ba60318ed102590bdf581af"),
    (10, 4, 80, "a876ff8ef18bbf9424831b53ff52e3844768fba839a2b2ef9a9d1e4a947c61de"),
    (10, 5, 30, "7cabd69a01bc3fca6b232fe686fab9d51edc3782dbf1f1ed7be8c06726063af2"),
    (10, 6, 90, "7e160f274159f39398ef732998c55a86b5da15c7142b7d36542cb65b87618ce2"),
    (10, 7, 30, "a36518d4a3d90f71179ec901dea2bc2465dd70bfb98553225419096efb4d6ea4"),
    (10, 8, 70, "2d08dd30ec66a09b136c8f279ce637d733d82901327c599ec8b77e7afeb3dda8"),
    (10, 9, 60, "fe44dbe85a586f49336213d378f960d35c7c1bfec40e7c3ea3cc696f3b5ca4ee"),
    (50, 0, 30, "8f8724d11735d6d24195d96406b41f813cdd0ae87881a59554f1693fc0f81fc0"),
    (50, 1, 60, "ed2e5aa3893ff2c6f2a118d94871935afdcdfbe81ec306090fb0dacd4a46adcd"),
    (50, 2, 70, "895f44c86ef2d651bfd6a087eab59f6617c6af81365ad3fd8d42cdc2898f40c4"),
    (50, 3, 60, "a0f24c84e940f73ed890f34ed2569762c33bd76d0b03ce7f14e8d16f0eb3de76"),
    (50, 4, 30, "c811f05d7846931e3187cdc6f63e087fc1d134f37b3482663aaf7221204352d8"),
    (50, 5, 30, "e5297a7cfffdee27e73c3eeb374ab325d070f0aa529dbd404694559eb8f4f820"),
    (50, 6, 50, "ed0de2646a0d012dedbb24259cdc3acab43c9fc0dc2c677165f7cec6770da093"),
    (50, 7, 50, "776f219a5934e7b0cce3a090fa757bbf76481b97974cd27e5503462e8bae475e"),
    (50, 8, 100, "868a86bae9dd06698a4e7fe4672fe5a5106c9d0f045a48315f477fdb161dd5aa"),
    (50, 9, 40, "abdb33a29f185f27086bf6ae4f9baefe515d3b6a75ff740e09b15de2d86c9e08"),
]


def reference_trial(budget, index):
    """Graph, sampling set and sampled values of a seed-7 reference trial."""
    walk = WalkConfig(BENCHMARK_WALK_LENGTH, budget)
    spec = replace(benchmark_trial_spec(seed=7), walk=walk)
    gen = spec.master_seed.substream(index).generator()
    g, part = generate_appm(spec.appm, gen)
    x = random_clustered_signal(part, gen)
    m = random_walk_sampling(g, spec.walk, gen)
    return g, m, x[m.nodes]


def assert_solves_match(table):
    # the whole table at once, so that a failure shows every moved row
    solved = []
    for budget, index, _, _ in table:
        g, m, values = reference_trial(budget, index)
        res = slp_recover(g, m, values, BENCHMARK_SLP)
        digest = hashlib.sha256(res.recovered.tobytes()).hexdigest()
        solved.append((budget, index, res.iterations_run, digest))
    assert solved == table


def test_seeded_reference_solves_are_pinned():
    assert_solves_match(PINNED_SOLVES)


def test_fixed_primal_weight_reproduces_the_unweighted_solves(monkeypatch):
    # with theta = 0 the weight stays at 1, and the steps are the base steps
    monkeypatch.setattr("rwtv.slp._THETA", 0.0)
    assert_solves_match(FIXED_WEIGHT_SOLVES)
    total = sum(iterations for _, _, iterations, _ in PINNED_SOLVES)
    assert total < sum(iterations for _, _, iterations, _ in FIXED_WEIGHT_SOLVES)


def mixed_batch():
    """Small random graphs (one with an isolated node) and reference
    trials, of different max degrees."""
    problems = [random_instance(seed) for seed in range(8)]
    reference = [(1, 10, 3), (4, 50, 0), (6, 10, 1), (11, 50, 3)]
    for pos, budget, index in reference:
        problems.insert(pos, reference_trial(budget, index))
    return problems


def test_batch_matches_serial_solves_bit_for_bit():
    # different max degrees (so different steps), different stop
    # iterations, and one problem runs into the cap
    problems = mixed_batch()
    cfg = SlpConfig(max_iterations=250, gap_tol=1e-4)
    serial = [slp_recover(g, m, v, cfg) for g, m, v in problems]
    batch = _recover_batch(problems, cfg)
    assert [r.iterations_run for r in batch] == [r.iterations_run for r in serial]
    for a, b in zip(batch, serial):
        assert a.recovered.tobytes() == b.recovered.tobytes()
        assert (a.gap, a.lower_bound) == (b.gap, b.lower_bound)
        assert not a.recovered.flags.writeable
    iterations = {r.iterations_run for r in serial}
    assert cfg.max_iterations in iterations and len(iterations) > 5
    assert len({int(g.degrees.max()) for g, _, _ in problems}) > 3


def test_certified_batch_matches_serial_solves_bit_for_bit(monkeypatch):
    # a cap off the check grid stops the slowest problems between checks
    problems = mixed_batch()
    cfg = SlpConfig(max_iterations=51, gap_tol=1e-3)
    serial = [slp_recover(g, m, v, cfg) for g, m, v in problems]
    batch = _recover_batch(problems, cfg)
    for a, b in zip(batch, serial):
        assert a.iterations_run == b.iterations_run
        assert a.recovered.tobytes() == b.recovered.tobytes()
        assert (a.gap, a.lower_bound) == (b.gap, b.lower_bound)
    iterations = [r.iterations_run for r in serial]
    assert cfg.max_iterations in iterations and len(set(iterations)) > 3
    assert any(np.any(g.degrees == 0) for g, _, _ in problems)
    for r in serial:
        assert (r.gap <= cfg.gap_tol) == (r.iterations_run < cfg.max_iterations)
    # the batch restarts: without restarts, some of its problems run otherwise
    monkeypatch.setattr("rwtv.slp._SUFFICIENT", -np.inf)
    monkeypatch.setattr("rwtv.slp._NECESSARY", -np.inf)
    monkeypatch.setattr("rwtv.slp._ARTIFICIAL", np.inf)
    plain = _recover_batch(problems, cfg)
    assert [r.iterations_run for r in plain] != iterations
    # the batch re-balances its steps: with the weight held at 1, some of
    # its problems run otherwise
    monkeypatch.undo()
    monkeypatch.setattr("rwtv.slp._THETA", 0.0)
    fixed = _recover_batch(problems, cfg)
    assert [r.iterations_run for r in fixed] != iterations


def test_batch_matches_lone_solves_after_the_shared_lam_ends():
    # in the first batch every problem restarts at the first two checks, so
    # all share one lam until the third, where only some of them restart;
    # in the other two, the copies of p restart together throughout
    p, q = reference_trial(10, 3), reference_trial(50, 1)
    batches = [[reference_trial(10, index) for index in range(8)], [p, p, p], [p, q, p]]
    for problems in batches:
        serial = [slp_recover(g, m, v, BENCHMARK_SLP) for g, m, v in problems]
        for a, b in zip(_recover_batch(problems, BENCHMARK_SLP), serial):
            assert a.iterations_run == b.iterations_run
            assert a.recovered.tobytes() == b.recovered.tobytes()
            assert (a.gap, a.lower_bound) == (b.gap, b.lower_bound)


def test_certified_stops_are_within_gap_tol_of_the_lp_optimum():
    cfg = BENCHMARK_SLP
    for budget in (10, 50):
        for index in range(20):
            g, m, values = reference_trial(budget, index)
            res = slp_recover(g, m, values, cfg)
            _, tv_opt = tv_min_lp(g, m.nodes, values)
            tv = total_variation(g, res.recovered)
            assert res.iterations_run < cfg.max_iterations, (budget, index)
            assert res.gap <= cfg.gap_tol, (budget, index)
            assert res.stop_reason == "gap", (budget, index)
            assert tv <= tv_opt * (1 + cfg.gap_tol), (budget, index)
            # the bound can reach the optimum itself, up to rounding
            assert res.lower_bound <= tv_opt * (1 + 1e-12), (budget, index)
            assert np.array_equal(res.recovered[m.nodes], values)


def test_certified_rule_stops_when_the_optimum_is_zero():
    # one sample, or all samples equal: the optimal total variation is 0.
    # With one observed value the rounded candidate is that constant, whose
    # total variation is 0 and whose bound is c * sum(D^T y) = 0 up to
    # rounding, so the first check stops
    g, m, _ = reference_trial(10, 0)
    cases = [
        (m.nodes[:1], [0.7]),
        (m.nodes, np.full(len(m), 0.7)),
        (m.nodes, np.full(len(m), -3.25)),
        (m.nodes, np.zeros(len(m))),
    ]
    for nodes, values in cases:
        res = slp_recover(g, sampling_set(nodes), values, BENCHMARK_SLP)
        assert res.iterations_run == 10
        assert res.stop_reason == "gap"
        assert res.gap <= BENCHMARK_SLP.gap_tol
        assert total_variation(g, res.recovered) == 0
        assert np.all(res.recovered == values[0])


def test_batch_matches_lone_solves_across_value_scales():
    # each problem is solved on its values mapped onto [-1, 1], so a solve
    # runs alike at any scale and offset of its values: as many iterations
    # as unscaled, a stop by the gap, and a total variation within gap_tol
    # of the LP optimum, up to rounding. Each problem rounds to its own
    # observed values only, whatever the other problems' values in the batch
    cfg = BENCHMARK_SLP
    scalings = [(1.0, 0.0), (1e-9, 0.0), (1e9, 0.0), (1.0, 1e6), (1.0, -1e6), (1.0, 1e9)]
    problems, optima = [], []
    for index in range(5):
        g, m, values = reference_trial(10, index)
        for scale, shift in scalings:
            observed = values * scale + shift
            # total variation does not change under a shift, and removing
            # the shift from the observations is exact
            _, tv_opt = tv_min_lp(g, m.nodes, (observed - shift) / scale)
            problems.append((g, m, observed))
            optima.append(scale * tv_opt)
    g, m, _ = reference_trial(50, 0)
    problems.append((g, m, np.full(len(m), 2.5e-9)))
    problems.append((g, sampling_set(m.nodes[:1]), [-4e8]))
    optima += [0.0, 0.0]
    batch = _recover_batch(problems, cfg)
    for (g, m, values), tv_opt, a in zip(problems, optima, batch):
        b = slp_recover(g, m, values, cfg)
        assert a.recovered.tobytes() == b.recovered.tobytes()
        assert a.iterations_run == b.iterations_run
        assert (a.gap, a.lower_bound) == (b.gap, b.lower_bound)
        assert a.stop_reason == "gap"
        tv = total_variation(g, a.recovered)
        assert tv <= tv_opt * (1 + cfg.gap_tol + 1e-9)
    for index in range(5):
        unscaled = batch[index * len(scalings)].iterations_run
        rows = batch[index * len(scalings) : (index + 1) * len(scalings)]
        assert [r.iterations_run for r in rows] == [unscaled] * len(scalings), index
    assert len({r.iterations_run for r in batch}) > 2


def test_rounded_outputs_take_the_observed_values_exactly():
    # this solve stops on its rounded candidate, and one of its levels does
    # not survive the map onto [-1, 1] and back bit for bit, yet every
    # output value is an observed one
    g, m, values = reference_trial(50, 2)
    levels = np.unique(values)
    mid, half = (levels[0] + levels[-1]) / 2, (levels[-1] - levels[0]) / 2
    assert np.any(mid + half * ((levels - mid) / half) != levels)
    res = slp_recover(g, m, values, BENCHMARK_SLP)
    assert set(res.recovered.tolist()) == set(levels.tolist())


def test_certified_rule_gives_isolated_nodes_a_finite_step():
    g = Graph(5, [(0, 1), (1, 2)])  # nodes 3 and 4 have no edge
    step_x, step_y = _steps(g), np.full(g.edge_count, _DUAL_STEP)
    assert step_x.tolist() == [1.0, 0.5, 1.0, 1.0, 1.0]
    assert step_y.tolist() == [0.5, 0.5]
    res = slp_recover(g, sampling_set([0, 2, 4]), [2.0, 1.0, 3.0], BENCHMARK_SLP)
    # the unsampled isolated node keeps its start, the midpoint of the
    # observed values, and the sampled one its value
    assert res.recovered[3] == 2.0 and res.recovered[4] == 3.0
    assert np.all(np.isfinite(res.recovered))
    assert total_variation(g, res.recovered) == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=25)
@given(graphs(min_edges=1))
def test_diagonal_steps_within_stability_bound(g):
    # Pock and Chambolle's condition: |diag(step_y)^1/2 D diag(step_x)^1/2| <= 1
    step_x, step_y = _steps(g), np.full(g.edge_count, _DUAL_STEP)
    scaled = np.sqrt(step_y)[:, None] * dense_incidence(g) * np.sqrt(step_x)
    assert np.linalg.norm(scaled, 2) <= 1.0 + 1e-12


def test_capped_solves_report_a_valid_certificate():
    # the cap comes before the gap closes: the one check is at the cap
    cfg = SlpConfig(max_iterations=7, gap_tol=1e-3)
    gaps = []
    for seed in range(10):
        g, m, values = random_instance(100 + seed)
        res = slp_recover(g, m, values, cfg)
        _, tv_opt = tv_min_lp(g, m.nodes, values)
        tv = total_variation(g, res.recovered)
        assert res.iterations_run == cfg.max_iterations
        assert res.stop_reason == ("gap" if res.gap <= cfg.gap_tol else "cap")
        assert res.lower_bound <= tv_opt + 1e-12
        # the gap floor is 1e-6 times half the observed range (1 if none)
        scale = max(tv, 1e-6 * ((values.max() - values.min()) / 2 or 1.0))
        assert res.gap == pytest.approx((tv - res.lower_bound) / scale, abs=1e-12)
        gaps.append(res.gap)
    assert max(gaps) > cfg.gap_tol


def test_a_solve_stopped_by_the_cap_says_so():
    g, m, values = reference_trial(10, 0)
    res = slp_recover(g, m, values, SlpConfig(max_iterations=10))
    assert res.iterations_run == 10
    assert res.gap > 1e-3
    assert res.stop_reason == "cap"


def test_empty_batch_recovers_nothing():
    assert _recover_batch([], SlpConfig()) == []


def test_batch_rejects_any_bad_problem():
    good = (Graph(2, [(0, 1)]), sampling_set([0]), [1.0])
    bad = [
        ((Graph(3, []), sampling_set([0]), [1.0]), "edge"),
        ((Graph(2, [(0, 1)]), sampling_set([]), []), "nonempty"),
        ((Graph(2, [(0, 1)]), sampling_set([5]), [1.0]), "unknown"),
        ((Graph(2, [(0, 1)]), sampling_set([0]), [1.0, 2.0]), "sample values"),
        ((Graph(2, [(0, 1)]), sampling_set([0]), [np.nan]), "finite"),
        ((Graph(2, [(0, 1)]), sampling_set([0]), [np.inf]), "finite"),
    ]
    for problem, message in bad:
        with pytest.raises(ValueError, match=message):
            _recover_batch([good, good, problem], SlpConfig())


def test_matches_lp_oracle_on_small_graphs():
    for seed in range(10):
        g, m, values = random_instance(100 + seed)
        res = slp_recover(g, m, values, SlpConfig(max_iterations=200000, gap_tol=1e-6))
        _, tv_opt = tv_min_lp(g, m.nodes, values)
        assert total_variation(g, res.recovered) == pytest.approx(
            tv_opt, abs=1e-3
        )


# ------------------------------------------------------------------- errors

def test_empty_sampling_set_rejected():
    g = Graph(2, [(0, 1)])
    m = SamplingSet(nodes=np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="nonempty"):
        slp_recover(g, m, np.array([]))


def test_sample_count_mismatch_rejected():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="sample values"):
        slp_recover(g, sampling_set([0]), [1.0, 2.0])


def test_edgeless_graph_rejected():
    g = Graph(3, [])
    with pytest.raises(ValueError, match="edge"):
        slp_recover(g, sampling_set([0]), [1.0])


def test_unknown_sample_nodes_rejected():
    g = Graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="unknown"):
        slp_recover(g, sampling_set([5]), [1.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SlpConfig(max_iterations=0), "max_iterations must be >= 1"),
        (lambda: SlpConfig(gap_tol=float("nan")), "gap_tol"),
        (lambda: SlpConfig(gap_tol=float("inf")), "gap_tol"),
        (lambda: SlpConfig(gap_tol=-1e-3), "gap_tol"),
    ],
)
def test_invalid_slp_config_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# --------------------------------------------------------------------- nmse

def test_nmse_zero_for_exact_estimate():
    x = np.array([1.0, 2.0, 3.0])
    assert nmse(x, x) == 0.0


def test_nmse_one_for_zero_estimate():
    x = np.array([1.0, -2.0])
    assert nmse(np.zeros(2), x) == 1.0


def test_nmse_hand_value():
    assert nmse(np.array([0.0, 0.5]), np.array([1.0, 0.0])) == pytest.approx(1.25)


def test_nmse_zero_truth_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        nmse(np.array([1.0]), np.array([0.0]))


def test_nmse_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        nmse(np.zeros(2), np.zeros(3))
