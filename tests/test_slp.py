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
    incidence_norm_sq,
    nmse,
    random_clustered_signal,
    random_walk_sampling,
    slp_recover,
    total_variation,
    uniform_sampling,
)
from rwtv.experiments import BENCHMARK_SLP, BENCHMARK_WALK_LENGTH, benchmark_trial_spec
from rwtv.slp import _recover_batch
from lp_oracle import tv_min_lp
from reference_slp import reference_slp
from strategies import graphs


def sampling_set(nodes):
    nodes = np.asarray(nodes)
    return SamplingSet(nodes=nodes, budget=int(nodes.size))


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
    res = slp_recover(
        g, m, x_true[m.nodes], SlpConfig(max_iterations=50000, rel_change_tol=0.0)
    )
    assert res.iterations_run <= 50000
    assert nmse(res.recovered, x_true) <= 1e-4
    # the truth is feasible, so the recovered TV cannot exceed it by much
    assert total_variation(g, res.recovered) <= total_variation(g, x_true) + 1e-3 * (
        1 + total_variation(g, x_true)
    )


def test_matches_dense_reference_iteration():
    for seed in range(6):
        g, m, values = random_instance(seed)
        for k in (1, 2, 3, 25):
            res = slp_recover(
                g, m, values, SlpConfig(max_iterations=k, rel_change_tol=0.0)
            )
            ref_avg, primals, duals = reference_slp(g, m.nodes, values, k)
            assert res.iterations_run == k
            assert res.recovered == pytest.approx(ref_avg, abs=1e-12)
            # feasibility holds at every primal iterate, exactly
            for x in primals:
                assert np.array_equal(x[m.nodes], values)
            # dual iterates stay inside the unit box at all iterations
            for y in duals:
                assert np.all(np.abs(y) <= 1.0)


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
    (10, 0, 588, "e4a8b8161dd41966f56c2c8ddd3b27d5676d219eb5c3acdc6e840bb006a309fa"),
    (10, 1, 404, "13a7e0ed77cea41353f45a3057cca3c6f6ab6012c91ee84324eb7484f1e56807"),
    (10, 2, 329, "12c4c5c144406ef83335d1a9ca6cfb154a441f5dc940cf925b9880a044ca317d"),
    (10, 3, 2439, "c28bfd83360402d86f66c683ba6afcd070ebd34557f9d5771e92c5b208b6c628"),
    (10, 4, 2853, "a7c058dd0cae009f10b43fb204f488184a2e6855a703f942e76905f13b7d141a"),
    (10, 5, 670, "bf0a90eb3ff8a586204fdfe6f23600bfcc37ca1a373edfc829d64e8952c6db3c"),
    (10, 6, 533, "c7ef048529f214eab834aa582128d8934cd3f615a283c8adff130b3cb232a91f"),
    (10, 7, 608, "8ff05982cea7fe39b635707eef98ad11b70818ea712bf3d6ec05cc13cbbcab9e"),
    (10, 8, 311, "8ea0f1af0027d0d022d30f605b41f0536bd09789638c2963481e2634ff7b34d1"),
    (10, 9, 406, "8d672b5946d5327f2bf0c3aa0504d601819b2dc3fb8fdf3ab169f4a32f160b9d"),
    (50, 0, 845, "77c89364a2f7fabc3b6e292727257f7a49a12482944803848abfb271da9262f0"),
    (50, 1, 732, "faff10d5ce423ebfe9bdca0ddd3052032376c8baee3050b1022b684e09a603af"),
    (50, 2, 471, "aa74a93467cf7aab962f0c367a8da6792356a5f8b5fabd0aaf4038f649a9edf3"),
    (50, 3, 1631, "36a2d546aa960a4c117adf70a639b4c518b48994ee14f96ea3185b4b95a47310"),
    (50, 4, 1462, "f08d8c062fdb2510b92f17cba34a2b98e6d124f4f3695d5b4bc5f1166dc7ebf2"),
    (50, 5, 889, "50d7e7466cb413a11f488dc62485d6a343b92ec62970b4b3b43212f05028b259"),
    (50, 6, 875, "b2d54ba7649573d0019f84903044691da75b973bff5616100bb36146f99848f8"),
    (50, 7, 1029, "bb6ea3d1749c52078f09503ff13fcc3a3e042ee82e455831983916f3570c6f34"),
    (50, 8, 646, "b61c5a89f3586ed726c258edea55dffbe2db2946faa9cd01b115bc175165f808"),
    (50, 9, 785, "f6a9288ca8ff58be8241b1e38395f63b602ade96bf28b90557e77e509aa94fcf"),
]


def test_seeded_reference_solves_are_pinned():
    base = benchmark_trial_spec(seed=7)
    for budget, index, iterations, digest in PINNED_SOLVES:
        spec = replace(base, walk=WalkConfig(BENCHMARK_WALK_LENGTH, budget))
        gen = spec.master_seed.substream(index).generator()
        g, part = generate_appm(spec.appm, gen)
        x = random_clustered_signal(part, gen)
        m = random_walk_sampling(g, spec.walk, gen)
        res = slp_recover(g, m, x[m.nodes], BENCHMARK_SLP)
        assert res.iterations_run == iterations, (budget, index)
        assert hashlib.sha256(res.recovered.tobytes()).hexdigest() == digest, (
            budget,
            index,
        )


def test_batch_matches_serial_solves_bit_for_bit():
    # small random graphs plus reference trials: different max degrees (so
    # different steps), different stop iterations, and trial 3 at budget
    # 10 (2439 iterations under BENCHMARK_SLP) runs into the cap
    problems = [random_instance(seed) for seed in range(8)]
    base = benchmark_trial_spec(seed=7)
    reference = [(1, 10, 3), (4, 50, 0), (6, 10, 1), (11, 50, 3)]
    for pos, budget, index in reference:
        spec = replace(base, walk=WalkConfig(BENCHMARK_WALK_LENGTH, budget))
        gen = spec.master_seed.substream(index).generator()
        g, part = generate_appm(spec.appm, gen)
        x = random_clustered_signal(part, gen)
        m = random_walk_sampling(g, spec.walk, gen)
        problems.insert(pos, (g, m, x[m.nodes]))
    cfg = SlpConfig(max_iterations=2000, rel_change_tol=1e-5)
    serial = [slp_recover(g, m, v, cfg) for g, m, v in problems]
    batch = _recover_batch(problems, cfg)
    assert [r.iterations_run for r in batch] == [r.iterations_run for r in serial]
    for a, b in zip(batch, serial):
        assert a.recovered.tobytes() == b.recovered.tobytes()
        assert not a.recovered.flags.writeable
    iterations = {r.iterations_run for r in serial}
    assert cfg.max_iterations in iterations and len(iterations) > 5
    assert len({g.max_degree for g, _, _ in problems}) > 3


def test_batch_rejects_any_bad_problem():
    good = (Graph(2, [(0, 1)]), sampling_set([0]), [1.0])
    bad = [
        ((Graph(3, []), sampling_set([0]), [1.0]), "edge"),
        ((Graph(2, [(0, 1)]), sampling_set([]), []), "nonempty"),
        ((Graph(2, [(0, 1)]), sampling_set([5]), [1.0]), "unknown"),
        ((Graph(2, [(0, 1)]), sampling_set([0]), [1.0, 2.0]), "sample values"),
    ]
    for problem, message in bad:
        with pytest.raises(ValueError, match=message):
            _recover_batch([good, good, problem], SlpConfig())


def test_matches_lp_oracle_on_small_graphs():
    for seed in range(10):
        g, m, values = random_instance(100 + seed)
        res = slp_recover(
            g, m, values, SlpConfig(max_iterations=200000, rel_change_tol=1e-9)
        )
        _, tv_opt = tv_min_lp(g, m.nodes, values)
        assert total_variation(g, res.recovered) == pytest.approx(
            tv_opt, abs=1e-3
        )


@settings(max_examples=25)
@given(graphs(min_edges=1))
def test_step_size_within_stability_bound(g):
    norm_sq = incidence_norm_sq(g, iterations=80)
    step = 0.5 / np.sqrt(g.max_degree)
    assert step * step * norm_sq <= 1.0


# ------------------------------------------------------------------- errors

def test_empty_sampling_set_rejected():
    g = Graph(2, [(0, 1)])
    m = SamplingSet(nodes=np.array([], dtype=np.int64), budget=1)
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
