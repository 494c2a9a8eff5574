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
from rwtv.slp import _recover_batch, _steps
from lp_oracle import dense_incidence, tv_min_lp
from reference_slp import reference_slp
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


def test_matches_dense_reference_iteration():
    # up to the first gap check, which is at k = 10 or at the cap, no
    # restart happens; at the check the solver returns the last or the
    # averaged primal iterate, whichever has the smaller total variation
    for seed in range(6):
        g, m, values = random_instance(seed)
        for k in (1, 2, 3, 10):
            res = slp_recover(g, m, values, SlpConfig(max_iterations=k))
            ref_avg, primals, duals = reference_slp(g, m.nodes, values, k)
            last = primals[-1]
            better = total_variation(g, ref_avg) <= total_variation(g, last)
            assert res.iterations_run == k
            assert res.recovered == pytest.approx(ref_avg if better else last, abs=1e-12)
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
    (10, 0, 180, "9ea14167fcfde0a4c43e9f2364449aba8ba2d0391eebdf94cf19dfe2d2c3764c"),
    (10, 1, 250, "df81d2185e30efb273ec114941baf4cbcd370c94bf8dc891a6db2e8fe001aecf"),
    (10, 2, 240, "8d590ecc403c92404ed3a3501a45fbf890c7a6998dc4dfc45213463fee4f6c6f"),
    (10, 3, 350, "8ea2c73340381160fd32e92318b7425d3875884f14f22735badb887e0559dff6"),
    (10, 4, 250, "9a7076f6db7579d729158f77fa15a7678ac19355d3227230b717420f512218e6"),
    (10, 5, 270, "926c4a893fabd09047369cbf35fa448e67282f687f7f5af6fa42495dc0c52334"),
    (10, 6, 270, "98bbad0c73854aeae99220f58226ac0e81ef1fe3a3005d58ce8b447d08d4ef50"),
    (10, 7, 230, "a88765e3bffc32d97003183b5b310981256153042ebf6aab9eea4a3cb270363c"),
    (10, 8, 260, "aae7525163bf792ad3e397eb522732e2e009c4fcb55c23205b888d170727f04f"),
    (10, 9, 150, "80c5431346c4aedf67152cc007a912095bd8a741cb54051045e5178a6060225b"),
    (50, 0, 80, "b9a71e176049ddae9a3e172e40fb1c2534491a06864bb42ce9ab0ca7635c24f1"),
    (50, 1, 100, "b2adac5690d3f3ac0f358b33ca825423d3d3d65a1dda396257fd80cebd7f49e7"),
    (50, 2, 110, "3825652785935f77abd41207063ff2757cb0534b437229dcf32369b3bffbcf0b"),
    (50, 3, 100, "7cb138aafee772cf8af6a0ad26e58e81b79f4df32b12d6287849a27055236c4c"),
    (50, 4, 80, "bcf0d284fc0a4d31fe2201977b978b662fa6d6bd662cb6cc6494ed035cc9edee"),
    (50, 5, 80, "9cdc4b41ef0d3baf572e49b2f7dd700c7dfdee8fd93645279f846b196f1b27a2"),
    (50, 6, 140, "f1b2e3fb0e13fdea2dcb29728d4aa792da03b9df840b6bdee1a85fe1a35d5d6a"),
    (50, 7, 110, "e74a0b664909aac2cbc468acb80ceace98e9c70b8bb60bbf3402eda5e470d62d"),
    (50, 8, 110, "0984e1afa560bb088ed74b4e17dd109bcd502cb75333ce9401ef8a0d2c004d64"),
    (50, 9, 80, "efdff1a6c35e5e3b19dd5f982e1dfd93d4a3d172e452b9668c8dab3c592b0105"),
]

# The same solves with the primal weight held at 1 (no re-balancing): the
# solver's outputs before it had a primal weight
FIXED_WEIGHT_SOLVES = [
    (10, 0, 170, "d70bc3631d680180c0b21ae6433c87a478d24477cd740dc5e2414a24a367dcb3"),
    (10, 1, 180, "4b8146a656cb8b46fa93e01a6b68d10df242368ebdde6de97d19134a1d2d0f07"),
    (10, 2, 240, "c3ecb2ebd1162802bf9b31b9252e6d7040b370240d719757a8834f48ab871d5e"),
    (10, 3, 770, "08820aa4b3a5ec3554fe44c0c344bf4e60e3027d6b966681c6c2f619e72d037f"),
    (10, 4, 360, "71fad8b6665bc38395170a9c3d6bde24457fc6ffc333046f0c6c2722c4cac625"),
    (10, 5, 170, "5c587911175e18203b649dded4385c2fdf26d40ece63edcec594433f8faac0d1"),
    (10, 6, 390, "cd4aeecb9faa48dfd4c22e263b7c38b48ea051fbe9b6991791087d649c820c64"),
    (10, 7, 150, "82b1f8da63d55a3011ac8ebe8e50343742ed8748f9f4caafae346514b83c8339"),
    (10, 8, 410, "d54a1cbe7337299be1826c6e083c4942a533408c5fe718695584f78203f483fe"),
    (10, 9, 160, "494a1c2f720e76c227c9b7e4064ab498085786be034c35d142231718d4dc1b91"),
    (50, 0, 90, "f7d27108d0700c4987c8e3a82f0b79826f9fe394d79c58e82ac9f503720194ca"),
    (50, 1, 150, "c7e2424dfdb68002b57f9b57bb5bea27c0ef7235589f23cfd5ed723e0875e200"),
    (50, 2, 140, "4031e7284b6882d78b7e3d4a105fc58d5b1b0996a624c137b042fdd3db52686f"),
    (50, 3, 290, "b8d0c3ce9f1d54b2e19e98235f3aaf5dcd11f89507dbdd853e5f7e80dbbdf015"),
    (50, 4, 120, "61c1cc437a136b1bcb4f0ef36a553999e2fc1605e89b821f847170fe5c1a11e2"),
    (50, 5, 90, "66010e023dd7b7a80e81d83f34bb753eda6709b0629ee38f670c1e6ac295fafb"),
    (50, 6, 200, "b14f828738f885c9764efd55705e3c2cd8a57c94f70f0f5b65b09108acd053ba"),
    (50, 7, 350, "87cbaf59772ba3809a17131447585e552b20cca046958200db4a5de111db7753"),
    (50, 8, 380, "6a2dc09f416a0abd70046e9fcbca1da1a15aa5a6e9fa989dc988773a395c0f90"),
    (50, 9, 80, "bdbddd4ee22bbf6a32a51bd4a326a952dd73fd04fe8efc2d2861572cdbbcf23e"),
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
    for budget, index, iterations, digest in table:
        g, m, values = reference_trial(budget, index)
        res = slp_recover(g, m, values, BENCHMARK_SLP)
        assert res.iterations_run == iterations, (budget, index)
        assert hashlib.sha256(res.recovered.tobytes()).hexdigest() == digest, (
            budget,
            index,
        )


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
    cfg = SlpConfig(max_iterations=300, gap_tol=1e-4)
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
    cfg = SlpConfig(max_iterations=333, gap_tol=1e-3)
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
    # one sample, or all samples equal: the optimal total variation is 0,
    # and the gap is measured against 1e-6 times the largest sample
    g, m, _ = reference_trial(10, 0)
    cases = [
        (m.nodes[:1], [0.7]),
        (m.nodes, np.full(len(m), 0.7)),
        (m.nodes, np.full(len(m), -3.25)),
        (m.nodes, np.zeros(len(m))),
    ]
    for nodes, values in cases:
        res = slp_recover(g, sampling_set(nodes), values, BENCHMARK_SLP)
        assert res.iterations_run < BENCHMARK_SLP.max_iterations
        assert res.gap <= BENCHMARK_SLP.gap_tol
        tv = total_variation(g, res.recovered)
        assert tv <= BENCHMARK_SLP.gap_tol * 1e-6 * abs(values[0])


def test_certified_rule_gives_isolated_nodes_a_finite_step():
    g = Graph(5, [(0, 1), (1, 2)])  # nodes 3 and 4 have no edge
    step_x, step_y = _steps(g)
    assert step_x.tolist() == [1.0, 0.5, 1.0, 1.0, 1.0]
    assert step_y.tolist() == [0.5, 0.5]
    res = slp_recover(g, sampling_set([0, 2, 4]), [2.0, 1.0, 3.0], BENCHMARK_SLP)
    # the unsampled isolated node keeps its start, the sampled one its value
    assert res.recovered[3] == 0.0 and res.recovered[4] == 3.0
    assert np.all(np.isfinite(res.recovered))
    assert total_variation(g, res.recovered) == pytest.approx(1.0, abs=1e-3)


@settings(max_examples=25)
@given(graphs(min_edges=1))
def test_diagonal_steps_within_stability_bound(g):
    # Pock and Chambolle's condition: |diag(step_y)^1/2 D diag(step_x)^1/2| <= 1
    step_x, step_y = _steps(g)
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
        scale = max(tv, 1e-6 * np.abs(values).max())
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
