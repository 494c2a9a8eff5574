"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The Monte-Carlo criteria run 1000 trials per swept value, so this module
takes a few minutes single-core. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines as they complete.
"""

from pathlib import Path

import numpy as np
import pytest

from rwtv import (
    AppmSpec,
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
    incidence_apply,
    incidence_transpose_apply,
    is_connected,
    nmse,
    random_walk,
    random_walk_sampling,
    slp_recover,
    total_variation,
    uniform_sampling,
)
from rwtv.experiments import TABLE2_BUDGET, aggregate_rows, benchmark_trial_spec, run_sweep
from rwtv.fileio import extract_subgraph, parse_edge_list, read_signal_rows
from lp_oracle import tv_min_lp
from reference_graph import reference_is_bipartite

RUNS = 1000
DATA = Path(__file__).parent / "data"


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' — ' + detail if detail else ''}")


# ------------------------------------------------------------- criterion 1


def test_criterion_1_budget_sweep_error_decreases():
    base = benchmark_trial_spec(runs=RUNS, seed=101)
    walks = [WalkConfig(base.walk.length, b) for b in (10, 20, 30, 40, 50)]
    summaries = [aggregate_rows(rows, failures=f) for _, rows, f in run_sweep(base, walks)]
    means = [s.mean_nmse for s in summaries]
    inversions = [
        later - earlier for earlier, later in zip(means, means[1:]) if later > earlier
    ]
    trend_ok = len(inversions) <= 1 and all(gap <= 0.01 for gap in inversions)
    final_ok = means[-1] <= 0.15
    ok = trend_ok and final_ok
    _report(
        "1 budget sweep",
        ok,
        "mean NMSE " + ", ".join(f"{v:.3f}" for v in means),
    )
    assert trend_ok, f"mean NMSE not decreasing: {means}"
    assert final_ok, f"mean NMSE at budget 50 is {means[-1]:.3f} > 0.15"


# ------------------------------------------------------------- criterion 2


def test_criterion_2_walk_length_sweep_is_flat():
    base = benchmark_trial_spec(runs=RUNS, seed=202)
    walks = [WalkConfig(n, TABLE2_BUDGET) for n in (20, 40, 80, 160, 320)]
    summaries = [aggregate_rows(rows, failures=f) for _, rows, f in run_sweep(base, walks)]
    means = [s.mean_nmse for s in summaries]
    spread = max(means) - min(means)
    ok = spread <= 0.10
    _report(
        "2 walk-length sweep",
        ok,
        f"spread {spread:.3f}, means " + ", ".join(f"{v:.3f}" for v in means),
    )
    assert ok, f"mean NMSE spread across walk lengths is {spread:.3f} > 0.10"


# ------------------------------------------------------------- criterion 3


def test_criterion_3_samples_proportional_to_cut_sizes():
    base = benchmark_trial_spec(runs=RUNS, seed=303)
    _, rows, failures = run_sweep(base, [base.walk])[0]
    summary = aggregate_rows(rows, failures=failures)
    samples = np.array(summary.per_cluster_mean_samples)
    cuts = np.array(summary.per_cluster_mean_cut)
    r = float(np.corrcoef(samples, cuts)[0, 1])
    corr_ok = r >= 0.9

    # mean cut sizes against the closed-form model values, within 3 SE
    expected = np.array([45.0, 80.0, 105.0, 120.0])
    spec = base.appm
    per_trial_cuts = np.zeros((RUNS, 4))
    master = base.master_seed
    for t in range(RUNS):
        g, part = generate_appm(spec, master.substream(t).generator())
        la = part.labels
        for c in range(4):
            inside = la == c
            per_trial_cuts[t, c] = np.count_nonzero(
                inside[g.tails] != inside[g.heads]
            )
    se = per_trial_cuts.std(axis=0, ddof=1) / np.sqrt(RUNS)
    deviation = np.abs(per_trial_cuts.mean(axis=0) - expected)
    cuts_ok = bool(np.all(deviation <= 3 * se))
    ok = corr_ok and cuts_ok
    _report(
        "3 cluster proportionality",
        ok,
        f"pearson {r:.4f}; cut deviations {np.round(deviation, 2).tolist()} "
        f"vs 3SE {np.round(3 * se, 2).tolist()}",
    )
    assert corr_ok, f"pearson correlation {r:.4f} < 0.9"
    assert cuts_ok, f"cut deviations {deviation} exceed 3 SE {3 * se}"


# ------------------------------------------------------------- criterion 4


def _random_connected_cluster(gen, n, extra_p=0.5):
    """Random spanning tree plus extra edges; connected by construction."""
    order = gen.permutation(n)
    edges = set()
    for k in range(1, n):
        attach = order[int(gen.integers(k))]
        a, b = int(order[k]), int(attach)
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if gen.random() < extra_p:
                edges.add((i, j))
    return edges


def _two_cluster_instance(gen):
    """Random two-cluster instance whose sampling set satisfies the
    recovery condition with one cross edge per boundary endpoint.

    Keeping boundary endpoints distinct matters: when several boundary
    edges share an endpoint or its two sampled support neighbors serve
    several cross edges at once, the minimizer can be non-unique even
    though the per-edge condition holds.
    """
    n1, n2 = int(gen.integers(5, 21)), int(gen.integers(5, 21))
    e1 = _random_connected_cluster(gen, n1)
    e2 = {(a + n1, b + n1) for a, b in _random_connected_cluster(gen, n2)}
    deg1 = np.zeros(n1, int)
    deg2 = np.zeros(n2, int)
    for a, b in e1:
        deg1[a] += 1
        deg1[b] += 1
    for a, b in e2:
        deg2[a - n1] += 1
        deg2[b - n1] += 1
    k = int(gen.integers(1, 4))
    cand1 = np.flatnonzero(deg1 >= 2)
    cand2 = np.flatnonzero(deg2 >= 2)
    k = min(k, cand1.size, cand2.size)
    ends1 = gen.choice(cand1, size=k, replace=False)
    ends2 = gen.choice(cand2, size=k, replace=False) + n1
    bridges = {(int(u), int(v)) for u, v in zip(ends1, ends2)}
    g = Graph(n1 + n2, sorted(e1 | e2 | bridges))
    part = Partition([0] * n1 + [1] * n2)
    sampled = set()
    for u in list(ends1) + list(ends2):
        nbrs = [
            int(w)
            for w in g.neighbors(int(u))
            if part.labels[w] == part.labels[int(u)]
        ]
        sampled.update(int(v) for v in gen.choice(nbrs, size=2, replace=False))
    for v in range(g.node_count):
        if v not in sampled and gen.random() < 0.3:
            sampled.add(v)
    m = SamplingSet(nodes=np.array(sorted(sampled)))
    return g, part, m, clustered_signal(part, gen.random(2))


def test_criterion_4_exact_recovery_when_condition_holds():
    master = RngSeed(4242)
    worst = 0.0
    for t in range(100):
        gen = master.substream(t).generator()
        g, part, m, x_true = _two_cluster_instance(gen)
        assert g.node_count <= 40
        assert check_nullspace_condition(g, part, m).satisfied
        res = slp_recover(
            g,
            m,
            x_true[m.nodes],
            SlpConfig(max_iterations=50000, gap_tol=1e-6),
        )
        worst = max(worst, nmse(res.recovered, x_true))
    ok = worst <= 1e-4
    _report("4 exact recovery", ok, f"worst NMSE {worst:.2e} over 100 instances")
    assert ok, f"worst NMSE {worst:.2e} > 1e-4"


# ------------------------------------------------------------- criterion 5


def test_criterion_5_matches_lp_oracle():
    master = RngSeed(123)
    worst = 0.0
    checked = 0
    t = 0
    while checked < 50:
        t += 1
        gen = master.substream(t).generator()
        n = int(gen.integers(2, 11))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = gen.random(len(pairs)) < 0.4
        edges = [p for p, keep in zip(pairs, mask) if keep]
        if not edges:
            edges = [tuple(sorted(gen.choice(n, 2, replace=False).tolist()))]
        g = Graph(n, edges)
        m = uniform_sampling(g, int(gen.integers(1, n + 1)), gen)
        values = gen.random(len(m))
        res = slp_recover(
            g, m, values, SlpConfig(max_iterations=200000, gap_tol=1e-6)
        )
        _, tv_opt = tv_min_lp(g, m.nodes, values)
        worst = max(worst, abs(total_variation(g, res.recovered) - tv_opt))
        checked += 1
    ok = worst <= 1e-3
    _report("5 lp oracle", ok, f"worst |TV gap| {worst:.2e} over {checked} graphs")
    assert ok, f"worst TV gap {worst:.2e} > 1e-3"


# ------------------------------------------------------------- criterion 6


def test_criterion_6_walk_occupancy_matches_degree_profile():
    spec = AppmSpec((10, 15, 25), 0.3, 0.05)
    master = RngSeed(606)
    for attempt in range(100):
        gen = master.substream(attempt).generator()
        g, _ = generate_appm(spec, gen)
        if g.edge_count and is_connected(g) and not reference_is_bipartite(g):
            break
    else:
        pytest.fail("no connected non-bipartite draw found")
    path = random_walk(g, 0, 1_000_000, gen)
    empirical = np.bincount(path, minlength=g.node_count) / path.size
    pi = g.degrees / (2.0 * g.edge_count)
    tv_distance = 0.5 * float(np.abs(empirical - pi).sum())
    ok = tv_distance <= 0.02
    _report("6 stationary occupancy", ok, f"TV distance {tv_distance:.4f}")
    assert ok, f"TV distance {tv_distance:.4f} > 0.02"


# ------------------------------------------------------------- criterion 7


def test_criterion_7_solver_unit_invariants():
    gen = RngSeed(707).generator()
    ok_clip = ok_feasible = ok_adjoint = ok_tv = True
    for _ in range(25):
        n = int(gen.integers(3, 15))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = gen.random(len(pairs)) < 0.4
        edges = [p for p, keep in zip(pairs, mask) if keep]
        if not edges:
            continue
        g = Graph(n, edges)

        y = gen.standard_normal(g.edge_count) * 3
        ok_clip &= bool(np.all(np.abs(clip(y)) <= 1.0))

        m = uniform_sampling(g, int(gen.integers(1, n + 1)), gen)
        values = gen.random(len(m))
        for k in (1, 2, 7, 40):
            res = slp_recover(g, m, values, SlpConfig(max_iterations=k))
            ok_feasible &= bool(np.array_equal(res.recovered[m.nodes], values))

        x = gen.standard_normal(n)
        ye = gen.standard_normal(g.edge_count)
        lhs = float(incidence_apply(g, x) @ ye)
        rhs = float(x @ incidence_transpose_apply(g, ye))
        ok_adjoint &= abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

        ok_tv &= total_variation(g, x) == float(np.abs(incidence_apply(g, x)).sum())

    ok = ok_clip and ok_feasible and ok_adjoint and ok_tv
    _report(
        "7 solver invariants",
        ok,
        f"clip {ok_clip}, feasibility {ok_feasible}, adjoint {ok_adjoint}, tv {ok_tv}",
    )
    assert ok_clip and ok_feasible and ok_adjoint and ok_tv


# ------------------------------------------------------------- criterion 8


def _fixture_pipeline(seed):
    with open(DATA / "copurchase_graph.txt") as fh:
        g, ext = parse_edge_list(fh)
    with open(DATA / "copurchase_ratings.csv") as fh:
        ids, values = read_signal_rows(fh)
    x = np.empty(g.node_count)
    dense = np.searchsorted(ext, ids)
    assert np.array_equal(ext[dense], ids)
    x[dense] = values

    gen = RngSeed(seed).generator()
    sub, kept = extract_subgraph(g, 400, gen)
    budget = max(1, round(0.1 * sub.node_count))
    m = random_walk_sampling(sub, WalkConfig(length=20, budget=budget), gen)
    x_sub = x[kept]
    res = slp_recover(sub, m, x_sub[m.nodes], SlpConfig(max_iterations=5000, gap_tol=1e-5))
    return nmse(res.recovered, x_sub)


def test_criterion_8_real_world_pipeline_on_fixture():
    results = {seed: _fixture_pipeline(seed) for seed in (0, 1)}
    finite_ok = all(np.isfinite(v) and v <= 1.0 for v in results.values())
    deterministic_ok = all(
        _fixture_pipeline(seed) == results[seed] for seed in results
    )
    ok = finite_ok and deterministic_ok
    _report(
        "8 ingestion pipeline",
        ok,
        "NMSE " + ", ".join(f"seed {s}: {v:.4f}" for s, v in results.items()),
    )
    assert finite_ok, f"pipeline NMSE out of range: {results}"
    assert deterministic_ok, "pipeline is not deterministic per seed"
