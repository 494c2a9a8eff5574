"""Each output checker of the benchmark accepts a correct output and
rejects a corrupted one.

    python3 -m pytest -q bench/test_checks.py
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

# path 0-1-2-3 plus a pendant 4 on node 1; samples on 0 and 3
EDGES = np.array([[0, 1], [1, 2], [2, 3], [1, 4]])
NODES = np.array([0, 3])
TRUTH = np.array([0.0, 0.0, 1.0, 1.0, 0.0])


def test_lp_optimum_matches_hand_value():
    assert math.isclose(checks.tv_lp_optimum(5, EDGES, NODES, TRUTH[NODES]), 1.0)


def test_recovery_check_accepts_a_minimizer():
    assert checks.check_recovery(EDGES, 5, NODES, TRUTH, TRUTH.copy()) == []


def test_recovery_check_rejects_a_changed_sampled_value():
    bad = TRUTH.copy()
    bad[3] = 0.5
    problems = checks.check_recovery(EDGES, 5, NODES, TRUTH, bad)
    assert any("observations" in p for p in problems)


def test_recovery_check_rejects_tv_below_the_optimum():
    problems = checks.check_recovery(EDGES, 5, NODES, TRUTH, TRUTH.copy(), lp_tv=2.0)
    assert any("below the LP optimum" in p for p in problems)


def test_recovery_check_rejects_nmse_above_one():
    bad = TRUTH.copy()
    bad[1] = 5.0
    problems = checks.check_recovery(EDGES, 5, NODES, TRUTH, bad)
    assert any("NMSE" in p for p in problems)


def _write_subgraph(tmp_path, edges, kept):
    (tmp_path / "map.csv").write_text(
        "new_id,source_id\n" + "".join(f"{i},{s}\n" for i, s in enumerate(kept))
    )
    (tmp_path / "sub.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))


def test_induced_subgraph_check_rejects_a_dropped_edge(tmp_path):
    source = np.array([[10, 20], [10, 30], [20, 30], [30, 40], [40, 50]])
    kept = [10, 20, 30, 40]
    _write_subgraph(tmp_path, [(0, 1), (0, 2), (1, 2), (2, 3)], kept)
    assert checks.check_induced_subgraph(source, tmp_path / "map.csv", tmp_path / "sub.txt") == []
    _write_subgraph(tmp_path, [(0, 1), (1, 2), (2, 3)], kept)
    problems = checks.check_induced_subgraph(source, tmp_path / "map.csv", tmp_path / "sub.txt")
    assert any("induced subgraph" in p for p in problems)


def test_sampling_set_check_rejects_the_wrong_size():
    assert checks.check_sampling_set([1, 4, 7], 3, 10) == []
    assert checks.check_sampling_set([1, 4], 3, 10) != []
    assert checks.check_sampling_set([1, 4, 4], 3, 10) != []
    assert checks.check_sampling_set([1, 4, 10], 3, 10) != []


def test_nullspace_recount_hand_example():
    # clusters {0,1,2} and {3,4}; boundary edge (2,3)
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 3], [3, 4]])
    labels = [0, 0, 0, 1, 1]
    # node 2 has sampled same-cluster neighbours 0 and 1; node 3 only 4
    assert checks.nullspace_violations(edges, labels, [0, 1, 4]) == {(2, 3, 3, 1)}
    assert checks.nullspace_violations(edges, labels, [0]) == {(2, 3, 2, 1), (2, 3, 3, 0)}


def _write_sweep(tmp_path, budgets, rows, mean_shift=0.0):
    for b in budgets:
        with open(tmp_path / f"table1_trials_budget{b}.csv", "w") as fh:
            fh.write("trial_index,nmse,samples_c0,samples_c1,cut_c0,cut_c1\n")
            for i, (v, s0) in enumerate(rows):
                fh.write(f"{i},{v!r},{s0},{b - s0},3,3\n")
    mean = math.fsum(v for v, _ in rows) / len(rows) + mean_shift
    with open(tmp_path / "table1_summary.csv", "w") as fh:
        fh.write("budget,mean_nmse,std_nmse_population,failures\n")
        for b in budgets:
            fh.write(f"{b},{mean!r},0.0,0\n")


def test_table1_sweep_check(tmp_path):
    rows = [(0.1, 2), (0.3, 3), (0.2, 1)]
    _write_sweep(tmp_path, (5, 6), rows)
    problems, trials = checks.check_table1_sweep(tmp_path, 3, (5, 6), 2)
    assert problems == [] and len(trials[5]) == 3
    _write_sweep(tmp_path, (5, 6), rows, mean_shift=1e-12)
    problems, _ = checks.check_table1_sweep(tmp_path, 3, (5, 6), 2)
    assert any("fsum" in p for p in problems)
    _write_sweep(tmp_path, (5, 6), rows)
    problems, _ = checks.check_table1_sweep(tmp_path, 4, (5, 6), 2)
    assert any("failures" in p for p in problems)


def test_table1_statistics_check():
    gen = np.random.default_rng(0)
    sizes, q = (10, 20), 0.05
    want = checks.closed_form_cuts(sizes, q)
    assert want == [10.0, 10.0]

    def trials(means, cut_mean):
        return {
            b: [(m + 0.01 * gen.standard_normal(), [int(round(cut_mean))] * 2)
                for _ in range(200)]
            for b, m in zip((10, 20, 30), means)
        }

    good = trials((0.3, 0.2, 0.1), 10)
    for rows in good.values():
        rows[0] = (rows[0][0], [9, 11])
    assert checks.check_table1_statistics(good, sizes, q) == []
    assert checks.check_table1_statistics(trials((0.1, 0.2, 0.3), 10), sizes, q) != []
    assert checks.check_table1_statistics(trials((0.3, 0.25, 0.2), 10), sizes, q) != []
    bad_cuts = trials((0.3, 0.2, 0.1), 12)
    for rows in bad_cuts.values():
        rows[0] = (rows[0][0], [11, 13])
    assert any("closed form" in p for p in checks.check_table1_statistics(bad_cuts, sizes, q))
