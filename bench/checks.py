"""Output checkers that share no code with rwtv.

Each checker reads the program's outputs (files or returned arrays) and
compares them with a computation made here, or with a property the method
must have. Every checker returns a list of problem strings; an empty list
means the output passed.

The statistical checks run on the trials of one benchmark run, which is
far fewer than the 1000 per setting of the acceptance suite, and they run
on every seed a caller passes. Their bounds are therefore stated in
standard errors of the run's own sample, at ``Z`` standard errors: a
correct program breaks one such bound with probability below 1e-5.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

Z = 4.5


# ------------------------------------------------------------ file readers


def read_edges(path):
    """``(edges, loop_nodes)`` of an edge-list file; edges as ``min, max``."""
    pairs = []
    with open(path) as fh:
        for line in fh:
            s = line.split("#", 1)[0].split()
            if s:
                pairs.append((int(s[0]), int(s[1])))
    e = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    loops = e[e[:, 0] == e[:, 1], 0]
    e = np.sort(e[e[:, 0] != e[:, 1]], axis=1)
    return np.unique(e, axis=0), np.unique(loops)


def read_columns(path, header):
    """Columns of a headered CSV file as lists of strings."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != list(header):
        raise ValueError(f"{path}: expected header {header}, got {rows[:1]}")
    body = [r for r in rows[1:] if r]
    return [[r[i] for r in body] for i in range(len(header))]


def read_signal(path):
    ids, values = read_columns(path, ("node_id", "value"))
    ids = np.array(ids, dtype=np.int64)
    x = np.full(ids.size, np.nan)
    x[ids] = [float(v) for v in values]
    return x


def read_nodes(path):
    (ids,) = read_columns(path, ("node_id",))
    return np.array(ids, dtype=np.int64)


# ------------------------------------------------------------ total variation


def total_variation(edges, x):
    return math.fsum(np.abs(x[edges[:, 1]] - x[edges[:, 0]]).tolist())


def tv_lp_optimum(node_count, edges, nodes, values):
    """Minimum total variation of a signal fixed to ``values`` on ``nodes``.

    Linear program over node values x and one slack t_e per edge:
    minimize sum t_e subject to -t_e <= x_h - x_t <= t_e, with the sampled
    entries of x fixed through their bounds. Sparse, solved by HiGHS.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, identity, vstack, hstack

    n, e = int(node_count), edges.shape[0]
    rows = np.repeat(np.arange(e), 2)
    cols = edges[:, ::-1].ravel()
    d = csr_matrix((np.tile([1.0, -1.0], e), (rows, cols)), shape=(e, n))
    eye = identity(e, format="csr")
    a_ub = vstack([hstack([d, -eye]), hstack([-d, -eye])], format="csr")
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    lo[nodes] = values
    hi[nodes] = values
    bounds = np.column_stack(
        [np.concatenate([lo, np.zeros(e)]), np.concatenate([hi, np.full(e, np.inf)])]
    )
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(e)]),
        A_ub=a_ub,
        b_ub=np.zeros(2 * e),
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


# ------------------------------------------------------------ mc-table1


def closed_form_cuts(sizes, q):
    """Mean number of edges leaving each cluster: q * n_r * (n - n_r)."""
    n = sum(sizes)
    return [q * s * (n - s) for s in sizes]


def check_table1_sweep(out_dir, runs, budgets, clusters):
    """Exact properties of one ``experiment table1`` output directory.

    Returns ``(problems, trials)`` where ``trials[budget]`` is a list of
    ``(nmse, cuts)`` rows for the statistical checks.
    """
    out_dir = Path(out_dir)
    problems, trials = [], {}
    summary = read_columns(
        out_dir / "table1_summary.csv",
        ("budget", "mean_nmse", "std_nmse_population", "failures"),
    )
    for i, b in enumerate(budgets):
        header = (
            ["trial_index", "nmse"]
            + [f"samples_c{c}" for c in range(clusters)]
            + [f"cut_c{c}" for c in range(clusters)]
        )
        cols = read_columns(out_dir / f"table1_trials_budget{b}.csv", header)
        index = [int(v) for v in cols[0]]
        nmse = [float(v) for v in cols[1]]
        samples = np.array(cols[2 : 2 + clusters], dtype=np.int64).T.reshape(-1, clusters)
        cuts = np.array(cols[2 + clusters :], dtype=np.int64).T.reshape(-1, clusters)
        failures = int(summary[3][i])
        if int(summary[0][i]) != b:
            problems.append(f"summary row {i} is for budget {summary[0][i]}, not {b}")
        if len(index) + failures != runs or len(set(index)) != len(index) or (
            index and not 0 <= min(index) <= max(index) < runs
        ):
            problems.append(f"budget {b}: trial indices {len(index)} + {failures} failures != {runs}")
        if np.any(samples.sum(axis=1) != b):
            problems.append(f"budget {b}: a trial's sample counts do not sum to {b}")
        if not all(math.isfinite(v) and v >= 0.0 for v in nmse):
            problems.append(f"budget {b}: NMSE not finite and nonnegative")
        if nmse:
            mean = math.fsum(nmse) / len(nmse)
            if float(summary[1][i]) != mean:
                problems.append(
                    f"budget {b}: summary mean {summary[1][i]} != fsum mean {mean!r}"
                )
        trials[b] = list(zip(nmse, cuts.tolist()))
    return problems, trials


def check_table1_statistics(trials, sizes, q, max_final_nmse=0.15):
    """Statistical properties of the pooled trials of one run.

    - mean NMSE falls with the budget: it is lower at the largest budget
      than at the smallest, and no rise between adjacent budgets exceeds
      0.01 plus ``Z`` standard errors of the difference;
    - the mean NMSE at the largest budget is at most ``max_final_nmse``;
    - the mean cut size of every cluster lies within ``Z`` standard errors
      of the closed form ``q * n_r * (n - n_r)``.
    """
    problems = []
    budgets = sorted(trials)
    stats = []
    for b in budgets:
        v = np.array([row[0] for row in trials[b]])
        if v.size < 2:
            return [f"budget {b}: {v.size} trial(s), too few to test"]
        stats.append((math.fsum(v.tolist()) / v.size, v.var(ddof=1) / v.size))
    for (b0, (m0, v0)), (b1, (m1, v1)) in zip(
        zip(budgets, stats), zip(budgets[1:], stats[1:])
    ):
        if m1 - m0 > 0.01 + Z * math.sqrt(v0 + v1):
            problems.append(f"mean NMSE rises from {m0:.4f} at {b0} to {m1:.4f} at {b1}")
    if not stats[-1][0] < stats[0][0]:
        problems.append(f"mean NMSE does not fall from budget {budgets[0]} to {budgets[-1]}")
    if stats[-1][0] > max_final_nmse:
        problems.append(
            f"mean NMSE {stats[-1][0]:.4f} at budget {budgets[-1]} > {max_final_nmse}"
        )
    cuts = np.array([row[1] for b in budgets for row in trials[b]], dtype=float)
    mean = cuts.mean(axis=0)
    se = cuts.std(axis=0, ddof=1) / math.sqrt(cuts.shape[0])
    for c, (m, s, want) in enumerate(zip(mean, se, closed_form_cuts(sizes, q))):
        if abs(m - want) > Z * s:
            problems.append(f"cluster {c}: mean cut {m:.3f} vs closed form {want} (SE {s:.3f})")
    return problems


# ------------------------------------------------------------ walk-design


def nullspace_violations(edges, labels, sampled):
    """Recount the exact-recovery condition from the edge list.

    Returns the set of ``(tail, head, node, achieved)`` for every endpoint
    of a boundary edge with fewer than two sampled same-cluster neighbors.
    """
    sampled = set(int(i) for i in sampled)
    count = {}
    for t, h in edges.tolist():
        if labels[t] == labels[h]:
            count[t] = count.get(t, 0) + (h in sampled)
            count[h] = count.get(h, 0) + (t in sampled)
    out = set()
    for t, h in edges.tolist():
        if labels[t] != labels[h]:
            for v in (t, h):
                if count.get(v, 0) < 2:
                    out.add((t, h, v, count.get(v, 0)))
    return out


def check_sampling_set(nodes, budget, node_count):
    nodes = np.asarray(nodes)
    problems = []
    if nodes.size != budget:
        problems.append(f"sampling set has {nodes.size} nodes, budget {budget}")
    if np.unique(nodes).size != nodes.size:
        problems.append("sampling set has repeated nodes")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= node_count):
        problems.append("sampling set has out-of-range nodes")
    return problems


def pearson(a, b):
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    return float(a @ b / math.sqrt(float(a @ a) * float(b @ b)))


# ------------------------------------------------------------ edge-list-pipeline


def check_induced_subgraph(source_edges, map_path, sub_path):
    """The subgraph file equals the induced subgraph of the mapped source ids.

    ``source_edges`` are the distinct source edges (external ids, ``min,
    max`` per row) the benchmark generated.
    """
    new_ids, src_ids = read_columns(map_path, ("new_id", "source_id"))
    new_ids = np.array(new_ids, dtype=np.int64)
    src_ids = np.array(src_ids, dtype=np.int64)
    problems = []
    if not np.array_equal(new_ids, np.arange(new_ids.size)):
        problems.append("map new ids are not 0..k-1 in order")
    if np.unique(src_ids).size != src_ids.size:
        problems.append("map repeats a source id")
    order = np.argsort(src_ids)
    inside = np.isin(source_edges, src_ids).all(axis=1)
    want = new_ids[order][np.searchsorted(src_ids[order], source_edges[inside])]
    want = np.unique(np.sort(want, axis=1), axis=0)
    got, loops = read_edges(sub_path)
    if got.size and got.max() >= new_ids.size:
        problems.append("subgraph has node ids beyond the map")
    if not np.array_equal(got, want):
        problems.append(
            f"subgraph has {got.shape[0]} edges, induced subgraph has {want.shape[0]}"
        )
    isolated = np.setdiff1d(new_ids, got.ravel())
    if not np.array_equal(isolated, loops):
        problems.append("isolated subgraph nodes are not listed as self-loops")
    return problems


def check_recovery(edges, node_count, nodes, truth, recovered, lp_tv=None):
    """Recovered signal: exact on samples, TV at or above the LP optimum,
    NMSE finite and at most 1."""
    problems = []
    if recovered.shape != (node_count,) or not np.all(np.isfinite(recovered)):
        return ["recovered signal is not one finite value per node"]
    if not np.array_equal(recovered[nodes], truth[nodes]):
        problems.append("recovered signal differs from the observations on sampled nodes")
    tv = total_variation(edges, recovered)
    if lp_tv is None:
        lp_tv = tv_lp_optimum(node_count, edges, nodes, truth[nodes])
    if tv < lp_tv * (1.0 - 1e-9):
        problems.append(f"recovered TV {tv!r} below the LP optimum {lp_tv!r}")
    err = float(np.sum((recovered - truth) ** 2) / np.sum(truth**2))
    if not (math.isfinite(err) and err <= 1.0):
        problems.append(f"NMSE {err} not finite or above 1")
    return problems
