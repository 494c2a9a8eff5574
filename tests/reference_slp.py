"""Dense-matrix transcription of the primal-dual recovery iteration.

Mirrors the update rule step by step with explicit matrices and no
shortcuts: diagonal steps ``1 / degree`` per node (1 on a node without
edges) and ``1 / 2`` per edge, and a running average of the primal
iterates. It stops at a fixed iteration count, with no gap check and no
restart. Test code compares the package solver against it and inspects
the per-iteration primal/dual sequences directly.
"""

import numpy as np

from lp_oracle import dense_incidence


def reference_slp(g, sample_nodes, sample_values, iterations):
    """Returns (averaged primal iterate, list of primal iterates, list of
    dual iterates); the last primal iterate ends its list."""
    D = dense_incidence(g)
    n = g.node_count
    sampled = np.zeros(n, dtype=bool)
    sampled[np.asarray(sample_nodes, dtype=int)] = True
    obs = np.zeros(n)
    obs[np.asarray(sample_nodes, dtype=int)] = sample_values
    deg = np.abs(D).sum(axis=0)
    tau = np.array([1.0 / d if d > 0 else 1.0 for d in deg])
    sigma = 0.5

    y = np.zeros(g.edge_count)
    x = np.zeros(n)
    z = np.zeros(n)
    avg = np.zeros(n)
    primals, duals = [], []
    for k in range(1, iterations + 1):
        y = y + sigma * (D @ z)
        y = np.minimum(1.0, np.maximum(-1.0, y))
        r = x - tau * (D.T @ y)
        x_new = np.where(sampled, obs, r)
        z = 2.0 * x_new - x
        x = x_new
        avg = avg + (x - avg) / k
        primals.append(x.copy())
        duals.append(y.copy())
    return avg, primals, duals
