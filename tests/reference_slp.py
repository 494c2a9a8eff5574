"""Dense-matrix transcription of the restarted Halpern primal-dual iteration.

Mirrors the update rule step by step with explicit matrices and no
shortcuts: the operator T (a primal step ``1 / degree`` per node, 1 on a
node without edges, the observations written back, then a dual step
``1 / 2`` per edge at the extrapolated primal, projected onto the box),
and the reflected Halpern step toward the first anchor, the observations
with a zero dual. It stops at a fixed iteration count, with no gap check
and no restart. Test code compares the package solver against it and
inspects T's primal and dual outputs directly.
"""

import numpy as np

from lp_oracle import dense_incidence


def reference_slp(g, sample_nodes, sample_values, iterations):
    """Returns (list of T's primal outputs, list of T's dual outputs), one
    of each per iteration."""
    D = dense_incidence(g)
    n = g.node_count
    sampled = np.zeros(n, dtype=bool)
    sampled[np.asarray(sample_nodes, dtype=int)] = True
    obs = np.zeros(n)
    obs[np.asarray(sample_nodes, dtype=int)] = sample_values
    deg = np.abs(D).sum(axis=0)
    tau = np.array([1.0 / d if d > 0 else 1.0 for d in deg])
    sigma = 0.5

    anchor_x, anchor_y = obs.copy(), np.zeros(g.edge_count)
    x, y = anchor_x.copy(), anchor_y.copy()
    primals, duals = [], []
    for j in range(iterations):
        x1 = np.where(sampled, obs, x - tau * (D.T @ y))
        y1 = np.minimum(1.0, np.maximum(-1.0, y + sigma * (D @ (2.0 * x1 - x))))
        lam = (j + 1) / (j + 2)
        x = anchor_x + lam * (2.0 * x1 - x - anchor_x)
        y = anchor_y + lam * (2.0 * y1 - y - anchor_y)
        primals.append(x1)
        duals.append(y1)
    return primals, duals
