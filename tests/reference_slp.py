"""Dense-matrix transcription of the restarted Halpern primal-dual iteration.

Mirrors the update rule step by step with explicit matrices and no
shortcuts: the operator T (a primal step ``1 / degree`` per node, 1 on a
node without edges, the observations written back, then a dual step
``1 / 2`` per edge at the extrapolated primal, projected onto the box),
and the reflected Halpern step toward the anchor, first the observations
with a zero dual. It has no gap check and no primal weight. It restarts
only at the iteration counts it is given: the anchor and the iterate
become T's last outputs, the primal rounded to the nearest observed value
when that strictly lowers the total variation. Test code compares the
package solver against it and inspects T's primal and dual outputs
directly.
"""

import numpy as np

from lp_oracle import dense_incidence


def nearest_observed(v, values):
    """Each entry of ``v`` replaced by the nearest of the distinct observed
    values, the lower one on a tie."""
    levels = np.unique(values)
    return levels[np.argmin(np.abs(v[:, None] - levels[None, :]), axis=1)]


def reference_slp(g, sample_nodes, sample_values, iterations, restarts=()):
    """Returns (list of T's primal outputs, list of T's dual outputs), one
    of each per iteration, restarting after each iteration count in
    ``restarts``."""
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
    j = 0
    for k in range(1, iterations + 1):
        x1 = np.where(sampled, obs, x - tau * (D.T @ y))
        y1 = np.minimum(1.0, np.maximum(-1.0, y + sigma * (D @ (2.0 * x1 - x))))
        lam = (j + 1) / (j + 2)
        x = anchor_x + lam * (2.0 * x1 - x - anchor_x)
        y = anchor_y + lam * (2.0 * y1 - y - anchor_y)
        j += 1
        primals.append(x1)
        duals.append(y1)
        if k in restarts:
            rounded = nearest_observed(x1, sample_values)
            if np.abs(D @ rounded).sum() < np.abs(D @ x1).sum():
                x1 = rounded
            anchor_x, anchor_y = x1.copy(), y1.copy()
            x, y = x1.copy(), y1.copy()
            j = 0
    return primals, duals
