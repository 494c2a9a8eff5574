"""Independent total-variation minimization oracle.

Solves min ||D x||_1 subject to x agreeing with the observations, as a
linear program with one slack variable per edge, held in sparse matrices
so that graphs of a few thousand edges fit. Used only to check the
primal-dual solver; shares no code with it beyond the Graph type.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, hstack, identity, vstack


def dense_incidence(g):
    D = np.zeros((g.edge_count, g.node_count))
    D[np.arange(g.edge_count), g.heads] = 1.0
    D[np.arange(g.edge_count), g.tails] = -1.0
    return D


def tv_min_lp(g, sample_nodes, sample_values):
    """Returns (optimal signal, optimal total variation)."""
    n, e = g.node_count, g.edge_count
    rows = np.repeat(np.arange(e), 2)
    cols = np.column_stack([g.heads, g.tails]).ravel()
    D = coo_matrix((np.tile([1.0, -1.0], e), (rows, cols)), shape=(e, n))
    c = np.concatenate([np.zeros(n), np.ones(e)])
    eye = identity(e)
    A_ub = vstack([hstack([D, -eye]), hstack([-D, -eye])], format="csr")
    b_ub = np.zeros(2 * e)
    sample_nodes = np.asarray(sample_nodes, dtype=int)
    k = sample_nodes.size
    A_eq = coo_matrix((np.ones(k), (np.arange(k), sample_nodes)), shape=(k, n + e))
    b_eq = np.asarray(sample_values, dtype=float)
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq.tocsr(),
        b_eq=b_eq,
        bounds=[(None, None)] * n + [(0, None)] * e,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return res.x[:n], float(res.fun)
