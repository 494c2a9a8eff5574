"""Signal recovery from samples by total-variation minimization.

The solver looks for the signal of minimum total variation that agrees
with the observed values on the sampling set. It runs a first-order
primal-dual iteration (a saddle-point method of the Pock-Chambolle
family, known in this setting as sparse label propagation): a dual edge
variable is updated through the incidence operator and projected onto
the unit box, the primal node variable takes a gradient step through the
adjoint and is then overwritten with the observations on sampled nodes,
and an over-relaxed copy feeds the next dual step. The reported solution
is the running average of the primal iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _check_signal

__all__ = ["SlpConfig", "SlpResult", "clip", "slp_recover", "nmse"]


@dataclass(frozen=True)
class SlpConfig:
    """Stopping parameters for the primal-dual recovery iteration.

    The iteration stops after ``max_iterations`` steps, or as soon as the
    relative change of the averaged iterate between consecutive steps,
    ``norm(avg_k - avg_{k-1}) / max(norm(avg_k), 1e-12)``, falls below
    ``rel_change_tol``. The average is the declared output, so convergence
    is measured on it.
    """

    max_iterations: int = 50000
    rel_change_tol: float = 1e-7

    def __post_init__(self):
        if int(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        tol = float(self.rel_change_tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("rel_change_tol must be finite and >= 0")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "rel_change_tol", tol)


@dataclass(frozen=True, eq=False)
class SlpResult:
    """Recovered signal and the number of iterations run.

    The recovered signal equals the observed samples on the sampling set
    exactly.
    """

    recovered: np.ndarray
    iterations_run: int


def clip(y):
    """Entrywise projection of an edge signal onto [-1, 1]."""
    return np.clip(np.asarray(y, dtype=np.float64), -1.0, 1.0)


def slp_recover(g, m, samples, cfg=None):
    """Recover a full node signal from its values on a sampling set.

    Parameters
    ----------
    g : Graph
        Graph carrying the signal; must have at least one edge.
    m : SamplingSet
        Nonempty set of observed nodes.
    samples : array_like
        Observed values, aligned with ``m.nodes`` (sorted order).
    cfg : SlpConfig, optional
        Stopping parameters; defaults to ``SlpConfig()``.

    Returns
    -------
    SlpResult
        The averaged primal iterate and the number of iterations run.

    Notes
    -----
    Both step sizes are ``1 / (2 sqrt(d_max))`` with ``d_max`` the maximum
    node degree; since the squared operator norm of the incidence map is
    at most ``2 d_max``, the product of the step sizes stays below the
    stability threshold. The iteration is deterministic. When the
    recovery condition fails the minimizer may be non-unique; the solver
    then returns whatever the iteration converges to.

    The running average is maintained incrementally
    (``avg += (x - avg) / k``), which keeps the accumulator at signal
    magnitude over long runs and keeps the sampled entries exactly equal
    to the observations.
    """
    if cfg is None:
        cfg = SlpConfig()
    if g.edge_count == 0:
        raise ValueError("recovery requires a graph with at least one edge")
    if len(m) == 0:
        raise ValueError("sampling set must be nonempty")
    sampled = m.mask(g.node_count)
    samples = _check_signal(samples, len(m), "sample values")

    n = g.node_count
    tails, heads = g.tails, g.heads
    obs = np.zeros(n)
    obs[m.nodes] = samples
    step = 0.5 / math.sqrt(g.max_degree)

    y = np.zeros(g.edge_count)
    x = np.zeros(n)
    z = np.zeros(n)
    avg = np.zeros(n)

    k = 0
    while k < cfg.max_iterations:
        y += step * (z[heads] - z[tails])
        np.clip(y, -1.0, 1.0, out=y)
        grad = np.bincount(heads, weights=y, minlength=n)
        grad -= np.bincount(tails, weights=y, minlength=n)
        x_next = np.where(sampled, obs, x - step * grad)
        z = 2.0 * x_next - x
        x = x_next
        k += 1
        avg, prev = avg + (x - avg) / k, avg
        change = np.linalg.norm(avg - prev)
        if change < cfg.rel_change_tol * max(np.linalg.norm(avg), 1e-12):
            break

    avg.setflags(write=False)
    return SlpResult(recovered=avg, iterations_run=k)


def nmse(x_hat, x_true):
    """Squared-error norm of the estimate divided by the squared norm of the truth."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    x_true = np.asarray(x_true, dtype=np.float64)
    if x_hat.shape != x_true.shape:
        raise ValueError(
            f"shape mismatch: {x_hat.shape} vs {x_true.shape}"
        )
    denom = float(np.sum(x_true * x_true))
    if denom <= 0.0:
        raise ValueError("nmse undefined for an all-zero true signal")
    diff = x_hat - x_true
    return float(np.sum(diff * diff) / denom)
