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

One loop solves one problem or many. Many problems are solved as their
disjoint union: node and edge ids are offset per problem, each problem's
step size fills its own nodes and edges, and each problem stops on its own
by the rule of :class:`SlpConfig`, with its norms summed over its own node
range. Every update is elementwise or sums within one problem in the same
order as a lone solve, so each problem's result is bit-identical to
solving it alone. When a problem stops, its average is copied out and its
rows are dropped, so the remaining problems run on smaller arrays.
:func:`slp_recover` is a batch of one.
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
    cfg = SlpConfig() if cfg is None else cfg
    return _recover_batch([(g, m, samples)], cfg)[0]


def _recover_batch(problems, cfg):
    """:func:`slp_recover` on each ``(g, m, samples)`` of ``problems``, all
    in one iteration over their disjoint union; returns one
    :class:`SlpResult` per problem, equal bit for bit to a solve on its own.

    Every problem is checked before any solving starts.
    """
    if not problems:
        return []
    values = []
    for g, m, samples in problems:
        if g.edge_count == 0:
            raise ValueError("recovery requires a graph with at least one edge")
        if len(m) == 0:
            raise ValueError("sampling set must be nonempty")
        m.mask(g.node_count)
        values.append(_check_signal(samples, len(m), "sample values"))

    # node and edge ids of problem b are offset by the nodes before it;
    # each problem's step fills its own nodes and edges
    counts = np.array([g.node_count for g, _, _ in problems])
    offsets = np.cumsum(counts) - counts
    tails = np.concatenate([g.tails + o for (g, _, _), o in zip(problems, offsets)])
    heads = np.concatenate([g.heads + o for (g, _, _), o in zip(problems, offsets)])
    nodes = np.concatenate([m.nodes + o for (_, m, _), o in zip(problems, offsets)])
    samples = np.concatenate(values)
    steps = np.array([0.5 / math.sqrt(g.max_degree) for g, _, _ in problems])
    step_x = np.repeat(steps, counts)
    step_y = np.repeat(steps, [g.edge_count for g, _, _ in problems])
    ids = np.arange(len(problems))
    results = [None] * len(problems)

    n = int(counts.sum())
    y = np.zeros(tails.size)
    x = np.zeros(n)
    z = np.zeros(n)
    avg = np.zeros(n)

    k = 0
    while ids.size:
        y += step_y * (z[heads] - z[tails])
        np.minimum(y, 1.0, out=y)
        np.maximum(y, -1.0, out=y)
        grad = np.bincount(heads, weights=y, minlength=n)
        grad -= np.bincount(tails, weights=y, minlength=n)
        x_next = x - step_x * grad
        x_next[nodes] = samples
        z = 2.0 * x_next - x
        x = x_next
        k += 1
        avg, prev = avg + (x - avg) / k, avg
        # each problem's two norms, summed over its contiguous node range
        diff = avg - prev
        change = np.sqrt(np.add.reduceat(diff * diff, offsets))
        size = np.sqrt(np.add.reduceat(avg * avg, offsets))
        done = change < cfg.rel_change_tol * np.maximum(size, 1e-12)
        if k == cfg.max_iterations:
            done[:] = True
        elif not np.count_nonzero(done):
            continue
        for b in np.flatnonzero(done):
            recovered = avg[offsets[b] : offsets[b] + counts[b]].copy()
            recovered.setflags(write=False)
            results[ids[b]] = SlpResult(recovered=recovered, iterations_run=k)
        # drop the stopped problems' rows and renumber the rest
        alive = ~done
        keep = np.repeat(alive, counts)
        renumber = np.cumsum(keep) - 1
        kept_edges = keep[tails]
        tails, heads = renumber[tails[kept_edges]], renumber[heads[kept_edges]]
        y, step_y = y[kept_edges], step_y[kept_edges]
        kept_samples = keep[nodes]
        nodes, samples = renumber[nodes[kept_samples]], samples[kept_samples]
        x, z, avg, step_x = x[keep], z[keep], avg[keep], step_x[keep]
        ids, counts = ids[alive], counts[alive]
        offsets = np.cumsum(counts) - counts
        n = x.size

    return results


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
