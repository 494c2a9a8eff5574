"""Signal recovery from samples by total-variation minimization.

The solver looks for the signal of minimum total variation that agrees
with the observed values on the sampling set. It runs a first-order
primal-dual iteration (a saddle-point method of the Pock-Chambolle
family, known in this setting as sparse label propagation), restarted
and accelerated by a Halpern step (Lu and Yang, "Restarted Halpern PDHG
for linear programming", 2024). The incidence operator D, its adjoint Dᵀ
and the box projection are shared with the public operators:
:func:`~rwtv.graph.incidence_apply`,
:func:`~rwtv.graph.incidence_transpose_apply` and :func:`clip` are their
checked forms.

Each iteration applies the operator T to the primal node variable ``x``
and the dual edge variable ``y``: a primal step ``x1 = x - tau Dᵀy``,
with the observations written onto ``x1``'s sampled nodes, then a dual
step at the extrapolated primal ``ext = 2 x1 - x``,
``y1 = box(y + sigma D ext)``, with ``box`` the projection onto [-1, 1]
and diagonal steps (Pock and Chambolle, ICCV 2011: ``tau = 1 / degree``
per node, ``sigma = 1 / 2`` per edge). The iterate then moves to
``anchor + lam (2 T(x, y) - (x, y) - anchor)``, a reflected T pulled
toward the anchor, the point of the last restart, with
``lam = (j + 1) / (j + 2)`` after ``j`` iterations since it.

Every 10 iterations the iteration checks T's output. Its bound on the
optimum (see below) comes from ``y1``, which lies in the box, never from
the iterate, whose reflected dual ``2 y1 - y`` can leave it. The
candidate outputs are ``x1``, which meets the observations exactly, and
``x1`` with each node rounded to the nearest of its problem's observed
values (the lower one on a tie): by the co-area formula some minimizer
takes only observed values (Chambolle, EMMCVPR 2005), so near the
optimum the rounding often lands on one. The iteration stops once the
smaller total variation of the two is within :attr:`SlpConfig.gap_tol`
of the bound, and returns that candidate, the rounded one only when its
total variation is strictly smaller. At the same checks, by the gap
rules of PDLP (Applegate et al., NeurIPS 2021) applied to ``x1``'s gap,
it restarts from ``(x1, y1)``, the new anchor, with ``x1`` replaced by its
rounding when that has strictly smaller total variation: PDLP restarts
at the better of its candidates, and the rounding keeps every observation
bit for bit. The restart decision and the primal weight (below) still
measure ``x1``.

Each problem is solved in one unit: its values are mapped onto [-1, 1]
by ``v -> (v - mid) / half``, with ``mid`` the midpoint of its observed
values and ``half`` half their range (1 when they are all equal), and its
unsampled nodes start at 0, the midpoint. So its iterations, stop and
certificate do not depend on the scale or offset of its values. Its output
is mapped back once, when it stops, to ``mid + half * u``, with the
observations on sampled nodes and, for a rounded output, the observed
values themselves: the mapping does not return every value bit for bit.

Also as in PDLP, each problem carries a primal weight ``w``, which
starts at 1: its steps are ``1 / (w degree)`` per node and ``w / 2`` per
edge, whose product does not depend on ``w``, so the steps stay stable.
At a restart, the distances of T's outputs ``x1`` and ``y1`` from the
last restart point are measured in the norms of the unweighted steps
(``sqrt(sum(degree * dx**2))`` and ``sqrt(sum(2 * dy**2))``), and ``w``
moves halfway to their ratio in log scale: ``log w`` becomes the mean of
``log w`` and ``log(dual distance / primal distance)``, unless either
distance is at most 1e-10 or the restart is at one of the first two
checks, whose 10-iteration movements gauge the balance poorly. The first
anchor, and the first iterate, is the observations on the sampled nodes,
0 elsewhere, with a zero dual, so that the observations' first overwrite
does not count as movement.

The bound needs no projection of the dual. Clipping a signal to the
observed range [-1, 1] raises no edge difference, so some minimizer lies
in the dual's own box, and for any ``y`` in it, with ``r = Dᵀ y``, the
optimum is at least ``sum_{i in M} obs_i r_i - sum_{i not in M} |r_i|``.
:class:`SlpResult` reports this bound times ``half``, and the gap.

One loop solves one problem or many. Many problems are solved as their
disjoint union: node and edge ids are offset per problem, each problem's
steps fill its own nodes and edges, and each problem stops and restarts
on its own, with its ``lam`` from its own last restart and its total
variations and bounds summed over its own contiguous node and edge
ranges. Its rounding searches its own observed values only, in one
search per problem. Every update is elementwise or sums within one
problem in the same order as a lone solve, so each problem's result is
bit-identical to solving it alone. When a problem stops, its output is
mapped back, and the per-problem arrays and the iterates keep only the
problems still running, laid out afresh. :func:`slp_recover` is a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _check_count, _check_signal, _d, _dt

__all__ = ["SlpConfig", "SlpResult", "clip", "slp_recover", "nmse"]

# Iterations between two gap checks.
_CHECK_EVERY = 10
# PDLP's restart constants: a restart when the gap fell to 0.2 of the gap
# at the last restart, or to 0.8 of it and rose since the previous check,
# or when the iterations since the last restart reach 0.36 of all run.
_SUFFICIENT, _NECESSARY, _ARTIFICIAL = 0.2, 0.8, 0.36
# The relative gap divides by max(TV, _GAP_FLOOR) in the unit, so that a
# problem whose optimum is 0 (one sample, or all samples equal) stops by
# the gap too.
_GAP_FLOOR = 1e-6
# PDLP's primal weight update: at a restart, the weight moves by this share
# of the way, in log scale, to the ratio of the dual to the primal movement
# since the last restart, unless either movement is at most _MIN_MOVE.
_THETA, _MIN_MOVE = 0.5, 1e-10
# Diagonal primal step of a node without edges. Its gradient is always 0,
# so any finite value leaves it at its start (the midpoint of the observed
# values) or its observation.
_ISOLATED_STEP = 1.0
# Diagonal dual step of every edge.
_DUAL_STEP = 0.5


@dataclass(frozen=True)
class SlpConfig:
    """Stopping parameters for the primal-dual recovery iteration.

    The iteration stops as soon as the certified relative duality gap of
    its output (see :class:`SlpResult`) is at most ``gap_tol``, and after
    ``max_iterations`` steps at the latest. The gap is checked every 10
    iterations and at the last one.
    """

    max_iterations: int = 50000
    gap_tol: float = 1e-3

    def __post_init__(self):
        count = _check_count(self.max_iterations, "max_iterations")
        object.__setattr__(self, "max_iterations", count)
        tol = float(self.gap_tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError("gap_tol must be finite and >= 0")
        object.__setattr__(self, "gap_tol", tol)


@dataclass(frozen=True, eq=False)
class SlpResult:
    """Recovered signal, the number of iterations run, and its certificate.

    The recovered signal equals the observed samples on the sampling set
    exactly. ``lower_bound`` is a lower bound on the optimal total
    variation, from a dual iterate, and ``gap`` is the certified relative
    gap of the recovered signal: its total variation minus the bound,
    divided by the larger of that total variation and ``1e-6`` times half
    the range of the observed values (1 when they are all equal); neither
    depends on the values' scale or offset. ``stop_reason`` is ``"gap"``
    if the iteration stopped because that gap met :attr:`SlpConfig.gap_tol`,
    and ``"cap"`` if it ran into :attr:`SlpConfig.max_iterations` first.
    """

    recovered: np.ndarray
    iterations_run: int
    gap: float
    lower_bound: float
    stop_reason: str


def clip(y):
    """Entrywise projection of an edge signal onto [-1, 1], on a copy."""
    return _box(np.array(y, dtype=np.float64))


def _box(y):
    """Project the float array ``y`` onto [-1, 1] in place and return it.

    Unchecked; :func:`clip` and the solver's dual step both run it.
    """
    np.minimum(y, 1.0, out=y)
    np.maximum(y, -1.0, out=y)
    return y


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
        The recovered signal, the number of iterations run, and the
        certified gap and lower bound.

    Notes
    -----
    The diagonal steps meet the stability condition of Pock and
    Chambolle's diagonal preconditioning, whatever the primal weight that
    re-balances them at each restart (PDLP's update with ``theta = 1/2``,
    from a first anchor at the observations; see the module docstring).
    The iteration is deterministic.
    When the recovery condition fails the minimizer may be non-unique;
    the solver then returns whatever the iteration converges to, or its
    rounding to the observed values.
    """
    cfg = SlpConfig() if cfg is None else cfg
    return _recover_batch([(g, m, samples)], cfg)[0]


def _steps(g):
    """Per-node primal steps of one problem, before its primal weight."""
    deg = g.degrees
    return np.divide(1.0, deg, out=np.full(deg.size, _ISOLATED_STEP), where=deg > 0)


def _recover_batch(problems, cfg):
    """:func:`slp_recover` on each ``(g, m, samples)`` of ``problems``, all
    in one iteration over their disjoint union; returns one
    :class:`SlpResult` per problem, equal bit for bit to a solve on its own.

    Every problem is checked before any solving starts.
    """
    # the live problems, with their base primal steps, their values and
    # distinct observed values (levels) mapped onto [-1, 1], and what their
    # output is mapped back with: the values, the levels, mid and half
    live = []
    for g, m, samples in problems:
        if g.edge_count == 0:
            raise ValueError("recovery requires a graph with at least one edge")
        if len(m) == 0:
            raise ValueError("sampling set must be nonempty")
        m.mask(g.node_count)
        values = _check_signal(samples, len(m), "sample values")
        levels = np.unique(values)
        lo, hi = levels[0] / 2, levels[-1] / 2  # halved: no sum overflows
        mid, half = lo + hi, hi - lo or 1.0
        unit = ((values - mid) / half, (levels - mid) / half)
        live.append((g, m, _steps(g), *unit, (values, levels, mid, half)))
    # per live problem, compacted with the iterates: its input slot, primal
    # weight, last restart's iteration (the one count its lam comes from)
    # and gap, and its gap at the previous check since (inf right after a
    # restart)
    ids = np.arange(len(live))
    omega = np.ones(len(live))
    start = np.zeros(len(live), dtype=np.int64)
    restart_gap = np.full(len(live), np.inf)
    last_gap = np.full(len(live), np.inf)
    results = [None] * len(live)
    # x and y: the Halpern iterates; x_r and y_r: the point of the last
    # restart (the anchor)
    x, x_r = np.zeros((2, sum(g.node_count for g, *_ in live)))
    y, y_r = np.zeros((2, sum(g.edge_count for g, *_ in live)))

    k = 0
    while live:
        # lay out the live problems' disjoint union: the node and edge ids
        # of each are offset by the nodes before it, and its steps fill its
        # own nodes and edges
        graphs, sets, base, values, levels, observed = zip(*live)
        counts = np.array([g.node_count for g in graphs])
        edge_counts = np.array([g.edge_count for g in graphs])
        offsets = np.cumsum(counts) - counts
        parts = [slice(o, o + c) for o, c in zip(offsets.tolist(), counts.tolist())]
        edge_offsets = np.cumsum(edge_counts) - edge_counts
        tails = np.concatenate([g.tails + o for g, o in zip(graphs, offsets)])
        heads = np.concatenate([g.heads + o for g, o in zip(graphs, offsets)])
        nodes = np.concatenate([m.nodes + o for m, o in zip(sets, offsets)])
        samples = np.concatenate(values)
        base_x = np.concatenate(base)
        w = np.repeat(omega, counts)
        step_x, step_y = base_x / w, _DUAL_STEP * w
        if k == 0:
            # the first anchor, and the first iterate: the observations on
            # sampled nodes, 0 (the midpoint) elsewhere
            x_r[nodes] = x[nodes] = samples
        # each problem's levels, one after another, and where each node's
        # own problem's levels start and end among them
        level_counts = np.array([v.size for v in levels])
        level_values = np.concatenate(levels)
        level_starts = np.cumsum(level_counts) - level_counts
        first_level = np.repeat(level_starts, counts)
        last_level = np.repeat(level_starts + level_counts - 1, counts)
        n = x.size

        def tv_of(v):
            """Each live problem's total variation of the node signal ``v``."""
            return np.add.reduceat(np.abs(_d(v, tails, heads)), edge_offsets)

        def bound_of(r):
            """Each live problem's bound from the dual of adjoint image ``r``."""
            t = -np.abs(r)
            t[nodes] = samples * r[nodes]
            return np.add.reduceat(t, offsets)

        while True:
            # T: a primal step, then a dual step at the extrapolated primal;
            # the dual step, constant per problem, scales it on the nodes
            x1 = x - step_x * _dt(y, tails, heads, n)
            x1[nodes] = samples
            ext = 2.0 * x1 - x
            y1 = _box(y + _d(ext * step_y, tails, heads))
            # the Halpern step: anchor + lam (2 T(x, y) - (x, y) - anchor),
            # whose primal half is anchor + lam (ext - anchor), with each
            # problem's lam = (j + 1) / (j + 2) after the j = k - start
            # iterations since its own last restart: a scalar for a lone
            # problem (every CLI recover), else spread over its nodes and edges
            j = k - (int(start[0]) if len(live) == 1 else start)
            lam_x = lam_y = (j + 1.0) / (j + 2.0)
            if len(live) > 1:
                lam_x, lam_y = np.repeat(lam_x, counts), np.repeat(lam_y, edge_counts)
            ext -= x_r
            ext *= lam_x
            x = ext + x_r
            y = 2.0 * y1 - y
            y -= y_r
            y *= lam_y
            y += y_r
            k += 1
            if k % _CHECK_EVERY and k != cfg.max_iterations:
                continue
            # the candidates: T's output x1, and x1 with each node rounded to
            # the nearest of its problem's levels (the lower one on a tie);
            # the bound comes from y1, which lies in the box where the
            # Halpern dual need not
            i = first_level + np.concatenate(
                [np.searchsorted(v, x1[part]) for v, part in zip(levels, parts)]
            )
            below, above = np.maximum(i - 1, first_level), np.minimum(i, last_level)
            near = level_values[above] - x1 < x1 - level_values[below]
            pick = np.where(near, above, below)
            rounded = level_values[pick]
            tv_x, tv_r = tv_of(x1), tv_of(rounded)
            bound = bound_of(_dt(y1, tails, heads, n))
            tv = np.minimum(tv_x, tv_r)
            met = tv - bound <= cfg.gap_tol * np.maximum(tv, _GAP_FLOOR)
            done = met | (k == cfg.max_iterations)
            # restart the others by the gap of T's output
            gap = tv_x - bound
            restart = ~done & (
                (gap <= _SUFFICIENT * restart_gap)
                | ((gap <= _NECESSARY * restart_gap) & (gap > last_gap))
                | (k - start >= _ARTIFICIAL * k)
            )
            last_gap = np.where(restart, np.inf, gap)
            if np.count_nonzero(restart):
                restart_gap[restart] = gap[restart]
                start[restart] = k
                # from the third check on, re-balance the steps by the
                # movement from the anchor, in the norms of the base steps
                dx, dy = x1 - x_r, y1 - y_r
                move_x = np.sqrt(np.add.reduceat(dx * dx / base_x, offsets))
                move_y = np.sqrt(np.add.reduceat(dy * dy, edge_offsets) / _DUAL_STEP)
                tune = restart & (move_x > _MIN_MOVE) & (move_y > _MIN_MOVE)
                tune &= k > 2 * _CHECK_EVERY
                omega[tune] = np.exp(
                    _THETA * np.log(move_y[tune] / move_x[tune])
                    + (1.0 - _THETA) * np.log(omega[tune])
                )
                w = np.repeat(omega, counts)
                step_x, step_y = base_x / w, _DUAL_STEP * w
                node_reset = np.repeat(restart, counts)
                edge_reset = np.repeat(restart, edge_counts)
                # the primal restarts at the better candidate: as for the
                # output, the rounded one only on a strict decrease
                best = np.where(np.repeat(tv_r < tv_x, counts), rounded, x1)
                x = np.where(node_reset, best, x)
                y = np.where(edge_reset, y1, y)
                x_r = np.where(node_reset, best, x_r)
                y_r = np.where(edge_reset, y1, y_r)
            if np.count_nonzero(done):
                break

        # map each stopped problem's output back: the rounded candidate
        # wins only a strict decrease and takes its levels by index, and
        # sampled nodes take their observations
        gaps = (tv - bound) / np.maximum(tv, _GAP_FLOOR)
        for b in np.flatnonzero(done):
            obs, obs_levels, mid, half = observed[b]
            if tv_r[b] < tv_x[b]:
                recovered = obs_levels[pick[parts[b]] - level_starts[b]]
            else:
                recovered = mid + half * x1[parts[b]]
            recovered[sets[b].nodes] = obs
            recovered.setflags(write=False)
            results[ids[b]] = SlpResult(
                recovered=recovered,
                iterations_run=k,
                gap=float(gaps[b]),
                lower_bound=float(half * bound[b]),
                stop_reason="gap" if met[b] else "cap",
            )
        # carry the survivors over to the next layout: their iterates, and
        # their entries of every per-problem array
        keep, edge_keep = np.repeat(~done, counts), np.repeat(~done, edge_counts)
        x, x_r, y, y_r = x[keep], x_r[keep], y[edge_keep], y_r[edge_keep]
        ids, omega, start, restart_gap, last_gap = (
            a[~done] for a in (ids, omega, start, restart_gap, last_gap)
        )
        live = [p for p, stop in zip(live, done) if not stop]

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
