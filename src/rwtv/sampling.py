"""Sampling-set construction via random walks, plus baselines and checks.

A walk-based sampling set collects the endpoints of independent fixed-length
random walks started at uniformly chosen seed nodes. Long walks land on a
node with probability proportional to its degree, so clusters with larger
cut size get sampled more densely; :func:`check_nullspace_condition` tests
the combinatorial condition under which exact recovery by total-variation
minimization is guaranteed.

Both walkers step over a step table of Python lists (see :func:`_step_row`),
built per call from the graph's CSR arrays, since a walk steps faster over
lists than through numpy indexing: one step from ``v`` with a uniform ``u``
is ``r = rows[v]`` then ``v = r[int(u * r[0]) + 1]``. The sampler builds
every row before its first walk (:func:`_step_table`), since its many
walks visit most nodes of a small graph. :func:`random_walk` fills a row
on its first visit instead: its one walk on a large graph, as in
``fileio.extract_subgraph``, visits few of the nodes, and the whole table
of a 5e4-node graph took 16-22 ms to fill on a 2-core x86 host. The
sampler keeps only each walk's current node, not its path. Uniforms are
drawn in blocks of at most ``_BLOCK``, so a walk's memory does not grow
with its length; the blocks read the generator's stream exactly as one
draw of ``length - 1`` would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _check_count, _check_ids, _check_node, _check_partition
from .rng import as_generator

__all__ = [
    "SamplingBudgetError",
    "WalkConfig",
    "SamplingSet",
    "NullspaceViolation",
    "NullspaceReport",
    "random_walk",
    "random_walk_sampling",
    "uniform_sampling",
    "check_nullspace_condition",
]


# most uniforms a walk draws at once, which bounds its memory
_BLOCK = 4096


class SamplingBudgetError(RuntimeError):
    """Repeated walks failed to produce enough distinct endpoints."""


@dataclass(frozen=True)
class WalkConfig:
    """Walk length and sampling budget for walk-based set construction."""

    length: int
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "length", _check_count(self.length, "walk length"))
        object.__setattr__(self, "budget", _check_count(self.budget, "sampling budget"))


@dataclass(frozen=True, eq=False)
class SamplingSet:
    """Distinct sampled node ids, sorted; its length is the sampling budget."""

    nodes: np.ndarray

    def __post_init__(self):
        ids = _check_ids(self.nodes, "node ids")
        nodes = np.unique(ids)
        if nodes.size != ids.size:
            raise ValueError("sampling set nodes must be distinct")
        if nodes.size and nodes[0] < 0:
            raise ValueError("node ids must be nonnegative")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self):
        return int(self.nodes.size)

    def mask(self, node_count):
        """Boolean membership mask of length ``node_count``."""
        if self.nodes.size and self.nodes[-1] >= node_count:
            raise ValueError("sampling set contains unknown nodes")
        m = np.zeros(node_count, dtype=bool)
        m[self.nodes] = True
        return m


@dataclass(frozen=True)
class NullspaceViolation:
    """One failed neighbor count at a boundary edge endpoint."""

    edge: int
    node: int
    cluster: int
    achieved: int


@dataclass(frozen=True)
class NullspaceReport:
    """Outcome of the recovery-condition check over all boundary edges."""

    violations: tuple[NullspaceViolation, ...] = ()

    @property
    def satisfied(self):
        """True when no boundary edge violates the condition."""
        return not self.violations


def _step_row(nb, v):
    """Row ``v`` of a step table, from the list ``nb`` of its neighbors.

    The row is ``[d, n_0, ..., n_{d-1}, n_{d-1}]``: the degree, as a
    float, then the ascending neighbors, the last one twice. A step from
    ``v`` with a uniform ``u`` in [0, 1) goes to ``row[int(u * row[0]) + 1]``.
    ``u * d`` can round up to ``d`` at the last double below 1, which the
    repeated neighbor absorbs. An isolated node's row is ``[1.0, v, v]``,
    so its walks stay put. A float degree gives the same ``u * d`` as an
    int one, and Python multiplies two floats faster.
    """
    nb = nb or [v]
    return [float(len(nb)), *nb, nb[-1]]


def _step_table(g):
    """Every row of ``g``'s step table, from one ``tolist`` of its CSR arrays."""
    nb, ptr = g.indices.tolist(), g.indptr.tolist()
    return [_step_row(nb[ptr[v] : ptr[v + 1]], v) for v in range(g.node_count)]


def random_walk(g, seed_node, length, rng):
    """Simple random walk: uniform neighbor steps, staying put on degree-0 nodes.

    Returns the visited node ids as an int array of exactly ``length``
    entries, the first being ``seed_node``.
    """
    v = _check_node(g, seed_node)
    length = _check_count(length, "walk length")
    gen = as_generator(rng)
    path = np.empty(length, dtype=np.int64)
    path[0] = v
    rows, nb, ptr = [None] * g.node_count, g.indices, g.indptr
    done = 1
    while done < length:
        block = min(length - done, _BLOCK)
        nodes = []
        for u in gen.random(block).tolist():
            r = rows[v]
            if r is None:
                r = rows[v] = _step_row(nb[ptr[v] : ptr[v + 1]].tolist(), v)
            v = r[int(u * r[0]) + 1]
            nodes.append(v)
        path[done : done + block] = nodes
        done += block
    return path


def random_walk_sampling(g, cfg, rng):
    """Collect a sampling set from endpoints of repeated random walks.

    Each walk starts at a uniformly drawn seed node and contributes its
    final node. Walks repeat until ``cfg.budget`` distinct nodes have been
    collected; after ``100 * budget`` walks without success a
    :class:`SamplingBudgetError` is raised.
    """
    if cfg.budget > g.node_count:
        raise ValueError(
            f"budget {cfg.budget} exceeds node count {g.node_count}"
        )
    gen = as_generator(rng)
    rows = _step_table(g)
    steps = cfg.length - 1
    chosen = set()
    walks = 0
    cap = 100 * cfg.budget
    while len(chosen) < cfg.budget:
        if walks >= cap:
            raise SamplingBudgetError(
                f"sampling budget unreachable: {len(chosen)}/{cfg.budget} "
                f"distinct endpoints after {walks} walks"
            )
        v = int(gen.integers(g.node_count))
        left = steps
        while left:
            block = min(left, _BLOCK)
            left -= block
            for u in gen.random(block).tolist():
                r = rows[v]
                v = r[int(u * r[0]) + 1]
        chosen.add(v)
        walks += 1
    return SamplingSet(nodes=np.fromiter(chosen, np.int64))


def uniform_sampling(g, budget, rng):
    """Baseline: ``budget`` distinct nodes drawn uniformly without replacement."""
    budget = _check_count(budget, "sampling budget")
    if budget > g.node_count:
        raise ValueError(f"budget {budget} exceeds node count {g.node_count}")
    gen = as_generator(rng)
    nodes = gen.choice(g.node_count, size=budget, replace=False)
    return SamplingSet(nodes=nodes)


def check_nullspace_condition(g, part, m):
    """Verify the exact-recovery condition on a sampling set.

    For every boundary edge, each endpoint must have at least two sampled
    neighbors inside its own cluster. Every failed count is reported; the
    condition holds vacuously when there are no boundary edges.
    """
    _check_partition(g, part)
    sampled = m.mask(g.node_count)
    la = part.labels
    tails, heads = g.tails, g.heads
    n = g.node_count

    # per node: number of sampled neighbors sharing its cluster
    same = la[tails] == la[heads]
    t, h = tails[same], heads[same]
    count = np.bincount(t[sampled[h]], minlength=n) + np.bincount(
        h[sampled[t]], minlength=n
    )

    # boundary edge endpoints, edge ascending and tail before head; each
    # one whose count is below 2 is a violation
    boundary = np.flatnonzero(~same)
    ends = g.edges[boundary].ravel()
    fail = count[ends] < 2
    edge, node = np.repeat(boundary, 2)[fail], ends[fail]
    return NullspaceReport(
        tuple(
            NullspaceViolation(edge=e, node=v, cluster=c, achieved=a)
            for e, v, c, a in zip(
                edge.tolist(), node.tolist(), la[node].tolist(), count[node].tolist()
            )
        )
    )
