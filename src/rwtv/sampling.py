"""Sampling-set construction via random walks, plus baselines and checks.

A walk-based sampling set collects the endpoints of independent fixed-length
random walks started at uniformly chosen seed nodes. Long walks land on a
node with probability proportional to its degree, so clusters with larger
cut size get sampled more densely; :func:`check_nullspace_condition` tests
the combinatorial condition under which exact recovery by total-variation
minimization is guaranteed.

Walks step over one of two tables, built per call from the graph's CSR
arrays. The step table holds one Python list per node (see
:func:`_step_row`), since one walk steps faster over lists than through
numpy indexing: a step from ``v`` with a uniform ``u`` is ``r = rows[v]``
then ``v = r[int(u * r[0]) + 1]``. :func:`random_walk` keeps the rows it
visits in a dict, each filled on its first visit: its one walk on a large
graph, as in ``fileio.extract_subgraph``, visits few of the nodes, and the
whole table of a 5e4-node graph took 16-22 ms to fill on a 2-core x86 host.

The sampler has two paths with the same output, stream and errors.

* The loop runs one walk at a time over the whole step table
  (:func:`_step_table`). It keeps only each walk's current node, and
  draws its uniforms in blocks of at most ``_BLOCK``, so a walk's memory
  does not grow with its length; the blocks read the generator's stream
  exactly as one draw of ``length - 1`` would.
* The lockstep walker steps a batch of walks together in numpy, five
  array calls a step whatever the batch's size, over a padded table
  (:func:`_padded_table`). It draws a batch's words in one
  ``random_raw`` block of numpy's PCG64 and decodes them as
  ``Generator.integers`` and ``Generator.random`` would read them
  (:func:`_walk_seeds`, :func:`_walk_uniforms`): a seed takes a 32-bit
  half by Lemire's method, fresh and held halves in turn, and a uniform
  is ``(word >> 11) * 2**-53``. It takes endpoints in walk order until the
  budget is met, then leaves the generator where those walks' own draws
  would (:func:`_restore`). A seed draw numpy would reject (probability
  ``(2**32 % n) / 2**32``, under 1e-7 for n = 100) runs through the
  generator instead.

The lockstep walker runs only for a PCG64 generator, for ``2 <= n <
2**32``, for budgets of at least ``_LOCKSTEP_BUDGET`` and while a batch of
``budget`` walks fits in ``_WORDS`` raw words. The loop costs ~110 ns a
walk-step, so its cost grows with the budget; the lockstep walker's
~1.4 us a step and ~60 us of table, decoding and state handling a call
do not. On the reference graph (100 nodes, 2-core x86 host) the lockstep
walker was faster from budget 14 at walk lengths 10 to 320, and from
budget 16 at length 1000. At budget 10, Table 2's, it took 0.90-0.95x the
loop's time at lengths 10 and 20 but 1.1-1.5x at lengths 80 to 1000.
"""

from __future__ import annotations

import math
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
# most raw words a lockstep batch draws, which bounds its memory
_WORDS = 16 * _BLOCK
# least budget at which the lockstep walker beats the loop
_LOCKSTEP_BUDGET = 16


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
        if ids.ndim != 1:
            raise ValueError("sampling set nodes must be a 1-d sequence")
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
    rows, nb, ptr = {}, g.indices, g.indptr
    done = 1
    while done < length:
        block = min(length - done, _BLOCK)
        nodes = []
        for u in gen.random(block).tolist():
            r = rows.get(v)
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
    if (
        type(gen.bit_generator) is np.random.PCG64
        and 2 <= g.node_count < 2**32
        and _LOCKSTEP_BUDGET <= cfg.budget <= _WORDS // cfg.length
    ):
        chosen = _lockstep_sampling(g, cfg, gen)
    else:
        chosen = _loop_sampling(g, cfg, gen)
    return SamplingSet(nodes=np.fromiter(chosen, np.int64))


def _check_cap(chosen, budget, walks):
    """Raise once ``walks`` reach ``100 * budget`` short of the budget."""
    if walks >= 100 * budget:
        raise SamplingBudgetError(
            f"sampling budget unreachable: {len(chosen)}/{budget} "
            f"distinct endpoints after {walks} walks"
        )


def _loop_sampling(g, cfg, gen):
    """The sampler's endpoints, one walk at a time over the step table."""
    rows = _step_table(g)
    steps = cfg.length - 1
    chosen = set()
    walks = 0
    while len(chosen) < cfg.budget:
        _check_cap(chosen, cfg.budget, walks)
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
    return chosen


def _lockstep_sampling(g, cfg, gen):
    """The sampler's endpoints, batches of walks stepped together.

    Each batch draws its walks' words in one ``random_raw`` block of
    ``gen``'s PCG64 and decodes them as numpy would (:func:`_walk_seeds`,
    :func:`_walk_uniforms`). Its endpoints are taken in walk order until
    the budget is met, and the generator is left where numpy's own draws
    of the taken walks would leave it (:func:`_restore`). A walk whose
    seed draw numpy would reject and redraw runs through ``gen`` instead.
    """
    n, steps, budget = g.node_count, cfg.length - 1, cfg.budget
    table = _padded_table(g)
    bg = gen.bit_generator
    chosen = set()
    walks = 0
    while len(chosen) < budget:
        _check_cap(chosen, budget, walks)
        k = min(
            _batch_walks(n, len(chosen), budget),
            100 * budget - walks,
            _WORDS // cfg.length,
        )
        saved = bg.state
        held = saved["has_uint32"]
        words = bg.random_raw(_words(k, steps, held))
        seeds, halves = _walk_seeds(words, n, k, steps, held, saved["uinteger"])
        ends = _step_walks(table, seeds, _walk_uniforms(words, seeds.size, steps, held))
        taken = 0
        for v in ends.tolist():
            chosen.add(v)
            taken += 1
            if len(chosen) == budget:
                break
        walks += taken
        _restore(bg, saved, taken, steps, halves)
        if taken == seeds.size < k and len(chosen) < budget:
            # walk `taken` drew a seed that numpy rejects and redraws
            seed = np.array([gen.integers(n)])
            chosen.add(int(_step_walks(table, seed, gen.random((steps, 1)))[0]))
            walks += 1
    return chosen


def _batch_walks(n, have, budget):
    """Walks to draw for ``budget - have`` more distinct endpoints.

    Uniform endpoints would take ``n * (H(n - have) - H(n - budget))``
    walks on average (H the harmonic numbers, here their log estimate).
    Walk endpoints favour high degrees and repeat more often, so a batch
    draws a third more, plus a few: a second batch costs every step again.
    """
    more = n * math.log((n - have + 0.5) / (n - budget + 0.5))
    return int(more * 4 / 3) + 4


def _words(k, steps, held):
    """Raw words ``k`` walks read: their uniforms and fresh seed words."""
    return k * steps + (k + 1 - held) // 2


def _padded_table(g):
    """The lockstep walker's table: arrays ``(node, start, degree)`` of entries.

    Entry ``v < n`` names node ``v`` (a walk's seed). The rows follow, as
    in :func:`_step_row`: row ``v`` is ``d_v + 1`` entries naming ``v``'s
    ascending neighbors, then its last neighbor again; an isolated node's
    row names ``v`` twice, with ``d_v = 1``. Each entry also holds the row
    start and the float degree of the node it names, so a walk at entry
    ``i`` with a uniform ``u`` steps to entry ``int(u * degree[i]) +
    start[i]``.
    """
    n = g.node_count
    deg = np.diff(g.indptr)
    d = np.maximum(deg, 1)
    end = n + np.cumsum(d + 1)
    first = end - d - 1
    isolated = np.flatnonzero(deg == 0)
    node = np.empty(end[-1], np.int64)
    node[:n] = np.arange(n)
    neighbor = np.ones(node.size, bool)
    neighbor[:n] = False
    neighbor[first[isolated]] = False
    neighbor[end - 1] = False
    node[neighbor] = g.indices
    node[first[isolated]] = isolated
    node[end - 1] = node[end - 2]
    return node, first[node], d[node].astype(np.float64)


def _walk_seeds(words, n, k, steps, held, half):
    """Seeds of a batch of ``k`` walks, read from its raw PCG64 ``words``.

    numpy's ``Generator.integers(n)`` takes a 32-bit half: the one the
    bit generator holds if ``held``, else the low half of a fresh word,
    whose high half it then holds. So the batch's fresh seed words sit
    every ``2 * steps + 1`` words from word ``held * steps``, and its
    walks read the halves ``[half] * held + [lo_0, hi_0, lo_1, ...]`` in
    turn. A half ``h`` gives the seed ``h * n >> 32`` (Lemire's method),
    unless the low 32 bits of ``h * n`` fall below ``2**32 % n``, where
    numpy would draw another half.

    Returns the seeds of the walks before the first such rejection, and
    the halves.
    """
    fresh = words[held * steps :: 2 * steps + 1][: (k + 1 - held) // 2]
    halves = np.empty(held + 2 * fresh.size, np.uint64)
    halves[:held] = half
    halves[held::2] = fresh & 0xFFFFFFFF
    halves[held + 1 :: 2] = fresh >> 32
    m = halves[:k] * np.uint64(n)
    rejected = np.flatnonzero((m & 0xFFFFFFFF) < 2**32 % n)
    good = rejected[0] if rejected.size else k
    return (m[:good] >> 32).astype(np.intp), halves


def _walk_uniforms(words, k, steps, held):
    """The first ``k`` walks' uniforms from their raw words, one row per step.

    Every word but the fresh seed words (see :func:`_walk_seeds`) is a
    uniform, ``steps`` per walk in walk order; a word ``w`` gives the
    uniform ``(w >> 11) * 2**-53``, as ``Generator.random`` does.
    """
    uniform = np.ones(words.size, bool)
    uniform[held * steps :: 2 * steps + 1] = False
    w = words[uniform][: k * steps]
    w >>= 11
    return (w * 2.0**-53).reshape(k, steps).T


def _step_walks(table, seeds, uniforms):
    """Endpoints of walks from ``seeds`` that step together, one row of
    ``uniforms`` per step, over a :func:`_padded_table`."""
    node, start, degree = table
    i = seeds
    for u in uniforms:
        j = (u * degree[i]).astype(np.intp)
        j += start[i]
        i = j
    return node[i]


def _restore(bg, saved, taken, steps, halves):
    """Leave ``bg``, last in state ``saved``, as its numpy draws of a
    batch's first ``taken`` walks would: ``advance`` past their words,
    then set the 32-bit half numpy would hold, which ``advance`` clears."""
    held = saved["has_uint32"]
    bg.state = saved
    bg.advance(_words(taken, steps, held))
    state = bg.state
    holds = (held + taken) % 2
    state["has_uint32"] = holds
    if taken + holds:
        state["uinteger"] = int(halves[taken + holds - 1])
    bg.state = state


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
