"""Planted-partition graph generation and clustered test signals.

The assortative planted partition model (APPM) draws each intra-cluster
node pair as an edge independently with probability ``p_intra`` and each
inter-cluster pair with probability ``q_inter``. Closed-form expectations
for per-cluster degree and cut size come with the model and are exposed
for use as statistical oracles.

A draw reads one uniform per node pair from the generator, block by
block in a fixed order (see :func:`generate_appm`), so a seed gives the
same graph whatever the chunking. The uniforms are drawn in chunks of at
most ``_DRAW`` and decoded through a per-spec table of the blocks' rows,
which has one entry per row, not per pair; the draw still takes O(n²)
time.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, Partition, _check_ids, clustered_signal
from .rng import as_generator

__all__ = [
    "AppmSpec",
    "generate_appm",
    "expected_degree",
    "expected_cut_size",
    "random_clustered_signal",
]


@dataclass(frozen=True)
class AppmSpec:
    """Parameters of an assortative planted partition draw."""

    cluster_sizes: tuple[int, ...]
    p_intra: float
    q_inter: float

    def __post_init__(self):
        sizes = tuple(_check_ids(self.cluster_sizes, "cluster_sizes").tolist())
        object.__setattr__(self, "cluster_sizes", sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cluster_sizes must be a nonempty tuple of positive ints")
        for name in ("p_intra", "q_inter"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def node_count(self):
        return sum(self.cluster_sizes)

    @property
    def cluster_count(self):
        return len(self.cluster_sizes)

    def _check_cluster(self, cluster_id):
        cluster_id = int(_check_ids(cluster_id, "cluster ids"))
        if not 0 <= cluster_id < self.cluster_count:
            raise ValueError(f"unknown cluster id {cluster_id}")
        return cluster_id


# most uniforms drawn at once, which bounds a draw's memory on large specs
_DRAW = 1 << 18

# sweeps draw many graphs from one spec, and partitions are read-only
_partition = functools.lru_cache(maxsize=16)(Partition.from_sizes)


@functools.lru_cache(maxsize=4)
def _row_table(spec):
    """Where each node pair of ``spec`` falls in the draw's stream.

    Returns ``(start, tail, head0, bounds, thresholds)``, in the stream
    order of :func:`generate_appm`. Row r of the table is one nonempty row
    of a block: its pairs are stream positions ``start[r]`` on, all with
    tail ``tail[r]`` and heads ``head0[r]`` on. Block k covers positions
    ``bounds[k]`` to ``bounds[k + 1]`` and draws an edge below
    ``thresholds[k]``. The table has one entry per row, O(n * clusters),
    never one per pair.
    """
    sizes = spec.cluster_sizes
    offsets = np.cumsum((0, *sizes)).tolist()
    none = np.empty(0, dtype=np.int64)
    lengths, tails, heads, bounds, thresholds = [none], [none], [none], [0], []
    for a, n_a in enumerate(sizes):
        rows = np.arange(offsets[a], offsets[a + 1])
        if spec.p_intra > 0.0 and n_a > 1:
            # row i of the intra block holds the pairs (i, i + 1), (i, i + 2), ...
            lengths.append(np.arange(n_a - 1, 0, -1))
            tails.append(rows[:-1])
            heads.append(rows[1:])
            bounds.append(bounds[-1] + n_a * (n_a - 1) // 2)
            thresholds.append(spec.p_intra)
        if spec.q_inter > 0.0:
            for b in range(a + 1, len(sizes)):
                lengths.append(np.full(n_a, sizes[b]))
                tails.append(rows)
                heads.append(np.full(n_a, offsets[b]))
                bounds.append(bounds[-1] + n_a * sizes[b])
                thresholds.append(spec.q_inter)
    lengths = np.concatenate(lengths)
    start = np.cumsum(lengths) - lengths
    tail, head0 = np.concatenate(tails), np.concatenate(heads)
    thresholds = np.array(thresholds, dtype=np.float64)
    for arr in (start, tail, head0, thresholds):
        arr.setflags(write=False)
    return start, tail, head0, tuple(bounds), thresholds


def generate_appm(spec, rng):
    """Draw one APPM graph together with its planted partition.

    Nodes are laid out in contiguous cluster blocks: the first
    ``cluster_sizes[0]`` node ids form cluster 0, and so on.

    Each node pair takes one uniform from ``rng``, in a fixed order: for
    each cluster a, its intra pairs (i, j), i < j, row-major, if
    ``p_intra > 0`` and a has two nodes or more; then, if ``q_inter > 0``,
    the pairs of a with each later cluster b, row-major. The pair is an
    edge when its uniform is below its probability. The uniforms are drawn
    in chunks of at most ``_DRAW``, which read the stream exactly as one
    draw per block would, and a chunk's hits are decoded to pairs through
    a table of the spec's block rows (see ``_row_table``).
    """
    edges = _draw_edges(spec, as_generator(rng))
    return Graph(spec.node_count, edges), _partition(spec.cluster_sizes)


def _draw_edges(spec, gen):
    """The edges of one draw from ``gen`` (see :func:`generate_appm`), as
    an m x 2 array; the chunks' hits are freed before the graph is built."""
    start, tail, head0, bounds, thresholds = _row_table(spec)
    hits = [np.empty(0, dtype=np.int64)]
    for c0 in range(0, bounds[-1], _DRAW):
        c1 = min(c0 + _DRAW, bounds[-1])
        # the blocks lo..hi-1 overlap the chunk; each threshold covers its
        # block's share of the chunk
        lo = bisect.bisect_right(bounds, c0) - 1
        hi = bisect.bisect_left(bounds, c1)
        seg = np.diff([c0, *bounds[lo + 1 : hi], c1])
        u = gen.random(c1 - c0)
        hits.append(np.flatnonzero(u < np.repeat(thresholds[lo:hi], seg)) + c0)
    hit = np.concatenate(hits)
    row = np.searchsorted(start, hit, "right") - 1
    return np.column_stack([tail[row], head0[row] + (hit - start[row])])


def expected_degree(spec, cluster_id):
    """Mean degree of a node in the given cluster under the model."""
    r = spec._check_cluster(cluster_id)
    n_r = spec.cluster_sizes[r]
    return spec.p_intra * (n_r - 1) + spec.q_inter * (spec.node_count - n_r)


def expected_cut_size(spec, cluster_id):
    """Mean number of edges leaving the given cluster under the model."""
    r = spec._check_cluster(cluster_id)
    n_r = spec.cluster_sizes[r]
    return spec.q_inter * n_r * (spec.node_count - n_r)


def random_clustered_signal(part, rng):
    """Piecewise-constant signal with one U(0, 1) value per cluster."""
    gen = as_generator(rng)
    return clustered_signal(part, gen.random(part.cluster_count))
