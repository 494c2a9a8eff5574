"""Planted-partition graph generation and clustered test signals.

The assortative planted partition model (APPM) draws each intra-cluster
node pair as an edge independently with probability ``p_intra`` and each
inter-cluster pair with probability ``q_inter``. Closed-form expectations
for per-cluster degree and cut size come with the model and are exposed
for use as statistical oracles.
"""

from __future__ import annotations

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


@functools.lru_cache(maxsize=16)
def _upper_pairs(n):
    """Row and column ids of the pairs above the diagonal of an n x n block,
    read-only; sweeps draw many graphs with the same cluster sizes."""
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def generate_appm(spec, rng):
    """Draw one APPM graph together with its planted partition.

    Nodes are laid out in contiguous cluster blocks: the first
    ``cluster_sizes[0]`` node ids form cluster 0, and so on.
    """
    gen = as_generator(rng)
    sizes = spec.cluster_sizes
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    blocks = []
    for a, n_a in enumerate(sizes):
        if spec.p_intra > 0.0 and n_a > 1:
            iu, ju = _upper_pairs(n_a)
            mask = gen.random(iu.size) < spec.p_intra
            blocks.append(
                np.column_stack([iu[mask] + offsets[a], ju[mask] + offsets[a]])
            )
        if spec.q_inter > 0.0:
            for b in range(a + 1, len(sizes)):
                mask = gen.random((n_a, sizes[b])) < spec.q_inter
                ii, jj = np.nonzero(mask)
                blocks.append(
                    np.column_stack([ii + offsets[a], jj + offsets[b]])
                )
    edges = np.vstack(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return Graph(spec.node_count, edges), Partition.from_sizes(sizes)


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
