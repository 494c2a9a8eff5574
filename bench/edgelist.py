"""Seeded sparse clustered edge list, written as a raw network dump.

``generate_appm`` draws one uniform number per node pair, so it cannot
make a graph of 5e4 nodes. This generator draws each cluster as a random
path (so every cluster is connected and no node is isolated) plus
uniformly drawn extra intra-cluster pairs, and joins consecutive
clusters by one edge plus uniformly drawn inter-cluster pairs. The file
looks like a real dump: scrambled external ids, lines in random order,
some edges also listed reversed, and some self-loop lines on nodes that
have other edges.
"""

from __future__ import annotations

import numpy as np

CLUSTERS = 100
CLUSTER_SIZE = 500
INTRA_EXTRA_PER_NODE = 3.5
INTER_PER_NODE = 0.5
REVERSED_SHARE = 0.02
SELF_LOOP_SHARE = 0.005


class ClusteredEdgeList:
    """Edges in external ids (``tail < head``, distinct) and the signal."""

    def __init__(self, seed):
        gen = np.random.default_rng(np.random.SeedSequence((int(seed), 0xE1)))
        n = CLUSTERS * CLUSTER_SIZE
        labels = np.repeat(np.arange(CLUSTERS), CLUSTER_SIZE)
        base = np.arange(CLUSTERS) * CLUSTER_SIZE

        order = gen.permuted(
            np.tile(np.arange(CLUSTER_SIZE), (CLUSTERS, 1)), axis=1
        ) + base[:, None]
        path = np.column_stack([order[:, :-1].ravel(), order[:, 1:].ravel()])
        ring = np.column_stack([order[:, 0], np.roll(order[:, -1], -1)])

        k = int(INTRA_EXTRA_PER_NODE * n)
        c = gen.integers(CLUSTERS, size=k)
        intra = np.column_stack(
            [base[c] + gen.integers(CLUSTER_SIZE, size=k),
             base[c] + gen.integers(CLUSTER_SIZE, size=k)]
        )
        k = int(INTER_PER_NODE * n)
        inter = gen.integers(n, size=(k, 2))
        inter = inter[labels[inter[:, 0]] != labels[inter[:, 1]]]

        e = np.vstack([path, ring, intra, inter])
        e = e[e[:, 0] != e[:, 1]]
        e = np.unique(np.sort(e, axis=1), axis=0)

        ext = 1_000_003 + 37 * gen.permutation(n)
        self.edges = np.sort(ext[e], axis=1)
        self.node_ids = ext
        self.values = (1.0 + 4.0 * gen.random(CLUSTERS))[labels]
        self._gen = gen

    def write(self, graph_path, signal_path):
        gen = self._gen
        lines = self.edges[gen.permutation(self.edges.shape[0])]
        flip = gen.random(lines.shape[0]) < REVERSED_SHARE
        extra = [lines[flip][:, ::-1]]
        loops = gen.choice(self.node_ids, int(SELF_LOOP_SHARE * self.node_ids.size),
                           replace=False)
        extra.append(np.column_stack([loops, loops]))
        lines = np.vstack([lines, *extra])
        lines = lines[gen.permutation(lines.shape[0])]
        with open(graph_path, "w") as fh:
            fh.write(f"# clustered edge list: {self.node_ids.size} nodes, "
                     f"{self.edges.shape[0]} edges\n")
            fh.write("\n".join(f"{a} {b}" for a, b in lines.tolist()))
            fh.write("\n")
        order = np.argsort(self.node_ids)
        with open(signal_path, "w") as fh:
            fh.write("node_id,value\n")
            fh.write("\n".join(
                f"{i},{v!r}" for i, v in
                zip(self.node_ids[order].tolist(), self.values[order].tolist())
            ))
            fh.write("\n")
