"""Reference APPM draw: one ``gen.random`` call per block, as the package
drew it before its chunked draw. The tests require the package's draw to
match it byte for byte: the same edges, the same partition and the same
next draw from the generator.
"""

import numpy as np

from rwtv.graph import Graph, Partition
from rwtv.rng import as_generator


def _upper_pairs(n):
    """Row and column ids of the pairs above the diagonal of an n x n block."""
    return np.triu_indices(n, k=1)


def reference_generate_appm(spec, rng):
    """Blocks in stream order: for each cluster a, its intra block (if
    ``p_intra > 0`` and it has two nodes or more), then the inter blocks
    (a, b) for b > a (if ``q_inter > 0``), each drawn row-major."""
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
