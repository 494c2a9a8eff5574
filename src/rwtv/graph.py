"""Undirected graphs, node/edge signals, and total-variation primitives.

Graphs are immutable after construction. Node signals are plain float
vectors of length ``node_count``; edge signals are float vectors of length
``edge_count`` indexed by the graph's (stable) edge order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Graph",
    "Partition",
    "incidence_apply",
    "incidence_transpose_apply",
    "total_variation",
    "cut_size",
    "clustered_signal",
    "is_connected",
]


class Graph:
    """Simple undirected graph with a fixed edge orientation.

    Edges are normalized to ``tail < head`` and stored sorted
    lexicographically by ``(tail, head)``, so edge indices are stable and
    file round trips reproduce bit-exactly. Duplicate input edges are
    collapsed; self-loops are rejected. Isolated nodes are allowed.

    Adjacency is stored once, in CSR form: the neighbors of node ``i`` are
    ``indices[indptr[i]:indptr[i + 1]]``, ascending. A graph caches
    nothing else; the walks build their step table from these arrays on
    each call (see ``sampling``).
    """

    def __init__(self, node_count, edges):
        node_count = int(_check_ids(node_count, "node counts"))
        if node_count < 1:
            raise ValueError(f"node_count must be positive, got {node_count}")
        if node_count > _MAX_NODES:
            raise ValueError(
                f"node_count must be at most {_MAX_NODES}, got {node_count}"
            )
        e = _check_ids(edges, "edge endpoints")
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be a sequence of node pairs")
        if e.size:
            if e.min() < 0 or e.max() >= node_count:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loops are not allowed")
        # one uint64 key per edge, tail << s | head: sorting the keys sorts
        # the edges by (tail, head), split back by a shift and a mask
        s = max(1, (node_count - 1).bit_length())
        keys = np.minimum(e[:, 0], e[:, 1]).view(np.uint64)
        keys <<= s
        keys |= np.maximum(e[:, 0], e[:, 1]).view(np.uint64)
        keys.sort()
        new = np.empty(keys.size, dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        m = np.count_nonzero(new)
        # both directions of every edge as source << s | neighbor keys, in
        # one array: the m distinct edge keys, then the m reversed ones,
        # sorted and then reduced to the neighbors in place
        indices = np.empty(2 * m, dtype=np.uint64)
        keys = np.compress(new, keys, out=indices[:m])
        # each edge's endpoints are stored once: tails and heads are the
        # contiguous rows of one read-only (2, m) array, edges its m x 2
        # view; ids below 2**32 read the same as int64
        ends = np.empty((2, m), dtype=np.uint64)
        np.right_shift(keys, s, out=ends[0])
        np.bitwise_and(keys, (1 << s) - 1, out=ends[1])
        np.left_shift(ends[1], s, out=indices[m:])
        indices[m:] |= ends[0]
        indices.sort()
        indices &= (1 << s) - 1
        ends = ends.view(np.int64)
        indices = indices.view(np.int64)
        ends.setflags(write=False)
        tails, heads = ends
        degrees = np.bincount(tails, minlength=node_count)
        degrees += np.bincount(heads, minlength=node_count)
        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        self.node_count = node_count
        self.edges = ends.T
        self.tails = tails
        self.heads = heads
        self.degrees = degrees
        self.indptr = indptr
        self.indices = indices
        for arr in (degrees, indptr, indices):
            arr.setflags(write=False)

    @property
    def edge_count(self):
        return self.tails.size

    def neighbors(self, i):
        i = _check_node(self, i)
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(
            self.edges, other.edges
        )

    __hash__ = None

    def __repr__(self):
        return f"Graph(node_count={self.node_count}, edge_count={self.edge_count})"


# largest node count: below 2**32, so the edge keys tail << s | head, s the
# bit length of the largest node id, fit in a uint64
_MAX_NODES = 3_037_000_499


class Partition:
    """Disjoint clusters covering all nodes.

    ``labels[i]`` is the cluster id of node ``i``; ids must be dense
    ``0..k-1`` with every cluster nonempty.
    """

    def __init__(self, labels):
        labels = _check_ids(labels, "cluster ids")
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a nonempty 1-d sequence")
        if labels.min() < 0:
            raise ValueError("cluster ids must be nonnegative")
        k = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=k)
        if np.any(counts == 0):
            empty = np.flatnonzero(counts == 0)
            raise ValueError(f"empty cluster id(s): {empty.tolist()}")
        self.labels = labels.copy()
        self.labels.setflags(write=False)
        # each cluster's nodes ascending, as read-only views of one stable sort
        order = np.argsort(labels, kind="stable")
        order.setflags(write=False)
        self.clusters = tuple(np.split(order, np.cumsum(counts[:-1])))

    @classmethod
    def from_sizes(cls, sizes):
        """Contiguous node blocks: the first ``sizes[0]`` nodes form cluster 0, etc."""
        sizes = _check_ids(sizes, "cluster sizes").tolist()
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("cluster sizes must be positive")
        return cls(np.repeat(np.arange(len(sizes)), sizes))

    @property
    def node_count(self):
        return self.labels.size

    @property
    def cluster_count(self):
        return len(self.clusters)

    def __repr__(self):
        return (
            f"Partition(node_count={self.node_count}, "
            f"cluster_count={self.cluster_count})"
        )


def _check_node(g, i):
    i = int(_check_ids(i, "node ids"))
    if not 0 <= i < g.node_count:
        raise ValueError(f"node id {i} out of range for {g.node_count} nodes")
    return i


def _check_signal(x, size, what):
    """``x`` as a float vector of length ``size`` with finite entries;
    ``what`` names it ("signal" or "edge signal") in errors."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (size,):
        raise ValueError(f"{what} has shape {x.shape}, expected ({size},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} entries must be finite")
    return x


def _check_count(value, what):
    """``value`` as an int of at least 1; ``what`` names it in errors.

    Integral floats and numpy integers pass; a fraction, an infinity or a
    NaN is rejected rather than truncated.
    """
    try:
        count = int(value)
        integral = count == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if count < 1:
        raise ValueError(f"{what} must be >= 1, got {count}")
    return count


def _check_ids(ids, what):
    """``ids`` as an int64 array; ``what`` names them in errors.

    Integer arrays pass unchecked, and integral floats pass as in
    :func:`_check_count`; a fraction, an infinity or a NaN is rejected
    rather than truncated, and an integer beyond the int64 range too.
    """
    a = np.asarray(ids)
    if a.dtype.kind == "f":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)))
        if np.any(bad):
            raise ValueError(f"{what} must be integers, got {a[bad][0]}")
    # the cast wraps unsigned and float values beyond the int64 range, and
    # raises on Python ints beyond it
    if a.dtype.kind in "fu" and a.size and not -(2**63) <= a.min() <= a.max() < 2**63:
        raise ValueError(f"{what} must be integers below 2**63")
    try:
        return np.asarray(a, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{what} must be integers below 2**63") from None


def _check_partition(g, part):
    if part.node_count != g.node_count:
        raise ValueError(
            f"partition covers {part.node_count} nodes, graph has {g.node_count}"
        )


def _d(x, tails, heads):
    """The incidence operator D: signed edge differences ``x[head] - x[tail]``.

    Unchecked; :func:`incidence_apply` and the solver both run it.
    """
    return x[heads] - x[tails]


def _dt(y, tails, heads, n):
    """The adjoint Dᵀ of :func:`_d`: accumulate edge values onto ``n`` nodes.

    Unchecked; :func:`incidence_transpose_apply` and the solver both run it.
    """
    out = np.bincount(heads, weights=y, minlength=n)
    out -= np.bincount(tails, weights=y, minlength=n)
    return out


def incidence_apply(g, x):
    """Signed edge differences ``x[head] - x[tail]`` for every edge."""
    return _d(_check_signal(x, g.node_count, "signal"), g.tails, g.heads)


def incidence_transpose_apply(g, y):
    """Adjoint of :func:`incidence_apply`: accumulate edge values onto nodes.

    ``out[i] = sum(y[e] for e with head e = i) - sum(y[e] for e with tail e = i)``.
    """
    y = _check_signal(y, g.edge_count, "edge signal")
    return _dt(y, g.tails, g.heads, g.node_count)


def total_variation(g, x):
    """Sum of absolute signal differences across edges: the entrywise
    1-norm of :func:`incidence_apply` output."""
    return float(np.abs(incidence_apply(g, x)).sum())


def cut_size(g, part, cluster_id):
    """Number of edges with exactly one endpoint in the given cluster."""
    _check_partition(g, part)
    cluster_id = int(_check_ids(cluster_id, "cluster ids"))
    if not 0 <= cluster_id < part.cluster_count:
        raise ValueError(f"unknown cluster id {cluster_id}")
    la = part.labels
    inside = la == cluster_id
    return int(np.count_nonzero(inside[g.tails] != inside[g.heads]))


def clustered_signal(part, coefficients):
    """Piecewise-constant signal: ``x[i] = coefficients[part.labels[i]]``."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.shape != (part.cluster_count,):
        raise ValueError(
            f"expected {part.cluster_count} coefficients, "
            f"got shape {coefficients.shape}"
        )
    return coefficients[part.labels]


def is_connected(g):
    """True when every node is reachable from node 0."""
    return bool(np.all(_component_labels(g) == 0))


def _component_labels(g):
    """Each node's connected component, labelled by its smallest node id.

    The labels form a forest whose parents have smaller ids. Each round
    hooks the larger root of every edge whose endpoints have different
    roots onto the smaller, then pointer-jumps every node to its root, so
    the number of rounds does not grow with the graph's diameter. An edge
    whose endpoints share a root keeps sharing it, so each round drops
    those edges.
    """
    label = np.arange(g.node_count)
    tails, heads = lt, lh = g.tails, g.heads
    while lt.size:
        np.minimum.at(label, np.maximum(lt, lh), np.minimum(lt, lh))
        up = label[label]
        while not np.array_equal(up, label):
            label, up = up, up[up]
        lt, lh = label[tails], label[heads]
        cross = np.flatnonzero(lt != lh)
        tails, heads, lt, lh = tails[cross], heads[cross], lt[cross], lh[cross]
    return label
