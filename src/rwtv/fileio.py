"""Edge-list / CSV file formats and real-world subgraph extraction.

Edge lists follow the common network-dataset convention: one whitespace
separated node-id pair per line, ``#`` lines are comments, and an edge is
present if either direction appears. External node ids are remapped to
dense 0-based ids (ascending external order); the mapping is returned so
results can be written back in the original id space.

Signals, partitions, and sampling sets are small headered CSV files.
Floats are written with shortest round-trip precision, so files re-read
to bit-identical values.
"""

from __future__ import annotations

import csv
import logging
import re

import numpy as np

from .graph import Graph, Partition, _unique_sorted
from .rng import as_generator
from .sampling import SamplingSet, random_walk

__all__ = [
    "parse_edge_list",
    "write_edge_list",
    "read_signal",
    "write_signal",
    "read_signal_rows",
    "read_observations",
    "read_partition",
    "write_partition",
    "read_sampling",
    "write_sampling",
    "extract_subgraph",
]

log = logging.getLogger(__name__)

_INTEGER = re.compile(r"[+-]?[0-9]+")
# decimal or exponent notation in ASCII digits, or inf/infinity/nan in any
# case: everything repr(float) writes, and none of float()'s underscores
# or non-ASCII digits
_FLOAT = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
    r"|(?i:inf|infinity|nan))"
)


def parse_edge_list(lines, drop_isolated=False):
    """Parse a whitespace edge list into a graph and an id mapping.

    Node ids are integers in ``[0, 2**63)``, written as ASCII digits with
    an optional sign. Self-loops are dropped (with a logged count); a node
    whose only incident lines were self-loops is kept as an isolated node
    unless ``drop_isolated`` is set. Returns ``(graph, id_map)`` where
    ``id_map`` maps external ids to dense internal ids. A malformed line
    raises ``ValueError`` naming its line number.
    """
    lines = list(lines)
    # most lines hold no "#", so test for it before stripping
    body = [ln for ln in lines if "#" not in ln or not ln.lstrip().startswith("#")]
    pairs = np.empty((0, 2), dtype=np.int64)
    if any(ln.strip() for ln in body):
        try:
            pairs = np.loadtxt(body, dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            _raise_first_bad_line(lines, exc)
        if pairs.shape[1] != 2 or pairs.min() < 0:
            _raise_first_bad_line(lines, None)

    loop = pairs[:, 0] == pairs[:, 1]
    if loop.any():
        log.warning(
            "dropped %d self-loop line(s); their nodes stay isolated",
            np.count_nonzero(loop),
        )
    edges = pairs[~loop]
    # dense ids in ascending external order; a self-loop line contributes
    # its node unless isolated nodes are dropped
    ext = _unique_sorted((edges if drop_isolated else pairs).ravel())
    if ext.size == 0:
        raise ValueError("empty edge list: no usable nodes")
    id_map = dict(zip(ext.tolist(), range(ext.size)))
    return Graph(ext.size, np.searchsorted(ext, edges)), id_map


def _raise_first_bad_line(lines, cause):
    """Raise the ``line N:`` error for the first line that is not a pair of
    node ids in ``[0, 2**63)``."""
    for lineno, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        tokens = s.split()
        if len(tokens) != 2:
            raise ValueError(
                f"line {lineno}: expected two node ids, got {raw.rstrip()!r}"
            )
        if not all(_INTEGER.fullmatch(tok) for tok in tokens):
            raise ValueError(
                f"line {lineno}: non-integer node id in {raw.rstrip()!r}"
            )
        # compare digit strings: int() refuses strings over 4300 digits
        digits = [tok.lstrip("+-").lstrip("0") for tok in tokens]
        if any(tok[0] == "-" and d for tok, d in zip(tokens, digits)):
            raise ValueError(f"line {lineno}: negative node id")
        if any(len(d) > 19 or int(d or "0") >= 2**63 for d in digits):
            raise ValueError(
                f"line {lineno}: node id outside [0, 2**63) in {raw.rstrip()!r}"
            )
    raise ValueError(f"malformed edge list: {cause}") from cause


def write_edge_list(g, fh):
    """Write one ``tail head`` line per edge, in stored (sorted) order.

    Isolated nodes are emitted as self-loop lines (``i i``), which
    :func:`parse_edge_list` turns back into isolated nodes, so graphs
    round-trip exactly.
    """
    isolated = np.flatnonzero(g.degrees == 0).tolist()
    fh.write(
        "".join([f"{t} {h}\n" for t, h in g.edges.tolist()])
        + "".join([f"{i} {i}\n" for i in isolated])
    )


def _read_table(fh, header, types):
    """Columns of a headered CSV as a tuple of arrays, parsed by ``types``
    (``int`` or ``float`` per column) into int64 and float64.

    Every row must hold exactly the header's fields. An integer field is
    written like an edge-list node id, ASCII digits with an optional sign
    (surrounding blanks aside), and must fit in an int64. A float field is
    written in ASCII decimal or exponent notation, or as inf or nan.
    """
    reader = csv.reader(fh)
    first = next(reader, None)
    if first is None:
        raise ValueError("empty file: missing header")
    if [h.strip() for h in first] != header:
        raise ValueError(
            f"expected header {','.join(header)!r}, got {','.join(first)!r}"
        )
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"line {reader.line_num}: expected {len(header)} fields, "
                f"got {len(row)}"
            )
        rows.append(row)
    columns = list(zip(*rows)) or [()] * len(header)
    try:
        return tuple(
            np.array([_int_field(v) for v in c], dtype=np.int64)
            if t is int else np.array([_float_field(v) for v in c])
            for t, c in zip(types, columns)
        )
    except OverflowError:
        raise ValueError("integer outside the int64 range") from None


def _int_field(text):
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"non-integer field {text!r}")
    return int(text)


def _float_field(text):
    if not _FLOAT.fullmatch(text.strip()):
        raise ValueError(f"non-float field {text!r}")
    return float(text)


def _check_node_ids(ids, node_count, kind, every_node):
    """Reject node ids of a ``kind`` file that repeat or name no node and,
    when ``every_node`` is set, any that leave a node out."""
    if every_node:
        if ids.size != node_count or not np.array_equal(
            np.sort(ids), np.arange(node_count)
        ):
            raise ValueError(
                f"{kind} file must list every node 0..{node_count - 1} exactly once"
            )
    elif np.unique(ids).size != ids.size:
        raise ValueError(f"{kind} file contains duplicate node ids")
    elif ids.size and (ids.min() < 0 or ids.max() >= node_count):
        raise ValueError(f"{kind} file contains unknown node ids")


def read_signal_rows(fh):
    """Raw ``(node_id, value)`` records of a signal CSV, unvalidated
    against any graph."""
    return _read_table(fh, ["node_id", "value"], (int, float))


def _read_checked_signal(fh, node_count, every_node):
    """Signal rows with node ids checked and finite values."""
    ids, values = read_signal_rows(fh)
    _check_node_ids(ids, node_count, "signal", every_node)
    if not np.all(np.isfinite(values)):
        raise ValueError("signal file contains non-finite values")
    return ids, values


def read_observations(fh, m, node_count):
    """Signal values on the sampling set ``m``, read from a signal CSV that
    covers either every node (truth) or exactly the sampled nodes.

    Returns ``(observed, truth)``: ``observed[j]`` is the value of node
    ``m.nodes[j]``, and ``truth`` is the full signal, or ``None`` when the
    file holds only the observations.
    """
    ids, values = _read_checked_signal(fh, node_count, every_node=False)
    if ids.size == node_count:
        truth = np.empty(node_count)
        truth[ids] = values
        return truth[m.nodes], truth
    # distinct ids equal the (sorted) sampled nodes iff they sort to them
    order = np.argsort(ids)
    if not np.array_equal(ids[order], m.nodes):
        raise ValueError(
            "signal file must cover either every node (truth) or exactly "
            "the sampled nodes (observations)"
        )
    return values[order], None


def read_signal(fh, node_count):
    """Full node signal: every node exactly once, finite values."""
    ids, values = _read_checked_signal(fh, node_count, every_node=True)
    x = np.empty(node_count)
    x[ids] = values
    return x


def write_signal(values, fh):
    writer = csv.writer(fh)
    writer.writerow(["node_id", "value"])
    for i, v in enumerate(values):
        writer.writerow([i, float(v)])


def read_partition(fh, node_count):
    ids, raw = _read_table(fh, ["node_id", "cluster_id"], (int, int))
    _check_node_ids(ids, node_count, "partition", every_node=True)
    # external cluster ids may be arbitrary ints; densify in sorted order
    labels = np.empty(node_count, dtype=np.int64)
    labels[ids] = np.unique(raw, return_inverse=True)[1]
    return Partition(labels)


def write_partition(part, fh):
    writer = csv.writer(fh)
    writer.writerow(["node_id", "cluster_id"])
    for i, c in enumerate(part.labels):
        writer.writerow([i, int(c)])


def read_sampling(fh, node_count):
    (ids,) = _read_table(fh, ["node_id"], (int,))
    if ids.size == 0:
        raise ValueError("sampling file lists no nodes")
    _check_node_ids(ids, node_count, "sampling", every_node=False)
    return SamplingSet(nodes=ids, budget=int(ids.size))


def write_sampling(m, fh):
    writer = csv.writer(fh)
    writer.writerow(["node_id"])
    for i in m.nodes:
        writer.writerow([int(i)])


def extract_subgraph(g, walk_length, rng):
    """Neighborhood of one random walk, as an induced subgraph.

    Runs a walk of the given length from a uniformly chosen seed and keeps
    every visited node together with all of its neighbors, plus every edge
    of ``g`` between kept nodes. Returns ``(subgraph, kept)`` where
    ``kept[new_id] = old_id``.
    """
    gen = as_generator(rng)
    seed = int(gen.integers(g.node_count))
    path = random_walk(g, seed, walk_length, gen)
    keep = np.zeros(g.node_count, dtype=bool)
    keep[path] = True
    indptr = g.indptr
    for v in set(path.tolist()):
        keep[g.indices[indptr[v] : indptr[v + 1]]] = True
    kept = np.flatnonzero(keep)
    new_id = np.full(g.node_count, -1, dtype=np.int64)
    new_id[kept] = np.arange(kept.size)
    mask = keep[g.tails] & keep[g.heads]
    return Graph(kept.size, new_id[g.edges[mask]]), kept
