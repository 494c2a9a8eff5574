"""Edge-list / CSV file formats and real-world subgraph extraction.

Edge lists follow the common network-dataset convention: one whitespace
separated node-id pair per line, ``#`` lines are comments, and an edge is
present if either direction appears. External node ids are remapped to
dense 0-based ids (ascending external order); the external ids are
returned as an array, ``ext[dense]``, so results can be written back in
the original id space.

An edge list is read by one of two readers. A plain text, ASCII whose
lines after any leading ``#`` lines are each two ids of 1 to 18 digits
joined by one space or tab, is read by one ``np.fromstring``. Any other
text (signs, longer ids, extra blanks, blank lines, later comments,
non-ASCII characters) is read in chunks of whole lines: a plain chunk by
``np.fromstring``, any other chunk line by line, by the grammar whose
failures name the first bad line. Both read the same ids.

Signals, partitions, and sampling sets are small headered CSV files.
Floats are written with shortest round-trip precision, so files re-read
to bit-identical values.
"""

from __future__ import annotations

import csv
import logging
import re

import numpy as np

from .graph import Graph, Partition
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


def parse_edge_list(fh, drop_isolated=False):
    """Parse a whitespace edge list from the open text file ``fh`` into a
    graph and its external node ids.

    Node ids are integers in ``[0, 2**63)``, written as ASCII digits with
    an optional sign. Self-loops are dropped (with a logged count); a node
    whose only incident lines were self-loops is kept as an isolated node
    unless ``drop_isolated`` is set. Returns ``(graph, ext)`` where ``ext``
    is the ascending int64 array of external ids, ``ext[dense] =
    external``. A malformed line raises ``ValueError`` naming its line
    number.

    The file is read whole with one ``read``. Its ids are parsed by one
    ``np.fromstring`` call when every line after any leading ``#`` lines
    is plain (two ids of 1 to 18 ASCII digits joined by one space or tab).
    Any other text is read in chunks of whole lines, a plain chunk by
    ``np.fromstring`` and any other line by line. The ids are made dense
    in place by one sort: O(m log m) time for m lines, and a peak memory
    of about four times the text's size, most of it kept by the returned
    graph.
    """
    # the text is freed once its pairs are parsed
    pairs = _read_pairs(_translate_line_ends(fh.read()))
    loop = pairs[:, 0] == pairs[:, 1]
    loops = np.count_nonzero(loop)
    if loops:
        log.warning("dropped %d self-loop line(s); their nodes stay isolated", loops)
    # dense ids in ascending external order; a self-loop line contributes
    # its node unless isolated nodes are dropped. np.compress takes rows
    # several times faster than a boolean index of an (m, 2) array, and
    # rebinding pairs frees the rows each compress was taken from
    if loops and drop_isolated:
        pairs = np.compress(~loop, pairs, axis=0)
    ext = _densify(pairs)
    if ext.size == 0:
        raise ValueError("empty edge list: no usable nodes")
    if loops and not drop_isolated:
        pairs = np.compress(~loop, pairs, axis=0)
    return Graph(ext.size, pairs), ext


def _translate_line_ends(text):
    """``text`` with each ``\\r\\n`` and each lone ``\\r`` turned into ``\\n``,
    as reading in text mode does, for text read without that translation
    (an ``io.StringIO``, or a file opened with ``newline=""``)."""
    if "\r" not in text:
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


# characters of text read or checked at a time by _read_pairs and
# _plain_lines; each chunk ends at a line end
_CHUNK = 1 << 16


def _read_pairs(text):
    """The ``(m, 2)`` int64 id pairs of an edge-list text, one row per line
    that is neither blank nor a comment.

    A plain text (see :func:`_read_plain_pairs`) is read by one
    ``np.fromstring``. Any other text is read in chunks of about
    ``_CHUNK`` characters of whole lines, a plain chunk by
    ``np.fromstring`` and any other by :func:`_read_line_pairs`, whose
    failures name the first bad line.
    """
    pairs = _read_plain_pairs(text)
    if pairs is not None:
        return pairs
    chunks, lineno, start = [np.empty((0, 2), dtype=np.int64)], 1, 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK) + 1 or len(text)
        chunk = text[start:end]
        pairs = _read_plain_pairs(chunk)
        chunks.append(_read_line_pairs(chunk, lineno) if pairs is None else pairs)
        lineno += chunk.count("\n")
        start = end
    return np.concatenate(chunks)


# longest id of a plain line: 18 digits are below 10**18 < 2**63
_PLAIN_DIGITS = 18


def _read_plain_pairs(text):
    """The id pairs of a plain text, or None for any other text.

    A text is plain when it is ASCII and, after any leading lines that
    start with ``#``, every line is 1 to 18 digits, one space or tab, and
    1 to 18 digits, the last line with or without its line end. No line of
    a plain text is blank or malformed, and every id is in ``[0, 2**63)``,
    so ``np.fromstring`` reads it as :func:`_read_line_pairs` would.
    """
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1
        if not start:
            return None
    if not text.isascii():
        return None
    lines = _plain_lines(text.encode("ascii"), start)
    if not lines:
        return None
    pairs = np.fromstring(text[start:], dtype=np.int64, sep=" ", count=2 * lines)
    return pairs.reshape(lines, 2)


def _plain_lines(raw, start):
    """The number of lines of the bytes ``raw[start:]`` if each is a plain
    edge-list line, else 0.

    Checked about ``_CHUNK`` bytes at a time: each chunk ends at a line
    end, and its blanks and line ends are found from one boolean scan.
    """
    codes = np.frombuffer(raw, np.uint8)
    if start == len(raw) or codes[start:].max() > ord("9"):
        return 0
    lines = 0
    while start < len(raw):
        end = raw.find(b"\n", start + _CHUNK) + 1 or len(raw)
        chunk = codes[start:end]
        # every byte below "0" separates ids: it must be a blank or a line
        # end, one of each per line, and the ids between them 1 to 18 long
        seps = np.flatnonzero(chunk < ord("0"))
        if not seps.size:
            return 0
        blanks, ends = chunk[seps[0::2]], chunk[seps[1::2]]
        gaps = np.diff(seps)
        tail = chunk.size - 1 - seps[-1]
        if not (
            np.all((blanks == ord(" ")) | (blanks == ord("\t")))
            and np.all(ends == ord("\n"))
            and 1 <= seps[0] <= _PLAIN_DIGITS
            and (not gaps.size or gaps.min() > 1 and gaps.max() <= _PLAIN_DIGITS + 1)
            and (0 < tail <= _PLAIN_DIGITS if seps.size % 2 else tail == 0)
        ):
            return 0
        lines += (seps.size + 1) // 2
        start = end
    return lines


def _densify(pairs):
    """Overwrite each id of the C-contiguous int64 array ``pairs`` with its
    index among the distinct ids, and return those ids ascending.

    One plain sort of ``(id - min) << b | position``, b the bit length of
    the id count: its high bits are the ids in order, its low bits the
    order. Only ids too far apart to pack in 63 bits take an unstable
    argsort, on whose tie order neither result depends. The sorted
    copy's buffer then holds the ranks.
    """
    ids = pairs.reshape(-1)
    if not ids.size:
        return ids.copy()
    lo = int(ids.min())
    bits = ids.size.bit_length()
    if (int(ids.max()) - lo).bit_length() + bits <= 63:
        ordered = ids - lo
        ordered <<= bits
        ordered |= np.arange(ids.size)
        ordered.sort()
        order = ordered & ((1 << bits) - 1)
        ordered >>= bits
    else:
        order = np.argsort(ids)
        ordered = ids[order]
        ordered -= lo
    new = np.empty(ids.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    distinct += lo
    # the ranks, in the sorted copy's buffer: new is cast into it before
    # the cumsum, which would otherwise make a cast copy of its own
    np.copyto(ordered, new)
    np.cumsum(ordered, out=ordered)
    ordered -= 1
    ids[order] = ordered
    return distinct


def _read_line_pairs(text, first):
    """The ``(m, 2)`` int64 id pairs of the lines of ``text`` that are
    neither blank nor a comment, read one line at a time; the first line
    that is not a pair of node ids in ``[0, 2**63)`` raises its ``line N:``
    error, ``first`` being the file line number of the text's first line."""
    ids = []
    for lineno, raw in enumerate(text.split("\n"), first):
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
        ids += [int(d or "0") for d in digits]
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


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
    try:
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
    except csv.Error as exc:
        # such as a field over csv's field size limit
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    columns = list(zip(*rows)) or [()] * len(header)
    try:
        return tuple(
            np.array([_int_field(v) for v in c], dtype=np.int64)
            if t is int else np.array([_float_field(v) for v in c])
            for t, c in zip(types, columns)
        )
    except OverflowError:
        raise ValueError("integer outside the int64 range") from None


def _write_table(fh, header, rows):
    """Write a headered CSV in one ``write``, the counterpart of
    :func:`_read_table`: one line per row of the iterable ``rows``, whose
    ints and Python floats are written by ``str`` (so floats in shortest
    round-trip form), each line ended by ``\\r\\n`` as ``csv.writer``
    ends it."""
    lines = [",".join(header), *(",".join(map(str, r)) for r in rows)]
    fh.write("\r\n".join(lines) + "\r\n")


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
    values = np.asarray(values, dtype=float)
    _write_table(fh, ["node_id", "value"], enumerate(values.tolist()))


def read_partition(fh, node_count):
    ids, raw = _read_table(fh, ["node_id", "cluster_id"], (int, int))
    _check_node_ids(ids, node_count, "partition", every_node=True)
    # external cluster ids may be arbitrary ints; densify in sorted order
    labels = np.empty(node_count, dtype=np.int64)
    labels[ids] = np.unique(raw, return_inverse=True)[1]
    return Partition(labels)


def write_partition(part, fh):
    _write_table(fh, ["node_id", "cluster_id"], enumerate(part.labels.tolist()))


def read_sampling(fh, node_count):
    (ids,) = _read_table(fh, ["node_id"], (int,))
    if ids.size == 0:
        raise ValueError("sampling file lists no nodes")
    _check_node_ids(ids, node_count, "sampling", every_node=False)
    return SamplingSet(nodes=ids)


def write_sampling(m, fh):
    _write_table(fh, ["node_id"], zip(m.nodes.tolist()))


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
