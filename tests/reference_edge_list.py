"""Plain line-by-line transcription of the edge-list format.

One line at a time, with Python ints and no numpy: test code checks
``rwtv.fileio.parse_edge_list`` against it on generated texts.
"""

import re

_ID = re.compile(r"[+-]?[0-9]+")


def reference_parse(text, drop_isolated=False):
    """Returns ``(node_count, edges, id_map)`` for an edge-list text.

    ``edges`` is the sorted list of distinct ``[tail, head]`` dense-id pairs
    with ``tail < head``; ``id_map`` maps external ids to dense ids in
    ascending external order. A malformed line raises ``ValueError`` with
    the package's ``line N:`` message.
    """
    pairs = []
    for lineno, raw in enumerate(text.split("\n"), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        shown = raw.rstrip()
        tokens = s.split()
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: expected two node ids, got {shown!r}")
        if not all(_ID.fullmatch(tok) for tok in tokens):
            raise ValueError(f"line {lineno}: non-integer node id in {shown!r}")
        ids = [int(tok) for tok in tokens]
        if any(i < 0 for i in ids):
            raise ValueError(f"line {lineno}: negative node id")
        if any(i >= 2**63 for i in ids):
            raise ValueError(f"line {lineno}: node id outside [0, 2**63) in {shown!r}")
        pairs.append(ids)

    edges = [(a, b) for a, b in pairs if a != b]
    nodes = sorted({i for pair in (edges if drop_isolated else pairs) for i in pair})
    if not nodes:
        raise ValueError("empty edge list: no usable nodes")
    id_map = {ext: dense for dense, ext in enumerate(nodes)}
    dense = {tuple(sorted((id_map[a], id_map[b]))) for a, b in edges}
    return len(nodes), [list(e) for e in sorted(dense)], id_map
