"""Fixed reference work that measures the host's current CPU speed.

Identical rounds of the workloads were measured 1.8x apart on a shared
2-core host, with slow and fast phases that last from seconds to over a
minute. Timing a fixed probe next to the work it normalizes, and scaling
by ``probe.ref / probe time``, reports each time as it would be on the
reference host at full speed.

Code that lives in small arrays and code that allocates and hashes
hundreds of thousands of objects slow down by different amounts, so
there are two probes. ``SMALL`` mixes what the Monte-Carlo and walk
workloads spend their time on: short text parsing, a neighbour-list loop,
and small numpy gathers, bincounts and clips. ``PARSE`` is edge-list
ingestion: 25 000 lines into a set of pairs, a dense id map and a
lexsort. On a 200-second trace of the edge-list pipeline, pass times
correlated with ``PARSE`` at 0.78 and with ``SMALL`` at 0.53.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(12345)
_LINES = [f"{a} {b}" for a, b in _rng.integers(10**6, size=(8000, 2)).tolist()]
_NEIGHBOURS = [list(_rng.integers(200, size=8).tolist()) for _ in range(200)]
_HEADS = _rng.integers(200, size=1200)
_TAILS = _rng.integers(200, size=1200)
_Z = _rng.random(200)
_EDGE_LINES = [f"{a} {b}\n" for a, b in _rng.integers(10**7, size=(25000, 2)).tolist()]


def _small():
    pairs = set()
    for line in _LINES:
        a, b = line.split()
        a, b = int(a), int(b)
        pairs.add((min(a, b), max(a, b)))
    v, steps = 0, 0
    for _ in range(60000):
        nb = _NEIGHBOURS[v]
        v = nb[steps % len(nb)]
        steps += 1
    y = np.zeros(_HEADS.size)
    for _ in range(1000):
        y += 0.1 * (_Z[_HEADS] - _Z[_TAILS])
        np.clip(y, -1.0, 1.0, out=y)
        g = np.bincount(_HEADS, weights=y, minlength=200)
    return len(pairs) + v + float(g[0])


def _parse():
    pairs = set()
    for line in _EDGE_LINES:
        s = line.strip().split()
        a, b = int(s[0]), int(s[1])
        pairs.add((min(a, b), max(a, b)))
    ids = {i for pair in pairs for i in pair}
    dense = {e: k for k, e in enumerate(sorted(ids))}
    edges = np.array([(dense[a], dense[b]) for a, b in pairs])
    return int(np.lexsort((edges[:, 1], edges[:, 0]))[0])


class Probe:
    def __init__(self, work, ref):
        self._work = work
        self.ref = ref  # seconds on the reference host in a fast phase

    def time(self):
        """Seconds the reference work takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


SMALL = Probe(_small, 0.03)
PARSE = Probe(_parse, 0.11)
