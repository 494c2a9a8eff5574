"""Reference graph predicates: search over Python neighbor sets, one node
at a time. ``rwtv.graph.is_connected`` is checked against
:func:`reference_is_connected`, and the acceptance tests pick non-bipartite
draws with :func:`reference_is_bipartite`. ``Graph``'s stored arrays are
checked against :func:`reference_csr`.
"""


def reference_csr(node_count, edges):
    """``(edges, indptr, indices, degrees)`` of a graph as Python lists,
    from sorted neighbor sets: the distinct edges ``[tail, head]`` with
    ``tail < head`` in sorted order, and each node's neighbors ascending."""
    adj = [set() for _ in range(node_count)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    neighbors = [sorted(s) for s in adj]
    indptr = [0]
    for ns in neighbors:
        indptr.append(indptr[-1] + len(ns))
    pairs = [[t, h] for t, ns in enumerate(neighbors) for h in ns if t < h]
    return pairs, indptr, [h for ns in neighbors for h in ns], list(map(len, neighbors))


def reference_is_connected(g):
    # depth-first search over neighbor lists built from g.edges
    adj = {i: set() for i in range(g.node_count)}
    for t, h in g.edges.tolist():
        adj[t].add(h)
        adj[h].add(t)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == g.node_count


def reference_is_bipartite(g):
    color = {}
    adj = {i: [] for i in range(g.node_count)}
    for t, h in g.edges.tolist():
        adj[t].append(h)
        adj[h].append(t)
    for start in range(g.node_count):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True
