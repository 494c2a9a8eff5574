import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rwtv import (
    AppmSpec,
    Graph,
    Partition,
    RngSeed,
    SamplingSet,
    clustered_signal,
    cut_size,
    expected_degree,
    incidence_apply,
    incidence_transpose_apply,
    is_connected,
    random_walk,
    total_variation,
)
from reference_graph import reference_csr, reference_is_bipartite, reference_is_connected
from strategies import graphs, graphs_with_signal, graphs_with_two_signals


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def two_triangles_with_bridge():
    # clusters {0,1,2} and {3,4,5}, bridge {2,3}
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    return Graph(6, edges), Partition([0, 0, 0, 1, 1, 1])


def k22():
    # sides {0,1} and {2,3}
    return Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), Partition([0, 0, 1, 1])


# ---------------------------------------------------------------- construction

def test_edges_normalized_sorted_deduplicated():
    g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 0), (0, 1)])
    assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert g.edge_count == 3


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 0)])


def test_endpoint_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 2)])


def test_node_count_beyond_int64_edge_keys_rejected():
    # the cap keeps every node id, and so each half of an edge key, in 32 bits
    with pytest.raises(ValueError, match="at most 3037000499"):
        Graph(3_037_000_500, [(0, 1)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Graph(0, []), "node_count must be positive"),
        (lambda: Graph(3, [(0, 1, 2)]), "node pairs"),
        (lambda: Partition([]), "nonempty 1-d"),
        (lambda: Partition([-1, 0]), "nonnegative"),
        (lambda: Partition.from_sizes([2, 0]), "sizes must be positive"),
        (lambda: triangle().neighbors(3), "out of range"),
    ],
)
def test_invalid_graph_and_partition_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "make, whole, what",
    [
        (lambda ids: Graph(3, [ids]), [0.0, 2.0], "edge endpoints"),
        (lambda ids: Partition(ids), [1.0, 0.0], "cluster ids"),
        (lambda ids: SamplingSet(nodes=ids), [2.0, 0.0], "node ids"),
    ],
)
@pytest.mark.parametrize("bad", [1.7, 0.5, np.inf, np.nan])
def test_fractional_ids_rejected_rather_than_truncated(make, whole, what, bad):
    make(whole)  # integral floats pass
    with pytest.raises(ValueError, match=f"{what} must be integers, got {bad}"):
        make([whole[0], bad])


@pytest.mark.parametrize("big", [2**63, np.uint64(2**63), 1e19, -1e19])
def test_ids_beyond_int64_rejected_rather_than_wrapped(big):
    # unsigned and float ids would wrap in the cast to int64
    with pytest.raises(ValueError, match="edge endpoints must be integers below 2"):
        Graph(3, [(0, big)])


@pytest.mark.parametrize(
    "make, whole, fraction, what",
    [
        (lambda n: Graph(n, [(0, 1)]), 2.0, 2.5, "node counts"),
        (lambda s: AppmSpec((10, s), 0.3, 0.05), 20.0, 20.9, "cluster_sizes"),
        (lambda s: Partition.from_sizes([s, 1]), 2.0, 2.7, "cluster sizes"),
        (lambda c: cut_size(*two_triangles_with_bridge(), c), 1.0, 0.9, "cluster ids"),
        (lambda i: triangle().neighbors(i), 1.0, 1.5, "node ids"),
        (lambda i: random_walk(triangle(), i, 3, RngSeed(0)), 0.0, 0.5, "node ids"),
        (lambda c: expected_degree(AppmSpec((10, 20), 0.3, 0.05), c), 1.0, 1.5, "cluster ids"),
    ],
)
def test_fractional_counts_and_ids_rejected_rather_than_truncated(make, whole, fraction, what):
    make(whole)  # integral floats pass
    for bad in (fraction, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"{what} must be integers, got {bad}"):
            make(bad)
    with pytest.raises(ValueError, match=f"{what} must be integers below 2"):
        make(2**70)


def test_isolated_nodes_allowed():
    g = Graph(5, [(0, 1)])
    assert g.degrees[4] == 0


def test_graph_immutable():
    g = triangle()
    with pytest.raises(ValueError):
        g.edges[0, 0] = 9


@given(graphs())
def test_endpoint_arrays_read_only_contiguous_and_edges_their_columns(g):
    for arr in (g.tails, g.heads):
        assert arr.flags.c_contiguous
        assert arr.shape == (g.edge_count,)
        with pytest.raises(ValueError):
            arr[:1] = 0
    assert np.array_equal(g.edges, np.column_stack([g.tails, g.heads]))
    assert not g.edges.flags.writeable


@given(graphs())
def test_csr_read_only_and_neighbors_sorted(g):
    n = g.node_count
    assert g.indptr.shape == (n + 1,)
    assert g.indices.shape == (2 * g.edge_count,)
    for arr in (g.indptr, g.indices):
        with pytest.raises(ValueError):
            arr[0] = 1
    edges = g.edges.tolist()
    for i in range(n):
        expected = sorted(
            [h for t, h in edges if t == i] + [t for t, h in edges if h == i]
        )
        assert g.neighbors(i).tolist() == expected


@pytest.mark.parametrize(
    "n", [1, 2] + [c for k in range(1, 11) for c in (2**k, 2**k + 1)]
)
def test_csr_arrays_match_sorted_neighbor_sets_where_the_key_width_changes(n):
    # the edge keys tail << s | head take s = max(1, (n - 1).bit_length())
    # bits for the head, one more at each n = 2**k + 1
    gen = np.random.default_rng(n)
    edges = gen.integers(n, size=(3 * n, 2)).tolist()
    if n > 1:
        # the largest ids, duplicates and reversed duplicates
        edges += [[0, n - 1], [n - 1, n - 2], [n - 2, n - 1], [n - 1, 0]]
    edges = [e for e in edges if e[0] != e[1]]
    g = Graph(n, edges)
    pairs, indptr, indices, degrees = reference_csr(n, edges)
    assert g.edges.tolist() == pairs
    assert g.indptr.tolist() == indptr
    assert g.indices.tolist() == indices
    assert g.degrees.tolist() == degrees
    for arr in (g.edges, g.tails, g.heads, g.indptr, g.indices, g.degrees):
        assert arr.dtype == np.int64


@given(graphs(max_nodes=9))
def test_connectivity_and_bipartiteness_match_reference(g):
    assert is_connected(g) == reference_is_connected(g)
    # the bipartiteness reference against every 2-coloring of the nodes
    n = g.node_count
    colors = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    proper = np.all(colors[:, g.tails] != colors[:, g.heads], axis=1)
    assert reference_is_bipartite(g) == proper.any()


def test_connectivity_and_bipartiteness_hand_cases():
    path = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert is_connected(path) and reference_is_bipartite(path)
    assert is_connected(triangle()) and not reference_is_bipartite(triangle())
    # isolated node 2, odd cycle in a later component
    g = Graph(6, [(0, 1), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(g) and not reference_is_bipartite(g)
    assert is_connected(Graph(1, [])) and reference_is_bipartite(Graph(1, []))


def test_connectivity_and_bipartiteness_known_by_construction():
    n = 20000
    perm = np.random.default_rng(7).permutation(n)
    path = Graph(n, np.column_stack([perm[:-1], perm[1:]]))
    assert is_connected(path) and reference_is_bipartite(path)
    halves = Graph(n, np.delete(path.edges, n // 2, axis=0))
    assert not is_connected(halves)
    # closing the path into a cycle of odd length n + 1
    perm = np.append(perm, n)
    long_odd = Graph(n + 1, np.column_stack([perm, np.roll(perm, -1)]))
    assert is_connected(long_odd) and not reference_is_bipartite(long_odd)

    def cycle(k, first=0):
        return [(first + i, first + (i + 1) % k) for i in range(k)]

    odd, even = Graph(9, cycle(9)), Graph(10, cycle(10))
    assert is_connected(odd) and not reference_is_bipartite(odd)
    assert is_connected(even) and reference_is_bipartite(even)
    # two components: two even cycles, then an odd and an even one
    two_even = Graph(14, cycle(6) + cycle(8, first=6))
    assert not is_connected(two_even) and reference_is_bipartite(two_even)
    odd_even = Graph(11, cycle(4) + cycle(7, first=4))
    assert not is_connected(odd_even) and not reference_is_bipartite(odd_even)
    # isolated nodes 0 and 5 around a path, then around a triangle
    assert not is_connected(Graph(6, [(1, 2), (2, 3), (3, 4)]))
    assert reference_is_bipartite(Graph(6, [(1, 2), (2, 3), (3, 4)]))
    assert not reference_is_bipartite(Graph(6, [(1, 2), (2, 3), (1, 3)]))
    assert not is_connected(Graph(3, [])) and reference_is_bipartite(Graph(3, []))


@given(graphs())
def test_adjacency_symmetric_and_degree_sum(g):
    for i in range(g.node_count):
        for j in g.neighbors(i):
            assert i in g.neighbors(j)
    assert int(g.degrees.sum()) == 2 * g.edge_count


# -------------------------------------------------------------------- degree

def test_degree_complete_graph():
    assert triangle().degrees[0] == 2
    assert triangle().degrees[2] == 2


def test_degree_single_node():
    assert Graph(1, []).degrees[0] == 0


def test_degree_path_midpoint():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.degrees[1] == 2


# ----------------------------------------------------------------- incidence

def test_incidence_single_edge():
    g = Graph(2, [(0, 1)])
    assert incidence_apply(g, [3.0, 5.0]).tolist() == [2.0]


def test_incidence_constant_signal_is_zero():
    g, _ = two_triangles_with_bridge()
    assert np.all(incidence_apply(g, np.full(6, 4.2)) == 0.0)


def test_incidence_triangle_hand_values():
    # sorted edge order (0,1),(0,2),(1,2); head minus tail of x=[0,1,2]
    assert incidence_apply(triangle(), [0.0, 1.0, 2.0]).tolist() == [1.0, 2.0, 1.0]


def test_incidence_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        incidence_apply(triangle(), [1.0, 2.0])


def test_transpose_single_edge():
    g = Graph(2, [(0, 1)])
    assert incidence_transpose_apply(g, [1.0]).tolist() == [-1.0, 1.0]


def test_transpose_zero_edge_signal():
    g = triangle()
    assert np.all(incidence_transpose_apply(g, np.zeros(3)) == 0.0)


def test_transpose_triangle_hand_values():
    assert incidence_transpose_apply(triangle(), [1.0, 1.0, 1.0]).tolist() == [
        -2.0,
        0.0,
        2.0,
    ]


def test_transpose_length_mismatch():
    with pytest.raises(ValueError, match="shape"):
        incidence_transpose_apply(triangle(), [1.0])


@given(graphs(min_edges=1), st.integers(0, 2**32 - 1))
def test_adjoint_identity(g, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(g.node_count)
    y = rng.standard_normal(g.edge_count)
    lhs = float(incidence_apply(g, x) @ y)
    rhs = float(x @ incidence_transpose_apply(g, y))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


# ------------------------------------------------------------- total variation

def test_tv_constant_signal():
    g, _ = k22()
    assert total_variation(g, np.full(4, 7.0)) == 0.0


def test_tv_path_step():
    g = Graph(3, [(0, 1), (1, 2)])
    assert total_variation(g, [0.0, 1.0, 1.0]) == 1.0


def test_tv_triangle_hand_value():
    assert total_variation(triangle(), [0.0, 1.0, 2.0]) == 4.0


@given(graphs_with_signal())
def test_tv_equals_one_norm_of_incidence(gx):
    g, x = gx
    assert total_variation(g, x) == float(np.abs(incidence_apply(g, x)).sum())


@given(graphs_with_signal(), st.floats(-100, 100, allow_nan=False))
def test_tv_absolute_homogeneity(gx, a):
    g, x = gx
    lhs = total_variation(g, a * x)
    rhs = abs(a) * total_variation(g, x)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(graphs_with_two_signals())
@example(
    (
        Graph(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3)]),
        np.array([-1.0, -1.0437587784836069, 0.0, 0.0, 0.0, 0.0]),
        np.array(
            [-880615.0, 0.0, 0.0, 1.0410564383491874, 552458.1204740661, 1e6]
        ),
    )
)
def test_tv_triangle_inequality(gxy):
    # summation rounding grows with the totals, so the slack does too
    g, x, y = gxy
    tx, ty = total_variation(g, x), total_variation(g, y)
    assert total_variation(g, x + y) <= tx + ty + 1e-12 * (tx + ty) + 1e-9


# ------------------------------------------------------- partitions and cuts

def test_partition_requires_nonempty_clusters():
    with pytest.raises(ValueError, match="empty cluster"):
        Partition([0, 2, 2])


def test_partition_from_sizes():
    part = Partition.from_sizes([2, 3])
    assert part.labels.tolist() == [0, 0, 1, 1, 1]
    assert [c.tolist() for c in part.clusters] == [[0, 1], [2, 3, 4]]


def test_partition_clusters_of_many_random_labels():
    labels = np.random.default_rng(11).permutation(np.arange(3000) % 1000)
    part = Partition(labels)
    assert part.cluster_count == 1000
    for c, nodes in enumerate(part.clusters):
        expected = np.flatnonzero(labels == c)
        assert nodes.dtype == expected.dtype
        assert nodes.tolist() == expected.tolist()
        assert not nodes.flags.writeable


def test_cut_size_single_cluster():
    assert cut_size(triangle(), Partition([0, 0, 0]), 0) == 0


def test_cut_size_bridge():
    g, part = two_triangles_with_bridge()
    assert cut_size(g, part, 0) == 1
    assert cut_size(g, part, 1) == 1


def test_cut_size_k22():
    g, part = k22()
    assert cut_size(g, part, 0) == 4
    assert cut_size(g, part, 1) == 4


def test_cut_size_partition_mismatch():
    with pytest.raises(ValueError, match="partition covers"):
        cut_size(triangle(), Partition([0, 0]), 0)


def test_cut_size_unknown_cluster():
    g, part = k22()
    with pytest.raises(ValueError, match="unknown cluster"):
        cut_size(g, part, 5)


@given(graphs(), st.data())
def test_cut_sizes_sum_to_twice_boundary(g, data):
    labels = data.draw(
        st.lists(
            st.integers(0, 2), min_size=g.node_count, max_size=g.node_count
        ).filter(lambda ls: sorted(set(ls)) == list(range(max(ls) + 1)))
    )
    part = Partition(labels)
    total = sum(cut_size(g, part, c) for c in range(part.cluster_count))
    boundary = np.flatnonzero(part.labels[g.tails] != part.labels[g.heads])
    assert total == 2 * boundary.size


# ------------------------------------------------------------ clustered signal

def test_clustered_signal_single_cluster():
    part = Partition([0, 0, 0])
    assert clustered_signal(part, [0.7]).tolist() == [0.7, 0.7, 0.7]


def test_clustered_signal_two_clusters():
    part = Partition([0, 0, 1])
    assert clustered_signal(part, [1.0, 0.0]).tolist() == [1.0, 1.0, 0.0]


def test_clustered_signal_coefficient_count_mismatch():
    with pytest.raises(ValueError, match="coefficients"):
        clustered_signal(Partition([0, 0, 1]), [1.0])


def test_clustered_signal_tv_is_boundary_sum():
    g, part = two_triangles_with_bridge()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(2)
        x = clustered_signal(part, a)
        expected = sum(
            abs(a[part.labels[t]] - a[part.labels[h]])
            for t, h in g.edges[
                np.flatnonzero(part.labels[g.tails] != part.labels[g.heads])
            ]
        )
        assert total_variation(g, x) == pytest.approx(expected, rel=1e-12)

