import io
import logging

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwtv import Graph, Partition, RngSeed, SamplingSet
from rwtv.fileio import (
    extract_subgraph,
    parse_edge_list,
    read_observations,
    read_partition,
    read_sampling,
    read_signal,
    read_signal_rows,
    write_edge_list,
    write_partition,
    write_sampling,
    write_signal,
)


def parse(text, **kwargs):
    return parse_edge_list(io.StringIO(text), **kwargs)


# -------------------------------------------------------------------- parsing

def test_parse_symmetrizes_and_dedups():
    g, id_map = parse("0 1\n1 0\n")
    assert g.edge_count == 1
    assert g.edges.tolist() == [[0, 1]]
    assert id_map == {0: 0, 1: 1}


def test_parse_ignores_comments_and_blank_lines():
    g, _ = parse("# a comment\n\n0 1\n")
    assert g.edge_count == 1


def test_parse_remaps_external_ids_densely():
    g, id_map = parse("5 900\n900 7\n")
    assert id_map == {5: 0, 7: 1, 900: 2}
    assert g.node_count == 3
    assert g.edges.tolist() == [[0, 2], [1, 2]]


def test_parse_malformed_line_reports_number():
    with pytest.raises(ValueError, match="line 2"):
        parse("0 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse("zero one\n")
    with pytest.raises(ValueError, match="negative"):
        parse("-1 2\n")


def test_parse_errors_name_the_line():
    cases = [
        ("0 1\n0 1 # x\n", "line 2: expected two node ids"),
        (f"# ids\n0 1\n{2**63} 1\n", "line 3: node id outside"),
        (f"0 {2**63 - 1}\n1 1{'0' * 5000}\n", "line 2: node id outside"),
        ("0 1\n\n1_0 2\n", "line 3: non-integer"),
        ("0 1\n1.0 2\n", "line 2: non-integer"),
        ("0 1\n2 3\n4 -5\n", "line 3: negative"),
        ("0 1 2\n", "line 1: expected two node ids"),
        ("7\n", "line 1: expected two node ids"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=message):
            parse(text)


def test_parse_largest_id_and_signs():
    g, id_map = parse(f"{2**63 - 1} +3\n-0 3\n")
    assert id_map == {0: 0, 3: 1, 2**63 - 1: 2}
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_tabs_and_crlf():
    expected, _ = parse("# c\n5 7\n7 9\n")
    for text in ("# c\r\n5\t7\r\n7 9\r\n", "# c\n5\t7\n\t7\t9\t\n"):
        g, id_map = parse(text)
        assert g == expected
        assert id_map == {5: 0, 7: 1, 9: 2}


def test_parse_empty_file_rejected():
    with pytest.raises(ValueError, match="empty"):
        parse("")
    with pytest.raises(ValueError, match="empty"):
        parse("# only a comment\n")


def test_parse_drops_self_loops_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        g, id_map = parse("0 1\n2 2\n")
    assert "self-loop" in caplog.text
    assert g.node_count == 3  # node 2 kept as isolated
    assert g.degrees[id_map[2]] == 0


def test_parse_drop_isolated_flag():
    g, id_map = parse("0 1\n2 2\n", drop_isolated=True)
    assert g.node_count == 2
    assert 2 not in id_map


# ---------------------------------------------------------------- round trips

def roundtrip_graph(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    buf.seek(0)
    g2, _ = parse_edge_list(buf)
    return g2


def test_graph_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (0, 4), (2, 4)])
    assert roundtrip_graph(g) == g


def test_graph_round_trip_keeps_isolated_nodes():
    g = Graph(4, [(0, 1)])  # nodes 2, 3 isolated
    g2 = roundtrip_graph(g)
    assert g2 == g
    assert g2.degrees.tolist() == [1, 1, 0, 0]


def test_signal_round_trip_is_exact():
    values = np.array([0.1, 1 / 3, -0.0, 1e-300, 12345.6789, 5e307])
    buf = io.StringIO()
    write_signal(values, buf)
    buf.seek(0)
    back = read_signal(buf, len(values))
    assert np.array_equal(back, values)


def test_read_signal_requires_every_node_once():
    with pytest.raises(ValueError, match="exactly once"):
        read_signal(io.StringIO("node_id,value\n0,1.0\n0,2.0\n"), 2)
    with pytest.raises(ValueError, match="exactly once"):
        read_signal(io.StringIO("node_id,value\n0,1.0\n"), 2)


def test_read_signal_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        read_signal(io.StringIO("node_id,value\n0,nan\n1,1.0\n"), 2)


def test_read_signal_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        read_signal(io.StringIO("id,val\n0,1.0\n"), 1)


def test_read_signal_rows_partial():
    ids, values = read_signal_rows(io.StringIO("node_id,value\n7,1.5\n3,2.5\n"))
    assert ids.tolist() == [7, 3]
    assert values.tolist() == [1.5, 2.5]


def test_read_observations_full_signal_or_sampled_nodes_in_any_order():
    m = SamplingSet(nodes=np.array([1, 3, 4]), budget=3)
    full = "node_id,value\n3,0.3\n0,0.0\n4,0.4\n2,0.2\n1,0.1\n"
    observed, truth = read_observations(io.StringIO(full), m, 5)
    assert observed.tolist() == [0.1, 0.3, 0.4]
    assert truth.tolist() == [0.0, 0.1, 0.2, 0.3, 0.4]
    shuffled = "node_id,value\n4,0.4\n1,0.1\n3,0.3\n"
    observed, truth = read_observations(io.StringIO(shuffled), m, 5)
    assert observed.tolist() == [0.1, 0.3, 0.4]
    assert truth is None


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1,0.1\n3,0.3\n1,0.2\n", "duplicate"),
        ("1,0.1\n3,0.3\n5,0.5\n", "unknown"),
        ("1,0.1\n-1,0.3\n4,0.4\n", "unknown"),
        ("1,0.1\n3,inf\n4,0.4\n", "non-finite"),
        ("1,0.1\n3,0.3\n", "exactly the sampled nodes"),
        ("1,0.1\n2,0.2\n4,0.4\n", "exactly the sampled nodes"),
        ("", "exactly the sampled nodes"),
        ("1\n3,0.3\n4,0.4\n", "line 2: expected 2 fields, got 1"),
        ("1,0.1\n3,0.3,zzz\n4,0.4\n", "line 3: expected 2 fields, got 3"),
        ("1,0.1\n99999999999999999999,0.3\n4,0.4\n", "int64"),
    ],
)
def test_read_observations_rejects(rows, message):
    m = SamplingSet(nodes=np.array([1, 3, 4]), budget=3)
    with pytest.raises(ValueError, match=message):
        read_observations(io.StringIO("node_id,value\n" + rows), m, 5)


def test_partition_round_trip():
    part = Partition([0, 1, 1, 0, 2])
    buf = io.StringIO()
    write_partition(part, buf)
    buf.seek(0)
    back = read_partition(buf, 5)
    assert np.array_equal(back.labels, part.labels)


def test_read_partition_densifies_sparse_cluster_ids():
    text = "node_id,cluster_id\n0,10\n1,-3\n2,10\n"
    part = read_partition(io.StringIO(text), 3)
    assert part.labels.tolist() == [1, 0, 1]


def test_sampling_round_trip():
    m = SamplingSet(nodes=np.array([4, 1, 9]), budget=3)
    buf = io.StringIO()
    write_sampling(m, buf)
    buf.seek(0)
    back = read_sampling(buf, 10)
    assert back.nodes.tolist() == [1, 4, 9]
    assert back.budget == 3


def test_read_sampling_validation():
    with pytest.raises(ValueError, match="duplicate"):
        read_sampling(io.StringIO("node_id\n1\n1\n"), 5)
    with pytest.raises(ValueError, match="unknown"):
        read_sampling(io.StringIO("node_id\n7\n"), 5)
    with pytest.raises(ValueError, match="no nodes"):
        read_sampling(io.StringIO("node_id\n"), 5)


def test_writers_golden_bytes():
    # csv-module files end lines with CRLF and write floats in shortest
    # round-trip form; edge lists end lines with LF and list isolated
    # nodes as "i i" lines
    cases = [
        (
            write_signal,
            np.array([0.1, 1 / 3, -0.0, 2.0, 1e-300]),
            "node_id,value\r\n0,0.1\r\n1,0.3333333333333333\r\n2,-0.0\r\n"
            "3,2.0\r\n4,1e-300\r\n",
        ),
        (
            write_partition,
            Partition([0, 2, 1, 2]),
            "node_id,cluster_id\r\n0,0\r\n1,2\r\n2,1\r\n3,2\r\n",
        ),
        (
            write_sampling,
            SamplingSet(nodes=np.array([9, 1, 4]), budget=5),
            "node_id\r\n1\r\n4\r\n9\r\n",
        ),
        (
            write_edge_list,
            Graph(6, [(3, 1), (0, 1), (1, 3), (4, 0)]),
            "0 1\n0 4\n1 3\n2 2\n5 5\n",
        ),
    ]
    for write, obj, expected in cases:
        buf = io.StringIO(newline="")
        write(obj, buf)
        assert buf.getvalue() == expected


NODE_TABLE_READERS = {
    "signal_rows": read_signal_rows,
    "signal": lambda fh: read_signal(fh, 5),
    "partition": lambda fh: read_partition(fh, 4),
    "sampling": lambda fh: read_sampling(fh, 5),
}
SIGNAL = "node_id,value\n"
PARTITION = "node_id,cluster_id\n"


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("signal_rows", SIGNAL + "0\n2,1.0\n", "line 2: expected 2 fields, got 1"),
        ("signal_rows", SIGNAL + "0,1.0\n2,1.0,zzz\n", "line 3: expected 2 fields, got 3"),
        ("signal", SIGNAL + "0\n2,1.0\n", "line 2: expected 2 fields, got 1"),
        ("signal", SIGNAL + "2,1.0,zzz\n", "line 2: expected 2 fields, got 3"),
        ("signal", SIGNAL + "9223372036854775808,1.0\n", "int64"),
        ("partition", PARTITION + "0,1\n1,2\n2,3\n3,99999999999999999999\n", "int64"),
        ("partition", PARTITION + "0,1\n1,2\n2,3\n3,-9223372036854775809\n", "int64"),
        ("partition", PARTITION + "0,1\n1\n2,3\n3,3\n", "line 3: expected 2 fields, got 1"),
        ("partition", PARTITION + "0,1\n1,2,\n", "line 3: expected 2 fields, got 3"),
        ("sampling", "node_id\n0\n99999999999999999999\n", "int64"),
        ("sampling", "node_id\n0\n2,1\n", "line 3: expected 1 fields, got 2"),
        ("sampling", "node_id\n1_0\n", "non-integer field '1_0'"),
        ("sampling", "node_id\n \uff13\n", "non-integer field"),
        ("signal", SIGNAL + "0x1,1.0\n", "non-integer field '0x1'"),
        ("partition", PARTITION + "0,1\n1,1_0\n2,3\n3,3\n", "non-integer field"),
        ("signal", SIGNAL + "0,1_0\n1,3.5\n", "non-float field '1_0'"),
        ("signal", SIGNAL + "0,1.0\n1,\uff13.5\n", "non-float field"),
        ("signal_rows", SIGNAL + "0,0x1p3\n", "non-float field '0x1p3'"),
        ("signal_rows", SIGNAL + "0,1e\n", "non-float field '1e'"),
        ("signal_rows", SIGNAL + "0,\n", "non-float field ''"),
    ],
)
def test_node_table_readers_reject_malformed_rows(reader, text, message):
    with pytest.raises(ValueError, match=message):
        NODE_TABLE_READERS[reader](io.StringIO(text))


def test_node_table_readers_accept_blank_lines_crlf_and_int64_extremes():
    text = "node_id,value\r\n1,0.5\r\n\r\n0,-1.5\r\n"
    assert read_signal(io.StringIO(text, newline=""), 2).tolist() == [-1.5, 0.5]
    part = read_partition(io.StringIO(PARTITION + "1,-9223372036854775808\n0,7\n"), 2)
    assert part.labels.tolist() == [1, 0]
    ids, _ = read_signal_rows(
        io.StringIO(SIGNAL + "9223372036854775807,1\n-9223372036854775808,2\n")
    )
    assert ids.tolist() == [2**63 - 1, -(2**63)]


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_float_fields_read_back_every_repr_exactly(values):
    text = SIGNAL + "".join(f"{i},{v!r}\n" for i, v in enumerate(values))
    _, back = read_signal_rows(io.StringIO(text))
    assert back.tobytes() == np.array(values).tobytes()


def test_float_fields_accept_plain_spellings():
    text = SIGNAL + "0,1.\n1,.5\n2,+3\n3,1E5\n4, 2.5 \n5,-Infinity\n6,NaN\n"
    _, back = read_signal_rows(io.StringIO(text))
    assert back[:6].tolist() == [1.0, 0.5, 3.0, 1e5, 2.5, -np.inf]
    assert np.isnan(back[6])


# ----------------------------------------------------------- subgraph extract

def test_extract_subgraph_k3_is_whole_graph():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    sub, kept = extract_subgraph(g, 3, RngSeed(0))
    assert sub == g
    assert kept.tolist() == [0, 1, 2]


def test_extract_subgraph_star_is_whole_graph():
    # any visited node drags in the center, whose neighbors are everyone
    g = Graph(6, [(0, i) for i in range(1, 6)])
    for seed in range(5):
        sub, _ = extract_subgraph(g, 2, RngSeed(seed))
        assert sub == g


def test_extract_subgraph_keeps_only_walk_component():
    g = Graph(4, [(0, 1), (2, 3)])
    sub, kept = extract_subgraph(g, 1, RngSeed(1))
    assert sub.node_count == 2
    assert sub.edge_count == 1
    assert kept.tolist() in ([0, 1], [2, 3])


def test_extract_subgraph_is_induced():
    gen = RngSeed(42).generator()
    n = 30
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = gen.random(len(pairs)) < 0.1
    g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
    sub, kept = extract_subgraph(g, 4, gen)
    g_edges = {(int(t), int(h)) for t, h in g.edges}
    kept_set = set(kept.tolist())
    # every edge of g between kept nodes appears, mapped; nothing else does
    expected = {
        (int(a), int(b))
        for a, b in (
            sorted((np.searchsorted(kept, t), np.searchsorted(kept, h)))
            for t, h in g_edges
            if t in kept_set and h in kept_set
        )
    }
    got = {(int(t), int(h)) for t, h in sub.edges}
    assert got == expected
