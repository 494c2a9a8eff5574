import io
import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rwtv.fileio
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

from reference_edge_list import reference_parse


def parse(text, **kwargs):
    return parse_edge_list(io.StringIO(text), **kwargs)


# -------------------------------------------------------------------- parsing

def test_parse_symmetrizes_and_dedups():
    g, ext = parse("0 1\n1 0\n")
    assert g.edge_count == 1
    assert g.edges.tolist() == [[0, 1]]
    assert ext.tolist() == [0, 1]


def test_parse_ignores_comments_and_blank_lines():
    g, _ = parse("# a comment\n\n0 1\n")
    assert g.edge_count == 1


def test_parse_remaps_external_ids_densely():
    g, ext = parse("5 900\n900 7\n")
    assert ext.tolist() == [5, 7, 900]
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
    g, ext = parse(f"{2**63 - 1} +3\n-0 3\n")
    assert ext.tolist() == [0, 3, 2**63 - 1]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_parse_tabs_and_crlf():
    expected, _ = parse("# c\n5 7\n7 9\n")
    for text in ("# c\r\n5\t7\r\n7 9\r\n", "# c\n5\t7\n\t7\t9\t\n"):
        g, ext = parse(text)
        assert g == expected
        assert ext.tolist() == [5, 7, 9]


@pytest.mark.parametrize("text", ["0 1\n \r \n", "\r# c\n0 1\n", "0 1\r1 2\n"])
def test_parse_lone_cr_as_text_mode_reads_it(tmp_path, text):
    # a lone CR ends a line in text mode; untranslated text parses the same
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    with open(path) as fh:
        expected, expected_ext = parse_edge_list(fh)
    g, ext = parse(text)
    assert g == expected
    assert ext.tolist() == expected_ext.tolist()


def test_parse_empty_file_rejected():
    with pytest.raises(ValueError, match="empty"):
        parse("")
    with pytest.raises(ValueError, match="empty"):
        parse("# only a comment\n")


@pytest.mark.parametrize(
    "text", ["# only\n# comments\n", "  # indented\n#\r\n", "\n \t\n\r\n", "\t"]
)
def test_parse_comment_or_blank_only_file_is_empty_without_warnings(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^empty edge list: no usable nodes$"):
            parse(text)


def test_parse_data_after_many_comment_lines():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, ext = parse("# header\n" * 150 + "\n  # indented\n9 8\n8 7\n")
    assert ext.tolist() == [7, 8, 9]
    assert g.edges.tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize(
    "line, message",
    [
        ("1 2 # why", "expected two node ids, got '1 2 # why'"),
        ("1 # 2", "expected two node ids, got '1 # 2'"),
        ("1 2#", "non-integer node id in '1 2#'"),
    ],
)
def test_parse_hash_after_text_is_an_error(line, message):
    # "#" opens a comment only as the first non-blank character of a line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            parse(f"# ok\n  # ok # too\n{line}\n0 1\n")
    assert str(info.value) == f"line 3: {message}"


BLANKS = st.text(st.sampled_from(" \t"), max_size=2)
NODE_IDS = st.one_of(
    # a small pool, so self-loops, duplicates and reversed duplicates occur
    st.integers(0, 6).map(str),
    st.sampled_from(["+3", "-0", "+0", "007", str(2**63 - 1)]),
    st.integers(0, 2**63 - 1).map(str),
)
PAIR_LINES = st.tuples(
    BLANKS, NODE_IDS, st.sampled_from([" ", "\t", " \t "]), NODE_IDS, BLANKS
).map("".join)
COMMENT_LINES = st.tuples(
    BLANKS, st.text(st.sampled_from("ab #\t0"), max_size=4)
).map(lambda t: f"{t[0]}#{t[1]}")
BAD_LINES = st.one_of(
    NODE_IDS,
    st.tuples(PAIR_LINES, st.sampled_from([" 5", " # c", "#"])).map("".join),
    st.tuples(
        NODE_IDS,
        st.sampled_from(
            [
                " -5", " 1.0", " x", " 1_0", f" {2**63}", " 1" + "0" * 30,
                " \uff13", " 2\u0968", " \u01fe",
            ]
        ),
    ).map("".join),
)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.one_of(PAIR_LINES, COMMENT_LINES, BLANKS), max_size=10))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(BAD_LINES))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@given(edge_list_texts(), st.booleans())
def test_parse_matches_line_by_line_reference(text, drop_isolated):
    try:
        node_count, edges, id_map = reference_parse(text, drop_isolated)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse(text, drop_isolated=drop_isolated)
        assert str(info.value) == str(exc)
        return
    g, ext = parse(text, drop_isolated=drop_isolated)
    assert g.node_count == node_count
    assert g.edges.tolist() == edges
    assert ext.dtype == np.int64
    assert np.all(ext[1:] > ext[:-1])
    assert ext.tolist() == list(id_map)


def test_parse_peak_memory_stays_a_small_multiple_of_the_text(tmp_path):
    # 10**5 lines of seven- and eight-digit ids, self-loops and reversed
    # duplicates among them; the ids are parsed and made dense in place
    gen = np.random.default_rng(3)
    ids = 1_000_003 + 37 * gen.integers(20_000, size=(10**5, 2))
    ids[::200, 1] = ids[::200, 0]
    ids[1::50] = ids[::50, ::-1][: ids[1::50].shape[0]]
    text = "".join([f"{a} {b}\n" for a, b in ids.tolist()])
    path = tmp_path / "g.txt"
    path.write_text(text)
    tracemalloc.start()
    try:
        with open(path) as fh:
            g, ext = parse_edge_list(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.node_count == ext.size > 15_000
    assert peak < 6 * len(text)


# plain ids: 1 to 18 digits, leading zeros included
PLAIN_IDS = st.one_of(
    st.integers(0, 6), st.integers(0, 10**18 - 1)
).flatmap(lambda i: st.integers(len(str(i)), 18).map(lambda w: str(i).zfill(w)))


@st.composite
def plain_texts(draw):
    pairs = draw(st.lists(st.tuples(PLAIN_IDS, PLAIN_IDS), min_size=1, max_size=12))
    # self-loops and reversed duplicates
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3)):
        pairs.append(pairs[i][::-1])
    for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=2)):
        pairs.append((pairs[i][0], pairs[i][0]))
    pairs = draw(st.permutations(pairs))
    blanks = draw(st.lists(st.sampled_from(" \t"), min_size=len(pairs)))
    comments = draw(st.lists(st.text(st.sampled_from("ab #\t01"), max_size=6)))
    text = "".join(f"#{c}\n" for c in comments)
    text += "".join(f"{a}{b}{h}\n" for (a, h), b in zip(pairs, blanks))
    return text[:-1] if draw(st.booleans()) else text


def loadtxt_pairs(text):
    return np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)


@given(plain_texts())
def test_plain_path_reads_what_loadtxt_reads(text):
    pairs = rwtv.fileio._read_plain_pairs(text)
    assert pairs is not None
    expected = loadtxt_pairs(text)
    assert pairs.dtype == np.int64 and pairs.shape == expected.shape
    assert np.array_equal(pairs, expected)


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """The names of the tokenizers ``np.fromstring`` and ``np.loadtxt``
    that each parse calls, in order."""
    calls = []
    for name in ("fromstring", "loadtxt"):
        def spy(*args, _name=name, _real=getattr(np, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, name, spy)
    return calls


def reference_outcome(text):
    try:
        node_count, edges, id_map = reference_parse(text)
    except ValueError as exc:
        return str(exc)
    return node_count, edges, list(id_map)


def parse_outcome(text):
    try:
        g, ext = parse(text)
    except ValueError as exc:
        return str(exc)
    return g.node_count, g.edges.tolist(), ext.tolist()


def test_a_plain_text_takes_the_fromstring_path(tokenizer_calls):
    text = "# header\n# more\n5 900\n900\t7\n7 7\n123456789012345678 5"
    assert parse_outcome(text) == reference_outcome(text)
    assert tokenizer_calls == ["fromstring"]


@pytest.mark.parametrize(
    "text",
    [
        "0 1\n1  2\n",  # two blanks
        "0 1\n1 2 \n",  # a trailing blank
        "0 1\n\n1 2\n",  # a blank line
        "0 1\n# c\n1 2\n",  # a comment after data
        "0 1\n+3 2\n",
        f"0 1\n{10**18} 2\n",  # a 19-digit id
        f"0 1\n{'0' * 19} 2\n",
        "0 1\n\uff13 2\n",  # a non-ASCII digit
        "0 1\n2 #\n",  # a lone "#" after an id
        "0 1\n1 2\n3\n",
        "0 1\n3",
        " 0 1\n",
        "0 1\n 2\n",
        "0 1\n2 \n",
        "0 1\n1e3 2\n",
        " 7\n0 1\n",
        "0 1\n1+2\n",
        "0 1\n1\x0c2\n",  # a form feed, which loadtxt reads as a blank
    ],
)
def test_other_texts_take_the_line_reader(tokenizer_calls, text):
    assert rwtv.fileio._read_plain_pairs(text) is None
    assert parse_outcome(text) == reference_outcome(text)
    assert "fromstring" not in tokenizer_calls
    assert "loadtxt" not in tokenizer_calls


# characters that np.loadtxt in numpy 2.4 reads as digits: a Devanagari
# digit, a Latin letter, a circled digit and a private-use character
@pytest.mark.parametrize("char", ["\u0968", "\u01fe", "\u2460", "\ue3e2"])
@pytest.mark.parametrize("line", ["1 2{}", "1 {}2", "1 {}"])
def test_non_ascii_characters_in_an_id_are_errors(line, char):
    text = f"0 1\n{line.format(char)}\n2 0\n"
    assert parse_outcome(text) == reference_outcome(text)
    assert parse_outcome(text).startswith("line 2: non-integer node id in")


def mixed_chunk_lines():
    """The lines of a text of more than three ``_CHUNK``s, plain but for one
    double-blank line in its second chunk, and the indices of a line in
    that odd chunk and of one in the plain chunk after it."""
    chunk = rwtv.fileio._CHUNK
    lines = [f"{i} {i * 7919 % 100003}" for i in range(4 * chunk // 10)]
    text = "\n".join(lines)
    assert len(text) > 3 * chunk
    odd = text.count("\n", 0, 3 * chunk // 2)
    lines[odd] = lines[odd].replace(" ", "  ")
    return lines, odd + 50, text.count("\n", 0, 5 * chunk // 2)


def test_plain_and_odd_chunks_read_as_the_line_reference(tokenizer_calls):
    lines, _, _ = mixed_chunk_lines()
    text = "\n".join(lines) + "\n"
    assert rwtv.fileio._read_plain_pairs(text) is None
    assert parse_outcome(text) == reference_outcome(text)
    # the plain chunks before and after the odd one
    assert tokenizer_calls.count("fromstring") >= 2
    assert "loadtxt" not in tokenizer_calls


@pytest.mark.parametrize("bad", ["1 2\u0968", "1 -2", "1", "1 2 3"])
@pytest.mark.parametrize("where", ["odd chunk", "later plain chunk"])
def test_a_bad_line_in_a_mixed_text_names_its_line(bad, where):
    lines, in_odd, in_plain = mixed_chunk_lines()
    index = in_odd if where == "odd chunk" else in_plain
    lines[index] = bad
    text = "\n".join(lines) + "\n"
    assert parse_outcome(text) == reference_outcome(text)
    assert parse_outcome(text).startswith(f"line {index + 1}: ")


def test_plain_texts_are_checked_in_every_chunk():
    # a text of several _CHUNK-byte chunks: plain, then with one bad line
    # in its last chunk
    lines = [f"{i} {i * 7919 % 100003}" for i in range(3 * rwtv.fileio._CHUNK // 10)]
    text = "# header\n" + "\n".join(lines) + "\n"
    assert len(text) > 2 * rwtv.fileio._CHUNK
    assert np.array_equal(rwtv.fileio._read_plain_pairs(text), loadtxt_pairs(text))
    for bad in ("1  2", "1 2 ", "", " 1", f"1 {10**18}", "1 +2", "1"):
        lines[-3] = bad
        text = "\n".join(lines) + "\n"
        assert rwtv.fileio._read_plain_pairs(text) is None
        assert parse_outcome(text) == reference_outcome(text)


def test_other_texts_read_and_fail_as_the_line_reference_says():
    assert parse_outcome("0 1\n1  2\n+3 2\n\n# c\n") == (4, [[0, 1], [1, 2], [2, 3]], [0, 1, 2, 3])
    assert parse_outcome(f"0 1\n{10**18} 2\n")[2] == [0, 1, 2, 10**18]
    assert parse_outcome("0 1\n\uff13 2\n") == "line 2: non-integer node id in '\uff13 2'"
    assert parse_outcome("0 1\n2 #\n") == "line 2: non-integer node id in '2 #'"


def parse_counting_argsorts(text):
    """The parse of ``text`` and whether it took the argsort fallback."""
    calls, real = [], np.argsort

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", spy)
        g, ext = parse(text)
    return g, ext, bool(calls)


@pytest.mark.parametrize(
    "span, fallback", [(2**20, False), (2**59 - 1, False), (2**59, True), (2**62, True)]
)
def test_ids_too_far_apart_to_pack_take_the_argsort_fallback(span, fallback):
    # 8 ids take 4 bits of position beside the id offset, so spans of up to
    # 59 bits pack into 63
    text = f"0 {span}\n{span} 3\n3 0\n1 2\n"
    g, ext, took = parse_counting_argsorts(text)
    assert took == fallback
    assert ext.tolist() == [0, 1, 2, 3, span]
    assert g.edges.tolist() == [[0, 3], [0, 4], [1, 2], [3, 4]]


@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=20),
    st.booleans(),
    st.sampled_from([1, 12345, 2**40, 2**61]),
)
def test_shifting_every_id_shifts_ext_and_keeps_the_graph(pairs, far, shift):
    # far ids span 2**62, so they take the argsort fallback
    pairs = [(a + far * 2**62 * (a > 30), b + far * 2**62 * (b > 30)) for a, b in pairs]
    g, ext, took = parse_counting_argsorts("".join(f"{a} {b}\n" for a, b in pairs))
    shifted, shifted_ext, shifted_took = parse_counting_argsorts(
        "".join(f"{a + shift} {b + shift}\n" for a, b in pairs)
    )
    assert took == shifted_took == (far and len({i > 30 for p in pairs for i in p}) == 2)
    assert shifted == g
    assert shifted_ext.tolist() == [i + shift for i in ext.tolist()]


def test_parse_drops_self_loops_with_warning(caplog):
    with caplog.at_level(logging.WARNING):
        g, ext = parse("0 1\n2 2\n")
    assert "self-loop" in caplog.text
    assert g.node_count == 3  # node 2 kept as isolated
    assert ext.tolist() == [0, 1, 2]
    assert g.degrees[2] == 0


def test_parse_drop_isolated_flag():
    g, ext = parse("0 1\n2 2\n", drop_isolated=True)
    assert g.node_count == 2
    assert ext.tolist() == [0, 1]


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
    m = SamplingSet(nodes=np.array([1, 3, 4]))
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
    m = SamplingSet(nodes=np.array([1, 3, 4]))
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
    m = SamplingSet(nodes=np.array([4, 1, 9]))
    buf = io.StringIO()
    write_sampling(m, buf)
    buf.seek(0)
    back = read_sampling(buf, 10)
    assert back.nodes.tolist() == [1, 4, 9]
    assert len(back) == 3


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
            SamplingSet(nodes=np.array([9, 1, 4])),
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
        ("sampling", "", "empty file: missing header"),
        ("partition", "cluster_id,node_id\n0,0\n", "expected header 'node_id,cluster_id'"),
    ],
)
def test_node_table_readers_reject_malformed_rows(reader, text, message):
    with pytest.raises(ValueError, match=message):
        NODE_TABLE_READERS[reader](io.StringIO(text))


@pytest.mark.parametrize(
    "reader, head, line",
    [
        ("signal", SIGNAL + "0,", 2),
        ("partition", PARTITION + "0,0\n1,", 3),
        ("sampling", "node_id\n", 2),
    ],
)
def test_node_table_readers_reject_a_field_over_the_csv_limit(reader, head, line):
    # csv's default field size limit is 131072 characters
    with pytest.raises(ValueError) as info:
        NODE_TABLE_READERS[reader](io.StringIO(head + "1" * 131073 + "\n"))
    assert str(info.value) == f"line {line}: field larger than field limit (131072)"


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
