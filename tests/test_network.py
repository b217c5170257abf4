import io
import re
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcontrol import (DirectedNetwork, EdgeListParseError, analyze,
                        load_edge_list, network, write_edge_list)
from netcontrol.reports import analysis_record


def test_load_assigns_ids_in_first_appearance_order(dilation_net):
    assert dilation_net.labels == ("c", "a", "b")
    assert dilation_net.n == 3
    assert dilation_net.edge_count == 2
    assert dilation_net.has_edge(0, 1) and dilation_net.has_edge(0, 2)


def test_load_accepts_file_objects():
    net = load_edge_list(io.StringIO("x y\n"))
    assert net.labels == ("x", "y")


def test_load_collapses_duplicates_with_warning():
    with pytest.warns(UserWarning, match="1 duplicate"):
        net = load_edge_list("1 2\n1 2\n2 3\n")
    assert net.n == 3
    assert net.edge_count == 2
    assert net.duplicates_collapsed == 1


def test_load_rejects_empty_input():
    with pytest.raises(EdgeListParseError):
        load_edge_list("")
    with pytest.raises(EdgeListParseError):
        load_edge_list("   \n  ")


def test_load_rejects_malformed_line_with_line_number():
    with pytest.raises(EdgeListParseError, match="line 2"):
        load_edge_list("a b\na b c\n")


def test_comments_are_ignored():
    net = load_edge_list("# header\na b\n# trailing\n")
    assert net.edge_count == 1


def test_nodes_directive_preserves_isolated_nodes():
    net = load_edge_list("# nodes: 4\n0 1\n")
    assert net.n == 4
    assert net.labels == ("0", "1", "2", "3")
    assert net.in_degree(3) == 0 and net.out_degree(3) == 0


def test_nodes_directive_single_isolated_node():
    net = load_edge_list("# nodes: 1\n")
    assert net.n == 1 and net.edge_count == 0


def test_nodes_directive_rejects_foreign_labels():
    with pytest.raises(EdgeListParseError, match="declared node range"):
        load_edge_list("# nodes: 2\n0 5\n")


def test_nodes_directive_must_come_first():
    with pytest.raises(EdgeListParseError, match="precede"):
        load_edge_list("0 1\n# nodes: 4\n")


def test_write_edge_list_dilation(dilation_net):
    assert write_edge_list(dilation_net) == "c\ta\nc\tb\n"


def test_write_sorts_by_ids():
    net = load_edge_list("b c\na b\na c\n")
    # ids: b=0, c=1, a=2
    assert write_edge_list(net) == "b\tc\na\tb\na\tc\n"


_LABELS = st.one_of(
    st.text(max_size=4), st.integers(0, 10 ** 7).map(str),
    st.sampled_from(["", "a", "ü", "日本", "\U0001f600", "\ud800", "\x00",
                     "\n", "\t", "#", "a b", "\ufeffx", "\x7f\x80"]))


@st.composite
def _labelled_networks(draw):
    labels = draw(st.lists(_LABELS, min_size=1, max_size=12, unique=True))
    ends = st.integers(0, len(labels) - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=40))
    return DirectedNetwork(len(labels), pairs, labels)


@settings(max_examples=300, deadline=None)
@given(_labelled_networks())
def test_write_equals_the_per_edge_join(net):
    labels = net.labels
    text = write_edge_list(net)
    assert text == "".join(f"{labels[u]}\t{labels[v]}\n" for u, v in net.edges)
    if net.edge_count and all(lab.split() == [lab] and lab[0] not in "#\ufeff"
                              for lab in labels):
        back = load_edge_list(text)
        assert ({(back.labels[u], back.labels[v]) for u, v in back.edges}
                == {(labels[u], labels[v]) for u, v in net.edges})


@pytest.mark.parametrize("text", ["c a\nc b\n", "1 2\n2 3\n3 4\n",
                                  "1 3\n2 3\n", "c1 u\nc1 b\nc1 a\nw a\n",
                                  "1 2\n2 1\n"])
def test_round_trip(text):
    net = load_edge_list(text)
    assert load_edge_list(write_edge_list(net)) == net


def test_self_loop_stored_and_flagged():
    net = load_edge_list("a a\na b\n")
    assert net.edge_count == 2
    assert net.self_loop_count() == 1
    assert analysis_record(analyze(net))["self_loops"] == 1


def test_with_edges_returns_new_network(dilation_net):
    bigger = dilation_net.with_edges([(1, 2)])
    assert bigger.edge_count == 3
    assert dilation_net.edge_count == 2
    with pytest.raises(ValueError):
        dilation_net.with_edges([(0, 1)])


def test_report_avg_degree_zero_edges():
    net = DirectedNetwork(4, [])
    assert analyze(net).report.avg_degree == 0.0


def test_analyze_rejects_empty_network():
    with pytest.raises(ValueError):
        analyze(DirectedNetwork(0, []))


# Published (N, L, average-degree) triples; the ratio convention must
# reproduce the third column to two decimals for every row.
DEGREE_TABLE = [
    (54, 356, 13.19), (135, 601, 8.90), (97, 1492, 30.76), (128, 2106, 32.91),
    (154, 370, 4.81), (183, 2494, 27.26), (306, 2345, 15.33), (423, 578, 2.73),
    (4441, 12873, 5.80), (688, 1079, 3.14), (67, 182, 5.43),
    (82168, 948464, 23.09), (7115, 103689, 29.15), (122, 189, 3.10),
    (252, 399, 3.17), (512, 819, 3.20), (27770, 352807, 25.41),
    (3084, 10416, 6.75), (4470, 12731, 5.70), (1224, 16718, 27.32),
    (325729, 1497134, 9.19), (685230, 7600595, 22.18), (875713, 5105039, 11.66),
    (281903, 2312497, 16.41), (10876, 39994, 7.35), (8846, 31839, 7.20),
    (8717, 31525, 7.23), (46, 879, 38.22), (1899, 20296, 21.38),
    (262111, 1234877, 9.42), (400727, 3200440, 15.97), (410236, 3356824, 16.37),
    (403394, 3387388, 16.79), (81306, 1768149, 43.49), (347, 5038, 29.04),
    (1912, 53498, 55.96), (572, 6384, 22.32),
]


def dense_dummy_network(n, l):
    """Any simple digraph with exactly n nodes and l edges."""
    edges = []
    step = 1
    while len(edges) < l:
        for u in range(n):
            edges.append((u, (u + step) % n))
            if len(edges) == l:
                break
        step += 1
        assert step < n, "too many edges requested"
    return DirectedNetwork(n, edges)


@pytest.mark.parametrize("n,l,expected", DEGREE_TABLE)
def test_avg_degree_matches_published_two_decimals(n, l, expected):
    from decimal import Decimal, ROUND_HALF_UP
    if n <= 1000:  # route small rows through the real constructor
        value = analyze(dense_dummy_network(n, l)).report.avg_degree
    else:
        value = 2 * l / n
    rounded = float(Decimal(repr(value)).quantize(Decimal("0.01"),
                                                  rounding=ROUND_HALF_UP))
    assert rounded == pytest.approx(expected)


def test_constructor_counts_duplicates():
    net = DirectedNetwork(3, [(0, 1), (0, 1), (1, 2), (0, 1)])
    assert net.edges == ((0, 1), (1, 2))
    assert net.duplicates_collapsed == 2


def test_edges_derive_from_adjacency():
    net = DirectedNetwork(4, [(2, 0), (0, 3), (2, 2), (0, 1), (3, 0)])
    assert net.edges == ((0, 1), (0, 3), (2, 0), (2, 2), (3, 0))
    assert [net.successors(u).tolist() for u in range(4)] == \
        [[1, 3], [], [0, 2], [0]]
    assert [net.predecessors(v).tolist() for v in range(4)] == \
        [[2, 3], [0], [2], [0]]
    assert all(net.has_edge(u, v) for u, v in net.edges)
    assert not any(net.has_edge(u, v) for u, v in [(1, 0), (0, 2), (3, 3),
                                                    (-1, 0), (4, 0), (0, 4)])
    assert net == DirectedNetwork(4, reversed(net.edges))
    assert not {"edges", "_edge_set"} & set(DirectedNetwork.__slots__)


def test_load_drops_byte_order_mark():
    plain = load_edge_list("1 2\n2 1\n")
    assert plain.n == 2
    assert load_edge_list("\ufeff1 2\r\n2 1\r\n") == plain
    assert load_edge_list(io.StringIO("\ufeff1 2\r\n2 1\r\n")) == plain
    net = load_edge_list("\ufeff# nodes: 3\r\n0 1\r\n")
    assert net.n == 3 and net.labels == ("0", "1", "2")


def test_nodes_directive_above_limit_fails_before_interning():
    import tracemalloc

    from netcontrol.network import MAX_DECLARED_NODES
    assert MAX_DECLARED_NODES == 10 ** 7
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListParseError, match="line 1.*limit"):
            load_edge_list(f"# nodes: {MAX_DECLARED_NODES + 1}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_nodes_directive_with_long_or_padded_counts():
    with pytest.raises(EdgeListParseError, match="line 1.*limit"):
        load_edge_list("# nodes: " + "9" * 5000 + "\n")
    assert load_edge_list("# nodes: 0003\n0 1\n").n == 3


@pytest.mark.parametrize("text, message, line", [
    ("", "empty input", None),
    ("\n  \n\t\n", "empty input", None),
    ("\ufeff", "empty input", None),
    ("\ufeffa\n", "expected two node labels, got 1", 1),
    ("# hello\n", "no nodes found in input", None),
    ("# nodes: 0\n", "no nodes found in input", None),
    ("a b\nc\n", "expected two node labels, got 1", 2),
    ("a b\nc d e\n", "expected two node labels, got 3", 2),
    ("a\tb\tc\n", "expected two node labels, got 3", 1),
    ("a b\r\nc d e\r\n", "expected two node labels, got 3", 2),
    ("\ufeffa b\r\nc d\r\ne f g\r\n", "expected two node labels, got 3", 3),
    ("a b\n# nodes: 3\n", "'# nodes:' directive must precede edges", 2),
    ("# nodes: 2\n# nodes: 3\n", "'# nodes:' directive must precede edges", 2),
    ("# nodes: 3\n0 1\n1 3\n",
     "label '3' outside declared node range 0..2", 3),
    ("# nodes: 3\n0 x\n", "label 'x' outside declared node range 0..2", 2),
    ("# nodes: 3\n0 01\n", "label '01' outside declared node range 0..2", 2),
    ("# nodes: 12\n0 01\n",
     "label '01' outside declared node range 0..11", 2),
    ("# nodes: 12\n0 \u0661\n",
     "label '\u0661' outside declared node range 0..11", 2),
    ("# nodes: 10000001\n",
     "declared 10000001 nodes, more than the limit of 10000000", 1),
], ids=["empty", "blank", "bom-only", "bom-one-token", "comment-only",
        "zero-nodes", "one-token", "three-tokens", "tabs", "crlf",
        "bom-crlf", "misplaced-directive", "second-directive",
        "out-of-range", "foreign-label", "padded-label",
        "padded-label-in-range", "non-ascii-digit", "over-limit"])
def test_parse_errors_keep_message_and_line(text, message, line):
    for source in (text, io.StringIO(text)):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(source)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None
                                  else f"line {line}: {message}")


def _big_edge_list(lines: int) -> list[str]:
    """Edge lines spanning several parse batches (about 13 chars each)."""
    return [f"{i % 997} {(i * 7) % 1009}x\n" for i in range(lines)]


def test_errors_past_the_first_batch_report_their_line():
    body = _big_edge_list(200_000)  # about 2.6 MB, three batches
    bad = body.copy()
    bad[150_000] = "1 2 3\n"
    with pytest.raises(EdgeListParseError, match="^line 150001: expected two"):
        load_edge_list("".join(bad))
    numbered = ["# nodes: 1000\n"] + [f"{i % 1000} {(i + 1) % 1000}\n"
                                      for i in range(200_000)]
    numbered[170_001] = "5 1000\n"
    with pytest.raises(EdgeListParseError,
                       match="^line 170002: label '1000' outside"):
        load_edge_list(io.StringIO("".join(numbered)))


def test_batched_parse_equals_line_by_line_reference():
    body = _big_edge_list(150_000)
    body[3] = "# a comment\n"
    body[90_000] = "   \n"
    body[120_000] = "# another comment, late in a batch\n"
    text = "\ufeff" + "".join(body)
    labels: dict[str, int] = {}
    pairs = []
    for line in text.removeprefix("\ufeff").splitlines():
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            pairs.append(tuple(labels.setdefault(t, len(labels))
                               for t in tokens))
    net = load_edge_list(io.StringIO(text))
    assert net.labels == tuple(labels)
    assert net == DirectedNetwork(len(labels), pairs, tuple(labels))
    assert net.duplicates_collapsed == 0


def test_constructor_takes_pairs_or_arrays():
    import numpy as np
    pairs = [(3, 1), (0, 2), (3, 1), (1, 1)]
    from_list = DirectedNetwork(4, pairs)
    from_array = DirectedNetwork(4, np.array(pairs, dtype=np.int32))
    assert from_list == from_array == DirectedNetwork(4, iter(pairs))
    assert from_array.edges == ((0, 2), (1, 1), (3, 1))
    assert from_array.duplicates_collapsed == 1
    assert from_array.self_loop_count() == 1
    assert from_array.out_idx.dtype == from_array.in_idx.dtype == np.int32
    with pytest.raises(ValueError, match=r"edge \(4, 0\) out of range"):
        DirectedNetwork(4, np.array([[0, 1], [4, 0]]))


def test_label_index_is_built_on_first_lookup():
    net = load_edge_list("b c\na b\n")
    assert net._label_to_id is None
    assert [net.id_of(lab) for lab in ("b", "c", "a")] == [0, 1, 2]
    with pytest.raises(KeyError):
        net.id_of("d")
    with pytest.raises(ValueError, match="duplicate labels"):
        DirectedNetwork(2, [(0, 1)], ("x", "x"))


@pytest.mark.parametrize("text", [
    "01 2\n", "00 1\n", "+1 2\n", "-1 2\n", "\u0661 2\n", "\uff11 2\n",
    "1" * 19 + " 2\n", "1" * 20 + " 2\n", "1\x0b2\n", "1\x0c2\n",
    "1\x1c2\n", "\ufeff1 2\n", "1 2 3\n", "1\n", "1 2\n3\n", "1 2\r3 4\n",
    "1 2\n3 4 5", "a b\n", "1,2\n",
])
def test_integer_tokenizer_hands_back_what_it_cannot_decide(text):
    assert network._integers(text) is None


def test_integer_tokenizer_reads_blanks_and_bounds():
    text = "\n 1\t20\r\n\n" + "9" * 18 + " 0\n" + " 3 4"
    assert network._integers(text).tolist() == [1, 20, 10 ** 18 - 1,
                                                0, 3, 4]
    assert network._integers("0 4\n", 5).tolist() == [0, 4]
    assert network._integers("0 5\n", 5) is None
    assert network._integers(" \r\n\t", 5).tolist() == []


def _reference_parse(text: str):
    """Naive line-by-line parser: ``(labels, pairs)`` or ``(message, line)``.

    Lines end at "\n" only, as the loader cuts the text it reads (a file
    opened in text mode has turned "\r\n" and "\r" into "\n" before); with
    ``# nodes: N`` the labels must be among ``str(0) .. str(N - 1)``.
    """
    labels: dict[str, int] = {}
    declared = None
    pairs = []
    blank = True
    for lineno, raw in enumerate(text.removeprefix("\ufeff").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        blank = False
        if line.startswith("#"):
            m = re.match(r"^#\s*nodes:\s*0*(\d+)\s*$", line)
            if m:
                if labels:
                    return "'# nodes:' directive must precede edges", lineno
                declared = int(m.group(1))
                labels = {str(i): i for i in range(declared)}
            continue
        tokens = line.split()
        if len(tokens) != 2:
            return f"expected two node labels, got {len(tokens)}", lineno
        if declared is not None:
            for tok in tokens:
                if tok not in labels:
                    return (f"label {tok!r} outside declared node range "
                            f"0..{declared - 1}", lineno)
        pairs.append(tuple(labels.setdefault(t, len(labels)) for t in tokens))
    if blank:
        return "empty input", None
    if not labels:
        return "no nodes found in input", None
    return tuple(labels), pairs


_SMALL = [str(i) for i in range(12)]
_ODD = ["01", "007", "+1", "-1", "\u0661", "\uff11", "1" * 18, "1" * 19,
        "1" * 20, "9" * 18, "123456789012345678", "x", "v3", "#"]
_SEPARATORS = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\r"]


@st.composite
def _line(draw, tokens, separators, counts, endings):
    count = draw(st.sampled_from(counts))
    words = draw(st.lists(tokens, min_size=count, max_size=count))
    seps = draw(st.lists(separators, min_size=count + 1, max_size=count + 1))
    body = seps[0] + "".join(t + s for t, s in zip(words, seps[1:]))
    return body + draw(endings)


_PAIR_LINE = _line(st.sampled_from(_SMALL), st.sampled_from([" ", "\t", "  "]),
                   [2], st.sampled_from(["\n", "\n", "\r\n"]))
_WORD_LINE = _line(st.sampled_from(["a", "b"] + _SMALL[:3]),
                   st.sampled_from([" ", "\t"]), [2], st.just("\n"))
_ODD_LINE = st.one_of(
    _line(st.sampled_from(_SMALL + _ODD), st.sampled_from(_SEPARATORS),
          [0, 1, 2, 2, 3], st.sampled_from(["\n", "\r\n", "\r", ""])),
    st.sampled_from(["\n", "# note\n", "# nodes: 3\n", "\ufeff0 1\n"]))


@st.composite
def _edge_lists(draw):
    """Mostly pairs of small integers, with a few odd lines among them."""
    head = draw(st.sampled_from(["", "", "\ufeff", "# c\n"]))
    if draw(st.booleans()):
        head += f"# nodes: {draw(st.sampled_from([0, 11, 12, 14, 14]))}\n"
    lines = draw(st.lists(_PAIR_LINE, max_size=30))
    if lines and draw(st.booleans()):  # a few word lines, then lines again
        lines += draw(st.lists(_WORD_LINE, max_size=3))
        lines += lines[draw(st.integers(0, len(lines) - 1)):]
    for line in draw(st.lists(_ODD_LINE, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    tail = draw(st.sampled_from(["", "", "# end", "1 #"]))  # no final "\n"
    return head + "".join(lines) + tail


@settings(max_examples=400, deadline=None)
@given(_edge_lists(), st.integers(1, 40))
def test_batched_parse_equals_naive_reference(text, chunk):
    expected = _reference_parse(text)
    with mock.patch.object(network, "_CHUNK_CHARS", chunk), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            net = load_edge_list(io.StringIO(text))
        except EdgeListParseError as exc:
            message = str(exc).removeprefix(f"line {exc.line}: ")
            assert (message, exc.line) == expected
            return
    labels, pairs = expected
    assert net.labels == labels
    assert net == DirectedNetwork(len(labels), pairs, labels)
    assert net.duplicates_collapsed == len(pairs) - len(set(pairs))


def _outcome(load):
    """What ``load()`` gives: the labels and edges, or the error and line."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        try:
            net = load()
        except EdgeListParseError as exc:
            return str(exc), exc.line
    return net.labels, net.edges


@pytest.mark.parametrize("text", [
    "\ufeffα β\r\nβ €\r€ \U0001d521\r\n# note\r"
    "\U0001d521 α\n\r\nβ \U0001d521",
    "\ufeff# nodes: 6\r\n0 1\r1 2\r\n2 3\n\r3 4\r\n5 0",
    "\ufeff10 20\r\n20 30\r30 10\r\n\r",
    "α β\r\n€\r\nβ € \U0001d521\r\n",
    "1 2\r3 4\r\n5\r\n",
    "# nodes: 3\r0 1\r\n1 3\r",
], ids=["utf8-labels", "declared", "integers", "utf8-error", "int-error",
        "range-error"])
def test_file_loads_like_its_text_with_newline_endings(tmp_path, text):
    from netcontrol import cli
    path = tmp_path / "net.txt"
    path.write_bytes(text.encode("utf-8"))
    unix = text.replace("\r\n", "\n").replace("\r", "\n")
    expected = _outcome(lambda: load_edge_list(io.StringIO(unix)))

    def decoding(size):  # the file's decoder reads ``size`` bytes at a time
        def opener(*args, **kwargs):
            fh = open(*args, **kwargs)
            fh._CHUNK_SIZE = size
            return fh
        return opener

    # Reads of a few characters or bytes cut "\r\n" pairs and multi-byte
    # characters at every place.
    for chars in (1, 2, 3, 4, 5, 7, 11, 1 << 20):
        for size in (1, 2, 3, 8192):
            with mock.patch.object(network, "_CHUNK_CHARS", chars), \
                    mock.patch.object(cli, "open", decoding(size),
                                      create=True):
                assert _outcome(lambda: cli._load(str(path))) == expected


def test_lines_end_at_newline_only(tmp_path):
    # A handle opened with newline="" keeps a lone "\r", which is then a
    # blank inside a line, as in string input.
    text = "1 2\r3 4\r"
    path = tmp_path / "net.txt"
    path.write_bytes(text.encode("ascii"))
    expected = ("line 1: expected two node labels, got 4", 1)
    assert _outcome(lambda: load_edge_list(text)) == expected
    with open(path, encoding="utf-8", newline="") as fh:
        assert _outcome(lambda: load_edge_list(fh)) == expected
    with open(path, encoding="utf-8") as fh:  # newline=None translates
        assert load_edge_list(fh).edge_count == 2


def test_id_labels_are_built_on_first_read():
    from netcontrol.generators import GenSpec, generate
    declared = load_edge_list("# nodes: 5\n0 1\n3 2\n")
    generated = generate(GenSpec(model="er", n=30, avg_degree=3, seed=1))
    for net in (declared, generated):
        assert net._labels is None
        ids = tuple(map(str, range(net.n)))
        explicit = DirectedNetwork(net.n, net.edges, ids)
        grown = net.with_edges([(4, 0)])
        assert grown._labels is None and grown.has_edge(4, 0)
        assert net.id_of("4") == 4 and net._labels == ids
        assert net == explicit and hash(net) == hash(explicit)
        assert net.labels == ids and net.id_of("0") == 0
        again = net.with_edges([(4, 0)])
        assert again._labels == ids and again == grown
        assert hash(again) == hash(grown)
