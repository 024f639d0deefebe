"""The array-backed graph against its scalar oracles.

Parsing, construction, components and the antagonistic forest are checked
against the line-by-line parser, the per-edge constructor and union-find
kept in ``support``, on seeded numpy draws.
"""

import dataclasses
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from gqsbnet import (
    BadIndex,
    GqsbError,
    ParseError,
    SignedGraph,
    TooLarge,
    classify,
    connected_components,
    fileio,
    loads_network,
    positive_components,
    spanning_forest,
)
from support import (
    reference_components,
    reference_forest,
    reference_graph,
    reference_loads_network,
)


def _outcome(call, *args):
    """What a call gives: its value, or the class, text and line of what
    it raises."""
    try:
        return call(*args)
    except (GqsbError, ValueError, TypeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _parsed(text):
    g = loads_network(text, name="net.txt")
    return g.n, g.edges


def _random_pairs(rng, n, m):
    """m distinct unordered pairs of distinct nodes, in random order and
    random orientation."""
    pairs = set()
    while len(pairs) < m:
        i, j = (int(v) for v in rng.integers(0, n, 2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    out = sorted(pairs)
    rng.shuffle(out)
    return [(j, i) if rng.random() < 0.5 else (i, j) for i, j in out]


def _plain_int(rng, v):
    return rng.choice([str(v), f"+{v}", f"00{v}"]) if v >= 0 else str(v)


def _plain_weight(rng):
    """A nonzero real in one of the spellings both readers accept."""
    sign = rng.choice(["", "-"])
    kind = rng.integers(0, 6)
    if kind == 0:
        return repr(float(rng.uniform(-5, 5)) or 1.0)
    if kind == 1:
        return f"{sign}{rng.integers(1, 999) / 1000:.3f}"
    if kind == 2:
        return f"{sign}{rng.integers(1, 9)}e{rng.integers(-3, 4)}"
    if kind == 3:
        return f"{sign}.{rng.integers(1, 99)}"
    if kind == 4:
        return f"+{rng.integers(1, 9)}"
    return f"{sign}{rng.uniform(0.1, 9):.3e}"


def _odd_int(rng, v):
    """Spellings ``int()`` accepts and ``np.loadtxt`` does not."""
    if v >= 10:
        digits = str(v)
        return digits[0] + "_" + digits[1:]
    return "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"[v]


def _network_text(rng, n, m, odd=False):
    """A random edge-list file: comments, blank lines, tabs, reversed
    pairs, and (with ``odd``) spellings only the line reader accepts."""
    sep = lambda: rng.choice([" ", "  ", "\t", " \t "])  # noqa: E731
    lines = []
    for _ in range(rng.integers(0, 3)):
        lines.append(rng.choice(["# comment", "", "   ", "\t# indented"]))
    lines.append(f"{n}{sep()}{m}" + rng.choice(["", "  # header"]))
    for i, j in _random_pairs(rng, n, m):
        spell = _odd_int if odd and rng.random() < 0.2 else _plain_int
        w = _plain_weight(rng)
        if odd and rng.random() < 0.1:
            w = rng.choice(["1_0", "2_5.5", "-1_000"])
        line = f"{spell(rng, i)}{sep()}{spell(rng, j)}{sep()}{w}"
        lines.append(line + rng.choice(["", "", " # tie", "#x"]))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "# note", "  "]))
    newline = rng.choice(["\n", "\r\n"]) if not odd else "\n"
    return newline.join(lines) + rng.choice(["", newline])


class TestParsedGraphs:
    @pytest.mark.parametrize("odd", [False, True])
    def test_random_files_match_line_reader(self, odd):
        rng = np.random.default_rng(11 + odd)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(0, min(n * (n - 1) // 2, 120) + 1))
            text = _network_text(rng, n, m, odd)
            assert _parsed(text) == reference_loads_network(text, "net.txt"), text

    def test_plain_files_take_the_bulk_reader(self, monkeypatch):
        def refuse(text, name):
            raise AssertionError("line reader used")

        monkeypatch.setattr(fileio, "_loads_by_line", refuse)
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            text = _network_text(rng, n, int(rng.integers(1, n + 1)))
            assert _parsed(text) == reference_loads_network(text, "net.txt")

    @pytest.mark.parametrize("text", [
        "3 1\n1_0 1 2\n",                    # 10: out of range either way
        "12 1\n1_0 1 2\n",
        "3 1\n\u0660 \u0662 1.5\n",
        "3 1\n0 2 \u0661.\u0665\n",
        "3 1\n0\u00a02 1\n",
        "3 1\n0 2 1\u2028\n",
        "3 1\n0 99999999999999999999 1\n",
        "99999999999999999999 1\n0 9 1\n",
        "3 1\r0 1 2\r",
        "3 1\r\r\n0 1 2\n",
        "3 1\n0 1\x0b2\n",
        # a string's lone surrogates, in a comment and in a field
        "# \ud800\n3 1\n0 1 2\n",
        "3 1\n0 1 2 # \udc80\udfff\ud800\n",
        "3 1\n0 1\ud800 2\n",
        "3 2\n0 1 2\n\udcd9\udca0 2 1\n",
    ])
    def test_line_reader_spellings(self, text):
        assert _outcome(_parsed, text) == _outcome(reference_loads_network, text, "net.txt")

    def test_loadtxt_sees_only_ascii(self, monkeypatch):
        # numpy's text reader has crashed the interpreter, and misread
        # fields, on lines holding some characters beyond the BMP
        seen = []
        loadtxt = np.loadtxt

        def ascii_only(source, *args, **kwargs):
            start = source.tell()
            body = source.read()
            source.seek(start)
            seen.append(body)
            assert body.isascii()
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", ascii_only)
        assert _parsed("3 1\n0 1 2\n") == (3, ((0, 1, 2.0),))
        assert seen == [b"0 1 2\n"]
        for text in ["# \U0009c6ca\n3 1\n0 1 2\n", "3 1\n\U0009c6ca0 1 2\n",
                     "3 1\n0 1 2 # \u00e9\n", "3 1\n0 1 \U00020000\n"]:
            assert _outcome(_parsed, text) == _outcome(reference_loads_network, text,
                                                       "net.txt")
        assert len(seen) == 1


class TestEmptyBodies:
    @pytest.mark.parametrize("text", ["3 0\n", "3 0", "3 0\n# none\n\n  \n", "# c\n\n5 0 # h\n"])
    def test_edgeless_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = loads_network(text)
        assert g.m == 0
        assert _parsed(text) == reference_loads_network(text, "net.txt")

    @pytest.mark.parametrize("text", ["3 2\n0 1 1\n", "3 2\n# none\n", "3 2\n"])
    def test_short_body_reports_the_promise(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="promised 2"):
                loads_network(text)


_BAD_LINES = [
    "0 1", "0 1 2 3", "0 x 1", "1.5 0 1", "0 1 1,5", "0 1 1d3", "0 0 1", "3 3 -1",
    "0 70 1", "-1 0 1", "0 99999999999999999999 1", "0 1 0", "0 1 -0.0", "0 1 nan",
    "0 1 inf", "0 1 -Infinity", "0 1 1e400",
]


class TestParseErrors:
    @pytest.mark.parametrize("bad", _BAD_LINES + ["DUP"])
    def test_error_after_many_good_lines(self, bad):
        rng = np.random.default_rng(len(bad))
        n = 60
        lines = [f"{i} {j} {_plain_weight(rng)}" for i, j in _random_pairs(rng, n, 1500)]
        at = int(rng.integers(1000, 1500))
        if bad == "DUP":
            i, j, _ = lines[int(rng.integers(0, at))].split()
            bad = f"{j} {i} 2.5"
        lines.insert(at, bad)
        text = f"{n} {len(lines)}\n" + "\n".join(lines) + "\n"
        got = _outcome(_parsed, text)
        assert got == _outcome(reference_loads_network, text, "net.txt")
        assert got[0] is ParseError and got[2] == at + 2

    @pytest.mark.parametrize("text", [
        "", "# only a comment\n", "3\n", "a b\n", "-1 2\n", "3 1 2\n", "3 -1\n",
        "3 1\n0 1 1\n1 2 1\n", "\n\n3 1 # c\n\n0 1\n",
    ])
    def test_header_and_count_errors(self, text):
        got = _outcome(_parsed, text)
        assert got[0] is ParseError
        assert got == _outcome(reference_loads_network, text, "net.txt")

    @pytest.mark.parametrize("text", [
        "3 1\n0 2.0 1\n", "3 1\n1.5 0 1\n", "12 1\n1e1 0 1\n", "3 2\n0 1 1\n1.0 2 1\n",
    ])
    def test_float_spelled_indices(self, text):
        got = _outcome(_parsed, text)
        assert got[0] is ParseError and "two integers" in got[1]
        assert got == _outcome(reference_loads_network, text, "net.txt")

    def test_float_spelled_indices_when_loadtxt_only_warns(self, monkeypatch):
        # numpy before 2.3 reads "2.0" or "1e1" into an int64 field through
        # float and only warns; such text must still reach the line reader
        def lenient(source, dtype, **kwargs):
            body = source.read().decode("ascii")
            rows = [line.split("#")[0].split() for line in body.splitlines()]
            rows = [r for r in rows if r]
            if any(not f.lstrip("+-").isdigit() for r in rows for f in r[:2]):
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
            return np.array([(int(float(a)), int(float(b)), float(c)) for a, b, c in rows],
                            dtype)

        monkeypatch.setattr(np, "loadtxt", lenient)
        assert _parsed("3 2\n0 1 2\n2 1 -1\n") == (3, ((0, 1, 2.0), (1, 2, -1.0)))
        for text in ["3 1\n0 2.0 1\n", "3 1\n1.5 0 1\n", "12 1\n1e1 0 1\n"]:
            got = _outcome(_parsed, text)
            assert got[0] is ParseError
            assert got == _outcome(reference_loads_network, text, "net.txt")


# One bad edge per rule, after a good edge: (label, edges); every file
# holds three nodes.
_EDGE_RULES = [
    ("self_loop", [(0, 1, 1.0), (2, 2, 1.0)]),
    ("range_low_first", [(0, 1, 1.0), (1, 10, 2.0)]),
    ("range_high_first", [(0, 1, 1.0), (10, 1, 2.0)]),
    ("range_negative", [(0, 1, 1.0), (2, -1, 2.0)]),
    ("zero_low_first", [(0, 1, 1.0), (1, 2, 0.0)]),
    ("zero_high_first", [(0, 1, 1.0), (2, 1, -0.0)]),
    ("non_finite_low_first", [(0, 1, 1.0), (0, 2, float("inf"))]),
    ("non_finite_high_first", [(0, 1, 1.0), (2, 0, float("nan"))]),
    ("duplicate", [(0, 1, 1.0), (1, 0, 2.0)]),
]


class TestOneEdgeRule:
    """The edge rules are the graph constructor's: a network file's edge
    error is the constructor's message behind the file and line."""

    @pytest.mark.parametrize("comment", ["", "# caf\u00e9\n"], ids=["ascii", "non_ascii"])
    @pytest.mark.parametrize("edges", [e for _, e in _EDGE_RULES],
                             ids=[k for k, _ in _EDGE_RULES])
    def test_file_error_is_the_constructors(self, monkeypatch, edges, comment):
        with pytest.raises(GqsbError) as built:
            SignedGraph(3, edges)
        bulk = []
        loads_bulk = fileio._loads_bulk
        monkeypatch.setattr(fileio, "_loads_bulk",
                            lambda *args: bulk.append(args) or loads_bulk(*args))
        lines = [f"{i} {j} {w!r}" for i, j, w in edges]
        text = comment + f"3 {len(edges)}\n" + "\n".join(lines) + "\n"
        with pytest.raises(ParseError) as parsed:
            loads_network(text, name="net.txt")
        line = len(lines) + 1 + comment.count("\n")
        assert str(parsed.value) == f"net.txt: line {line}: {built.value}"
        assert len(bulk) == (not comment)


# The _BAD_LINES entries (and "DUP") that np.loadtxt reads as numbers:
# edge errors the bulk reader names itself.  The rest are format errors,
# which it leaves to the line reader.
_BULK_BAD = {"0 0 1", "3 3 -1", "0 70 1", "-1 0 1", "0 1 0", "0 1 -0.0", "0 1 nan",
             "0 1 inf", "0 1 -Infinity", "0 1 1e400", "DUP"}


def _with_bad_line(rng, text, bad):
    """``text`` with ``bad`` as one more data line at a random place after
    the header, whose count it raises by one; ``"DUP"`` repeats an earlier
    pair, reversed."""
    newline = "\r\n" if "\r\n" in text else "\n"
    lines = text.split(newline)
    data = [k for k, line in enumerate(lines) if line.split("#")[0].split()]
    n, m = map(int, lines[data[0]].split("#")[0].split())
    lines[data[0]] = f"{n} {m + 1}"
    after = data[0]
    if bad == "DUP":
        after = data[int(rng.integers(1, len(data)))]
        i, j, _ = lines[after].split("#")[0].split()
        bad = f"{j} {i} 2.5"
    lines.insert(int(rng.integers(after + 1, len(lines) + 1)), bad)
    return newline.join(lines)


class TestOnePassReaders:
    """Each file is read once: both readers hand their columns to the
    graph and name the line of its edge error themselves."""

    @pytest.mark.parametrize("bad", _BAD_LINES + ["DUP"])
    def test_bad_line_anywhere(self, monkeypatch, bad):
        def refuse(text, name):
            raise AssertionError("line reader used")

        if bad in _BULK_BAD:
            monkeypatch.setattr(fileio, "_loads_by_line", refuse)
        rng = np.random.default_rng((_BAD_LINES + ["DUP"]).index(bad))
        for _ in range(6):
            n = int(rng.integers(2, 60))
            m = int(rng.integers(1, min(n * (n - 1) // 2, 80) + 1))
            text = _with_bad_line(rng, _network_text(rng, n, m), bad)
            assert text.isascii()
            got = _outcome(_parsed, text)
            assert got == _outcome(reference_loads_network, text, "net.txt"), text
            assert got[0] is ParseError and got[2] is not None

    @pytest.mark.parametrize("comment", ["", "# caf\u00e9\n"], ids=["ascii", "non_ascii"])
    @pytest.mark.parametrize("body, line, message", [
        (["0 1 1", "1 0 2", "0 2"], 3, "node pair (0, 1) appears twice"),
        (["0 1 1", "2 2 1", "0 2"], 3, "self-loop at node 2"),
        (["0 1 1", "0 2", "1 0 2"], 3, "edge lines must be 'i j w'"),
        (["0 1 1", "0 2 1 5", "2 2 1"], 3, "edge lines must be 'i j w'"),
    ], ids=["duplicate_above_short", "loop_above_short", "short_above_duplicate",
            "long_above_loop"])
    def test_upper_error_wins(self, comment, body, line, message):
        text = comment + "3 3\n" + "\n".join(body) + "\n"
        got = _outcome(_parsed, text)
        assert got == _outcome(reference_loads_network, text, "net.txt")
        line += comment.count("\n")
        assert got == (ParseError, f"net.txt: line {line}: {message}", line)

    @pytest.mark.parametrize("comment", ["", "# caf\u00e9\n"], ids=["ascii", "non_ascii"])
    @pytest.mark.parametrize("n, m, tail, kind, line, message", [
        (3, 2, "", ParseError, 2, f"edge (0, {2 ** 63 + 1}) outside 0..2"),
        (2 ** 64, 2, "", TooLarge, None, "node indices must fit in int64"),
        (2 ** 64, 3, "", ParseError, None, "header promised 3 edges, found 2"),
        (2 ** 64, 3, "0 x 1", ParseError, 4, "edge line must hold two integers and a real"),
        (2 ** 64, 3, "1 1 1", ParseError, 4, "self-loop at node 1"),
    ], ids=["out_of_range", "too_large", "count_first", "bad_line_first", "bad_edge_first"])
    def test_ids_beyond_int64(self, comment, n, m, tail, kind, line, message):
        # the graph holds int64 ids, so with a node count beyond int64 a
        # valid id beyond it is TooLarge, after every line and the count
        text = comment + f"{n} {m}\n0 {2 ** 63 + 1} 1.5\n1 2 -1\n" + tail
        if line is not None:
            line += comment.count("\n")
            message = f"line {line}: {message}"
        if kind is ParseError:
            message = f"net.txt: {message}"
        expect = (kind, message, line)
        assert _outcome(_parsed, text) == _outcome(_parsed, text.encode()) == expect

    @pytest.mark.parametrize("kind", ["self_loop", "nan", "duplicate"])
    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_from_arrays_bad_edge_at_either_end(self, kind, at):
        n, m = 30_000, 150_000
        i = np.arange(m) % n
        j = (i + 1 + np.arange(m) // n) % n
        w = np.where(np.arange(m) % 3 == 0, -1.5, 2.0)
        other = -1 - at  # the edge at the other end
        if kind == "self_loop":
            j[at] = i[at]
        elif kind == "nan":
            w[at] = np.nan
        else:
            i[at], j[at] = j[other], i[other]
        expect = _outcome(reference_graph, n, list(zip(i.tolist(), j.tolist(), w.tolist())))
        assert isinstance(expect, tuple) and issubclass(expect[0], GqsbError)
        assert _outcome(SignedGraph.from_arrays, n, i, j, w) == expect
        # the error is found in bulk: no Python value per edge
        peak = _traced_peak(_outcome, SignedGraph.from_arrays, n, i, j, w)
        assert peak <= 4 * (i.nbytes + j.nbytes + w.nbytes)


def _valid_edges(rng, n, m):
    return [(i, j, float(rng.choice([-1, 1]) * rng.uniform(0.5, 3))) for i, j in
            _random_pairs(rng, n, m)]


class TestConstructorErrors:
    @pytest.mark.parametrize("seed", range(40))
    def test_injected_errors_match_per_edge_constructor(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        edges = _valid_edges(rng, n, 150)
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(0, len(edges)))
            kind = int(rng.integers(0, 7))
            if kind == 0:
                bad = (5, 5, 1.0)
            elif kind == 1:
                bad = (int(rng.choice([-1, n, n + 7])), 3, 1.0)
            elif kind == 2:
                bad = (1, 2, 0.0)
            elif kind in (3, 4, 5):
                bad = (1, 2, [np.nan, np.inf, -np.inf][kind - 3])
            else:
                i, j, _ = edges[int(rng.integers(0, k))] if k else edges[0]
                bad = (j, i, 2.0)
            edges.insert(k, bad)
        got = _outcome(SignedGraph, n, tuple(edges))
        assert got == _outcome(reference_graph, n, tuple(edges))
        assert isinstance(got, tuple) and issubclass(got[0], GqsbError)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (2, 2, 1.0), (1, 0, 1.0)],
        [(0, 1, 1.0), (0, 5, 1.0), (1, 0, 1.0), (1, 0, 2.0)],
        [(2, 1, 1.0), (0, 1, 0.0), (1, 2, 1.0), (0, 1, 1.0)],
        [(0, 1, 1.0), (1, 0, 1.0), (0, 1, np.nan)],
        [(0, 1, 1.0), (0.9, 2, 1.0), (1, 1, 1.0)],
    ])
    def test_first_bad_edge_in_input_order(self, edges):
        expect = _outcome(reference_graph, 3, edges)
        assert _outcome(SignedGraph, 3, tuple(edges)) == expect
        assert _outcome(SignedGraph.from_arrays, 3, *map(np.array, zip(*edges))) == expect

    @pytest.mark.parametrize("edges", [
        [(0, "2", "1.5"), (1, 2.0, 3)],
        [(0, 1, np.float32(0.1)), (np.int32(1), np.uint8(2), True)],
        [(1, 1, 1.0), (0, "x", 1.0)],
        [(0, "x", 1.0), (1, 1, 1.0)],
        [(0, 1, None)],
        [(0, 2 ** 70, 1.0)],
        [(0, 1, 2 ** 70)],
        [(0, 1)],
        [(0, 1, 1.0, 4)],
        [(0, 2, 1.0), (2.0, 0, 1.0)],
        [5],
        # a non-integral id raises at its place in input order
        [(0.5, 2, 1.0)],
        [(0, 1, 1.0), (np.float64(0.9), 2, 1.0)],
        [(0, 2.5, "x")],
        [(0.5, 2, 1.0), (1, 1, 1.0)],
        [(1, 1, 1.0), (0.5, 2, 1.0)],
        [(2.0, np.int32(0), 1.0), (True, "2", 1.0)],
        # an id numpy would turn into float64 beside a smaller one
        [(0, 1, 1.0), (2 ** 63 + 1, 2, 1.0)],
    ])
    def test_irregular_entries(self, edges):
        expect = _outcome(reference_graph, 3, tuple(edges))
        calls = [(SignedGraph, 3, tuple(edges))]
        if all(isinstance(row, tuple) and len(row) == 3 for row in edges):
            # from_arrays reads the caller's entries, not numpy's copies
            calls.append((SignedGraph.from_arrays, 3, *map(list, zip(*edges))))
        for call in calls:
            got = _outcome(*call)
            if isinstance(got, SignedGraph):
                got = (got.n, got.edges)
            assert got == expect, call[0]

    @pytest.mark.parametrize("n", [3.5, "3", 3.0, None])
    def test_node_count_must_be_an_integer(self, n):
        expect = _outcome(reference_graph, n, [(0, 1, 1.0)])
        assert expect[0] is BadIndex
        assert _outcome(SignedGraph, n, ((0, 1, 1.0),)) == expect
        assert _outcome(SignedGraph.from_arrays, n, [0], [1], [1.0]) == expect

    def test_node_count_stored_as_int(self):
        g = SignedGraph(np.int64(3), [(0, 1, 1.0)])
        assert type(g.n) is int and g == SignedGraph(3, [(0, 1, 1.0)])

    @pytest.mark.parametrize("n", [60, 3_037_000_499, 3_037_000_500, 2 ** 32 + 1, 10 ** 11,
                                   2 ** 63 - 1])
    def test_huge_node_counts(self, n):
        # node indices up to 2**63 - 2 sort and validate as small ones do
        rng = np.random.default_rng(4)
        nodes = [0, 1, 2, 39, n - 3, n - 2, n - 1]
        edges = [(nodes[b], nodes[a], float(rng.uniform(0.5, 2))) for a in range(7)
                 for b in range(a + 1, 7)]
        rng.shuffle(edges)
        g = SignedGraph(n, tuple(edges))
        assert (g.n, g.edges) == reference_graph(n, edges)
        edges.append(edges[0][1::-1] + (1.0,))
        assert _outcome(SignedGraph, n, tuple(edges)) == _outcome(reference_graph, n, edges)

    def test_node_indices_past_int64(self):
        with pytest.raises(TooLarge, match="int64"):
            SignedGraph(10 ** 20, ((0, 10 ** 20 - 1, 1.0),))
        with pytest.raises(BadIndex):
            SignedGraph(5, ((0, 10 ** 20, 1.0),))

    def test_arrays_must_line_up(self):
        with pytest.raises(ValueError, match="equal length"):
            SignedGraph.from_arrays(3, [0, 1], [1], [1.0, 2.0])
        with pytest.raises(ValueError, match="one-dimensional"):
            SignedGraph.from_arrays(3, [[0, 1]], [[1, 2]], [[1.0, 2.0]])

    def test_arrays_and_triples_agree(self):
        rng = np.random.default_rng(3)
        edges = _valid_edges(rng, 40, 200)
        i, j, w = (np.array(c) for c in zip(*edges))
        g = SignedGraph.from_arrays(40, i, j, w)
        assert g == SignedGraph(40, tuple(edges))
        assert (g.n, g.edges) == reference_graph(40, edges)


class TestCanonicalOrder:
    """Edges are sorted by one int64 pair key, or by two columns when that
    key would overflow (a node id of 3 037 000 499 or more)."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("base", [0, 2 ** 40], ids=["key", "lexsort"])
    def test_both_branches_match_per_edge_constructor(self, monkeypatch, base, seed):
        rng = np.random.default_rng(seed)
        # small ids beside ids near base, so pairs span both
        nodes = np.concatenate([np.arange(25), base + 25 + rng.permutation(25)])
        n = int(nodes.max()) + 1 + int(rng.integers(0, 3))
        edges = [(int(nodes[i]), int(nodes[j]), w) for i, j, w in _valid_edges(rng, 50, 300)]
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        g = SignedGraph(n, tuple(edges))
        assert len(sorts) == (base > 0)
        assert (g.n, g.edges) == reference_graph(n, edges)
        assert g == SignedGraph.from_arrays(n, *map(np.array, zip(*edges)))
        k = int(rng.integers(1, len(edges)))
        i, j, _ = edges[int(rng.integers(0, k))]
        for bad in [(j, i, 2.0), (i, i, 1.0), (i, j, 0.0), (j, int(nodes[0]) + n, 1.0)]:
            injected = [*edges[:k], bad, *edges[k:], (j, i, -1.0)]
            got = _outcome(SignedGraph, n, tuple(injected))
            assert got == _outcome(reference_graph, n, injected)
            assert isinstance(got, tuple) and issubclass(got[0], GqsbError)


class TestParseMemory:
    def test_peak_is_a_few_file_sizes(self, tmp_path):
        # the bulk reader parses a file's bytes where they lie: the file
        # once, the loaded rows, and the sort's columns, about 4x in all
        rng = np.random.default_rng(6)
        n, m = 10_000, 30_000
        lo = np.arange(m) % n
        hi = (lo + 1 + np.arange(m) // n) % n
        flip = rng.random(m) < 0.5
        i, j = np.where(flip, hi, lo), np.where(flip, lo, hi)
        w = np.round(rng.uniform(1, 9, m), 3) * rng.choice([-1, 1], m)
        order = rng.permutation(m)
        lines = [f"{a} {b} {c:.3f}" for a, b, c in zip(i[order], j[order], w[order])]
        text = f"{n} {m}\n" + "\n".join(lines) + "\n"
        path = tmp_path / "large.txt"
        path.write_text(text)
        size = path.stat().st_size
        for call, source in [(fileio.load_network, path), (loads_network, text)]:
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                g = call(source)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                if not tracing:
                    tracemalloc.stop()
            assert g.m == m
            assert peak <= 5 * size, (call.__name__, peak / size)


def _traced_peak(call, *args):
    """The tracemalloc peak of one call, over what was allocated before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def _edge_file(rng, n, m):
    """An ``n m`` file of m distinct edges on n nodes, weights to three
    decimals."""
    i = np.arange(m) % n
    j = (i + 1 + np.arange(m) // n) % n
    w = np.round(rng.uniform(1, 9, m), 3) * rng.choice([-1, 1], m)
    return f"{n} {m}\n" + "".join(f"{a} {b} {c:.3f}\n" for a, b, c in zip(i, j, w))


class TestReaderMemory:
    def test_crlf_read_in_place(self):
        lf = _edge_file(np.random.default_rng(8), 10_000, 30_000).encode("ascii")
        crlf = lf.replace(b"\n", b"\r\n")
        assert loads_network(crlf) == loads_network(lf)
        assert _traced_peak(loads_network, crlf) <= 1.1 * _traced_peak(loads_network, lf)

    def test_line_reader_peak(self, monkeypatch, tmp_path):
        def refuse(data, name):
            raise AssertionError("bulk reader used")

        monkeypatch.setattr(fileio, "_loads_bulk", refuse)
        # lines as in a 30k-node file; the line list and every edge's Python
        # numbers and line number weigh about 14 times the file at 40k edges
        # (below that, fixed table sizes weigh more), and a reader that
        # streamed each line's fields through the per-edge pass about 22
        path = tmp_path / "cafe.txt"
        text = "# caf\u00e9\n" + _edge_file(np.random.default_rng(9), 30_000, 40_000)
        path.write_text(text, encoding="utf-8")
        peak = _traced_peak(fileio.load_network, path)
        assert peak < 17 * path.stat().st_size


class TestValueSemantics:
    def test_edges_tuple_equality_hash_and_freezing(self):
        rng = np.random.default_rng(8)
        edges = _valid_edges(rng, 20, 60)
        g = SignedGraph(20, tuple(edges))
        shuffled = list(edges)
        rng.shuffle(shuffled)
        h = SignedGraph.from_edge_list(20, [(j, i, w) for i, j, w in shuffled])
        assert g == h and hash(g) == hash(h)
        assert g.edges == h.edges == reference_graph(20, edges)[1]
        assert isinstance(g.edges, tuple)
        assert all(type(i) is int and type(j) is int and type(w) is float
                   for i, j, w in g.edges)
        assert g != SignedGraph(21, tuple(edges))
        assert g != SignedGraph(20, tuple(edges[1:]))
        assert len({g, h}) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.w = np.zeros(60)
        with pytest.raises(ValueError):
            g.w[0] = 1.0
        assert not g.cooperative_labels.flags.writeable
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and not copy.w.flags.writeable
        assert eval(repr(g)) == g

    def test_reweighted(self):
        rng = np.random.default_rng(10)
        g = SignedGraph(25, tuple(_valid_edges(rng, 25, 80)))
        w = -2.0 * g.w
        h = g.reweighted(w)
        w[0] = 7.0
        assert h.edges == tuple((i, j, -2.0 * x) for i, j, x in g.edges)
        assert not h.w.flags.writeable and g.w[0] != 7.0
        for bad in (0.0, np.nan, -np.inf):
            w = g.w.copy()
            w[[5, 9]] = bad
            expect = _outcome(SignedGraph.from_arrays, g.n, g.i, g.j, w)
            assert isinstance(expect, tuple)
            assert _outcome(g.reweighted, w) == expect
        with pytest.raises(ValueError, match="one weight per edge"):
            g.reweighted(g.w[1:])

    def test_adjacency_matches_edges(self):
        rng = np.random.default_rng(9)
        g = SignedGraph(25, tuple(_valid_edges(rng, 25, 80)))
        expect = np.zeros((25, 25))
        for i, j, w in g.edges:
            expect[i, j] = expect[j, i] = w
        assert np.array_equal(g.adjacency(), expect)


def _random_graph(rng, n, m, neg=0.5):
    return SignedGraph(n, tuple(
        (i, j, float(rng.uniform(0.5, 3) * (-1 if rng.random() < neg else 1)))
        for i, j in _random_pairs(rng, n, m)))


def _structured_graphs():
    rng = np.random.default_rng(21)
    yield SignedGraph(0)
    yield SignedGraph(1)
    yield SignedGraph(50)
    perm = rng.permutation(10_000)
    yield SignedGraph(10_000, tuple((int(perm[k]), int(perm[k + 1]), 1.0)
                                    for k in range(9_999)))
    yield SignedGraph(10_000, tuple((0, k, -1.0 if k % 3 else 1.0) for k in range(1, 10_000)))
    for n, m in [(5, 4), (40, 30), (300, 280), (300, 600), (2000, 2500)]:
        for neg in (0.0, 0.3, 0.8):
            yield _random_graph(rng, n, m, neg)


class TestComponents:
    @pytest.mark.parametrize("g", list(_structured_graphs()), ids=lambda g: f"{g.n}-{g.m}")
    def test_match_union_find(self, g):
        assert connected_components(g) == reference_components(g.n, g.edges)
        positive = [e for e in g.edges if e[2] > 0]
        assert positive_components(g) == reference_components(g.n, positive)
        dec = spanning_forest(g)
        assert (dec.forest_edges, dec.cycle_edges) == reference_forest(g.n, g.edges)
        assert dec.negative_edges == tuple(e for e in g.edges if e[2] < 0)
        assert dec.positive_edges == tuple(positive)

    def test_invariant_under_relabelling_and_shuffling(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(5, 400))
            g = _random_graph(rng, n, int(rng.integers(0, 2 * n)), neg=0.7)
            perm = rng.permutation(n)
            moved = [(int(perm[i]), int(perm[j]), w) for i, j, w in g.edges]
            rng.shuffle(moved)
            h = SignedGraph(n, tuple(moved))
            assert classify(h) == classify(g)
            assert len(positive_components(h)) == len(positive_components(g))
            assert sorted(len(c) for c in positive_components(h)) == sorted(
                len(c) for c in positive_components(g))
            assert {frozenset(int(perm[v]) for v in c) for c in positive_components(g)} == set(
                positive_components(h))
