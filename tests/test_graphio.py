import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan.cli import main
from relturan.core import HypercubeGraph, OrderedGraph
from relturan.graphio import (
    FormatError,
    dumps_blocked,
    dumps_hypercube,
    dumps_ordered,
    loads_blocked,
    loads_hypercube,
    loads_ordered,
    read_ordered,
    write_ordered,
)
from relturan.hosts import BlockedGraph, generate_host


# ---------------------------------------------------------------- references
# Per-character and per-bit codecs for well-formed files, kept only here as
# the oracle the table-driven and numpy codecs in graphio are checked against.


def ref_decode_cube(text):
    lines = text.splitlines()
    d, m = (int(t) for t in lines[0].split())
    edges = set()
    for line in lines[1:m + 1]:
        labels = line.split()
        assert len(labels) == 2 and all(len(s) == d and set(s) <= {"0", "1"} for s in labels)
        u, v = (sum(1 << (d - 1 - i) for i, c in enumerate(s) if c == "1") for s in labels)
        edges.add((min(u, v), max(u, v)))
    return d, edges


def ref_encode_cube(d, edges):
    def label(v):
        return "".join("1" if (v >> (d - 1 - i)) & 1 else "0" for i in range(d))

    return "".join([f"{d} {len(edges)}\n", *(f"{label(u)} {label(v)}\n" for u, v in sorted(edges))])


def ref_decode_blocked(text):
    lines = text.splitlines()
    d, m, seed = (int(t) for t in lines[0].split())
    blocks = {}
    i = 1
    while i < len(lines):
        x, y = (int(t) for t in lines[i].split())
        mat = np.zeros((m, m), dtype=bool)
        for r in range(m):
            row = int(lines[i + 1 + r], 16)
            for j in range(m):
                mat[r, j] = (row >> j) & 1
        blocks[(x, y)] = mat
        i += m + 1
    return d, m, seed, blocks


def ref_encode_blocked(d, m, seed, blocks, keep_empty=False):
    lines = [f"{d} {m} {seed}"]
    for (x, y), mat in sorted(blocks.items()):
        if mat.any() or keep_empty:
            lines.append(f"{x} {y}")
            for r in range(m):
                row = sum(1 << j for j in range(m) if mat[r, j])
                lines.append(format(row, f"0{(m + 3) // 4}x"))
    return "\n".join(lines) + "\n"


@st.composite
def cube_edge_sets(draw):
    d = draw(st.integers(1, 6))
    n = 1 << d
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return d, {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=40))}


@st.composite
def blocked_hosts(draw):
    """Hosts whose blocks are all-zero, all-one or random, on a subset of pairs."""
    d = draw(st.integers(1, 3))
    m = draw(st.sampled_from([*range(1, 71), 256]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = [(x, y) for x in range(1 << d) for y in range(x + 1, 1 << d)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 if m > 70 else 6))
    blocks = {}
    for pair in chosen:
        kind = draw(st.sampled_from(["zero", "one", "random"]))
        if kind == "random":
            blocks[pair] = rng.random((m, m)) < draw(st.sampled_from([0.02, 0.5, 0.98]))
        else:
            blocks[pair] = np.full((m, m), kind == "one")
    return BlockedGraph(d, m, draw(st.integers(0, 1000)), list(blocks), list(blocks.values()))


@st.composite
def ordered_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OrderedGraph(n, edges)


class TestOrderedFormat:
    def test_known_bytes(self):
        g = OrderedGraph(3, [(1, 2), (0, 1)])
        assert dumps_ordered(g) == "3 2\n0 1\n1 2\n"

    @given(ordered_graphs())
    def test_roundtrip(self, g):
        assert loads_ordered(dumps_ordered(g)) == g

    @given(ordered_graphs())
    def test_dump_is_stable(self, g):
        text = dumps_ordered(g)
        assert dumps_ordered(loads_ordered(text)) == text

    def test_file_roundtrip(self, tmp_path):
        g = OrderedGraph(4, [(0, 3), (1, 2)])
        path = tmp_path / "g.og"
        write_ordered(path, g)
        assert read_ordered(path) == g

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError) as exc:
            loads_ordered("3 2\n0 1\nbogus\n")
        assert exc.value.line_no == 3

    def test_out_of_range_edge(self):
        with pytest.raises(FormatError):
            loads_ordered("3 1\n0 5\n")

    def test_truncated(self):
        with pytest.raises(FormatError):
            loads_ordered("4 3\n0 1\n")


class TestHypercubeFormat:
    def test_known_bytes(self):
        g = HypercubeGraph(2, [(0, 3)])
        assert dumps_hypercube(g) == "2 1\n00 11\n"

    def test_roundtrip(self):
        g = HypercubeGraph(3, [(0, 7), (1, 6), (2, 3)])
        assert loads_hypercube(dumps_hypercube(g)) == g

    def test_bad_bitstring(self):
        with pytest.raises(FormatError):
            loads_hypercube("3 1\n001 0a1\n")

    def test_wrong_length(self):
        with pytest.raises(FormatError):
            loads_hypercube("3 1\n01 10\n")

    @given(cube_edge_sets())
    def test_matches_reference(self, case):
        d, edges = case
        g = HypercubeGraph(d, edges)
        text = dumps_hypercube(g)
        assert text == ref_encode_cube(d, edges)
        assert ref_decode_cube(text) == (d, edges)
        loaded = loads_hypercube(text)
        assert loaded == g and (loaded.d, set(loaded.edges())) == (d, edges)

    def test_reversed_and_repeated_edges_load(self):
        g = loads_hypercube("2 3\n11 00\n00 11\n01 10\n")
        assert g == HypercubeGraph(2, [(0, 3), (1, 2)])


class TestBlockedFormat:
    def test_roundtrip_generated(self):
        host = generate_host(m=5, d=3, seed=11)
        assert loads_blocked(dumps_blocked(host)) == host

    def test_header(self):
        host = generate_host(m=2, d=2, seed=4)
        assert dumps_blocked(host).splitlines()[0] == "2 2 4"

    def test_dump_is_stable(self):
        host = generate_host(m=4, d=2, seed=0)
        text = dumps_blocked(host)
        assert dumps_blocked(loads_blocked(text)) == text

    @pytest.mark.parametrize("m", [64, 256])
    def test_roundtrip_wide_rows(self, m):
        # columns 63 and up do not fit a 64-bit integer
        host = generate_host(m=m, d=1, seed=0)
        assert loads_blocked(dumps_blocked(host)) == host

    def test_row_bit_j_is_column_j(self):
        m = 70
        mat = np.zeros((m, m), dtype=bool)
        mat[0, m - 1] = mat[1, 0] = True
        rows = dumps_blocked(BlockedGraph(1, m, 0, [(0, 1)], [mat])).splitlines()[2:]
        assert int(rows[0], 16) == 1 << (m - 1) and int(rows[1], 16) == 1
        assert all(len(row) == (m + 3) // 4 for row in rows)

    @settings(max_examples=60, deadline=None)
    @given(blocked_hosts())
    def test_matches_reference(self, g):
        text = dumps_blocked(g)
        assert text == ref_encode_blocked(g.d, g.m, g.seed, g.blocks)
        assert loads_blocked(text) == g
        # a file may also list all-zero blocks; they decode as written
        full = ref_encode_blocked(g.d, g.m, g.seed, g.blocks, keep_empty=True)
        loaded = loads_blocked(full)
        d, m, seed, blocks = ref_decode_blocked(full)
        assert (loaded.d, loaded.m, loaded.seed) == (d, m, seed) == (g.d, g.m, g.seed)
        assert list(loaded.blocks) == list(blocks) == sorted(g.blocks)
        for key, mat in blocks.items():
            assert loaded.blocks[key].dtype == bool
            assert np.array_equal(loaded.blocks[key], mat)
            assert np.array_equal(mat, g.blocks[key])

    @pytest.mark.parametrize("m, text", [
        # 5 columns fit two hex digits; 9 need three, an odd count
        (5, "1 5 7\n0 1\n11\n00\n00\n00\n1e\n"),
        (9, "1 9 7\n0 1\n101\n000\n000\n000\n000\n000\n000\n000\n0fe\n"),
    ])
    def test_known_bytes_at_odd_widths(self, m, text):
        mat = np.zeros((m, m), dtype=bool)
        mat[0, 0] = mat[0, m - 1] = True
        mat[m - 1, 1:8] = True
        g = BlockedGraph(1, m, 7, [(0, 1)], [mat])
        assert dumps_blocked(g) == text
        assert loads_blocked(text) == g

    def test_bad_block_pair(self):
        with pytest.raises(FormatError):
            loads_blocked("2 2 0\n3 1\n0\n0\n")

    def test_row_overflow(self):
        with pytest.raises(FormatError):
            loads_blocked("2 2 0\n0 1\nf\n0\n")


# (what is wrong, file text, line number the FormatError names)
MALFORMED_BLOCKED = [
    ("empty-file", "", 1),
    ("short-header", "1 2\n", 1),
    ("header-d=0", "0 2 0\n", 1),
    ("header-m=0", "1 0 0\n", 1),
    ("truncated-block", "1 2 0\n0 1\n3\n", 4),
    ("truncated-before-rows", "2 2 0\n0 1\n1\n2\n0 2\n", 6),
    ("non-hex-row", "1 2 0\n0 1\nzz\n0\n", 3),
    ("blank-row", "1 2 0\n0 1\n1\n\n", 4),
    ("bits-beyond-m", "1 2 0\n0 1\n1\n4\n", 4),
    ("negative-row", "1 2 0\n0 1\n-1\n0\n", 3),
    ("duplicate-pair", "1 1 0\n0 1\n1\n0 1\n1\n", 4),
    ("pair-beyond-2^d", "1 1 0\n0 2\n1\n", 2),
    ("pair-not-increasing", "2 1 0\n0 1\n1\n2 2\n1\n", 4),
    ("pair-line-malformed", "1 1 0\n0 1 1\n1\n", 2),
    # m << d beyond the vertex budget: d = 60 once decoded with its level-1
    # edge counted at level 0, d = 70 once overflowed int64
    ("header-beyond-the-vertex-budget", "1 1048577 0\n", 1),
    ("header-d=60", f"60 1 0\n0 {(1 << 60) - 1}\n1\n", 1),
    ("header-d=70", f"70 1 0\n0 {(1 << 70) - 1}\n1\n", 1),
]
MALFORMED_CUBE = [
    ("empty-file", "", 1),
    ("header-d=0", "0 0\n", 1),
    ("header-beyond-the-vertex-budget", "22 0\n", 1),
    ("header-not-two-ints", "3\n", 1),
    ("wrong-length", "3 1\n001 01\n", 2),
    ("digit-2", "2 2\n00 01\n02 11\n", 3),
    ("binary-prefix", "3 1\n0b1 000\n", 2),
    ("one-label", "2 1\n00\n", 2),
    ("self-loop", "2 2\n00 11\n01 01\n", 3),
    ("truncated", "2 3\n00 01\n", 3),
]


MALFORMED = [("blocked", *case) for case in MALFORMED_BLOCKED] + [
    ("cube", *case) for case in MALFORMED_CUBE
]


class TestMalformedInput:
    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED])
    def test_format_error_names_the_line(self, kind, name, text, line_no):
        loads = loads_blocked if kind == "blocked" else loads_hypercube
        with pytest.raises(FormatError) as exc:
            loads(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED])
    def test_cli_exits_2_without_traceback(self, kind, name, text, line_no, tmp_path, capsys):
        host = tmp_path / "host.txt"
        host.write_text(text)
        commands = [["analyze-richness", "--host", str(host), "--alpha", "0.5"]]
        if kind == "cube":
            commands.append(["embed-hk", "--host", str(host), "--k", "2"])
        for argv in commands:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: line ") and "Traceback" not in captured.err
