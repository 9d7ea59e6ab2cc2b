import functools
import hashlib
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import core, graphio
from relturan.cli import main
from relturan.core import BudgetError, HypercubeGraph, OrderedGraph
from relturan.graphio import (
    FormatError,
    dumps_blocked,
    dumps_hypercube,
    dumps_ordered,
    loads_blocked,
    loads_hypercube,
    loads_ordered,
    read_blocked,
    read_hypercube,
    read_ordered,
    write_blocked,
    write_hypercube,
    write_ordered,
)
from relturan.hosts import BlockedGraph, complete_hypercube, generate_host
from relturan.tiling import TilingConfig, sample_many


# ---------------------------------------------------------------- references
# Per-character and per-bit codecs for well-formed files, kept only here as
# the oracle the table-driven and numpy codecs in graphio are checked against.


def ref_decode_cube(text):
    lines = text.splitlines()
    d, m = (int(t) for t in lines[0].split())

    @functools.cache
    def value(s):
        assert len(s) == d and set(s) <= {"0", "1"}
        return sum(1 << (d - 1 - i) for i, c in enumerate(s) if c == "1")

    edges = set()
    for line in lines[1:m + 1]:
        labels = line.split()
        assert len(labels) == 2
        u, v = map(value, labels)
        edges.add((min(u, v), max(u, v)))
    return d, edges


def ref_encode_cube(d, edges):
    @functools.cache
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


def seeded_sparse_cube(d, draws, seed):
    """The graph on {0,1}^d of ``draws`` seeded random pairs, self-pairs dropped."""
    pairs = np.random.default_rng(seed).integers(0, 1 << d, size=(draws, 2))
    return HypercubeGraph(d, [(int(u), int(v)) for u, v in pairs if u != v])


@st.composite
def cube_edge_sets(draw):
    """Up to 40 edges on a cube of dimension at most 6, or a dense d = 8 graph."""
    if draw(st.sampled_from(["sparse", "dense"])) == "dense":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        us, vs = np.triu_indices(1 << 8, 1)
        keep = rng.random(len(us)) < draw(st.sampled_from([0.5, 0.98]))
        return 8, set(zip(us[keep].tolist(), vs[keep].tolist()))
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


#: sha256 of the per-line writer's bytes on the complete cube of each d
COMPLETE_CUBE_DIGESTS = list(enumerate([
    "bbc71dbbc0ee6439cf77b46a975bb8f08043049552f169c19900d273af5a4c8f",
    "3db9f19026f01ffaaf8517f1421454eaada4d69dbaf216623338edd74819a48d",
    "5c9e29091455814887a767c5a7b5a8a07e9ea47ab967fbc4fc0322e44f3d5290",
    "063b048d9bb6afe7aa4ee64aa2f56b968b9db26187d52cb1315a56c302a5e571",
    "6b0e69aa29d7088868a3037e60ca8d90ea99d3bfa60e23030bf2fadd783fdab9",
    "0c9444d07af034463c10c0697b0d2851794080db166038b630f6064a9f054d4b",
    "3bb734f6b825e6227202d5875b24f98c268425b57aec21378c54ef77fe359337",
    "73e6c4cb615ea34ca4285acd0824e5677de5318769970567fd7979df15e3ad5b",
    "7be05bd32889459ecc1a9eef9fce1c4bc3bf041ef6457a81e2f3c006393f84af",
    "de999097f879f1dfa4bb41af6d169d9024ae840f37e45ee8a9d365e5ba141d9d",
    "5f59bcd07b0741fcb131d8ba692009b85aa30c81b906ba9a76ea525ecc7b8996",
], 1))
#: (d, draws, seed, sha256) of seeded random cube graphs and edgeless ones
SEEDED_CUBE_DIGESTS = [
    (1, 3, 0, "bbc71dbbc0ee6439cf77b46a975bb8f08043049552f169c19900d273af5a4c8f"),
    (3, 10, 1, "f3517ff9cc7c0f4468ab697a0b438ad67e173eb4f330d33bd1f9aa3b8ef4d464"),
    (5, 200, 2, "333ec9ecaa33ad388a48e6cc4d82c611ea7d297656f37d0886f6fe3c27655ea7"),
    (11, 20000, 7, "7e5a8cc04bb21f9cc710ebe1f6d2ec5054855c754c4fec0f211f9ba456dfe24e"),
    (13, 50000, 3, "170ebaa6daec66fbe00bebf894d9007c9eddc95541f5bf8bc155d02260d9c96b"),
    (1, 0, 0, "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7"),
    (8, 0, 0, "f20d961db0814769179475eefc5d1075b03dab5a12ff4a53e5f1676def9f89f7"),
]
#: (m, d, sha256) of the per-pair writer's bytes on generate_host(m, d, 0)
BLOCKED_DIGESTS = [
    (1, 2, "2492d48191f5305efc78de76695d9bbd3a236e93972fcee2f926e04f3ffe05f0"),
    (5, 3, "2f3f1f606b45fc0564fc211e09d10434f26f309876d5a56eb688f03875ad25f7"),
    (8, 8, "3a23978644be91856d78655f103d42f9506043c1f581a97fa2459771a982f068"),
    (9, 3, "afc6dca1b90b45a0409dda5da8979b198483f0d7acf3b69b2c94b45d0ddbb20a"),
    (63, 2, "cf574d2621b7046fe529cd69816ad782fa935dc203f79b9dbb2726840aa87f2f"),
    (64, 2, "5f77402e64315774e46e4f76c6627a1574756b93b56a1de62706e4f4c29f767a"),
    (70, 1, "1ad5c69b807e86827a589837c16ffe18be5fc3b7630ac86dd9e1331341f12c96"),
    (256, 4, "c044e34d29ebf8a58d68dc0d71f3bd159cd659facab2c85ef047b035c642494d"),
]


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

    @settings(deadline=None)
    @given(cube_edge_sets())
    def test_matches_reference(self, case):
        d, edges = case
        g = HypercubeGraph(d, edges)
        text = dumps_hypercube(g)
        assert text == ref_encode_cube(d, edges)
        assert ref_decode_cube(text) == (d, edges)
        loaded = loads_hypercube(text)
        assert loaded == g and (loaded.d, set(loaded.sorted_edges())) == (d, edges)

    def test_reversed_and_repeated_edges_load(self):
        g = loads_hypercube("2 3\n11 00\n00 11\n01 10\n")
        assert g == HypercubeGraph(2, [(0, 3), (1, 2)])

    @pytest.mark.parametrize("graph, digest", [
        (lambda: complete_hypercube(4),
         "063b048d9bb6afe7aa4ee64aa2f56b968b9db26187d52cb1315a56c302a5e571"),
        (lambda: complete_hypercube(10),
         "de999097f879f1dfa4bb41af6d169d9024ae840f37e45ee8a9d365e5ba141d9d"),
        (lambda: seeded_sparse_cube(9, 3000, 2024),
         "e3ed95d7eaac719006be4f14436f2a1d83878543536d4f9c45e6911753c165b3"),
    ], ids=["complete-d4", "complete-d10", "sparse-d9"])
    def test_pinned_bytes(self, graph, digest):
        text = dumps_hypercube(graph())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # the per-line writer's bytes on every complete cube the CI and the
    # benchmark write, on seeded random cube graphs and on edgeless ones
    @pytest.mark.parametrize("d, digest", COMPLETE_CUBE_DIGESTS)
    def test_pinned_bytes_of_complete_cubes(self, d, digest):
        text = dumps_hypercube(complete_hypercube(d))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("d, draws, seed, digest", SEEDED_CUBE_DIGESTS)
    def test_pinned_bytes_of_seeded_cubes(self, d, draws, seed, digest):
        text = dumps_hypercube(seeded_sparse_cube(d, draws, seed))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    # labels past 16 bits are gathered in two runs of bits, 8 + 9 and 10 + 11
    @pytest.mark.parametrize("d", [17, 21])
    def test_long_labels_match_reference(self, d):
        g = seeded_sparse_cube(d, 40, d)
        assert dumps_hypercube(g) == ref_encode_cube(d, set(g.sorted_edges()))

    def test_canonical_file_takes_the_array_path(self, monkeypatch):
        g = seeded_sparse_cube(7, 500, 1)
        text = dumps_hypercube(g)
        monkeypatch.setattr(graphio, "_loads_hypercube_lines", None)
        assert loads_hypercube(text) == g


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

    # the per-pair writer's bytes, at odd and even row widths, across the
    # 64-bit column boundary and at the two sizes the benchmark writes
    @pytest.mark.parametrize("m, d, digest", BLOCKED_DIGESTS)
    def test_pinned_bytes(self, m, d, digest):
        text = dumps_blocked(generate_host(m, d, 0))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_edgeless_host_is_its_header(self):
        g = BlockedGraph(3, 5, 9, np.zeros((0, 2)), np.zeros((0, 5, 5)))
        assert dumps_blocked(g) == "3 5 9\n"
        assert loads_blocked("3 5 9\n") == g

    def test_canonical_file_takes_the_array_path(self, monkeypatch):
        host = generate_host(m=9, d=3, seed=5)
        text = dumps_blocked(host)
        monkeypatch.setattr(graphio, "_loads_blocked_lines", None)
        assert loads_blocked(text) == host

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
    # the pair lines hold four numbers and two spaces between them, not one each
    ("pair-lines-three-and-one", "2 1 0\n0 1 2\n1\n3\n1\n", 2),
    # m << d beyond the vertex budget: d = 60 once decoded with its level-1
    # edge counted at level 0, d = 70 once overflowed int64
    ("header-beyond-the-vertex-budget", "1 1048577 0\n", 1),
    ("header-d=60", f"60 1 0\n0 {(1 << 60) - 1}\n1\n", 1),
    ("header-d=70", f"70 1 0\n0 {(1 << 70) - 1}\n1\n", 1),
    # refused before m << d, a 2^d-bit integer, is formed
    ("header-d=100000", "100000 1 0\n", 1),
]
MALFORMED_CUBE = [
    ("empty-file", "", 1),
    ("header-d=0", "0 0\n", 1),
    ("header-beyond-the-vertex-budget", "22 0\n", 1),
    ("header-not-two-ints", "3\n", 1),
    # lines[1:m + 1] with m = -2 would read the first and last edge lines
    ("negative-m", "2 -2\n00 01\n10 11\n11 00\n", 1),
    ("wrong-length", "3 1\n001 01\n", 2),
    ("digit-2", "2 2\n00 01\n02 11\n", 3),
    ("binary-prefix", "3 1\n0b1 000\n", 2),
    ("one-label", "2 1\n00\n", 2),
    # "!" is " " | 1: a bit-or layout check must not take it for the separator
    ("bang-separator", "3 1\n000!011\n", 2),
    ("self-loop", "2 2\n00 11\n01 01\n", 3),
    ("truncated", "2 3\n00 01\n", 3),
]
MALFORMED_ORDERED = [
    ("empty-file", "", 1),
    ("n-m-missing", "3\n", 1),
    ("negative-n", "-1 0\n", 1),
    ("negative-m", "3 -1\n", 1),
    # refused before the graph allocates a list of n entries
    ("n-beyond-the-vertex-budget", "10000000000 0\n", 1),
    ("huge-n", f"{1 << 70} 0\n", 1),
]


MALFORMED = (
    [("blocked", *case) for case in MALFORMED_BLOCKED]
    + [("cube", *case) for case in MALFORMED_CUBE]
    + [("ordered", *case) for case in MALFORMED_ORDERED]
)
#: the malformed files of the two formats that have an array decoder
MALFORMED_ARRAY = [case for case in MALFORMED if case[0] != "ordered"]
LOADS = {"blocked": loads_blocked, "cube": loads_hypercube, "ordered": loads_ordered}


class TestMalformedInput:
    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED])
    def test_format_error_names_the_line(self, kind, name, text, line_no):
        with pytest.raises(FormatError) as exc:
            LOADS[kind](text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED])
    def test_cli_exits_2_without_traceback(self, kind, name, text, line_no, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text(text)
        if kind == "ordered":
            pattern = tmp_path / "p3.og"
            write_ordered(pattern, OrderedGraph(3, [(0, 1), (1, 2)]))
            commands = [["classify", "--pattern", str(path)],
                        ["solve", "--pattern", str(pattern), "--host", str(path)]]
        else:
            commands = [["analyze-richness", "--host", str(path), "--alpha", "0.5"]]
        if kind == "cube":
            commands.append(["embed-hk", "--host", str(path), "--k", "2"])
        for argv in commands:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: line ") and "Traceback" not in captured.err


# ---------------------------------------------------------------- array paths
# loads_hypercube and loads_blocked decode canonical files as whole arrays and
# hand every other file to the per-line readers, which stay the oracle: they
# alone raise FormatError.

CUBE_TEXT = "3 3\n000 011\n001 111\n101 110\n"
BLOCKED_TEXT = "2 5 7\n0 1\n11\n00\n00\n00\n1e\n1 3\n00\n04\n00\n10\n00\n"

# (what differs from the canonical file, kind, file text); the per-line readers accept each
ACCEPTED_NONCANONICAL = [
    ("tab-separator", "cube", "3 3\n000\t011\n001\t111\n101\t110\n"),
    ("double-space", "cube", "3 3\n000  011\n001 111\n101 110\n"),
    ("leading-and-trailing-blanks", "cube", "3 3\n 000 011\n001 111 \n\t101 110\t\n"),
    ("header-spacing", "cube", " 3  3 \n000 011\n001 111\n101 110\n"),
    ("crlf", "cube", CUBE_TEXT.replace("\n", "\r\n")),
    ("cr", "cube", CUBE_TEXT.replace("\n", "\r")),
    ("form-feed-breaks", "cube", CUBE_TEXT.replace("\n", "\x0c")),
    ("lines-beyond-m", "cube", CUBE_TEXT + "111 000\nnot an edge\n"),
    ("no-final-newline", "cube", CUBE_TEXT[:-1]),
    ("uppercase-hex", "blocked", BLOCKED_TEXT.replace("1e", "1E")),
    ("0x-prefix", "blocked", BLOCKED_TEXT.replace("\n11\n", "\n0x11\n")),
    ("short-rows", "blocked", BLOCKED_TEXT.replace("\n00\n", "\n0\n")),
    ("long-rows", "blocked", BLOCKED_TEXT.replace("\n04\n", "\n0004\n")),
    ("underscore-and-plus", "blocked", BLOCKED_TEXT.replace("\n11\n", "\n+1_1\n")),
    ("row-blanks", "blocked", BLOCKED_TEXT.replace("\n10\n", "\n 10\t\n")),
    ("pair-tab", "blocked", BLOCKED_TEXT.replace("1 3", "1\t3")),
    ("pair-leading-zeros", "blocked", BLOCKED_TEXT.replace("1 3", "01 003")),
    ("pair-spacing", "blocked", BLOCKED_TEXT.replace("0 1", " 0  1 ")),
    ("crlf", "blocked", BLOCKED_TEXT.replace("\n", "\r\n")),
    ("no-final-newline", "blocked", BLOCKED_TEXT[:-1]),
]


def _codec(kind):
    if kind == "cube":
        return loads_hypercube, graphio._loads_hypercube_lines
    return loads_blocked, graphio._loads_blocked_lines


def _outcome(loads, text):
    """The graph ``loads`` returns, or the line number and message it raises."""
    try:
        return loads(text)
    except FormatError as exc:
        return exc.line_no, str(exc)


#: every ASCII character, and non-ASCII ones that str.splitlines does and
#: does not break lines on
ALL_CHARS = "".join(map(chr, range(128))) + "é\x85\u2028"
#: characters that the codecs treat differently from one another, among them
#: each byte b with b | 1 equal to a byte of the canonical cube layout
MUTATION_CHARS = "01 !\n\t\r\x0b\x1c2aAfF9x+-_é"


def _mutate(text, at, op, char):
    """``text`` with ``char`` inserted before, or put in place of, the character
    at index ``at``, or with that character deleted."""
    return text[:at] + ("" if op == "delete" else char) + text[at + (op != "insert"):]


class TestArrayPaths:
    @pytest.mark.parametrize("name, kind, text", ACCEPTED_NONCANONICAL,
                             ids=[f"{kind}-{name}" for name, kind, _ in ACCEPTED_NONCANONICAL])
    def test_noncanonical_forms_stay_accepted(self, name, kind, text):
        canonical = CUBE_TEXT if kind == "cube" else BLOCKED_TEXT
        loads, loads_lines = _codec(kind)
        want = loads(canonical)
        assert loads(text) == want == loads_lines(text)

    def test_canonical_tables_are_canonical(self):
        assert dumps_hypercube(loads_hypercube(CUBE_TEXT)) == CUBE_TEXT
        assert dumps_blocked(loads_blocked(BLOCKED_TEXT)) == BLOCKED_TEXT

    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED_ARRAY,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED_ARRAY])
    def test_malformed_message_is_the_line_readers(self, kind, name, text, line_no):
        loads, loads_lines = _codec(kind)
        assert _outcome(loads, text) == _outcome(loads_lines, text)

    @pytest.mark.parametrize("kind", ["cube", "blocked"])
    def test_every_one_byte_mutation_of_a_small_file(self, kind):
        text = CUBE_TEXT if kind == "cube" else BLOCKED_TEXT
        loads, loads_lines = _codec(kind)
        for at in range(len(text)):
            for op in ("replace", "insert", "delete"):
                for char in ALL_CHARS if op != "delete" else " ":
                    mutated = _mutate(text, at, op, char)
                    assert _outcome(loads, mutated) == _outcome(loads_lines, mutated), repr(mutated)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_byte_mutation_matches_the_line_reader(self, data):
        kind = data.draw(st.sampled_from(["cube", "blocked"]))
        if kind == "cube":
            d, edges = data.draw(cube_edge_sets().filter(lambda case: case[0] < 8))
            text = dumps_hypercube(HypercubeGraph(d, edges))
        else:
            text = dumps_blocked(data.draw(blocked_hosts()))
        # half the time, hit a separator or a line end
        breaks = [i for i, c in enumerate(text) if c in " \n"]
        at = data.draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(breaks)))
        mutated = _mutate(text, at, data.draw(st.sampled_from(["replace", "insert", "delete"])),
                          data.draw(st.sampled_from(MUTATION_CHARS)))
        loads, loads_lines = _codec(kind)
        assert _outcome(loads, mutated) == _outcome(loads_lines, mutated)


# ---------------------------------------------------------------- headers
# Header lines the malformed tables above lack. Every path reads the header
# its own way (the array readers from at most 64 bytes, read_host by its
# field count), and each must reach the per-line reader's outcome.

ORDERED_TEXT = "3 2\n0 1\n1 2\n"

# (format, what is wrong, file text, line number the FormatError names, or
# None where the per-line reader accepts the file)
HEADERS = [
    ("ordered", "one-field-too-many", "3 2 0" + ORDERED_TEXT[3:], 1),
    ("ordered", "one-field-too-few", "3" + ORDERED_TEXT[3:], 1),
    # int() reads any Unicode decimal digit, the array paths only ASCII
    ("ordered", "unicode-digit", "٣" + ORDERED_TEXT[1:], None),
    ("ordered", "vt-between-fields", ORDERED_TEXT.replace(" ", "\x0b", 1), 1),
    ("ordered", "fs-before-newline", ORDERED_TEXT.replace("\n", "\x1c\n", 1), 2),
    ("cube", "one-field-too-many", "3 3 0" + CUBE_TEXT[3:], 1),
    ("cube", "one-field-too-few", "3" + CUBE_TEXT[3:], 1),
    ("cube", "unicode-digit", "٣" + CUBE_TEXT[1:], None),
    ("cube", "vt-between-fields", CUBE_TEXT.replace(" ", "\x0b", 1), 1),
    # "\x1c" is blank to str.split, so the header alone reads as "3 3"
    ("cube", "fs-before-newline", CUBE_TEXT.replace("\n", "\x1c\n", 1), 2),
    ("blocked", "one-field-too-many", "2 5 7 0" + BLOCKED_TEXT[5:], 1),
    ("blocked", "one-field-too-few", "2 5" + BLOCKED_TEXT[5:], 1),
    ("blocked", "unicode-digit", "2 ٥" + BLOCKED_TEXT[3:], None),
    ("blocked", "vt-between-fields", BLOCKED_TEXT.replace(" ", "\x0b", 1), 1),
    ("blocked", "fs-before-newline", BLOCKED_TEXT.replace("\n", "\x1c\n", 1), 2),
]
HOST_HEADERS = [case for case in HEADERS if case[0] != "ordered"]
READ = {"blocked": read_blocked, "cube": read_hypercube, "ordered": read_ordered}
LINE_READERS = {"blocked": graphio._loads_blocked_lines, "cube": graphio._loads_hypercube_lines,
                "ordered": loads_ordered}


class TestHeaders:
    @pytest.mark.parametrize("kind, name, text, line_no", HEADERS,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in HEADERS])
    def test_every_path_gives_the_line_readers_outcome(self, kind, name, text, line_no, tmp_path):
        want = _outcome(LINE_READERS[kind], text)
        assert (want[0] if isinstance(want, tuple) else None) == line_no
        path = tmp_path / "graph.txt"
        path.write_bytes(text.encode())
        assert _outcome(LOADS[kind], text) == want
        assert _outcome(READ[kind], path) == want

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    @pytest.mark.parametrize("kind, name, text, line_no", HOST_HEADERS,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in HOST_HEADERS])
    def test_read_host_on_a_pipe(self, kind, name, text, line_no):
        # read_host takes a first line of three fields for a blocked host and
        # any other for a cube graph, whatever the file's own format
        first = text.splitlines()[0]
        picked = "blocked" if len(first.split()) == 3 else "cube"
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "wb") as fh:  # within the pipe's buffer
            fh.write(text.encode())
        try:
            got = _outcome(graphio.read_host, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert got == _outcome(LINE_READERS[picked], text)


# ---------------------------------------------------------------- slabs
# The bulk writers and the cube reader work a slab of about _SLAB_BYTES at a
# time. Smaller slabs put slab boundaries inside the small files below.


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _slab_bytes(kind, unit):
    """A slab of one unit (a record, or a block), three, or an odd byte count
    of seven units and three bytes."""
    return {"1-unit": unit, "3-units": 3 * unit, "odd": 7 * unit + 3}[kind]


SLAB_KINDS = ["1-unit", "3-units", "odd"]


def _traced_peak(f) -> int:
    """The peak bytes tracemalloc traces while ``f`` runs, counted from the
    memory in use when it starts."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _read_outcome(read, path):
    """What ``read(path)`` returns, or the type and message of what it raises."""
    try:
        return read(path)
    except ValueError as exc:  # FormatError and UnicodeDecodeError
        return type(exc), str(exc)


def _read_as_text(path):
    """The reference for ``read_hypercube``: the whole file read as text."""
    with open(path) as fh:
        return loads_hypercube(fh.read())


class TestSlabs:
    def test_cube_writer_keeps_the_pinned_bytes(self, monkeypatch):
        # the pinned files up to d = 10, each at most 11.5 MB
        graphs = [(lambda d=d: complete_hypercube(d), digest)
                  for d, digest in COMPLETE_CUBE_DIGESTS if d <= 10]
        graphs += [(lambda case=case: seeded_sparse_cube(*case), digest)
                   for *case, digest in SEEDED_CUBE_DIGESTS if case[0] <= 10]
        for graph, digest in graphs:
            g = graph()
            # a slab takes whole vertices, so a record's or a few records'
            # worth holds one; 509 and 4093 bytes hold runs of several
            for slab_bytes in [_slab_bytes(kind, 2 * g.d + 2) for kind in SLAB_KINDS] + [509, 4093]:
                monkeypatch.setattr(graphio, "_SLAB_BYTES", slab_bytes)
                assert _sha256(dumps_hypercube(g)) == digest, (g.d, slab_bytes)

    def test_blocked_writer_keeps_the_pinned_bytes(self, monkeypatch, tmp_path):
        for m, d, digest in BLOCKED_DIGESTS:
            g = generate_host(m, d, 0)
            for kind in SLAB_KINDS:
                monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, graphio._block_bytes(d, m)))
                write_blocked(tmp_path / "g.rg", g)
                assert _sha256((tmp_path / "g.rg").read_bytes()) == digest, (m, d, kind)

    @pytest.mark.parametrize("kind", SLAB_KINDS)
    def test_cube_reader_decodes_across_slabs(self, kind, monkeypatch, tmp_path):
        graphs = [complete_hypercube(d) for d in (1, 2, 4, 5)]
        graphs += [seeded_sparse_cube(*case) for case in [(9, 400, 2024), (11, 300, 7), (8, 0, 0)]]
        path = tmp_path / "g.hg"
        for g in graphs:
            write_hypercube(path, g)
            monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, 2 * g.d + 2))
            # a doubt would end in the per-line reader
            monkeypatch.setattr(graphio, "_loads_hypercube_lines", None)
            assert read_hypercube(path) == g
            assert loads_hypercube(path.read_text()) == g
            monkeypatch.undo()
            assert _sha256(path.read_bytes()) == _sha256(dumps_hypercube(g))

    @pytest.mark.parametrize("record", [3, 4, 5, 27])  # the second slab, and the last record
    @pytest.mark.parametrize("bad", [
        ("self-loop", lambda line: line[:4] + line[:3] + "\n"),
        ("digit-2", lambda line: "2" + line[1:]),
        ("bang-separator", lambda line: line[:3] + "!" + line[4:]),
        ("tab-separator", lambda line: line[:3] + "\t" + line[4:]),
        ("short-label", lambda line: line[1:]),
        ("no-newline", lambda line: line[:-1]),
    ], ids=lambda bad: bad[0])
    def test_bad_record_fails_as_the_line_reader(self, record, bad, monkeypatch, tmp_path):
        # the complete d = 3 cube: 28 records of 8 bytes, 3 to a slab
        lines = dumps_hypercube(complete_hypercube(3)).splitlines(keepends=True)
        lines[1 + record] = bad[1](lines[1 + record])
        text = "".join(lines)
        path = tmp_path / "g.hg"
        path.write_text(text)
        monkeypatch.setattr(graphio, "_SLAB_BYTES", 3 * 8)
        want = _outcome(graphio._loads_hypercube_lines, text)
        assert _outcome(read_hypercube, path) == _outcome(loads_hypercube, text) == want

    CUBE_BYTES = CUBE_TEXT.encode()

    @pytest.mark.parametrize("name, data", [
        ("crlf", CUBE_BYTES.replace(b"\n", b"\r\n")),
        ("cr", CUBE_BYTES.replace(b"\n", b"\r")),
        ("crlf-header", CUBE_BYTES.replace(b"\n", b"\r\n", 1)),
        ("crlf-last-record", CUBE_BYTES[:-1] + b"\r\n"),
        ("cr-after-the-records", CUBE_BYTES + b"\r\rnot an edge\r"),
        ("utf8-after-the-records", CUBE_BYTES + "é\u2028\n".encode()),
        ("utf8-in-a-record", CUBE_BYTES.replace(b"001 111", "001 1\u06611".encode())),
        ("not-utf8-after-the-records", CUBE_BYTES + b"\xff\n"),
        ("not-utf8-in-a-record", CUBE_BYTES.replace(b"001 111", b"001 1\xff1")),
        ("bom", b"\xef\xbb\xbf" + CUBE_BYTES),
        ("nul-after-the-records", CUBE_BYTES + b"\0"),
        ("long-header", b"3" + b" " * 100 + CUBE_BYTES[1:]),
        ("short", CUBE_BYTES[:-3]),
        ("header-only", b"3 3\n"),
        ("no-header-newline", b"3 0"),
        ("empty", b""),
    ])
    @pytest.mark.parametrize("kind", SLAB_KINDS)
    def test_reads_as_text_mode_does(self, name, data, kind, monkeypatch, tmp_path):
        path = tmp_path / "g.hg"
        path.write_bytes(data)
        monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, 8))
        assert _read_outcome(read_hypercube, path) == _read_outcome(_read_as_text, path)


    @pytest.mark.parametrize("kind", SLAB_KINDS)
    def test_gen_host_writes_the_pinned_bytes_in_runs(self, kind, monkeypatch, tmp_path, capsys):
        # gen-host draws, encodes and writes runs of 1, 3 and 7 block pairs;
        # m <= 12 draws from the numpy kernel, m >= 13 from Philox.random_raw
        path = tmp_path / "g.rg"
        cases = [(m, d, 0, digest) for m, d, digest in BLOCKED_DIGESTS if m << d <= 1024]
        cases += [(m, d, seed, None) for m, d, seed in [(1, 4, 3), (13, 2, 1), (3, 5, 2**64 - 1)]]
        for m, d, seed, digest in cases:
            g = generate_host(m, d, seed)
            write_blocked(path, g)
            want = _sha256(path.read_bytes())
            assert digest in (None, want)
            monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, graphio._block_bytes(d, m)))
            argv = ["gen-host", "--m", str(m), "--d", str(d), "--seed", str(seed), "--out", str(path)]
            assert main(argv) == 0
            monkeypatch.undo()
            assert _sha256(path.read_bytes()) == want, (m, d, seed)
            out = json.loads(capsys.readouterr().out)
            assert out["level_counts"] == g.level_counts()[1:] and out["edges"] == g.num_edges()

    @pytest.mark.parametrize("kind", SLAB_KINDS)
    def test_blocked_reader_decodes_across_slabs(self, kind, monkeypatch, tmp_path):
        graphs = [generate_host(m, d, 0) for m, d, _ in BLOCKED_DIGESTS if m << d <= 1024]
        sparse = generate_host(3, 5, 1)
        graphs += [BlockedGraph(5, 3, 1, sparse.pairs[1::3], sparse.mats[1::3]),
                   BlockedGraph(4, 2, 9, [], [])]
        path = tmp_path / "g.rg"
        for g in graphs:
            write_blocked(path, g)
            text = path.read_text()
            # the blocks in reverse order decode too, and are sorted back
            lines = text.splitlines(keepends=True)
            blocks = ["".join(lines[i:i + g.m + 1]) for i in range(1, len(lines), g.m + 1)]
            reverse = lines[0] + "".join(reversed(blocks))
            monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, graphio._block_bytes(g.d, g.m)))
            # a doubt would end in the per-line reader
            monkeypatch.setattr(graphio, "_loads_blocked_lines", None)
            for got in (read_blocked(path), loads_blocked(text), loads_blocked(reverse)):
                assert got == g and got.seed == g.seed and got.pairs.shape[0] == len(blocks)
            monkeypatch.undo()

    @pytest.mark.parametrize("bad", [
        ("non-hex-row", lambda lines, at: {at(4) + 2: "zz\n"}),
        ("bits-beyond-m", lambda lines, at: {at(4) + 5: "ff\n"}),
        ("pair-out-of-range", lambda lines, at: {at(4): "0 99\n"}),
        ("pair-not-increasing", lambda lines, at: {at(3): "6 6\n"}),
        ("pair-of-the-first-run-again", lambda lines, at: {at(4): lines[at(1)]}),
        ("pair-of-the-second-run-again", lambda lines, at: {at(5): lines[at(3)]}),
        ("last-block-truncated", lambda lines, at: {len(lines) - 1: ""}),
        # accepted: a short row, and a pair line longer than any that decodes as arrays
        ("short-row", lambda lines, at: {at(5) + 1: "1\n"}),
        ("long-pair-line", lambda lines, at: {at(4): "0" * 40 + lines[at(4)]}),
    ], ids=lambda bad: bad[0])
    def test_bad_block_fails_as_the_line_reader(self, bad, monkeypatch, tmp_path):
        # generate_host(5, 3, 0): 28 blocks of a pair line and five 2-digit
        # rows, 3 to a slab, so that blocks 3, 4 and 5 are the second run
        lines = dumps_blocked(generate_host(5, 3, 0)).splitlines(keepends=True)
        for at, line in bad[1](lines, lambda block: 1 + 6 * block).items():
            lines[at] = line
        text = "".join(lines)
        path = tmp_path / "g.rg"
        path.write_text(text)
        monkeypatch.setattr(graphio, "_SLAB_BYTES", 3 * graphio._block_bytes(3, 5))
        want = _outcome(graphio._loads_blocked_lines, text)
        assert isinstance(want, tuple) == (bad[0] not in ("short-row", "long-pair-line"))
        assert _outcome(read_blocked, path) == _outcome(loads_blocked, text) == want


class TestBoundedMemory:
    # tracemalloc peaks over the input, measured with numpy 2.4 on CPython
    # 3.11, each with a margin of about a quarter; a whole-file array of the
    # cube file alone is 11.5 MB

    def test_cube_writer(self, tmp_path):
        g = complete_hypercube(10)
        peak = _traced_peak(lambda: write_hypercube(tmp_path / "g.hg", g))
        assert peak < 3.2 * 2**20  # measured 2.51 MiB

    def test_cube_writer_on_two_edges_of_a_large_cube(self):
        # the vertices without forward edges are skipped, and no label table
        # grows with the cube: 2^21 x 22 bytes were 46 MiB of it
        g = HypercubeGraph(21, [(0, 1), (5, 1 << 20)])
        peak = _traced_peak(lambda: dumps_hypercube(g))
        assert peak < 1.7 * 2**20  # measured 1.30 MiB: 1 MiB of it 5's mask, a byte per bit

    def test_cube_reader(self, tmp_path):
        path = tmp_path / "g.hg"
        write_hypercube(path, complete_hypercube(10))
        peak = _traced_peak(lambda: read_hypercube(path))
        assert peak < 8.2 * 2**20  # measured 6.56 MiB: 4 MiB of it the keys

    def test_blocked_writer(self, tmp_path):
        g = generate_host(256, 4, 0)  # its mats are 7.5 MiB
        peak = _traced_peak(lambda: write_blocked(tmp_path / "g.rg", g))
        assert peak < 2.7 * 2**20  # measured 2.14 MiB

    @pytest.mark.parametrize("m, d, bound", [
        (256, 4, 3.6),  # measured 2.83 MiB; the host's cells alone are 7.5 MiB
        (2, 11, 2.8),  # measured 2.22 MiB; the host's cells alone are 8 MiB
    ])
    def test_gen_host(self, m, d, bound, tmp_path, capsys):
        argv = ["gen-host", "--m", str(m), "--d", str(d), "--seed", "0", "--out", str(tmp_path / "g.rg")]
        peak = _traced_peak(lambda: main(argv))
        assert peak < bound * 2**20

    def test_blocked_reader(self, tmp_path):
        path = tmp_path / "g.rg"
        write_blocked(path, generate_host(256, 4, 0))  # a 2.1 MB file
        peak = _traced_peak(lambda: read_blocked(path))
        assert peak < 11.8 * 2**20  # measured 9.46 MiB: 7.5 MiB of it the host's cells

    def test_blocked_header_larger_than_the_file(self, tmp_path):
        # one block of 2^20 rows declared in a 1 MiB file of empty lines: the
        # array path once allocated the header's 1 TiB of cells before it
        # found the rows missing
        text = "1 1048576 0\n0 1\n" + "\n" * (1 << 20)
        path = tmp_path / "g.rg"
        path.write_text(text)
        for read, source in ((read_blocked, path), (loads_blocked, text)):
            got = []
            peak = _traced_peak(lambda: got.append(_outcome(read, source)))
            assert got == [(3, "line 3: expected hex row, got ''")]
            # measured 17.06 MiB, the per-line reader's lines most of it
            assert peak < 21.5 * 2**20

    def test_cube_reader_rejects_a_large_cube_without_its_labels(self):
        # the per-line reader once built all 2^21 labels before the first edge
        # line, 295 MiB traced to reject 10 bytes
        got = []
        peak = _traced_peak(lambda: got.append(_outcome(loads_hypercube, "21 1\n0 1\n")))
        assert got == [(2, "line 2: expected two length-21 bitstrings, got '0 1'")]
        assert peak < 2**20  # measured 0.01 MiB

    # edges (u, 1023 - u) for u < 64, whose masks may need 16,400 bytes, with
    # the cap lowered to 1000 bytes: at the cap of 2^31 bytes, such a file of
    # 2^15 edges on 2^21 vertices asked for about 16 GiB and exited 1
    FAR_EDGES = [(u, 1023 - u) for u in range(64)]

    @pytest.mark.parametrize("name, line, fast", [
        ("far.og", "{} {}\n", None),
        ("far.hg", "{:010b} {:010b}\n", True),  # records the array reader decodes
        ("spaced.hg", "{:010b}  {:010b}\n", False),  # two blanks: the per-line reader's
    ])
    def test_far_reaching_edges_are_refused(self, name, line, fast, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(core, "_MAX_BUILD_BYTES", 1000)
        path = tmp_path / name
        header = "1024 64\n" if fast is None else "10 64\n"
        path.write_text(header + "".join(line.format(*e) for e in self.FAR_EDGES))
        if fast is None:
            read, commands = read_ordered, [["classify", "--pattern"]]
        else:
            read, commands = read_hypercube, [["analyze-richness", "--alpha", "0.5", "--host"],
                                              ["embed-hk", "--k", "2", "--host"]]
            with open(path, "rb") as fh:
                if fast:
                    with pytest.raises(BudgetError):
                        graphio._read_cube(fh)
                else:
                    assert graphio._read_cube(fh) is None
        with pytest.raises(BudgetError, match="bitmasks of up to 16400 bytes exceed 1000"):
            read(path)
        for command in commands:
            assert main([*command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: bitmasks of up to 16400 bytes")

    def test_tile_sampler(self):
        cfg = TilingConfig(12, tuple(range(1, 13)), 6, 3)
        peak = _traced_peak(lambda: sample_many(cfg, 100_000, 3))
        assert peak < 6.2 * 2**20  # measured 4.96 MiB: 2.3 MiB of it the chains
