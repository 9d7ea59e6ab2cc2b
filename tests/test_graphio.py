import functools
import hashlib
import json
import os
import re
import time
import timeit
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
from relturan.richness import strip_top_forward
from relturan.tiling import TilingConfig, sample_many
from richness_oracle import strip_top_forward as strip_reference


# ---------------------------------------------------------------- references
# Per-line and per-bit codecs, kept only here as the oracle the numpy codecs
# in graphio are checked against. The decoders are strict: they take exactly
# the layout the writers write and raise BadLine at the first line that is
# not laid out so, or at the line after the last when the file ends early.


class BadLine(Exception):
    def __init__(self, line_no):
        super().__init__(line_no)
        self.line_no = line_no


def _ref_lines(text, fields):
    """The lines of ``text``'s bytes, the last one what follows the final
    "\\n", and the ints of its header: ``fields`` runs of ASCII digits one
    space apart, in a line of at most 64 bytes with its "\\n"."""
    lines = text.encode().split(b"\n")
    if len(lines) == 1 or len(lines[0]) >= 64 or not re.fullmatch(rb"[0-9]+( [0-9]+)*", lines[0]):
        raise BadLine(1)
    ints = [int(t) for t in lines[0].split(b" ")]
    if len(ints) != fields:
        raise BadLine(1)
    return lines, ints


def ref_decode_cube(text):
    lines, (d, m) = _ref_lines(text, 2)
    if not 1 <= d <= 21:
        raise BadLine(1)

    @functools.cache
    def value(s):
        return sum(1 << (d - 1 - i) for i, c in enumerate(s) if c == ord("1"))

    edges = set()
    for i in range(1, m + 1):
        # the last of ``lines`` ends without "\\n": a line it starts is cut
        # short, and an empty one is the end of the file
        if i == len(lines) - 1 or not re.fullmatch(rb"[01]{%d} [01]{%d}" % (d, d), lines[i]):
            raise BadLine(i + 1)
        u, v = map(value, lines[i].split(b" "))
        if u == v:
            raise BadLine(i + 1)
        edges.add((min(u, v), max(u, v)))
    return d, edges


def ref_encode_cube(d, edges):
    @functools.cache
    def label(v):
        return "".join("1" if (v >> (d - 1 - i)) & 1 else "0" for i in range(d))

    return "".join([f"{d} {len(edges)}\n", *(f"{label(u)} {label(v)}\n" for u, v in sorted(edges))])


def ref_decode_blocked(text):
    lines, (d, m, seed) = _ref_lines(text, 3)
    if not (1 <= d <= 21 and 1 <= m and m << d <= 1 << 21):
        raise BadLine(1)
    blocks = {}
    for i in range(1, len(lines)):
        r = (i - 1) % (m + 1)  # 0 on a pair line, else the row's number plus 1
        if i == len(lines) - 1:  # the end of the file, or a line without "\\n"
            if lines[i] or r:
                raise BadLine(i + 1)
        elif r == 0:
            pair = re.fullmatch(rb"([0-9]{1,18}) ([0-9]{1,18})", lines[i])
            x, y = (int(t) for t in pair.groups()) if pair else (0, 0)
            if not x < y < 1 << d or (x, y) in blocks:
                raise BadLine(i + 1)
            mat = blocks[(x, y)] = np.zeros((m, m), dtype=bool)
        else:
            if not re.fullmatch(rb"[0-9a-f]{%d}" % ((m + 3) // 4), lines[i]) or int(lines[i], 16) >> m:
                raise BadLine(i + 1)
            row = int(lines[i], 16)
            for j in range(m):
                mat[r - 1, j] = (row >> j) & 1
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


def _count_calls(monkeypatch, name):
    """Wrap ``graphio``'s function ``name`` so that each call adds one to the
    one-entry list returned."""
    calls, wrapped = [0], getattr(graphio, name)

    def counted(*args):
        calls[0] += 1
        return wrapped(*args)

    monkeypatch.setattr(graphio, name, counted)
    return calls


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
def listed_blocks(draw):
    """(d, m, seed, blocks): blocks that are all-zero, all-one or random, on a
    subset of the pairs."""
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
    return d, m, draw(st.integers(0, 1000)), blocks


def blocked_hosts():
    """The hosts built from ``listed_blocks``, which drop the all-zero ones."""
    return listed_blocks().map(lambda case: BlockedGraph(*case[:3], list(case[3]), list(case[3].values())))


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
        # the one reader, called once
        g = seeded_sparse_cube(7, 500, 1)
        calls = _count_calls(monkeypatch, "_read_cube")
        assert loads_hypercube(dumps_hypercube(g)) == g and calls == [1]


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
    @given(listed_blocks())
    def test_matches_reference(self, case):
        d, m, seed, blocks = case
        g = BlockedGraph(d, m, seed, list(blocks), list(blocks.values()))
        # the graph lists exactly the blocks with an edge, in pair order
        assert list(g.blocks) == sorted(key for key, mat in blocks.items() if mat.any())
        for key, mat in g.blocks.items():
            assert mat.dtype == bool and np.array_equal(mat, blocks[key])
        text = dumps_blocked(g)
        assert text == ref_encode_blocked(d, m, seed, blocks)
        assert loads_blocked(text) == g
        # a file may also list all-zero blocks; the reader drops them
        full = ref_encode_blocked(d, m, seed, blocks, keep_empty=True)
        assert ref_decode_blocked(full)[:3] == (d, m, seed)
        assert sorted(ref_decode_blocked(full)[3]) == sorted(blocks)
        assert loads_blocked(full) == g

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
        # the one reader, called once
        host = generate_host(m=9, d=3, seed=5)
        calls = _count_calls(monkeypatch, "_read_blocked")
        assert loads_blocked(dumps_blocked(host)) == host and calls == [1]

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
# loads_hypercube and loads_blocked decode a file as whole arrays and take
# exactly the layout the writers write; every other file fails at the first
# line the strict references above refuse.

CUBE_TEXT = "3 3\n000 011\n001 111\n101 110\n"
BLOCKED_TEXT = "2 5 7\n0 1\n11\n00\n00\n00\n1e\n1 3\n00\n04\n00\n10\n00\n"

# (what differs from the canonical file, kind, file text, line number the
# FormatError names, or None where the file loads as the canonical one)
ACCEPTED_NONCANONICAL = [
    ("tab-separator", "cube", "3 3\n000\t011\n001\t111\n101\t110\n", 2),
    ("double-space", "cube", "3 3\n000  011\n001 111\n101 110\n", 2),
    ("leading-and-trailing-blanks", "cube", "3 3\n 000 011\n001 111 \n\t101 110\t\n", 2),
    ("header-spacing", "cube", " 3  3 \n000 011\n001 111\n101 110\n", 1),
    ("crlf", "cube", CUBE_TEXT.replace("\n", "\r\n"), 1),
    ("cr", "cube", CUBE_TEXT.replace("\n", "\r"), 1),
    ("form-feed-breaks", "cube", CUBE_TEXT.replace("\n", "\x0c"), 1),
    # the bytes after the m edge lines are not read
    ("lines-beyond-m", "cube", CUBE_TEXT + "111 000\nnot an edge\n", None),
    ("no-final-newline", "cube", CUBE_TEXT[:-1], 4),
    ("uppercase-hex", "blocked", BLOCKED_TEXT.replace("1e", "1E"), 7),
    ("0x-prefix", "blocked", BLOCKED_TEXT.replace("\n11\n", "\n0x11\n"), 3),
    ("short-rows", "blocked", BLOCKED_TEXT.replace("\n00\n", "\n0\n"), 4),
    ("long-rows", "blocked", BLOCKED_TEXT.replace("\n04\n", "\n0004\n"), 10),
    ("underscore-and-plus", "blocked", BLOCKED_TEXT.replace("\n11\n", "\n+1_1\n"), 3),
    ("row-blanks", "blocked", BLOCKED_TEXT.replace("\n10\n", "\n 10\t\n"), 12),
    ("pair-tab", "blocked", BLOCKED_TEXT.replace("1 3", "1\t3"), 8),
    # x and y are runs of 1-18 digits, leading zeros included
    ("pair-leading-zeros", "blocked", BLOCKED_TEXT.replace("1 3", "01 003"), None),
    ("pair-spacing", "blocked", BLOCKED_TEXT.replace("0 1", " 0  1 "), 2),
    ("crlf", "blocked", BLOCKED_TEXT.replace("\n", "\r\n"), 1),
    ("no-final-newline", "blocked", BLOCKED_TEXT[:-1], 13),
]
#: the message of each row of MALFORMED_ARRAY, by its test id
MALFORMED_MESSAGES = {
    "blocked-empty-file": "line 1: expected 'd m seed', got ''",
    "blocked-short-header": "line 1: expected 'd m seed', got '1 2'",
    "blocked-header-d=0": 'line 1: need 1 <= d <= 21 and m >= 1',
    "blocked-header-m=0": 'line 1: need 1 <= d <= 21 and m >= 1',
    "blocked-truncated-block": 'line 4: block matrix truncated',
    "blocked-truncated-before-rows": 'line 6: block matrix truncated',
    "blocked-non-hex-row": "line 3: expected hex row, got 'zz'",
    "blocked-blank-row": "line 4: expected hex row, got ''",
    "blocked-bits-beyond-m": 'line 4: row has bits beyond column 1',
    "blocked-negative-row": "line 3: expected hex row, got '-1'",
    "blocked-duplicate-pair": 'line 4: duplicate block pair (0, 1)',
    "blocked-pair-beyond-2^d": 'line 2: block pair (0, 2) out of range',
    "blocked-pair-not-increasing": 'line 4: block pair (2, 2) out of range',
    "blocked-pair-line-malformed": "line 2: expected 'x y', got '0 1 1'",
    "blocked-pair-lines-three-and-one": "line 2: expected 'x y', got '0 1 2'",
    "blocked-header-beyond-the-vertex-budget": 'line 1: 2097154 vertices exceeds budget 2097152',
    "blocked-header-d=60": 'line 1: need 1 <= d <= 21 and m >= 1',
    "blocked-header-d=70": 'line 1: need 1 <= d <= 21 and m >= 1',
    "blocked-header-d=100000": 'line 1: need 1 <= d <= 21 and m >= 1',
    "cube-empty-file": "line 1: expected 'd m', got ''",
    "cube-header-d=0": 'line 1: need 1 <= d <= 21, got 0',
    "cube-header-beyond-the-vertex-budget": 'line 1: need 1 <= d <= 21, got 22',
    "cube-header-not-two-ints": "line 1: expected 'd m', got '3'",
    "cube-negative-m": "line 1: expected 'd m', got '2 -2'",
    "cube-wrong-length": "line 2: expected two length-3 bitstrings, got '001 01'",
    "cube-digit-2": "line 3: expected two length-2 bitstrings, got '02 11'",
    "cube-binary-prefix": "line 2: expected two length-3 bitstrings, got '0b1 000'",
    "cube-one-label": "line 2: expected two length-2 bitstrings, got '00'",
    "cube-bang-separator": "line 2: expected two length-3 bitstrings, got '000!011'",
    "cube-self-loop": 'line 3: self-loop',
    "cube-truncated": 'line 3: expected 3 edge lines, file ends early',
}


def _codec(kind):
    return loads_hypercube if kind == "cube" else loads_blocked


def _outcome(loads, text):
    """The graph ``loads`` returns, or the line number and message it raises."""
    try:
        return loads(text)
    except FormatError as exc:
        return exc.line_no, str(exc)


def _line_outcome(loads, text):
    """The graph ``loads`` returns, or the line number it raises at."""
    got = _outcome(loads, text)
    return got[0] if isinstance(got, tuple) else got


def _ref_outcome(kind, text):
    """The graph the strict reference decodes ``text`` to, or the line number
    it refuses."""
    try:
        if kind == "cube":
            return HypercubeGraph(*ref_decode_cube(text))
        d, m, seed, blocks = ref_decode_blocked(text)
        return BlockedGraph(d, m, seed, list(blocks), list(blocks.values()))
    except BadLine as exc:
        return exc.line_no


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
    @pytest.mark.parametrize("name, kind, text, line_no", ACCEPTED_NONCANONICAL,
                             ids=[f"{kind}-{name}" for name, kind, _, _ in ACCEPTED_NONCANONICAL])
    def test_noncanonical_forms_stay_accepted(self, name, kind, text, line_no):
        # each form the per-line readers of earlier versions took fails at
        # its pinned line, or loads as the canonical file does
        loads = _codec(kind)
        want = loads(CUBE_TEXT if kind == "cube" else BLOCKED_TEXT) if line_no is None else line_no
        assert _line_outcome(loads, text) == want == _ref_outcome(kind, text)

    def test_canonical_tables_are_canonical(self):
        assert dumps_hypercube(loads_hypercube(CUBE_TEXT)) == CUBE_TEXT
        assert dumps_blocked(loads_blocked(BLOCKED_TEXT)) == BLOCKED_TEXT

    @pytest.mark.parametrize("kind, name, text, line_no", MALFORMED_ARRAY,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in MALFORMED_ARRAY])
    def test_malformed_message_is_the_line_readers(self, kind, name, text, line_no):
        # the message is pinned, and the strict reference refuses the same line
        assert _outcome(_codec(kind), text) == (line_no, MALFORMED_MESSAGES[f"{kind}-{name}"])
        assert _ref_outcome(kind, text) == line_no

    @pytest.mark.parametrize("kind", ["cube", "blocked"])
    def test_every_one_byte_mutation_of_a_small_file(self, kind):
        text = CUBE_TEXT if kind == "cube" else BLOCKED_TEXT
        for at in range(len(text)):
            for op in ("replace", "insert", "delete"):
                for char in ALL_CHARS if op != "delete" else " ":
                    mutated = _mutate(text, at, op, char)
                    assert _line_outcome(_codec(kind), mutated) == _ref_outcome(kind, mutated), repr(mutated)

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
        assert _line_outcome(_codec(kind), mutated) == _ref_outcome(kind, mutated)


# ---------------------------------------------------------------- headers
# Header lines the malformed tables above lack, read on every path: loads_*,
# read_* on a file and read_host on a pipe, which picks the format by the
# header's field count.

ORDERED_TEXT = "3 2\n0 1\n1 2\n"

# (format, what is wrong, file text, line number the FormatError names, or
# None where the file loads)
HEADERS = [
    ("ordered", "one-field-too-many", "3 2 0" + ORDERED_TEXT[3:], 1),
    ("ordered", "one-field-too-few", "3" + ORDERED_TEXT[3:], 1),
    # int() reads any Unicode decimal digit, the host readers only ASCII
    ("ordered", "unicode-digit", "٣" + ORDERED_TEXT[1:], None),
    ("ordered", "vt-between-fields", ORDERED_TEXT.replace(" ", "\x0b", 1), 1),
    # "\x1c" is blank to str.split, so the ordered header alone reads as "3 2"
    ("ordered", "fs-before-newline", ORDERED_TEXT.replace("\n", "\x1c\n", 1), 2),
    ("cube", "one-field-too-many", "3 3 0" + CUBE_TEXT[3:], 1),
    ("cube", "one-field-too-few", "3" + CUBE_TEXT[3:], 1),
    ("cube", "unicode-digit", "٣" + CUBE_TEXT[1:], 1),
    ("cube", "vt-between-fields", CUBE_TEXT.replace(" ", "\x0b", 1), 1),
    ("cube", "fs-before-newline", CUBE_TEXT.replace("\n", "\x1c\n", 1), 1),
    ("blocked", "one-field-too-many", "2 5 7 0" + BLOCKED_TEXT[5:], 1),
    ("blocked", "one-field-too-few", "2 5" + BLOCKED_TEXT[5:], 1),
    ("blocked", "unicode-digit", "2 ٥" + BLOCKED_TEXT[3:], 1),
    ("blocked", "vt-between-fields", BLOCKED_TEXT.replace(" ", "\x0b", 1), 1),
    ("blocked", "fs-before-newline", BLOCKED_TEXT.replace("\n", "\x1c\n", 1), 1),
]
HOST_HEADERS = [case for case in HEADERS if case[0] != "ordered"]
READ = {"blocked": read_blocked, "cube": read_hypercube, "ordered": read_ordered}


def _picked(data):
    """The format ``read_host`` picks for a file of the bytes ``data``: a
    blocked host when the header line holds three blank-separated fields."""
    return "blocked" if len(data.partition(b"\n")[0].split()) == 3 else "cube"


def _through_a_pipe(read, data):
    """What ``read`` gives on ``/dev/fd/N`` of a pipe that holds ``data``."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:  # within the pipe's buffer
        fh.write(data)
    try:
        return _outcome(read, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


class TestHeaders:
    @pytest.mark.parametrize("kind, name, text, line_no", HEADERS,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in HEADERS])
    def test_every_path_gives_the_line_readers_outcome(self, kind, name, text, line_no, tmp_path):
        want = _outcome(LOADS[kind], text)
        assert (want[0] if isinstance(want, tuple) else None) == line_no
        path = tmp_path / "graph.txt"
        path.write_bytes(text.encode())
        assert _outcome(READ[kind], path) == want

    @pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
    @pytest.mark.parametrize("kind, name, text, line_no", HOST_HEADERS,
                             ids=[f"{kind}-{name}" for kind, name, _, _ in HOST_HEADERS])
    def test_read_host_on_a_pipe(self, kind, name, text, line_no):
        # read_host picks the format by the header line, whatever the file's own
        data = text.encode()
        assert _through_a_pipe(graphio.read_host, data) == _outcome(LOADS[_picked(data)], text)


# canonical host files, the header table's host rows and the non-canonical
# files: (kind, name, file bytes)
HOST_FILES = [
    ("cube", "canonical", CUBE_TEXT.encode()),
    ("blocked", "canonical", BLOCKED_TEXT.encode()),
    *[(kind, name, text.encode()) for kind, name, text, _ in HOST_HEADERS],
    *[(kind, name, text.encode()) for name, kind, text, _ in ACCEPTED_NONCANONICAL],
    ("cube", "not-utf-8", b"3 3\n000 011\n\xff\n"),
    ("blocked", "not-utf-8", b"2 5 \xff\n0 1\n"),
]


@pytest.mark.parametrize("kind, name, data", HOST_FILES,
                         ids=[f"{kind}-{name}" for kind, name, _ in HOST_FILES])
def test_read_host_opens_a_file_once(kind, name, data, tmp_path, monkeypatch):
    # read_host picks the format by the header's field count, as on a pipe,
    # and reads the file through one open, as the format's own reader does
    path = tmp_path / "host.txt"
    path.write_bytes(data)
    want = _outcome(READ[_picked(data)], path)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(graphio, "open", counting_open, raising=False)
    assert _outcome(graphio.read_host, path) == want
    assert opened == [path]


@pytest.mark.parametrize("kind, reader", [("cube", "_read_cube"), ("blocked", "_read_blocked")])
def test_each_read_makes_one_reader_call_per_file(kind, reader, tmp_path, monkeypatch):
    # a canonical file and refused ones, through read_* and read_host: the
    # format's reader decodes each once, and nothing else decodes it
    texts = [CUBE_TEXT if kind == "cube" else BLOCKED_TEXT]
    texts += [text for _, of, text, line_no in ACCEPTED_NONCANONICAL if of == kind and line_no]
    path = tmp_path / "host.txt"
    for text in texts:
        path.write_bytes(text.encode())
        for read in (READ[kind], graphio.read_host):
            calls = _count_calls(monkeypatch, reader)
            _outcome(read, path)
            monkeypatch.undo()
            assert calls == [1], (read.__name__, text)


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
        # the complete d = 3 cube: 28 records of 8 bytes, 3 to a slab; each
        # bad record fails at its own line, 2 + record, as the reference says
        lines = dumps_hypercube(complete_hypercube(3)).splitlines(keepends=True)
        lines[1 + record] = bad[1](lines[1 + record])
        text = "".join(lines)
        path = tmp_path / "g.hg"
        path.write_text(text)
        monkeypatch.setattr(graphio, "_SLAB_BYTES", 3 * 8)
        got = _outcome(read_hypercube, path)
        assert got == _outcome(loads_hypercube, text) and got[0] == 2 + record == _ref_outcome("cube", text)

    CUBE_BYTES = CUBE_TEXT.encode()
    #: the line each file below fails at, or None where it loads as CUBE_TEXT
    TEXT_LINES = {"crlf": 1, "cr": 1, "crlf-header": 1, "crlf-last-record": 4,
                  "cr-after-the-records": None, "utf8-after-the-records": None,
                  "utf8-in-a-record": 3, "not-utf8-after-the-records": None,
                  "not-utf8-in-a-record": 3, "bom": 1, "nul-after-the-records": None,
                  "long-header": 1, "short": 4, "header-only": 2, "no-header-newline": 1,
                  "empty": 1}

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
        # a path, a pipe and loads_hypercube give one outcome: the pinned
        # line, or the canonical graph
        path = tmp_path / "g.hg"
        path.write_bytes(data)
        monkeypatch.setattr(graphio, "_SLAB_BYTES", _slab_bytes(kind, 8))
        got = _outcome(read_hypercube, path)
        want = self.TEXT_LINES[name] or loads_hypercube(CUBE_TEXT)
        assert (got[0] if isinstance(got, tuple) else got) == want
        if Path("/dev/fd").is_dir():
            assert _through_a_pipe(read_hypercube, data) == got
        try:
            text = data.decode()
        except UnicodeDecodeError:
            return
        assert _outcome(loads_hypercube, text) == got

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
            for got in (read_blocked(path), loads_blocked(text), loads_blocked(reverse)):
                assert got == g and got.seed == g.seed and got.pairs.shape[0] == len(blocks)
            monkeypatch.undo()

    # (what is wrong, the lines it puts in place, the line the FormatError names)
    @pytest.mark.parametrize("bad", [
        ("non-hex-row", lambda lines, at: {at(4) + 2: "zz\n"}, 28),
        ("bits-beyond-m", lambda lines, at: {at(4) + 5: "ff\n"}, 31),
        ("pair-out-of-range", lambda lines, at: {at(4): "0 99\n"}, 26),
        ("pair-not-increasing", lambda lines, at: {at(3): "6 6\n"}, 20),
        ("pair-of-the-first-run-again", lambda lines, at: {at(4): lines[at(1)]}, 26),
        ("pair-of-the-second-run-again", lambda lines, at: {at(5): lines[at(3)]}, 32),
        # a pair listed twice, one copy all zero: the reader sees every listed
        # pair before the graph drops the empty blocks
        ("zero-copy-of-a-pair-of-the-first-run",
         lambda lines, at: {at(4): lines[at(1)], **{at(4) + r: "00\n" for r in range(1, 6)}}, 26),
        ("zero-block-then-its-pair-in-the-second-run",
         lambda lines, at: {**{at(1) + r: "00\n" for r in range(1, 6)}, at(4): lines[at(1)]}, 26),
        ("two-zero-copies-in-one-run",
         lambda lines, at: {at(2): lines[at(1)], **{at(b) + r: "00\n" for b in (1, 2) for r in range(1, 6)}},
         14),
        # the file ends one line early: the FormatError names the line after the last
        ("last-block-truncated", lambda lines, at: {len(lines) - 1: ""}, 169),
        ("short-row", lambda lines, at: {at(5) + 1: "1\n"}, 33),
        # longer than any pair line the buffer is sized for
        ("long-pair-line", lambda lines, at: {at(4): "0" * 40 + lines[at(4)]}, 26),
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
        got = _outcome(read_blocked, path)
        assert got == _outcome(loads_blocked, text) and got[0] == bad[2] == _ref_outcome("blocked", text)


class TestWideRows:
    # a star from vertex 0 to the top 2^17 of 2^21 vertices, so that 0's
    # masks are 2^21 bits wide and every other row holds one key. The cube
    # reader packed such keys a row per slab, 13.9 s for this 5.77 MB file,
    # and the ordered reader grew 0's mask an edge at a time, 2.6 s; they
    # now take 0.2 and 0.6 s at most (2-vCPU VM), and the bound leaves a margin
    N = 1 << 21
    TOP = range(N - (1 << 17), N)
    SECONDS = 2.0

    def _check_star(self, g, edges):
        star = ((1 << len(self.TOP)) - 1) << self.TOP.start
        assert g.forward_masks[0] == star | (2 if (0, 1) in edges else 0)
        assert sum(map(bool, g.forward_masks)) == 1
        assert all(g.backward_masks[v] == 1 for v in self.TOP)
        assert sum(map(bool, g.backward_masks)) == len(edges) == g.num_edges()

    def _timed(self, read, path):
        start = time.perf_counter()
        g = read(path)
        assert time.perf_counter() - start < self.SECONDS
        return g

    def test_cube_file(self, tmp_path):
        edges = [(0, 1), *((0, v) for v in self.TOP)]
        path = tmp_path / "star.hg"
        path.write_text(f"21 {len(edges)}\n" + "".join(f"{u:021b} {v:021b}\n" for u, v in edges))
        assert path.stat().st_size == 5_767_222
        self._check_star(self._timed(read_hypercube, path), edges)

    def test_ordered_file(self, tmp_path):
        edges = [(0, v) for v in self.TOP]
        path = tmp_path / "star.og"
        path.write_text(f"{self.N} {len(edges)}\n" + "".join(f"0 {v}\n" for v in self.TOP))
        self._check_star(self._timed(read_ordered, path), edges)


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
        # measured 0.42 MiB; 1.30 MiB when 5's mask was unpacked a byte per
        # bit, where only its set bytes are now
        assert peak < 0.53 * 2**20

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
            # measured 10.01 MiB from the file and 11.00 from the text, 8 MiB
            # of it the line ends of the one slab; 17.06 MiB when the file went
            # to a per-line reader
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
        ("far.hg", "{:010b} {:010b}\n", True),  # records the reader decodes
        ("spaced.hg", "{:010b}  {:010b}\n", False),  # two blanks: refused at line 2
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
        if fast is False:
            # refused before any mask is built
            error, message = FormatError, "line 2: expected two length-10 bitstrings"
        else:
            error, message = BudgetError, "bitmasks of up to 16400 bytes exceed 1000"
        with pytest.raises(error, match=message):
            read(path)
        for command in commands:
            assert main([*command, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith(f"error: {message}")

    # the star from 0 to 1..131,073 on 2^21 vertices: each of its two mask
    # tables is 16 MiB as a tuple or a list of 2^21 entries
    @pytest.fixture(scope="class")
    def star_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("star") / "star.hg"
        write_hypercube(path, HypercubeGraph(21, [(0, v) for v in range(1, 131_074)]))
        return path

    def test_cube_reader_on_a_large_star(self, star_file):
        peak = _traced_peak(lambda: read_hypercube(star_file))
        # measured 51.2 MiB: both mask lists and the forward tuple, held as
        # each list becomes its tuple; 67.2 MiB when the lists were held
        # until both tuples were made. The margin is 7%: the traced bytes
        # are the same on every run
        assert peak < 55 * 2**20

    def test_cube_constructor_on_a_large_cube(self):
        peak = _traced_peak(lambda: HypercubeGraph(21, [(0, 1)]))
        # measured 48.0 MiB, as in the reader, with a margin of 4%; 64.0 MiB
        # when the edge list's masks were also allocated, unused, beside the
        # packed ones
        assert peak < 50 * 2**20

    def test_strip_of_a_large_star(self, star_file):
        g = read_hypercube(star_file)
        got = []
        peak = _traced_peak(lambda: got.append(strip_top_forward(g)))
        # measured 32.1 MiB, the stripped graph's two mask tuples; 96.0 MiB
        # when both tables were copied to lists and the top level of every
        # vertex kept
        assert peak < 40 * 2**20
        start = time.perf_counter()
        want = strip_reference(g)
        reference = time.perf_counter() - start
        assert got[0] == want and got[0][0].backward_masks == want[0].backward_masks
        # the strip that visits every vertex took 0.54-0.82 s, this one the
        # best of three runs 0.16-0.24 s, 0.20-0.31 of it (2-vCPU VM): it
        # must take at most half as long
        seconds = min(timeit.repeat(lambda: strip_top_forward(g), number=1, repeat=3))
        assert seconds < reference / 2

    def test_tile_sampler(self):
        cfg = TilingConfig(12, tuple(range(1, 13)), 6, 3)
        peak = _traced_peak(lambda: sample_many(cfg, 100_000, 3))
        assert peak < 6.2 * 2**20  # measured 4.96 MiB: 2.3 MiB of it the chains
