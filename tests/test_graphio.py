import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
        rows = dumps_blocked(BlockedGraph(1, m, 0, {(0, 1): mat})).splitlines()[2:]
        assert int(rows[0], 16) == 1 << (m - 1) and int(rows[1], 16) == 1
        assert all(len(row) == (m + 3) // 4 for row in rows)

    def test_bad_block_pair(self):
        with pytest.raises(FormatError):
            loads_blocked("2 2 0\n3 1\n0\n0\n")

    def test_row_overflow(self):
        with pytest.raises(FormatError):
            loads_blocked("2 2 0\n0 1\nf\n0\n")
