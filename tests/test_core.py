import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan.core import (
    BitString,
    FundamentalInterval,
    HypercubeGraph,
    OrderedGraph,
    delta,
    delta_int,
    fundamental_partition,
    lex_less,
    tau,
)


def naive_delta(x: BitString, y: BitString) -> int:
    # first differing bit, scanning from the most significant side
    for i in range(1, x.d + 1):
        if x.bit(i) != y.bit(i):
            return i
    raise AssertionError("equal strings")


dims = st.integers(min_value=1, max_value=10)


@st.composite
def bit_pairs(draw):
    d = draw(dims)
    x = draw(st.integers(0, (1 << d) - 1))
    y = draw(st.integers(0, (1 << d) - 1).filter(lambda v: v != x))
    return BitString(d, x), BitString(d, y)


class TestBitString:
    def test_roundtrip_str(self):
        b = BitString.from_str("01101")
        assert str(b) == "01101"
        assert b.d == 5 and b.value == 13

    def test_bits_msb_first(self):
        b = BitString.from_str("100")
        assert b.bit(1) == 1 and b.bit(2) == 0 and b.bit(3) == 0
        assert b.bits == (1, 0, 0)

    def test_from_bits(self):
        assert BitString.from_bits([1, 0, 1]).value == 5

    @given(bit_pairs())
    def test_lex_order_matches_integer_order(self, pair):
        x, y = pair
        assert (x < y) == (x.value < y.value)
        assert lex_less(x, y) == (x.value < y.value)


class TestDelta:
    @given(bit_pairs())
    def test_matches_naive_scan(self, pair):
        x, y = pair
        assert delta(x, y) == naive_delta(x, y)

    @given(bit_pairs())
    def test_symmetric(self, pair):
        x, y = pair
        assert delta(x, y) == delta(y, x)

    def test_known_values(self):
        assert delta(BitString.from_str("000"), BitString.from_str("100")) == 1
        assert delta(BitString.from_str("010"), BitString.from_str("011")) == 3
        assert delta_int(0b000, 0b001, 3) == 3

    @given(bit_pairs())
    def test_int_variant_agrees(self, pair):
        x, y = pair
        assert delta_int(x.value, y.value, x.d) == delta(x, y)

    @given(st.integers(2, 8), st.data())
    def test_ultrametric(self, d, data):
        vals = data.draw(
            st.lists(st.integers(0, (1 << d) - 1), min_size=3, max_size=3, unique=True)
        )
        x, y, z = vals
        assert delta_int(x, z, d) >= min(delta_int(x, y, d), delta_int(y, z, d))


class TestTau:
    def test_formula(self):
        # tau(level, d) = 2^(2d - level - 1)
        assert tau(1, 3) == 16
        assert tau(3, 3) == 4
        assert tau(1, 1) == 1

    @given(dims)
    def test_levels_partition_all_pairs(self, d):
        assert sum(tau(level, d) for level in range(1, d + 1)) == math.comb(1 << d, 2)

    @given(st.integers(1, 6))
    def test_counts_pairs_at_level(self, d):
        for level in range(1, d + 1):
            count = sum(
                1
                for x in range(1 << d)
                for y in range(x + 1, 1 << d)
                if delta_int(x, y, d) == level
            )
            assert count == tau(level, d)


class TestFundamentalInterval:
    def test_members_share_prefix(self):
        iv = FundamentalInterval(4, BitString(2, 0b10))
        members = [m.value for m in iv.members()]
        assert len(members) == 4 == iv.size
        assert all(m >> 2 == 0b10 for m in members)
        assert iv.lo == 0b1000 and iv.hi == 0b1011

    def test_halves(self):
        iv = FundamentalInterval(3, BitString(1, 1))
        assert {m.value for m in iv.lhs().members()} == {0b100, 0b101}
        assert {m.value for m in iv.rhs().members()} == {0b110, 0b111}

    @given(st.integers(1, 8), st.data())
    def test_partition_covers_cube(self, d, data):
        level = data.draw(st.integers(1, d))
        seen = []
        for iv in fundamental_partition(d, level):
            seen.extend(m.value for m in iv.members())
        assert sorted(seen) == list(range(1 << d))

    def test_contains(self):
        iv = FundamentalInterval(3, BitString(1, 0))
        assert BitString(3, 0b011) in iv and BitString(3, 0b100) not in iv


class TestOrderedGraph:
    def test_canonical_edges(self):
        g = OrderedGraph(4, [(2, 0), (1, 3)])
        assert g.sorted_edges() == [(0, 2), (1, 3)]
        assert g.has_edge(0, 2) and g.has_edge(2, 0)
        assert not g.has_edge(0, 1)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            OrderedGraph(3, [(0, 3)])
        with pytest.raises(ValueError):
            OrderedGraph(3, [(1, 1)])

    def test_masks(self):
        g = OrderedGraph(4, [(0, 2), (1, 2), (2, 3)])
        assert g.backward(2) == 0b0011
        assert g.forward(2) == 0b1000
        assert g.adjacency(2) == 0b1011

    def test_subgraph_edges_rejects_foreign(self):
        g = OrderedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.subgraph_edges([(1, 2)])


class TestHypercubeGraph:
    def test_edge_iteration_roundtrip(self):
        edges = [(0, 3), (1, 2), (0, 1)]
        g = HypercubeGraph(2, edges)
        assert sorted(g.edges()) == sorted(edges)

    @given(st.integers(1, 5), st.data())
    def test_backward_forward_masks(self, d, data):
        v = data.draw(st.integers(0, (1 << d) - 1))
        level = data.draw(st.integers(1, d))
        g = HypercubeGraph(d)
        back = {u for u in range(1 << d) if u < v and delta_int(u, v, d) == level}
        fwd = {u for u in range(1 << d) if u > v and delta_int(v, u, d) == level}
        assert {u for u in range(1 << d) if (g.backward_mask(v, level) >> u) & 1} == back
        assert {u for u in range(1 << d) if (g.forward_mask(v, level) >> u) & 1} == fwd

    def test_level_counts_bruteforce(self):
        d = 3
        edges = [(0, 7), (1, 3), (2, 3), (4, 6), (0, 1)]
        g = HypercubeGraph(d, edges)
        counts = [0] * (d + 1)
        for u, v in edges:
            counts[delta_int(u, v, d)] += 1
        assert g.level_counts() == counts

    def test_to_ordered_preserves_edges(self):
        g = HypercubeGraph(2, [(0, 3), (1, 2)])
        og = g.to_ordered()
        assert og.n == 4 and og.edges == {(0, 3), (1, 2)}

