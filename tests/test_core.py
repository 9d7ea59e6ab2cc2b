import ast
import math
import random
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import core, graphio
from relturan.core import (BudgetError, HypercubeGraph, OrderedGraph, delta_int, level_block,
                           pair_levels, tau)
from relturan.graphio import dumps_hypercube, loads_hypercube
from relturan.hosts import complete_hypercube
from relturan.richness import ExtractionResult, Thresholds, extract_rich_interval, strip_top_forward


def naive_delta(x: int, y: int, d: int) -> int:
    # first differing character of the two labels, scanning from the left
    for i, (a, b) in enumerate(zip(format(x, f"0{d}b"), format(y, f"0{d}b")), 1):
        if a != b:
            return i
    raise AssertionError("equal strings")


dims = st.integers(min_value=1, max_value=10)


@st.composite
def bit_pairs(draw):
    d = draw(dims)
    x = draw(st.integers(0, (1 << d) - 1))
    y = draw(st.integers(0, (1 << d) - 1).filter(lambda v: v != x))
    return x, y, d


class TestDelta:
    @given(bit_pairs())
    def test_matches_naive_scan(self, pair):
        assert delta_int(*pair) == naive_delta(*pair)

    @given(bit_pairs())
    def test_symmetric(self, pair):
        x, y, d = pair
        assert delta_int(x, y, d) == delta_int(y, x, d)

    def test_known_values(self):
        assert delta_int(0b000, 0b100, 3) == 1
        assert delta_int(0b010, 0b011, 3) == 3
        assert delta_int(0b000, 0b001, 3) == 3
        with pytest.raises(ValueError):
            delta_int(5, 5, 3)

    @given(st.lists(bit_pairs(), min_size=1, max_size=20))
    def test_int_variant_agrees(self, pairs):
        # core's array form of delta_int, on block pairs of one dimension
        d = max(pair[2] for pair in pairs)
        x = np.array([pair[0] for pair in pairs], dtype=np.int64)
        y = np.array([pair[1] for pair in pairs], dtype=np.int64)
        assert pair_levels(x, y, d).tolist() == [delta_int(a, b, d) for a, b in zip(x.tolist(), y.tolist())]

    @given(st.integers(1, 63), st.data())
    def test_int_variant_is_exact_beyond_2_53(self, d, data):
        # float64 rounds 2^54 - 1 up to 2^54: bit lengths of large xors are
        # not read off one frexp
        top = (1 << d) - 1
        values = st.one_of(st.integers(0, top), st.sampled_from([0, top, top >> 1, 1 << (d - 1)]))
        pairs = data.draw(st.lists(st.tuples(values, values).filter(lambda p: p[0] != p[1]),
                                   min_size=1, max_size=20))
        x = np.array([a for a, _ in pairs], dtype=np.int64)
        y = np.array([b for _, b in pairs], dtype=np.int64)
        assert pair_levels(x, y, d).tolist() == [delta_int(a, b, d) for a, b in pairs]

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

    # the graph keeps only its bitmasks: every edge view is read off them
    @given(st.integers(0, 9), st.data())
    @settings(max_examples=200)
    def test_masks_match_a_set_reference(self, n, data):
        pairs = list(combinations(range(n), 2))
        picked = data.draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
        # each pair may be given reversed, and repeats stay in the list
        flips = data.draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(picked, flips)]
        ref = set(picked)
        g = OrderedGraph(n, edges)

        assert g.edges == ref
        assert g.sorted_edges() == sorted(ref)
        assert g.num_edges() == len(ref)
        assert all(g.has_edge(u, v) == g.has_edge(v, u) == ((u, v) in ref) for u, v in pairs)
        # a negative vertex must not wrap round to the masks' end
        assert not any(g.has_edge(u - n, v) or g.has_edge(u, v + n) for u, v in pairs)
        assert not g.has_edge(n, n + 1)
        fwd = [sum(1 << v for a, v in ref if a == u) for u in range(n)]
        bwd = [sum(1 << u for u, b in ref if b == v) for v in range(n)]
        assert [g.forward(u) for u in range(n)] == list(g.forward_masks) == fwd
        assert [g.backward(v) for v in range(n)] == list(g.backward_masks) == bwd

        h = OrderedGraph(n, data.draw(st.permutations(edges)))
        assert h == g and hash(h) == hash(g)
        assert OrderedGraph(n + 1, edges) != g
        if ref:
            assert OrderedGraph(n, sorted(ref)[1:]) != g


@st.composite
def key_cases(draw):
    """(n, edges): pairs of 0..n-1, either way round and with repeats, drawn
    often from the pairs (u, n - 1), so that some rows hold only n - 1."""
    n = draw(st.integers(0, 40))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    last = st.integers(0, n - 2).map(lambda u: (u, n - 1))
    edges = draw(st.lists(pair | last, max_size=60))
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]


def pair_keys(n, edges, dtype):
    """The keys u * n + v of both orientations of every edge, unsorted."""
    return np.array([key for u, v in edges for key in (u * n + v, v * n + u)], dtype)


class TestFromKeys:
    # a slab of 1 or n bytes holds one row, one of 3n + 5 a few: slab
    # boundaries then fall between the rows of one graph
    @given(key_cases(), st.sampled_from([np.int32, np.int64]), st.data())
    @settings(max_examples=300)
    def test_equals_the_edge_list_constructor(self, case, dtype, data):
        n, edges = case
        slab = data.draw(st.sampled_from([1, n, 3 * n + 5, core._SLAB_BYTES]))
        want = OrderedGraph(n, edges)
        with mock.patch.object(core, "_SLAB_BYTES", slab):
            g = OrderedGraph._from_keys(n, pair_keys(n, edges, dtype))
        assert g == want
        assert g.forward_masks == want.forward_masks and g.backward_masks == want.backward_masks

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64])
    @pytest.mark.parametrize("slab", [1, "n", "3n+5"])
    def test_rows_whose_only_neighbour_is_the_last_vertex(self, n, slab, monkeypatch):
        # the even vertices' one neighbour is the last cell of a row as wide as n
        monkeypatch.setattr(core, "_SLAB_BYTES", {1: 1, "n": n, "3n+5": 3 * n + 5}[slab])
        edges = [(u, n - 1) for u in range(0, n - 1, 2)] * 2
        g = OrderedGraph._from_keys(n, pair_keys(n, edges, np.int32))
        assert g.sorted_edges() == sorted(set(edges))
        assert g.backward_masks[n - 1] == sum(1 << u for u in range(0, n - 1, 2))

    def test_edgeless(self):
        for n in (0, 1, 5):
            g = OrderedGraph._from_keys(n, np.zeros(0, np.int64))
            assert g == OrderedGraph(n, []) and g.backward_masks == (0,) * n

    def test_probes_only_the_rows_of_its_keys(self, monkeypatch):
        # the two-edge graph on 2^21 vertices: each slab probes a row start or
        # two, not all n + 1 of them. A slab of 16 bytes holds one key, so
        # that every slab but the last probes; one of 1 MiB holds all four
        # keys and needs no probe
        n, edges = 1 << 21, [(0, 1), (5, 1 << 20)]
        searchsorted = np.searchsorted
        for slab, want in ((16, {1}), (core._SLAB_BYTES, set())):
            probes = []

            def counted(a, v, *args, **kwargs):
                probes.append(np.size(v))
                return searchsorted(a, v, *args, **kwargs)

            monkeypatch.setattr(core, "_SLAB_BYTES", slab)
            monkeypatch.setattr(np, "searchsorted", counted)
            g = OrderedGraph._from_keys(n, pair_keys(n, edges, np.int64))
            monkeypatch.undo()
            assert set(probes) == want and len(probes) <= 3 * 4
            assert g.sorted_edges() == edges and g.backward_masks[1 << 20] == 1 << 5

    def test_a_cube_graph_is_built_as_its_own_class(self):
        g = HypercubeGraph._from_keys(8, pair_keys(8, [(0, 7), (2, 3)], np.int32))
        assert type(g) is HypercubeGraph and g == HypercubeGraph(3, [(0, 7), (2, 3)])


def far_edges(n, count):
    """The edges (u, n - 1 - u) for u < count: each reaches across the graph."""
    return [(u, n - 1 - u) for u in range(count)]


class TestMaskBudget:
    # the cap lowered to 1000 bytes: far_edges(1024, 64) may need 16,400
    # bytes of masks (twice 65,600 bits), the edge (0, 1) none
    CAP = 1000

    @pytest.fixture(autouse=True)
    def lowered_cap(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_BUILD_BYTES", self.CAP)

    @pytest.mark.parametrize("build", [
        lambda edges: OrderedGraph(1024, edges),
        lambda edges: HypercubeGraph(10, edges),
        lambda edges: OrderedGraph._from_keys(1024, pair_keys(1024, edges, np.int32)),
        lambda edges: HypercubeGraph._from_keys(1024, pair_keys(1024, edges, np.int64)),
    ], ids=["ordered", "cube", "ordered-keys", "cube-keys"])
    def test_far_edges_are_refused_and_near_ones_built(self, build):
        with pytest.raises(BudgetError, match="bitmasks of up to 16400 bytes exceed 1000"):
            build(far_edges(1024, 64))
        assert build([(0, 1)]).sorted_edges() == [(0, 1)]

    def test_no_key_is_read_where_every_graph_fits(self):
        # 63^2 / 4 bytes are within the cap, so even the complete graph fits;
        # 64^2 / 4 are not
        class Unreadable:
            def __len__(self):
                raise AssertionError("keys read")

            def __getitem__(self, index):
                raise AssertionError("keys read")

        core._check_mask_bytes(63, Unreadable())
        with pytest.raises(AssertionError, match="keys read"):
            core._check_mask_bytes(64, Unreadable())

    def test_an_out_of_range_edge_is_named_as_before(self):
        with pytest.raises(ValueError, match=r"edge \(0, 5000\) out of range for n=1024"):
            OrderedGraph(1024, [(0, 5000)])

    # a slab of 8 bytes holds one key, one of 24 three: rows are then cut by
    # slab boundaries
    @given(key_cases(), st.sampled_from([8, 24, core._SLAB_BYTES]), st.data())
    @settings(max_examples=200)
    def test_refused_exactly_when_the_mask_bound_passes_the_cap(self, case, slab, data):
        n, edges = case
        want = OrderedGraph(n, edges)
        far = {}  # each vertex's farthest neighbour
        for u, v in edges:
            far[u], far[v] = max(far.get(u, 0), v), max(far.get(v, 0), u)
        size = sum(2 * (f + 1) for f in far.values()) // 8
        cap = data.draw(st.integers(0, max(size, n * n // 4 - 1)))
        with mock.patch.object(core, "_SLAB_BYTES", slab), \
                mock.patch.object(core, "_MAX_BUILD_BYTES", cap):
            for build in (lambda: OrderedGraph(n, edges),
                          lambda: OrderedGraph._from_keys(n, pair_keys(n, edges, np.int64))):
                if n * n // 4 > cap and size > cap:
                    with pytest.raises(BudgetError, match=f"bitmasks of up to {size} bytes"):
                        build()
                else:
                    assert build() == want


class TestMaskArrays:
    # a slab of 1 byte holds one row, one of 3 * width + 1 bytes three: slab
    # boundaries then fall between the rows of one graph
    @given(st.integers(1, 40), st.data())
    @settings(max_examples=300)
    def test_equals_mask_edges(self, n, data):
        # each row empty or any subset of the vertices above it
        fwd = [data.draw(st.just(0) | st.integers(0, (1 << (n - u - 1)) - 1)) << (u + 1)
               for u in range(n)]
        slab = data.draw(st.sampled_from([1, 3 * ((n + 7) // 8) + 1, core._SLAB_BYTES]))
        with mock.patch.object(core, "_SLAB_BYTES", slab):
            us, vs = core.mask_arrays(fwd)
        assert us.dtype == vs.dtype == np.int64
        assert list(zip(us.tolist(), vs.tolist())) == core.mask_edges(fwd)

    @pytest.mark.parametrize("n", [0, 1, 7, 9, 40])
    def test_all_zero(self, n):
        us, vs = core.mask_arrays([0] * n)
        assert us.dtype == vs.dtype == np.int64 and len(us) == len(vs) == 0

    def test_sparse_rows_over_several_slabs(self):
        # 3,000 rows of 375 bytes pass one slab; one or two edges a row, one
        # of them to the last vertex
        n = 3000
        assert n * ((n + 7) // 8) > core._SLAB_BYTES
        bits = random.Random(0)
        fwd = [sum(1 << v for v in {bits.randrange(u + 1, n), n - 1}) if u < n - 1 else 0
               for u in range(n)]
        us, vs = core.mask_arrays(fwd)
        assert list(zip(us.tolist(), vs.tolist())) == core.mask_edges(fwd)

    @pytest.mark.parametrize("n", [0, 1, 1 << 14, 3 * (1 << 14) + 5])
    def test_nonzero_indices_over_several_chunks(self, n):
        # a non-zero mask at each end of every chunk of 2^14 flags, and a
        # few between; all-zero chunks in the middle
        ends = {i for lo in range(0, n, 1 << 14) if lo != 1 << 14 for i in (lo, lo + (1 << 14) - 1)}
        picked = sorted(i for i in {*ends, *random.Random(n).sample(range(n), min(n, 9))} if i < n)
        masks = [0] * n
        for i in picked:
            masks[i] = 1 << i
        found = core._nonzero_indices(tuple(masks))
        assert found.dtype == np.int64 and found.tolist() == picked


@st.composite
def cube_graphs(draw, max_d=6):
    d = draw(st.integers(1, max_d))
    n = 1 << d
    keep = draw(st.floats(0, 1))
    # one seed expands to a draw per vertex pair: hypothesis shrinks d, keep
    # and the seed, not single edges
    bits = random.Random(draw(st.integers(0, 2**64 - 1)))
    return HypercubeGraph(d, [(u, v) for u in range(n) for v in range(u + 1, n) if bits.random() < keep])


class TestLevelGeometry:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_level_block(self, d):
        n = 1 << d
        for v in range(n):
            for level in range(1, d + 1):
                block = [u for u in range(n) if u != v and delta_int(u, v, d) == level]
                lo = level_block(v, level, d)
                assert block == list(range(lo, lo + (1 << (d - level))))
                assert (lo < v) == ((v >> (d - level)) & 1 == 1)

    @given(cube_graphs())
    def test_level_degrees_and_level_counts(self, g):
        # brute force: every backward neighbour u of v counts at delta_int(u, v)
        d = g.d
        degrees = [[0] * (d + 1) for _ in range(g.n)]
        for u, v in g.sorted_edges():
            degrees[v][delta_int(u, v, d)] += 1
        behind = [v for v in range(g.n) if any(degrees[v])]
        vertices, table = g.level_degrees()
        assert (vertices.dtype, table.dtype) == (np.int64, np.int32)
        assert vertices.tolist() == behind
        assert table.shape == (d + 1, len(behind))
        assert table.T.tolist() == [degrees[v] for v in behind]
        counts = g.level_counts()
        assert counts == [sum(degrees[v][level] for v in behind) for level in range(d + 1)]
        assert all(type(c) is int for c in counts)


class TestHypercubeGraph:
    def test_edge_iteration_roundtrip(self):
        edges = [(0, 3), (1, 2), (0, 1)]
        g = HypercubeGraph(2, edges)
        assert sorted(g.sorted_edges()) == sorted(edges)

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


    @given(cube_graphs(max_d=4))
    def test_to_ordered_shares_the_masks(self, g):
        og = g.to_ordered()
        assert type(og) is OrderedGraph
        assert og.forward_masks is g.forward_masks and og.backward_masks is g.backward_masks
        assert og == OrderedGraph(g.n, g.sorted_edges())

    def test_never_equals_a_plain_ordered_graph(self):
        g, og = HypercubeGraph(2, [(0, 3)]), OrderedGraph(4, [(0, 3)])
        assert g != og and og != g
        assert g.to_ordered() == og and g == HypercubeGraph(2, [(3, 0)])

    @given(cube_graphs(max_d=4))
    def test_has_edge_is_false_outside_the_cube(self, g):
        n = g.n
        for u in range(n):
            assert not any(g.has_edge(u, v) or g.has_edge(v, u) for v in (-1, -n, n, n + 1, 2 * n))
        assert not g.has_edge(-1, -2) and not g.has_edge(n, n + 1)

    def test_stores_nothing_beyond_the_ordered_graph(self):
        g = HypercubeGraph(3, [(0, 7)])
        assert HypercubeGraph.__slots__ == () and not hasattr(g, "__dict__")
        assert (g.n, g.d) == (8, 3)

    @pytest.mark.parametrize("d, edges, message", [
        (0, (), "dimension must be at least 1"),
        (2, [(1, 1)], "self-loop at 1"),
        (2, [(0, 4)], r"edge \(0, 4\) out of range for d=2"),
        (2, [(5, 1)], r"edge \(5, 1\) out of range for d=2"),
        (2, [(-1, 2)], r"edge \(-1, 2\) out of range for d=2"),
    ])
    def test_constructor_errors(self, d, edges, message):
        with pytest.raises(ValueError, match=message):
            HypercubeGraph(d, edges)


def assert_is_the_edge_list_graph(g):
    """``g``, built from masks by ``_from_masks``, equals the graph built from
    its edge list, backward masks included: the check ``_from_masks`` skips."""
    ref = HypercubeGraph(g.d, g.sorted_edges())
    assert type(g) is HypercubeGraph
    assert g == ref and g.backward_masks == ref.backward_masks


class TestMaskProducers:
    """Every producer of a cube graph from masks, against the edge-list route."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_complete_hypercube(self, d):
        g = complete_hypercube(d)
        assert_is_the_edge_list_graph(g)
        assert g.num_edges() == (1 << d) * ((1 << d) - 1) // 2

    @settings(deadline=None)
    @given(cube_graphs())
    def test_decoders(self, g):
        text = dumps_hypercube(g)
        # the one reader, called once; the edges written v u, last first,
        # decode to the same graph
        with mock.patch.object(graphio, "_read_cube", wraps=graphio._read_cube) as reader:
            decoded = loads_hypercube(text)
        assert reader.call_count == 1
        header, *lines = text.splitlines(keepends=True)
        flipped = "".join(f"{line[g.d + 1:-1]} {line[:g.d]}\n" for line in reversed(lines))
        flipped = loads_hypercube(header + flipped)
        for h in (decoded, flipped):
            assert_is_the_edge_list_graph(h)
            assert h == g

    @settings(deadline=None)
    @given(cube_graphs())
    def test_strip_and_extraction(self, g):
        stripped, _ = strip_top_forward(g)
        assert_is_the_edge_list_graph(stripped)
        for h in (g, stripped):
            res = extract_rich_interval(h, Thresholds.desk())
            if isinstance(res, ExtractionResult):
                assert_is_the_edge_list_graph(res.subgraph)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_extraction_on_complete_cubes(self, d):
        g = complete_hypercube(d)
        res = extract_rich_interval(strip_top_forward(g)[0], Thresholds.desk())
        assert isinstance(res, ExtractionResult)
        assert_is_the_edge_list_graph(res.subgraph)


def test_no_assert_in_the_package():
    # guarantees are explicit checks that survive ``python -O``, which strips
    # every assert statement and folds ``__debug__`` to False; the -O run of
    # the suite sees only the lines the tests execute, this sees every line
    sources = sorted(Path(core.__file__).parent.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []
