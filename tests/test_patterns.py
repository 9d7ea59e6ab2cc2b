import ast
import subprocess
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan import patterns
from relturan.core import HypercubeGraph, OrderedGraph
from relturan.hosts import generate_host
from relturan.patterns import (
    _MAX_LOOPS,
    MonotonePathError,
    _generated_searches,
    _interpreted_searches,
    _predecessors,
    _search_source,
    _walk,
    build_hk,
    contains_ordered,
    embed_into_hk,
    find_monotone_p3,
    has_monotone_p3,
    interval_chromatic,
    monotone_p3,
    ordered_copies,
    pi_ordered,
    through_edge_search,
    validate_witness,
)
from patterns_oracle import contains_ordered_bruteforce, interval_chromatic_bruteforce
from test_density import ORACLE_PATTERNS


@st.composite
def ordered_graphs(draw, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OrderedGraph(n, edges)


def all_ordered_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield OrderedGraph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])


def copies_in(pat, host):
    return list(ordered_copies(pat, host.forward_masks))


def through(pat, host, u, v):
    """The least search of ``through_edge_search``: the least copy through (u, v)."""
    return through_edge_search(pat, host.n)[0](host.forward_masks, host.backward_masks, u, v)


class TestOrderedCopies:
    @given(ordered_graphs(max_n=4), ordered_graphs(max_n=7))
    @settings(max_examples=150)
    def test_count_and_order_match_bruteforce(self, pat, host):
        brute = [
            combo
            for combo in combinations(range(host.n), pat.n)
            if all(host.has_edge(combo[u], combo[v]) for u, v in pat.edges)
        ]
        assert copies_in(pat, host) == brute

    def test_first_copy_is_the_witness(self):
        host = OrderedGraph(6, [(0, 3), (1, 2), (2, 4), (3, 5), (2, 5)])
        copies = copies_in(monotone_p3(), host)
        assert copies == [(0, 3, 5), (1, 2, 4), (1, 2, 5)]
        assert contains_ordered(monotone_p3(), host) == copies[0]

    @given(ordered_graphs(max_n=4), ordered_graphs(max_n=7))
    @settings(max_examples=150)
    def test_containment_is_the_first_copy_and_validates(self, pat, host):
        # a copy is its image tuple: containment hands the kernel's first one on
        found = contains_ordered(pat, host)
        assert found == next(ordered_copies(pat, host.forward_masks), None)
        if found is not None:
            assert validate_witness(pat, host, found)


class TestFirstCopyThrough:
    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(min_n=2, max_n=9), st.data())
    @settings(max_examples=300)
    def test_least_copy_with_the_image_edge(self, pat, host, data):
        pairs = sorted(host.edges) or [(0, 1)]
        u, v = data.draw(st.sampled_from(pairs) | st.tuples(
            st.integers(0, host.n - 2), st.integers(1, host.n - 1)).filter(lambda e: e[0] < e[1]))
        via = [c for c in copies_in(pat, host)
               if any((c[a], c[b]) == (u, v) for a, b in pat.edges)]
        assert through(pat, host, u, v) == min(via, default=None)

    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(min_n=2, max_n=9), st.data())
    @settings(max_examples=100)
    def test_equals_containment_after_one_edge_on_a_free_host(self, pat, host, data):
        # the local search's invariant: the host less the new edge is pattern-free
        kept = []
        for e in sorted(host.edges):
            if contains_ordered(pat, OrderedGraph(host.n, kept + [e])) is None:
                kept.append(e)
        missing = sorted(set(combinations(range(host.n), 2)) - set(kept))
        if not missing:
            return
        u, v = data.draw(st.sampled_from(missing))
        g = OrderedGraph(host.n, kept + [(u, v)])
        assert through(pat, g, u, v) == contains_ordered(pat, g)

    @pytest.mark.parametrize("u, v", [(2, 1), (1, 1), (2, 5), (-1, 2)],
                             ids=["u>v", "u=v", "v=n", "u<0"])
    def test_refuses_an_edge_out_of_range(self, u, v):
        with pytest.raises(ValueError, match="0 <= u < v < 5"):
            through(monotone_p3(), OrderedGraph(5, combinations(range(5), 2)), u, v)

    def test_pinned_hand_case(self):
        # copies of P3 in K_4 through (1, 2): (0, 1, 2) pins (1, 2) as its
        # second edge, (1, 2, 3) as its first
        assert through(monotone_p3(), OrderedGraph(4, combinations(range(4), 2)), 1, 2) == (0, 1, 2)
        assert through(monotone_p3(), OrderedGraph(4, [(1, 2), (2, 3)]), 1, 2) == (1, 2, 3)
        assert through(monotone_p3(), OrderedGraph(4, [(0, 1), (2, 3)]), 1, 2) is None


# patterns whose last vertex has two or more predecessors, so ``refused``
# refuses a mask of candidates per placement that is bounded by the forward
# neighbourhoods of the placed ones: the ordered triangle, H_2, a 5-vertex
# pattern and K_4, whose last vertex has three
LAST_VERTEX_JOINS = [
    OrderedGraph(3, [(0, 1), (0, 2), (1, 2)]),
    build_hk(2),
    OrderedGraph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (2, 3), (2, 4)]),
    OrderedGraph(4, combinations(range(4), 2)),
]


# patterns with a template whose pinned vertex b is followed by one vertex t
# alone, so ``refused`` refuses a mask of candidates per placement of 0..b-1
# by testing t's mask: in each candidate's forward neighbourhood when t is
# joined to b (P3, P4 and the ordered triangle, above), below the highest
# image t may take when it is not (these two)
TAIL_APART = [
    OrderedGraph(3, [(0, 1), (0, 2)]),
    OrderedGraph(4, [(0, 2), (1, 2), (1, 3)]),
]


def patterns_up_to_5():
    return st.sampled_from(
        [monotone_p3(), monotone_p3(4), monotone_p3(5), *LAST_VERTEX_JOINS, *TAIL_APART]) | (
        ordered_graphs(min_n=2, max_n=5).filter(lambda g: g.num_edges() > 0))


class TestRefusedRow:
    """``refused`` against the whole-graph kernel asked once per candidate edge."""

    @staticmethod
    def free_masks(pat, n, edges):
        """Forward and backward masks of a pattern-free set: ``edges`` kept greedily in order."""
        fwd, bwd = [0] * n, [0] * n
        for u, v in edges:
            fwd[u] ^= 1 << v
            if next(ordered_copies(pat, fwd), None) is None:
                bwd[v] ^= 1 << u
            else:
                fwd[u] ^= 1 << v
        return fwd, bwd

    @staticmethod
    def refused_by_kernel(pat, fwd, u, cands):
        """The candidates v for which the kept set plus (u, v) holds a copy anywhere."""
        found = 0
        for v in range(u + 1, len(fwd)):
            if cands >> v & 1:
                plus = fwd.copy()
                plus[u] |= 1 << v
                found |= (next(ordered_copies(pat, plus), None) is not None) << v
        return found

    @given(patterns_up_to_5(), st.integers(2, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_graph_kernel_per_candidate(self, pat, n, data):
        pairs = list(combinations(range(n), 2))
        order = data.draw(st.permutations(pairs))
        fwd, bwd = self.free_masks(pat, n, order[: data.draw(st.integers(0, len(pairs)))])
        _, refused = through_edge_search(pat, n)
        u = data.draw(st.integers(0, n - 2))
        free = ((1 << n) - 1) >> (u + 1) << (u + 1) & ~fwd[u]
        cands = data.draw(st.integers(0, (1 << n) - 1)) & free
        want = self.refused_by_kernel(pat, fwd, u, cands)
        before = (fwd.copy(), bwd.copy())
        assert refused(fwd, bwd, u, cands) == want
        assert (fwd, bwd) == before

    def test_every_row_of_a_blocked_host(self):
        # a pattern-free set kept from every third edge of a 32-vertex blocked
        # host, and every row of the host edges outside it at once
        host = generate_host(4, 3, 1).to_ordered()
        for pat in (monotone_p3(), monotone_p3(4), *LAST_VERTEX_JOINS, *TAIL_APART):
            fwd, bwd = self.free_masks(pat, host.n, host.sorted_edges()[::3])
            _, refused = through_edge_search(pat, host.n)
            for u in range(host.n):
                cands = host.forward_masks[u] & ~fwd[u]
                assert refused(fwd, bwd, u, cands) == self.refused_by_kernel(pat, fwd, u, cands)

    def test_pinned_hand_case(self):
        # kept (2, 3) alone: of (1, 2), (1, 3), (1, 4) only (1, 2) closes a P3,
        # as the path's first edge, and (3, 4) closes one as its second
        fwd, bwd = [0, 0, 0b1000, 0, 0], [0, 0, 0, 0b100, 0]
        _, refused = through_edge_search(monotone_p3(), 5)
        assert refused(fwd, bwd, 1, 0b11100) == 0b00100
        assert refused(fwd, bwd, 0, 0b10110) == 0b00100
        assert refused(fwd, bwd, 3, 0b10000) == 0b10000
        assert refused(fwd, bwd, 1, 0) == 0

    def test_pinned_tail_joined_to_b(self):
        # the ordered triangle with kept 03, 13, 24, from 0: (0, 1) closes the
        # triangle on 0, 1, 3 with the tail 3 in fwd[1]; (0, 2) would need the
        # candidate (0, 4) too, and (0, 4) closes none
        fwd, bwd = [0b01000, 0b01000, 0b10000, 0, 0], [0, 0, 0, 0b00011, 0b00100]
        _, refused = through_edge_search(OrderedGraph(3, [(0, 1), (0, 2), (1, 2)]), 5)
        assert refused(fwd, bwd, 0, 0b10110) == 0b00010

    def test_pinned_tail_apart_from_b(self):
        # {02, 12, 13} with kept 13, 15, from 0: only (0, 3) closes a copy, on
        # 0, 1, 3, 5, with the tail 5 above 3 in fwd[1]; (0, 5) has no room
        # above it, and 2 and 4 are not in fwd[1]
        fwd, bwd = [0, 0b101000, 0, 0, 0, 0], [0, 0, 0, 0b10, 0, 0b10]
        _, refused = through_edge_search(OrderedGraph(4, [(0, 2), (1, 2), (1, 3)]), 6)
        assert refused(fwd, bwd, 0, 0b111100) == 0b001000

    def test_pinned_last_vertex_with_three_predecessors(self):
        # kept 01, 02, 12, 13, 23, 14: (0, 3) closes the K_4 on 0..3, while
        # (0, 4) would need 24 too, although 4 follows 1 as 3 does
        kept = OrderedGraph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 4)])
        _, refused = through_edge_search(OrderedGraph(4, combinations(range(4), 2)), 5)
        assert refused(list(kept.forward_masks), list(kept.backward_masks), 0, 0b11000) == 0b01000


# patterns for the generated searches: a tail vertex joined to b (P4),
# apart from b ({02, 12, 13}), isolated vertices (1 and 3 of {02, 24}; 0 and
# 4 of {12, 13, 23}), b at k - 1 (H_2's 03), at k - 2 (P4's 12) and lower
# (P5's 01, 12; H_2's 01), and K_5, whose 10 templates read every mask
GENERATED = [
    monotone_p3(), monotone_p3(4), monotone_p3(5), build_hk(2), *TAIL_APART,
    *LAST_VERTEX_JOINS, OrderedGraph(5, [(0, 2), (2, 4)]),
    OrderedGraph(5, [(1, 2), (1, 3), (2, 3)]), OrderedGraph(7, [(0, 6), (2, 3), (3, 5)]),
    OrderedGraph(5, combinations(range(5), 2)),
]


def generated_patterns():
    return st.sampled_from(GENERATED) | ordered_graphs(min_n=2, max_n=7).filter(
        lambda g: g.num_edges() > 0 and _generated_searches(g) is not None)


@st.composite
def hosts_up_to_24(draw, pattern):
    """Forward and backward masks on n <= 24 vertices: an arbitrary edge set,
    or a pattern-free one kept greedily from the pairs in a drawn order."""
    n = draw(st.integers(2, 24))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        g = OrderedGraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        return n, list(g.forward_masks), list(g.backward_masks)
    order = draw(st.permutations(pairs))
    return n, *TestRefusedRow.free_masks(pattern, n, order[: draw(st.integers(0, len(pairs)))])


class TestGeneratedSearches:
    """The searches generated from source against the interpreted ones."""

    def test_every_listed_pattern_is_generated(self):
        assert all(_generated_searches(pat) is not None for pat in GENERATED)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_to_the_interpreted_searches(self, data):
        pat = data.draw(generated_patterns())
        n, fwd, bwd = data.draw(hosts_up_to_24(pat))
        least, refused = _generated_searches(pat)(n)
        least_ref, refused_ref = _interpreted_searches(pat, n)
        for u, v in combinations(range(n), 2):
            assert least(fwd, bwd, u, v) == least_ref(fwd, bwd, u, v)
        for u in range(n):
            # candidates: non-edges (u, v) with v > u
            free = ((1 << n) - 1) >> (u + 1) << (u + 1) & ~fwd[u]
            cands = data.draw(st.integers(0, (1 << n) - 1)) & free
            assert refused(fwd, bwd, u, cands) == refused_ref(fwd, bwd, u, cands)
            assert refused(fwd, bwd, u, free) == refused_ref(fwd, bwd, u, free)

    def test_least_refuses_an_edge_out_of_range_alike(self):
        least, _ = _generated_searches(monotone_p3())(5)
        least_ref, _ = _interpreted_searches(monotone_p3(), 5)
        for u, v in [(2, 1), (1, 1), (2, 5), (-1, 2)]:
            with pytest.raises(ValueError) as got:
                least([0] * 5, [0] * 5, u, v)
            with pytest.raises(ValueError) as want:
                least_ref([0] * 5, [0] * 5, u, v)
            assert str(got.value) == str(want.value)

    def test_a_second_call_reuses_the_compiled_code(self):
        # an equal pattern built anew hits the cache, whatever the host size
        def p4():
            return OrderedGraph(4, [(0, 1), (1, 2), (2, 3)])

        first = through_edge_search(p4(), 10)
        hits = _generated_searches.cache_info().hits
        second = through_edge_search(p4(), 20)
        assert _generated_searches.cache_info().hits == hits + 1
        assert [f.__code__ for f in first] == [f.__code__ for f in second]
        assert first[0].__code__.co_filename == "<through-edge searches>"

    def test_past_the_size_bound_keeps_the_interpreted_searches(self, monkeypatch):
        k6 = OrderedGraph(6, combinations(range(6), 2))
        assert _search_source(k6) is None
        least, refused = through_edge_search(k6, 8)
        least_ref, refused_ref = _interpreted_searches(k6, 8)
        assert (least.__code__, refused.__code__) == (least_ref.__code__, refused_ref.__code__)
        # with no size bound its source compiles and agrees, here on K_8 less
        # two edges, which holds copies of K_6 through some of its edges
        monkeypatch.setattr(patterns, "_MAX_SOURCE", 1 << 30)
        namespace = {}
        exec(compile(_search_source(k6), "<K_6>", "exec"), namespace)
        least, refused = namespace["searches"](8)
        host = OrderedGraph(8, [e for e in combinations(range(8), 2) if e not in {(0, 1), (2, 5)}])
        fwd, bwd = list(host.forward_masks), list(host.backward_masks)
        least_ref, refused_ref = _interpreted_searches(k6, 8)
        copies = [least(fwd, bwd, u, v) for u, v in combinations(range(8), 2)]
        assert copies == [least_ref(fwd, bwd, u, v) for u, v in combinations(range(8), 2)]
        assert any(copies)
        for u in range(8):
            free = 0xFF >> (u + 1) << (u + 1) & ~fwd[u]
            assert refused(fwd, bwd, u, free) == refused_ref(fwd, bwd, u, free)

    def test_past_the_loop_bound_keeps_the_interpreted_searches(self, monkeypatch):
        # P_k nests k - 2 loops; CPython compiles at most _MAX_LOOPS of them
        monkeypatch.setattr(patterns, "_MAX_SOURCE", 1 << 30)
        compile(_search_source(monotone_p3(_MAX_LOOPS + 2)), "<at the bound>", "exec")
        past = monotone_p3(_MAX_LOOPS + 3)
        assert _search_source(past) is None
        monkeypatch.setattr(patterns, "_MAX_LOOPS", 1 << 30)
        with pytest.raises(SyntaxError, match="too many statically nested blocks"):
            compile(_search_source(past), "<past the bound>", "exec")

    def test_source_holds_names_and_integers_alone(self):
        # besides None, its one constant that is not an int is least's
        # error message, an f-string of its names
        tree = ast.parse(_search_source(OrderedGraph(5, combinations(range(5), 2))))
        (message,) = [node for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)]
        assert ast.unparse(message) == "f'need 0 <= u < v < {n}, got u={u}, v={v}'"
        inside = {id(node) for node in ast.walk(message)}
        constants = [node.value for node in ast.walk(tree)
                     if isinstance(node, ast.Constant) and id(node) not in inside]
        assert constants and all(c is None or type(c) is int for c in constants)

    def test_nothing_is_generated_at_import(self):
        code = ("import relturan.cli, relturan.density, relturan.patterns as p; "
                "print(p._generated_searches.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "0"


class TestWalkResume:
    @given(ordered_graphs(min_n=1, max_n=4), ordered_graphs(max_n=8), st.data())
    @settings(max_examples=200)
    def test_resume_skips_copies_that_repeat_the_prefix(self, pat, host, data):
        k = pat.n
        j = data.draw(st.integers(0, k - 1))
        full = (1 << host.n) - 1
        limit = [full >> (k - i - 1) for i in range(k)]
        resumed = list(_walk(_predecessors(pat), host.forward_masks, limit, resume=j))
        want, seen = [], set()
        for images in ordered_copies(pat, host.forward_masks):
            if images[: j + 1] not in seen:
                seen.add(images[: j + 1])
                want.append(images)
        assert resumed == want


class TestContainment:
    @given(ordered_graphs(max_n=4), ordered_graphs(max_n=6))
    def test_agrees_with_bruteforce(self, pat, host):
        witness = contains_ordered(pat, host)
        assert (witness is not None) == contains_ordered_bruteforce(pat, host)

    @given(ordered_graphs(max_n=4), ordered_graphs(max_n=6))
    def test_witnesses_validate(self, pat, host):
        witness = contains_ordered(pat, host)
        if witness is not None:
            assert validate_witness(pat, host, witness)

    def test_order_matters(self):
        # edge 0-2 with an isolated middle vertex needs a gap in the host
        pat = OrderedGraph(3, [(0, 2)])
        host = OrderedGraph(3, [(1, 2)])
        assert contains_ordered(pat, host) is None
        host2 = OrderedGraph(4, [(1, 3)])
        assert contains_ordered(pat, host2) is not None

    def test_empty_pattern(self):
        assert contains_ordered(OrderedGraph(0, []), OrderedGraph(3, [])) is not None

    def test_pattern_larger_than_host(self):
        assert contains_ordered(OrderedGraph(4, []), OrderedGraph(3, [])) is None

    @given(ordered_graphs(max_n=6))
    def test_self_containment(self, g):
        assert contains_ordered(g, g) is not None


class TestValidateWitness:
    def test_rejects_decreasing(self):
        pat = OrderedGraph(2, [(0, 1)])
        host = OrderedGraph(3, [(1, 2)])
        assert not validate_witness(pat, host, (2, 1))

    def test_rejects_missing_edge(self):
        pat = OrderedGraph(2, [(0, 1)])
        host = OrderedGraph(3, [(1, 2)])
        assert not validate_witness(pat, host, (0, 1))
        assert validate_witness(pat, host, (1, 2))

    def test_rejects_wrong_size(self):
        pat = OrderedGraph(2, [(0, 1)])
        host = OrderedGraph(3, [(1, 2)])
        assert not validate_witness(pat, host, (1,))

    @settings(max_examples=80)
    @given(st.data())
    def test_cube_graph_agrees_with_its_ordered_graph(self, data):
        # the check reads only n and has_edge, so the cube graph needs no flattening
        d = data.draw(st.integers(1, 4))
        n = 1 << d
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = data.draw(st.sampled_from([0.3, 0.8, 1.0]))
        rng = data.draw(st.randoms(use_true_random=False))
        cube = HypercubeGraph(d, [p for p in pairs if rng.random() < keep])
        ordered = cube.to_ordered()
        pat = data.draw(ordered_graphs(min_n=1, max_n=4))
        witnesses = [tuple(data.draw(st.lists(st.integers(-1, n), min_size=pat.n - 1,
                                               max_size=pat.n + 1))) for _ in range(4)]
        witnesses.append(tuple(sorted(rng.sample(range(n), min(pat.n, n)))))
        found = contains_ordered(pat, ordered)
        if found is not None:
            witnesses.append(found)
        for images in witnesses:
            assert validate_witness(pat, cube, images) == validate_witness(pat, ordered, images)
        if found is not None:
            assert validate_witness(pat, cube, found)


class TestMonotonePath:
    def test_p3_shape(self):
        g = monotone_p3()
        assert g.n == 3 and g.sorted_edges() == [(0, 1), (1, 2)]

    @given(ordered_graphs())
    def test_detection_matches_containment(self, g):
        assert has_monotone_p3(g) == (contains_ordered(monotone_p3(), g) is not None)

    @given(ordered_graphs())
    def test_witness_is_a_path(self, g):
        w = find_monotone_p3(g)
        if w is None:
            assert not has_monotone_p3(g)
        else:
            u, v, x = w
            assert u < v < x and g.has_edge(u, v) and g.has_edge(v, x)


class TestIntervalChromatic:
    @given(ordered_graphs(max_n=8))
    def test_greedy_matches_bruteforce(self, g):
        assert interval_chromatic(g) == interval_chromatic_bruteforce(g)

    def test_known_values(self):
        assert interval_chromatic(OrderedGraph(3, [])) == 1
        assert interval_chromatic(monotone_p3()) == 3
        # complete graph: every vertex its own interval
        n = 5
        kn = OrderedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        assert interval_chromatic(kn) == n

    def test_staircase_values(self):
        for k in range(1, 5):
            assert interval_chromatic(build_hk(k)) == k + 1

    def test_pi_values(self):
        assert pi_ordered(monotone_p3()) == 0.5
        assert pi_ordered(build_hk(4)) == 0.75

    def test_pi_refuses_edgeless(self):
        with pytest.raises(ValueError):
            pi_ordered(OrderedGraph(4, []))


class TestStaircase:
    def test_h2(self):
        g = build_hk(2)
        assert g.n == 4
        assert g.sorted_edges() == [(0, 1), (0, 3), (2, 3)]

    def test_edge_count(self):
        for k in range(1, 6):
            assert len(build_hk(k).edges) == k * (k + 1) // 2

    def test_no_monotone_p3(self):
        for k in range(1, 6):
            assert not has_monotone_p3(build_hk(k))


class TestEmbedIntoHk:
    @given(ordered_graphs(max_n=5))
    def test_path_free_embeds_and_validates(self, g):
        if has_monotone_p3(g):
            with pytest.raises(MonotonePathError):
                embed_into_hk(g)
        else:
            w = embed_into_hk(g)
            assert validate_witness(g, build_hk(max(g.n, 1)), w)

    def test_staircase_hosts_exactly_path_free_patterns(self):
        # containment in H_n characterises path-freeness for small patterns
        for n in range(1, 5):
            host = build_hk(n)
            for g in all_ordered_graphs(n):
                assert (contains_ordered(g, host) is not None) == (not has_monotone_p3(g))

    def test_exhaustive_up_to_4(self):
        # every path-free ordered graph on <= 4 vertices embeds
        for n in range(1, 5):
            for g in all_ordered_graphs(n):
                if not has_monotone_p3(g):
                    w = embed_into_hk(g)
                    assert validate_witness(g, build_hk(n), w)
