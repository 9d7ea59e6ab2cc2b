import hashlib
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan.core import OrderedGraph
from relturan import density, patterns
from relturan.density import (
    _copy_table,
    _edges_of,
    _greedy_free,
    quarter_free_subgraph,
    rho_exact,
    rho_exhaustive,
    rho_local_search,
)
from relturan.hosts import BudgetError, complete_ordered, generate_host
from relturan.patterns import (
    build_hk,
    contains_ordered,
    has_monotone_p3,
    monotone_p3,
    ordered_copies,
)
from local_search_oracle import rho_local_search_whole_graph
from packing_oracle import packing_bound as walk_packing_bound
from search_oracle import _closes_copy, greedy_free_reference, packing_bound, rho_exact_reference


@st.composite
def ordered_graphs(draw, max_n=6, max_edges=12, min_n=1, min_edges=0):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True,
                      min_size=min(min_edges, len(pairs)), max_size=max_edges))
        if pairs
        else []
    )
    return OrderedGraph(n, edges)


def random_host(rng, max_n=7, max_edges=14):
    n = rng.randint(2, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return OrderedGraph(n, pairs[: rng.randint(0, min(max_edges, len(pairs)))])


P3 = monotone_p3()

# P3, H_2, the other two 2-edge patterns on 3 vertices, the crossing and
# nesting matchings and the increasing path on 4 vertices
ORACLE_PATTERNS = [
    P3,
    build_hk(2),
    OrderedGraph(3, [(0, 1), (0, 2)]),
    OrderedGraph(3, [(0, 2), (1, 2)]),
    OrderedGraph(4, [(0, 2), (1, 3)]),
    OrderedGraph(4, [(0, 3), (1, 2)]),
    monotone_p3(4),
]


def root_bound(pattern, host, floor=-1):
    edges = host.sorted_edges()
    copies, _ = _copy_table(pattern, host, edges)
    return packing_bound(copies, 0, 0, len(edges), floor)


class TestExhaustive:
    def test_turan_triangle_values(self):
        # largest increasing-path-free subgraph of K_n has floor(n^2/4) edges
        for n in (3, 4, 5, 6):
            res = rho_exhaustive(P3, complete_ordered(n))
            assert res.best_edge_count == n * n // 4
            assert res.exact

    def test_certificate_is_free_and_sized(self):
        res = rho_exhaustive(P3, complete_ordered(5))
        sub = OrderedGraph(5, res.certificate)
        assert len(sub.edges) == res.best_edge_count
        assert contains_ordered(P3, sub) is None

    def test_certificate_lex_least(self):
        # among the optimal P3-free subgraphs of K_4 the bipartite-from-the-
        # left one is lexicographically least
        res = rho_exhaustive(P3, complete_ordered(4))
        assert res.certificate == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_pattern_not_present_keeps_everything(self):
        host = OrderedGraph(4, [(0, 1), (2, 3)])
        res = rho_exhaustive(P3, host)
        assert res.best_edge_count == 2 and res.ratio == 1

    def test_empty_host(self):
        res = rho_exhaustive(P3, OrderedGraph(3, []))
        assert res.best_edge_count == 0 and res.ratio == Fraction(1)

    def test_edge_cap(self):
        with pytest.raises(ValueError):
            rho_exhaustive(P3, complete_ordered(7))

    def test_edgeless_pattern_refused(self):
        with pytest.raises(ValueError):
            rho_exhaustive(OrderedGraph(2, []), complete_ordered(3))


class TestExact:
    def test_matches_exhaustive_on_random_hosts(self):
        rng = random.Random(42)
        for _ in range(40):
            host = random_host(rng)
            for pat in (P3, build_hk(2)):
                a = rho_exhaustive(pat, host)
                b = rho_exact(pat, host)
                assert a.best_edge_count == b.best_edge_count
                assert b.exact
                assert a.certificate == b.certificate

    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(max_n=7, max_edges=14))
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive_on_drawn_hosts(self, pat, host):
        ref = rho_exhaustive(pat, host)
        res = rho_exact(pat, host)
        assert (res.certificate, res.exact) == (ref.certificate, ref.exact)

    def test_certificate_pass_returns_the_least_optimum(self):
        # the fail-first pass ends on an optimum that is not the least one;
        # the certificate pass in canonical edge order must still find it
        host = OrderedGraph(8, [(0, 1), (0, 2), (0, 3), (0, 7), (1, 3), (1, 6), (1, 7),
                                (2, 4), (2, 5), (2, 6), (2, 7), (3, 5), (3, 6), (4, 7)])
        edges = host.sorted_edges()
        copies, through = _copy_table(P3, host, edges)
        order = sorted(range(len(edges)), key=lambda i: (-len(through[i]), i))
        seed = _greedy_free(through)
        found, _, exhausted = density._search(copies, through, order, seed.bit_count())
        first = _edges_of(seed if found is None else found, edges)
        least = ((0, 3), (0, 7), (1, 3), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6), (2, 7))
        assert not exhausted
        assert first == ((0, 3), (0, 7), (1, 3), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (4, 7))
        res = rho_exact(P3, host)
        assert (res.certificate, res.exact) == (least, True)
        assert rho_exhaustive(P3, host).certificate == least

    def test_k7_value(self):
        res = rho_exact(P3, complete_ordered(7))
        assert res.best_edge_count == 49 // 4
        assert res.exact

    def test_node_budget_degrades_gracefully(self):
        # K_6 finishes within 3 nodes; K_7 does not
        res = rho_exact(P3, complete_ordered(7), node_budget=3)
        assert not res.exact
        sub = OrderedGraph(7, res.certificate)
        assert contains_ordered(P3, sub) is None

    def test_budget_before_first_leaf_returns_the_greedy_seed(self):
        # the greedy seed is pattern-free, so the bound is never below it
        host = complete_ordered(5)
        res = rho_exact(P3, host, node_budget=2)
        assert not res.exact
        _, through = _copy_table(P3, host, host.sorted_edges())
        assert res.certificate == greedy_free_reference(P3, host, through)
        assert res.best_edge_count == 6 and res.ratio == Fraction(3, 5)


class TestGreedySeed:
    """The greedy maximal pattern-free set the exact search starts from."""

    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(max_n=7, max_edges=14),
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_free_maximal_and_at_most_the_optimum(self, pattern, host, budget):
        edges = host.sorted_edges()
        _, through = _copy_table(pattern, host, edges)
        seed = _edges_of(_greedy_free(through), edges)
        assert contains_ordered(pattern, OrderedGraph(host.n, seed)) is None
        for e in set(edges) - set(seed):
            assert contains_ordered(pattern, OrderedGraph(host.n, [*seed, e])) is not None
        assert seed == greedy_free_reference(pattern, host, through)
        assert len(seed) <= rho_exhaustive(pattern, host).best_edge_count
        # a budget that runs out keeps at least the seed
        assert rho_exact(pattern, host, budget).best_edge_count >= len(seed)


class TestPackingBound:
    def test_root_bound_is_at_least_the_optimum(self):
        rng = random.Random(11)
        for _ in range(60):
            host = random_host(rng)
            for pat in ORACLE_PATTERNS:
                bound = root_bound(pat, host)
                assert rho_exhaustive(pat, host).best_edge_count <= bound <= len(host.edges)

    def test_pattern_free_host_keeps_every_edge(self):
        host = OrderedGraph(6, [(0, 3), (1, 3), (2, 3), (4, 5)])  # no P3
        assert root_bound(P3, host) == 4

    def test_disjoint_copies_each_cost_an_edge(self):
        # two edge-disjoint P3 copies: (0,1,2) and (3,4,5)
        host = OrderedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert root_bound(P3, host) == 2

    def test_prunes_complete_hosts(self):
        # both passes together; the bound kept + undecided alone took 6,672
        # (P3) and about 53k (H_2) nodes in the first, and the packing bound
        # from threshold 0 took 280 and 319 nodes in both
        assert rho_exact(P3, complete_ordered(8)).nodes_explored == 44
        assert rho_exact(build_hk(2), complete_ordered(8)).nodes_explored == 92

    def test_floor_stops_the_packing(self):
        host = complete_ordered(6)  # 15 edges
        assert root_bound(P3, host, floor=13) == 13
        assert root_bound(P3, host) < 13

    @pytest.mark.parametrize("pattern, best, nodes", [(P3, 22, 1400), (build_hk(2), 30, 1254)],
                             ids=["P3", "H2"])
    def test_search_tree_pinned_on_a_blocked_host(self, pattern, best, nodes):
        # the optima are those of the search that walked the kernel at every
        # node, from threshold 0 in 1,863 (P3) and 1,500 (H_2) nodes
        res = rho_exact(pattern, generate_host(2, 3, 0).to_ordered())
        assert (res.best_edge_count, res.nodes_explored, res.exact) == (best, nodes, True)


class TestCopyTable:
    """The reference search's include test and packing bound on the table, against the kernel."""

    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(max_n=9, max_edges=30),
           st.randoms(use_true_random=False), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_kernel_walk(self, pattern, host, rnd, data):
        # split the edges into a pattern-free kept part, undecided and excluded;
        # ``kept`` and ``live`` (kept + undecided) are lists of forward masks
        edges = host.sorted_edges()
        copies, through = _copy_table(pattern, host, edges)
        kept, live = [0] * host.n, [0] * host.n

        def has_copy(fwd):
            return next(ordered_copies(pattern, fwd), None) is not None

        kept_bits = dead_bits = 0
        for i, (u, v) in enumerate(edges):
            r = rnd.random()
            if r < 1 / 3:
                kept[u] |= 1 << v
                if not has_copy(kept):
                    kept_bits |= 1 << i
                    live[u] |= 1 << v
                    continue
                kept[u] ^= 1 << v
            if r < 2 / 3:
                live[u] |= 1 << v
            else:
                dead_bits |= 1 << i
        for i, (u, v) in enumerate(edges):
            if not kept[u] >> v & 1:
                kept[u] |= 1 << v
                assert _closes_copy(through[i], kept_bits | 1 << i) == has_copy(kept)
                kept[u] ^= 1 << v
        size = sum(mask.bit_count() for mask in live)
        for floor in (-1, data.draw(st.integers(-1, size + 1))):
            assert packing_bound(copies, kept_bits, dead_bits, size, floor) == (
                walk_packing_bound(pattern, kept, live, size, floor))

    def test_table_lists_every_copy_by_edge(self):
        host = complete_ordered(5)
        edges = host.sorted_edges()
        copies, through = _copy_table(P3, host, edges)
        index = {e: i for i, e in enumerate(edges)}
        expected = [1 << index[a, b] | 1 << index[b, c]
                    for a in range(5) for b in range(a + 1, 5) for c in range(b + 1, 5)]
        assert copies == expected
        assert through == [[c for c in copies if c >> i & 1] for i in range(len(edges))]

    def test_memory_guard(self, monkeypatch):
        # K_8 has 56 copies of P3 over 28 edges, each charged some 50 bytes
        monkeypatch.setattr(density, "_MAX_BUILD_BYTES", 1000)
        with pytest.raises(BudgetError, match="exceed 1000 bytes"):
            rho_exact(P3, complete_ordered(8))
        # a host with fewer copies still fits
        assert rho_exact(P3, complete_ordered(4)).best_edge_count == 4


def _outcome(res):
    return res.certificate, res.nodes_explored, res.exact


def _plain_walk(monkeypatch):
    monkeypatch.setattr(density, "_live_cap", lambda copies: 0)


def _peak_live_entries(run):
    """``run()``, and the most entries ``density._search``'s live lists held at once.

    A line tracer reads the search's locals: the lists on its stack past the
    table, and the one a walk is collecting, each counted once.
    """
    peak = 0

    def lines(frame, event, arg):
        nonlocal peak
        local = frame.f_locals
        held = {id(lst): len(lst) for lst in local.get("lists", [])[1:]}
        if local.get("fresh") is not None:
            held[id(local["fresh"])] = len(local["fresh"])
        peak = max(peak, sum(held.values()))
        return lines

    sys.settrace(lambda frame, event, arg: lines if frame.f_code is density._search.__code__
                 else None)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, peak


class TestSearchOracle:
    """The one-loop search against the reference search of ``search_oracle``."""

    @pytest.mark.parametrize("plain", [False, True], ids=["live-lists", "plain-walk"])
    # hypothesis draws mostly small hosts, so dense ones are drawn as well
    @given(st.sampled_from(ORACLE_PATTERNS),
           st.one_of(ordered_graphs(max_n=9, max_edges=30),
                     ordered_graphs(max_n=9, max_edges=30, min_n=7, min_edges=18)),
           st.one_of(st.none(), st.just(1), st.integers(0, 400)))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, plain, pattern, host, budget):
        with pytest.MonkeyPatch.context() as mp:
            if plain:
                _plain_walk(mp)
            res = rho_exact(pattern, host, budget)
        assert _outcome(res) == _outcome(rho_exact_reference(pattern, host, budget))

    @pytest.mark.parametrize("plain", [False, True], ids=["live-lists", "plain-walk"])
    @pytest.mark.parametrize("pattern, host, budget", [
        (P3, generate_host(2, 3, 0).to_ordered(), None),
        (build_hk(2), generate_host(2, 3, 0).to_ordered(), None),
        (OrderedGraph(4, [(0, 2), (1, 3), (2, 3)]), generate_host(2, 4, 0).to_ordered(), 3000),
        (P3, complete_ordered(20), 500),
    ], ids=["P3-host16", "H2-host16", "021323-host32", "P3-K20"])
    def test_matches_reference_on_larger_hosts(self, plain, pattern, host, budget, monkeypatch):
        if plain:
            _plain_walk(monkeypatch)
        assert _outcome(rho_exact(pattern, host, budget)) == _outcome(
            rho_exact_reference(pattern, host, budget))

    @pytest.mark.parametrize("host, budget", [
        (generate_host(2, 3, 0).to_ordered(), None),
        (complete_ordered(12), 300),
    ], ids=["host16", "K12"])
    def test_live_lists_stay_within_the_cap(self, host, budget, monkeypatch):
        res, peak = _peak_live_entries(lambda: rho_exact(P3, host, budget))
        table = len(_copy_table(P3, host, host.sorted_edges())[0])
        assert peak > table  # past the least cap the search allows
        cap = (table + peak) // 2
        monkeypatch.setattr(density, "_live_cap", lambda copies: cap)
        capped, capped_peak = _peak_live_entries(lambda: rho_exact(P3, host, budget))
        assert 0 < capped_peak <= cap
        assert _outcome(capped) == _outcome(res)


class TestQuarterConstructor:
    @given(ordered_graphs(max_n=8, max_edges=16))
    @settings(max_examples=60)
    def test_guarantee(self, host):
        sub = quarter_free_subgraph(host)
        assert not has_monotone_p3(sub)
        assert len(sub.edges) * 4 >= len(host.edges)
        assert sub.edges <= host.edges

    def test_deterministic(self):
        host = complete_ordered(9)
        assert quarter_free_subgraph(host) == quarter_free_subgraph(host)

    def test_single_edge_kept(self):
        host = OrderedGraph(2, [(0, 1)])
        assert len(quarter_free_subgraph(host).edges) == 1

    @given(ordered_graphs(max_n=8, max_edges=20))
    @settings(max_examples=80)
    def test_matches_greedy_conditional_expectation(self, host):
        # reference: label each vertex by recomputing 4x the expected number
        # of kept edges over all edges, ties to SOURCE
        labels = {}

        def expected_x4():
            total = 0
            for u, v in host.edges:
                pu = (2 if labels[u] else 0) if u in labels else 1
                pv = (0 if labels[v] else 2) if v in labels else 1
                total += pu * pv
            return total

        for v in range(host.n):
            labels[v] = True
            as_source = expected_x4()
            labels[v] = False
            labels[v] = as_source >= expected_x4()
        kept = {(u, v) for u, v in host.edges if labels[u] and not labels[v]}
        assert quarter_free_subgraph(host).edges == kept


def _assert_masks_match_the_edge_list_route(host):
    sub = quarter_free_subgraph(host)
    ref = OrderedGraph(host.n, sub.sorted_edges())
    assert sub.forward_masks == ref.forward_masks
    assert sub.backward_masks == ref.backward_masks
    assert sub == ref and hash(sub) == hash(ref)


class TestQuarterMasks:
    """The mask-built quarter subgraph against the edge-list constructor."""

    @given(ordered_graphs(max_n=8, max_edges=28))
    @settings(max_examples=100)
    def test_matches_the_edge_list_route(self, host):
        _assert_masks_match_the_edge_list_route(host)

    @pytest.mark.parametrize("m, d", [(8, 5), (8, 6), (16, 3)])
    def test_matches_the_edge_list_route_on_blocked_hosts(self, m, d):
        _assert_masks_match_the_edge_list_route(generate_host(m, d, 0).to_ordered())

    def test_pinned_on_a_large_blocked_host(self):
        # 2,048 vertices and 65,915 edges; the digest is the edge-list route's
        sub = quarter_free_subgraph(generate_host(8, 8, 0).to_ordered())
        assert sub.num_edges() == 24431
        digest = hashlib.sha256(repr((sub.forward_masks, sub.backward_masks)).encode()).hexdigest()
        assert digest == "b27b98e76f0abbb263572d3cb4d1eb9b67a38f6e2208c793d3632b4a1622b4e4"


class TestLocalSearch:
    def test_result_is_valid_lower_bound(self):
        rng = random.Random(7)
        for _ in range(10):
            host = random_host(rng)
            res = rho_local_search(P3, host, budget=200, seed=1)
            sub = OrderedGraph(host.n, res.certificate)
            assert contains_ordered(P3, sub) is None
            assert not res.exact
            opt = rho_exact(P3, host)
            assert res.best_edge_count <= opt.best_edge_count

    def test_reaches_optimum_on_k5(self):
        res = rho_local_search(P3, complete_ordered(5), budget=500, seed=0)
        assert res.best_edge_count == 6

    def test_seeded_reproducible(self):
        host = complete_ordered(6)
        a = rho_local_search(P3, host, budget=100, seed=3)
        b = rho_local_search(P3, host, budget=100, seed=3)
        assert a.certificate == b.certificate


def _fields(res):
    return res.best_edge_count, res.total_edges, res.certificate, res.nodes_explored


class TestAnchoredLocalSearch:
    """The anchored local search against the whole-graph one it replaced."""

    @given(st.sampled_from(ORACLE_PATTERNS), ordered_graphs(max_n=9, max_edges=30),
           st.integers(0, 50), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_matches_whole_graph_search(self, pattern, host, budget, seed):
        assert _fields(rho_local_search(pattern, host, budget, seed)) == _fields(
            rho_local_search_whole_graph(pattern, host, budget, seed))

    # H_2, P5 and {01, 02} have rows that open with a whole-row question and
    # then add edges
    @pytest.mark.parametrize("pattern", [P3, build_hk(2), monotone_p3(4), monotone_p3(5),
                                         OrderedGraph(3, [(0, 1), (0, 2)])])
    def test_matches_on_a_blocked_host(self, pattern):
        host = generate_host(4, 3, 1).to_ordered()  # 32 vertices
        assert _fields(rho_local_search(pattern, host, 40, 3)) == _fields(
            rho_local_search_whole_graph(pattern, host, 40, 3))

    # the CI tripwire hosts with 32 and 128 vertices, and their patterns
    @pytest.mark.parametrize("pattern", [
        P3, monotone_p3(4), build_hk(2), OrderedGraph(3, [(0, 1), (0, 2)]),
        OrderedGraph(4, [(0, 2), (1, 3), (2, 3)]),
    ], ids=["P3", "P4", "H2", "cherry", "reach"])
    @pytest.mark.parametrize("m, d", [(2, 4), (16, 3)], ids=["host32", "host128"])
    def test_generated_searches_give_the_interpreted_result(self, pattern, m, d, monkeypatch):
        host = generate_host(m, d, 0).to_ordered()
        generated = rho_local_search(pattern, host, 30, 0)
        monkeypatch.setattr(patterns, "_generated_searches", lambda pattern: None)
        assert generated == rho_local_search(pattern, host, 30, 0)

    # on dense hosts the whole-graph search repairs many losing rounds through
    # three or more deletions; the anchored one stops them at the second
    @pytest.mark.parametrize("pattern", [P3, build_hk(2), monotone_p3(4)])
    @pytest.mark.parametrize("host", [
        complete_ordered(9),
        complete_ordered(10),
        OrderedGraph(10, random.Random(10).sample(list(combinations(range(10), 2)), 38)),
    ], ids=["K9", "K10", "dense10"])
    @pytest.mark.parametrize("budget, seed", [(60, 1), (100, 2)])
    def test_matches_on_a_dense_host(self, pattern, host, budget, seed):
        assert _fields(rho_local_search(pattern, host, budget, seed)) == _fields(
            rho_local_search_whole_graph(pattern, host, budget, seed))

    # H_2 has no increasing 2-edge path, so it starts empty; monotone P4 is
    # started empty here by handing both searches an empty quarter start.
    # Most rows then accept edges, and each acceptance voids a row's answers
    @pytest.mark.parametrize("pattern", [build_hk(2), monotone_p3(4)], ids=["H2", "P4"])
    @pytest.mark.parametrize("budget, seed", [(0, 0), (25, 4)])
    def test_matches_from_an_empty_start(self, pattern, budget, seed, monkeypatch):
        import local_search_oracle

        def empty(host):
            return OrderedGraph(host.n, [])

        monkeypatch.setattr(density, "quarter_free_subgraph", empty)
        monkeypatch.setattr(local_search_oracle, "quarter_free_subgraph", empty)
        host = generate_host(4, 3, 1).to_ordered()
        assert _fields(rho_local_search(pattern, host, budget, seed)) == _fields(
            rho_local_search_whole_graph(pattern, host, budget, seed))

    # in these a row's refusal is followed by an acceptance (u, v') after
    # which a later (u, w) closes a copy through both: the row's answers must
    # be dropped when an edge is added
    @pytest.mark.parametrize("pattern, host", [
        (OrderedGraph(4, [(0, 1), (1, 2), (1, 3)]), OrderedGraph(7, [
            (0, 1), (0, 6), (1, 2), (1, 3), (1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5),
            (3, 6), (4, 5), (4, 6), (5, 6)])),
        (OrderedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), OrderedGraph(9, [
            (0, 1), (0, 2), (0, 3), (0, 6), (0, 8), (1, 2), (1, 4), (1, 5), (1, 7), (1, 8),
            (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 7), (4, 8),
            (5, 6), (5, 7), (6, 7)])),
    ], ids=["broom", "K22"])
    def test_matches_when_an_acceptance_follows_a_refusal(self, pattern, host):
        for budget in (0, 20):
            assert _fields(rho_local_search(pattern, host, budget, 0)) == _fields(
                rho_local_search_whole_graph(pattern, host, budget, 0))

    def test_greedy_pass_walks_per_row_not_per_edge(self, monkeypatch):
        # the quarter start on this host is already maximal: the greedy pass
        # refuses all 1,444 candidate edges, one kernel walk each or more if
        # asked one at a time; by rows it makes at most 2 e(F) walks per vertex.
        # The walks are counted on the interpreted searches, the generated
        # ones having no ``_walk`` to count
        monkeypatch.setattr(patterns, "_generated_searches", lambda pattern: None)
        walks = 0
        walk = patterns._walk

        def counted(*args, **kwargs):
            nonlocal walks
            walks += 1
            return walk(*args, **kwargs)

        monkeypatch.setattr(patterns, "_walk", counted)
        host = generate_host(16, 3, 0).to_ordered()
        res = rho_local_search(P3, host, budget=0)
        assert res.best_edge_count == quarter_free_subgraph(host).num_edges()
        assert walks <= 2 * host.n * P3.num_edges()

    def test_greedy_pass_asks_once_per_row_while_it_refuses(self, monkeypatch):
        # the quarter start is maximal here, so no row adds an edge and each
        # row with candidates is answered by the one whole-row question it
        # opens with (one to spare); a row opened edge by edge takes two
        questions = 0
        compile_search = density.through_edge_search

        def counted(pattern, n):
            least, refused = compile_search(pattern, n)

            def refused_counted(*args):
                nonlocal questions
                questions += 1
                return refused(*args)

            return least, refused_counted

        monkeypatch.setattr(density, "through_edge_search", counted)
        host = generate_host(16, 3, 0).to_ordered()
        start = quarter_free_subgraph(host)
        rows = sum(1 for mask, kept in zip(host.forward_masks, start.forward_masks) if mask & ~kept)
        res = rho_local_search(P3, host, budget=0)
        assert res.best_edge_count == start.num_edges()
        assert questions <= rows + 1

    def test_pinned_certificate(self):
        res = rho_local_search(P3, generate_host(16, 3, 0).to_ordered(), budget=300)
        assert (res.best_edge_count, res.total_edges, res.nodes_explored) == (1496, 2940, 300)
        digest = hashlib.sha256(repr(res.certificate).encode()).hexdigest()
        assert digest == "0ad23e28db44dd001cee6ff59f24125a16935bd76b493f49c9167d58bcac5c3d"


def test_exact_outputs_pinned_on_small_instances():
    # the bench's exact-small instance shapes: P3 and H_2 on K_7, P3 on K_8,
    # and both on 8 random 9-vertex hosts with 14 edges
    h2 = build_hk(2)
    instances = [(P3, complete_ordered(7)), (h2, complete_ordered(7)), (P3, complete_ordered(8))]
    rng = random.Random(0)
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9)]
    for _ in range(8):
        host = OrderedGraph(9, rng.sample(pairs, 14))
        instances += [(P3, host), (h2, host)]
    results = [rho_exact(pattern, host) for pattern, host in instances]
    # 1,826 nodes in all from threshold 0, 426 from the greedy seed
    assert [(r.best_edge_count, r.nodes_explored) for r in results] == [
        (12, 32), (15, 44), (16, 44), (9, 17), (12, 16), (8, 22), (12, 16), (10, 16),
        (12, 16), (9, 16), (12, 17), (10, 18), (12, 17), (8, 19), (12, 16), (9, 43),
        (12, 17), (8, 24), (11, 16),
    ]
    assert all(r.exact for r in results)
    digest = hashlib.sha256(repr([r.certificate for r in results]).encode()).hexdigest()
    assert digest == "5023d71e1269d82e964452ec99babb75dc15e2d37993ebea2ba24972f3c6c13d"

