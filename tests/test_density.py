import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relturan.core import OrderedGraph
from relturan.density import (
    quarter_free_subgraph,
    rho_exact,
    rho_exhaustive,
    rho_local_search,
)
from relturan.hosts import complete_ordered
from relturan.patterns import build_hk, contains_ordered, has_monotone_p3, monotone_p3


@st.composite
def ordered_graphs(draw, max_n=6, max_edges=12):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
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

    def test_k7_value(self):
        res = rho_exact(P3, complete_ordered(7))
        assert res.best_edge_count == 49 // 4
        assert res.exact

    def test_node_budget_degrades_gracefully(self):
        res = rho_exact(P3, complete_ordered(6), node_budget=3)
        assert not res.exact
        sub = OrderedGraph(6, res.certificate)
        assert contains_ordered(P3, sub) is None

    def test_warm_start_is_used(self):
        ws = ((0, 2), (0, 3), (1, 2), (1, 3))
        res = rho_exact(P3, complete_ordered(4), node_budget=1, warm_start=ws)
        assert res.best_edge_count >= 4

    def test_budget_before_first_leaf_returns_empty_subgraph(self):
        # the empty subgraph is pattern-free, so the bound is never below 0
        res = rho_exact(P3, complete_ordered(5), node_budget=2)
        assert not res.exact
        assert res.best_edge_count == 0 and res.certificate == ()
        assert res.ratio == 0

    def test_warm_start_outside_host_refused(self):
        host = OrderedGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            rho_exact(P3, host, warm_start=((0, 3), (1, 2), (0, 2)))


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
