"""Whole-graph reference for the local search.

``rho_local_search`` tests containment only through the edge it just added.
This is the same hill climb with every test a whole-graph walk of the
ordered-copy kernel from vertex 0, as the package ran it before anchoring.
It holds its kept edges as a set beside one plain list of forward bitmasks.
Both must agree on the best count, the certificate and the round count.
"""

from __future__ import annotations

import random

from relturan.core import OrderedGraph
from relturan.density import DensityResult, _check_pattern, quarter_free_subgraph
from relturan.patterns import contains_ordered, has_monotone_p3, ordered_copies


def rho_local_search_whole_graph(
    pattern: OrderedGraph,
    host: OrderedGraph,
    budget: int = 2000,
    seed: int = 0,
) -> DensityResult:
    _check_pattern(pattern)
    rng = random.Random(seed)
    all_edges = host.sorted_edges()
    total = len(all_edges)

    current: set[tuple[int, int]] = set()
    fwd = [0] * host.n

    def put(e: tuple[int, int]) -> None:
        current.add(e)
        fwd[e[0]] |= 1 << e[1]

    def drop(e: tuple[int, int]) -> None:
        current.discard(e)
        fwd[e[0]] &= ~(1 << e[1])

    def first_copy():
        return next(ordered_copies(pattern, fwd), None)

    if has_monotone_p3(pattern):
        start = quarter_free_subgraph(host)
        if contains_ordered(pattern, start) is None:
            for e in start.sorted_edges():
                put(e)

    def try_add(e: tuple[int, int]) -> bool:
        if e in current:
            return False
        put(e)
        if first_copy() is None:
            return True
        drop(e)
        return False

    for e in all_edges:
        try_add(e)

    best = set(current)
    nodes = 0
    for _ in range(budget):
        nodes += 1
        if len(current) == total:
            break
        e = rng.choice([c for c in all_edges if c not in current])
        put(e)
        removed = []
        while (witness := first_copy()) is not None:
            copy_edges = sorted((witness[u], witness[v]) for u, v in pattern.edges)
            victims = [c for c in copy_edges if c != e] or copy_edges
            victim = victims[-1]
            drop(victim)
            removed.append(victim)
        if removed and len(current) < len(best):
            drop(e)
            for r in removed:
                put(r)
        if len(current) > len(best):
            best = set(current)

    return DensityResult(total, tuple(sorted(best)), False, nodes)
