"""Brute-force references for ``relturan.patterns``.

Each enumerates its whole search space with no pruning: every increasing
injection of the pattern's vertices, every partition of the vertices into
intervals.  The tests check the containment kernel and the greedy interval
chromatic number against them on small graphs.
"""

from __future__ import annotations

from itertools import combinations

from relturan.core import OrderedGraph


def contains_ordered_bruteforce(pattern: OrderedGraph, host: OrderedGraph) -> bool:
    """Independent oracle: enumerate all increasing injections."""
    for combo in combinations(range(host.n), pattern.n):
        if all(host.has_edge(combo[u], combo[v]) for u, v in pattern.edges):
            return True
    return pattern.n == 0


def interval_chromatic_bruteforce(g: OrderedGraph) -> int:
    """Oracle: try all interval partitions by number of parts (n <= ~10)."""
    n = g.n
    if n == 0:
        return 1

    def ok(cuts: tuple[int, ...]) -> bool:
        bounds = [0, *cuts, n]
        for a, b in zip(bounds, bounds[1:]):
            for u, v in g.edges:
                if a <= u and v < b:
                    return False
        return True

    for parts in range(1, n + 1):
        for cuts in combinations(range(1, n), parts - 1):
            if ok(cuts):
                return parts
    return n
