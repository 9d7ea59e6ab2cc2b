"""Reference for the exact search: the branch-and-bound loop built on two helpers.

``density._search`` runs one loop with the include test and the packing
walk inlined, walks inherited live-copy lists and skips walks that cannot
prune.  This is the search it replaced: ``_closes_copy`` answers the include
test and ``packing_bound`` walks the whole copy table at every bounding
node.  ``greedy_free_reference`` grows the search's greedy seed one kernel
containment test at a time, without the copy table.  ``rho_exact_reference``
is ``rho_exact`` on both, over a table read off the kernel's copies
(``copy_table_reference``), and the two must give the same certificate,
node count and exactness.
"""

from __future__ import annotations

from typing import Optional, Sequence

from relturan.core import OrderedGraph
from relturan.density import DensityResult
from relturan.patterns import contains_ordered, ordered_copies


def copy_table_reference(
    pattern: OrderedGraph, host: OrderedGraph
) -> tuple[list[int], list[list[int]]]:
    """``patterns.copy_table`` on ``host``, read off ``ordered_copies``: each
    copy as the mask of its edges' indices in ``host.sorted_edges()``, and
    for each edge the copies through it, both in the kernel's order."""
    edges = host.sorted_edges()
    index = {e: i for i, e in enumerate(edges)}
    copies: list[int] = []
    through: list[list[int]] = [[] for _ in edges]
    for images in ordered_copies(pattern, host.forward_masks):
        bits = [index[images[a], images[b]] for a, b in pattern.sorted_edges()]
        copies.append(sum(1 << i for i in bits))
        for i in bits:
            through[i].append(copies[-1])
    return copies, through


def _closes_copy(through: list[int], kept: int) -> bool:
    """Whether one of the copies in ``through`` lies inside the edge mask ``kept``.

    Given the copies through an edge e and a ``kept`` holding e, this is
    exactly whether ``kept`` contains the pattern when ``kept`` less e is
    pattern-free: every copy inside ``kept`` then passes through e.
    """
    return any(not c & ~kept for c in through)


def packing_bound(copies: list[int], kept: int, dead: int, size: int, floor: int = -1) -> int:
    """Upper bound on e(S) over pattern-free S with kept <= S, S missing ``dead``.

    ``copies`` are edge masks in lexicographic order, ``kept`` (pattern-free)
    and ``dead`` (excluded) are disjoint edge masks, and ``size`` is the
    number of edges outside ``dead``.  Copies that miss ``dead`` are packed
    greedily, in order, while their undecided edges (those outside ``kept``)
    stay pairwise disjoint: a packed copy's undecided edges join ``dead``
    for the rest of the walk.  No copy lies inside ``kept``, so S misses one
    undecided edge of each packed copy, a different one per copy:
    e(S) <= size - packing.  The packing stops once the bound is down to
    ``floor``.
    """
    need = size - floor
    if need <= 0:
        return size
    packed = 0
    for c in copies:
        if not c & dead:
            dead |= c & ~kept
            packed += 1
            if packed == need:
                break
    return size - packed


# how a search node at depth i left for its child: fresh node, order[i] kept,
# order[i] dropped
_ENTER, _INCLUDED, _EXCLUDED = 0, 1, 2


def _search(
    copies: list[int],
    through: list[list[int]],
    order: Sequence[int],
    threshold: int,
    node_budget: Optional[int] = None,
    first_leaf: bool = False,
) -> tuple[Optional[int], int, bool]:
    """Include-first DFS over the edge indices ``order`` for pattern-free sets above ``threshold``.

    Node i decides edge order[i]; the include branch runs only while the kept
    set stays pattern-free.  A node is pruned when kept + undecided, or the
    packing bound, is at most the threshold.  The packing bound is at least
    |kept|, so it is tried only where |kept| <= threshold.  Each leaf reached
    is a new best and becomes the threshold; with ``first_leaf`` the search
    stops there.  The DFS keeps an explicit stack: its depth, up to e(host),
    is not limited by Python's recursion limit.  ``kept`` and ``dead`` (the
    excluded edges) are int masks over edge indices.

    Returns (the last leaf's kept mask or None, nodes, budget exhausted).
    """
    total = len(order)
    kept = dead = 0
    k = 0  # edges in kept
    best = None
    nodes = 0
    step = [_ENTER] * (total + 1)
    i = 0
    while i >= 0:
        if step[i] == _ENTER:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return best, nodes, True
            room = k + total - i
            if room <= threshold or (
                k <= threshold and packing_bound(copies, kept, dead, room, threshold) <= threshold
            ):
                i -= 1
                continue
            if i == total:
                threshold, best = k, kept
                if first_leaf:
                    break
                i -= 1
                continue
            e = order[i]
            if not _closes_copy(through[e], kept | 1 << e):
                kept |= 1 << e
                k += 1
                step[i] = _INCLUDED
                i += 1
                step[i] = _ENTER
                continue
        elif step[i] == _INCLUDED:
            kept ^= 1 << order[i]
            k -= 1
        else:  # both branches done
            dead ^= 1 << order[i]
            i -= 1
            continue
        dead |= 1 << order[i]
        step[i] = _EXCLUDED
        i += 1
        step[i] = _ENTER
    return best, nodes, False


def greedy_free_reference(
    pattern: OrderedGraph,
    host: OrderedGraph,
    through: list[list[int]],
) -> tuple[tuple[int, int], ...]:
    """``density._greedy_free``'s seed, grown with the whole-graph kernel.

    It starts from no edges and tries the host's edges in ascending order of
    ``len(through[i])``, ties by index, keeping each one whose addition leaves
    the growing graph free of ``pattern`` by ``contains_ordered``.  Returns
    the sorted edges.
    """
    edges = host.sorted_edges()
    kept: list[tuple[int, int]] = []
    for i in sorted(range(len(edges)), key=lambda i: (len(through[i]), i)):
        if contains_ordered(pattern, OrderedGraph(host.n, [*kept, edges[i]])) is None:
            kept.append(edges[i])
    return tuple(sorted(kept))


def rho_exact_reference(
    pattern: OrderedGraph,
    host: OrderedGraph,
    node_budget: Optional[int] = None,
) -> DensityResult:
    """``density.rho_exact``'s two passes, run on the reference ``_search``
    from the reference seed."""
    edges = host.sorted_edges()
    total = len(edges)
    copies, through = copy_table_reference(pattern, host)
    order = sorted(range(total), key=lambda i: (-len(through[i]), i))

    best_cert = greedy_free_reference(pattern, host, through)
    found, nodes, exhausted = _search(copies, through, order, len(best_cert), node_budget)
    if found is not None:
        best_cert = tuple(e for i, e in enumerate(edges) if found >> i & 1)
    if not exhausted:
        least, more, _ = _search(copies, through, range(total), len(best_cert) - 1, first_leaf=True)
        best_cert = tuple(e for i, e in enumerate(edges) if least >> i & 1)
        nodes += more
    return DensityResult(total, best_cert, not exhausted, nodes)
