"""Kernel-walk reference for the exact search's packing bound.

``density.packing_bound`` packs copies from the table of edge masks that
``rho_exact`` enumerates once per solve.  This is the walk the package ran
before that table: at every call it runs the ordered-copy kernel over the
live edges (kept + undecided) and removes each packed copy's undecided
edges from them until the walk ends.  Both must give the same bound.
"""

from __future__ import annotations

from relturan.core import OrderedGraph
from relturan.patterns import ordered_copies


def packing_bound(
    pattern: OrderedGraph, kept: list[int], live: list[int], size: int, floor: int = -1
) -> int:
    """Upper bound on e(S) over pattern-free S with kept <= S <= live.

    ``kept`` and ``live`` are edge sets as lists of forward bitmasks, one per
    host vertex; ``live`` is edited during the walk and restored after it.
    ``size`` is the number of edges of ``live``, and ``kept`` must be
    pattern-free.  Copies in ``live`` are packed greedily, in lexicographic
    order, while their undecided edges (those outside ``kept``) stay pairwise
    disjoint.  No copy lies inside ``kept``, so S misses one undecided edge of
    each packed copy, a different one per copy: e(S) <= size - packing.  The
    packing stops once the bound is down to ``floor``.
    """
    need = size - floor
    if need <= 0:
        return size
    pattern_edges = sorted(pattern.edges)
    # a packed copy's undecided edges leave ``live`` until the walk ends, which
    # prunes the walk; a copy the kernel yields through one of them anyway
    # (chosen before the removal) is skipped
    packed_edges: list[tuple[int, int]] = []
    packed = 0
    for images in ordered_copies(pattern, live):
        undecided = []
        for a, b in pattern_edges:
            u, v = images[a], images[b]
            if not kept[u] >> v & 1:
                if not live[u] >> v & 1:
                    break
                undecided.append((u, v))
        else:
            for u, v in undecided:
                live[u] &= ~(1 << v)
            packed_edges += undecided
            packed += 1
            if packed == need:
                break
    for u, v in packed_edges:
        live[u] |= 1 << v
    return size - packed
