"""Largest pattern-free subgraph of an ordered host, exact and heuristic.

The quantity of interest is the best edge fraction over spanning subgraphs
G' of G that avoid an ordered copy of the pattern F.  Three routes:

* ``rho_exhaustive``: pruned enumeration of all F-free edge subsets (small
  hosts, hard cap on e(G)); the reference oracle.
* ``rho_exact``: branch-and-bound over edges, started from a greedy maximal
  pattern-free set; the bound is kept + undecided less a greedy packing of
  copies that share no undecided edge.  One search loop runs both its
  passes: the optimum, then the lexicographically least certificate.
* ``rho_local_search``: seeded hill climbing, lower bounds only.

All three find copies with the one ordered-copy kernel.  The oracle tests
whole-graph ``patterns.contains_ordered``.  The exact search lists the
copies once per solve, each as an int mask over the host's edge indices
(``patterns.copy_table``), and runs its include test and packing walk on
that table with bitwise operations, the walk over live-copy lists
inherited down the search.  The table takes about copies x e/8 bytes, and
the lists at most one slab of pointers (or one table's) beyond it; a table
that would pass 2^31 bytes is refused with ``core.BudgetError``.  The local
search keeps its set pattern-free and adds one edge at a time, so every new
copy passes through that edge; it searches only those, with the pattern's
through-edge searches (``patterns.through_edge_search``), on forward and
backward bitmask lists it edits in place.  Its greedy pass asks whether adding edges would close a
copy, without adding them, a row at a time (``rho_local_search`` gives
when it asks about one edge and when about the rest of a row).  The edges
it draws from, the host's less the kept ones, are then read off the masks
in one numpy pass (``core.mask_arrays``) as the sorted keys u * n + v, and
its certificate is read back the same way.  A round begins level with the
best set, so one that deletes a second edge has lost and stops there.  Its
quarter start is checked to have no increasing 2-edge path, which every
copy of a pattern it is used for contains.

Each route returns a ``DensityResult``, a NamedTuple record.

Plus the derandomized two-label constructor that keeps at least a quarter of
the edges of any host while avoiding every increasing 2-edge path, built in
O(n) mask operations.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .core import _SLAB_BYTES, BudgetError, OrderedGraph, mask_arrays, mask_edges
from .patterns import contains_ordered, copy_table, has_monotone_p3, through_edge_search

EXHAUSTIVE_EDGE_CAP = 20


class DensityResult(NamedTuple):
    total_edges: int
    certificate: tuple[tuple[int, int], ...]  # sorted edge list of the best subgraph
    exact: bool
    nodes_explored: int

    @property
    def best_edge_count(self) -> int:
        return len(self.certificate)

    @property
    def ratio(self) -> Fraction:
        if self.total_edges == 0:
            return Fraction(1)  # nothing to delete
        return Fraction(self.best_edge_count, self.total_edges)


def _check_pattern(pattern: OrderedGraph) -> None:
    if not pattern.num_edges():
        raise ValueError("pattern must have at least one edge")


def rho_exhaustive(pattern: OrderedGraph, host: OrderedGraph) -> DensityResult:
    """Optimal pattern-free subgraph by enumerating F-free edge subsets.

    DFS over edges in canonical order, include branch first; a subset is
    extended only while it stays F-free, which skips every superset of an
    F-containing set.  The first optimum found is the lexicographically least
    certificate.
    """
    _check_pattern(pattern)
    edges = host.sorted_edges()
    if len(edges) > EXHAUSTIVE_EDGE_CAP:
        raise BudgetError(
            f"host has {len(edges)} edges, exhaustive cap is {EXHAUSTIVE_EDGE_CAP}; "
            "use rho_exact"
        )
    best: tuple[tuple[int, int], ...] = ()
    chosen: list[tuple[int, int]] = []
    nodes = 0

    def dfs(i: int) -> None:
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + (len(edges) - i) <= len(best):
            return
        if i == len(edges):  # not pruned above, so larger than best
            best = tuple(chosen)
            return
        chosen.append(edges[i])
        if contains_ordered(pattern, OrderedGraph(host.n, chosen)) is None:
            dfs(i + 1)
        chosen.pop()
        dfs(i + 1)

    dfs(0)
    return DensityResult(len(edges), best, True, nodes)


def _live_cap(copies: list[int]) -> int:
    """Entries the search's live lists may hold in all: one table's, or one slab of pointers."""
    return max(len(copies), _SLAB_BYTES // 8)


def _search(
    copies: list[int],
    through: list[list[int]],
    weights: list[int],
    order: Sequence[int],
    threshold: int,
    node_budget: Optional[int] = None,
    first_leaf: bool = False,
) -> tuple[Optional[int], int, bool]:
    """Include-first DFS over the edge indices ``order`` for pattern-free sets above ``threshold``.

    Node i decides edge order[i]; the include branch runs only while the kept
    set stays pattern-free, that is while no copy through order[i] lies in
    the kept set with it.  A node is pruned when kept + undecided is at most
    the threshold, or when the packing bound is: copies that miss ``dead``
    (the excluded edges) are packed greedily, in table order, while their
    undecided edges stay pairwise disjoint, and each packed copy costs the
    best set below the node one edge, so the node is pruned once ``need`` =
    kept + undecided - threshold copies are packed.  The bound is at least
    |kept|, so it is tried only where |kept| <= threshold, and only where the
    node's live list holds at least ``need`` copies.

    A node's live list is a superset, in table order, of the copies that
    miss its ``dead``; the walk skips the rest.  The root's is the table.  A
    walk that fails to prune may collect the copies that miss ``dead`` as it
    goes, and the node's subtree, whose ``dead`` only grows, inherits them.
    ``killed`` sums ``weights``, the copies through each edge, over the
    excluded edges, so it grows by at least the copies that die.  A walk
    collects only once ``killed`` has grown by a quarter of the length of
    its list since the list was made (rebuilding at every change piles
    near-copies onto a deep path: P3 on K_50 at budget 3000 from threshold
    0 took 2.4 s that way, against 1.4 s), and only while the lists held on
    the path stay within ``_live_cap`` entries.
    Each leaf reached is a new best and becomes the threshold; with
    ``first_leaf`` the search stops there.  ``rho_exact`` starts its first
    pass at the size of its greedy seed, so a leaf there is a set larger
    than the seed, and a search that returns None leaves the seed standing.
    The higher threshold makes more nodes walk the packing, so a node costs
    more: {02, 13, 23} on ``generate_host(2, 4, 0)`` at budget 60,000 takes
    2-2.5 times as long as from threshold 0, and P3 on K_50 at budget
    3000 about 3 times.  The DFS is one loop over the depth i, with
    ``included`` recording the branch of each node on the path, so its
    depth, up to e(host), is not limited by Python's recursion limit.
    ``kept`` and ``dead`` are int masks over edge indices.

    Returns (the last leaf's kept mask or None, nodes, budget exhausted).
    """
    total = len(order)
    kept = dead = 0
    k = 0  # edges in kept
    best = None
    nodes = 0
    included = [False] * total  # whether the path runs through node i's include branch
    killed = 0  # the weight of ``dead``
    # the live lists on the path, innermost last: each list, the ``killed`` it
    # was made at and the depth of the node that made it (the table's is -1)
    lists, made, maker = [copies], [0], [-1]
    held, cap = 0, _live_cap(copies)  # entries in lists[1:]
    i = 0
    while True:  # enter node i
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return best, nodes, True
        need = k + total - i - threshold
        if need > 0:
            cands = lists[-1]
            if k <= threshold and len(cands) >= need:
                free, undecided = dead, ~kept
                if killed - made[-1] <= len(cands) >> 2 or held + len(cands) > cap:
                    for c in cands:
                        if not c & free:
                            free |= c & undecided
                            need -= 1
                            if not need:
                                break
                else:
                    fresh = []
                    for c in cands:
                        if not c & dead:
                            fresh.append(c)
                            if not c & free:
                                free |= c & undecided
                                need -= 1
                                if not need:
                                    break
                    if need:
                        lists.append(fresh)
                        made.append(killed)
                        maker.append(i)
                        held += len(fresh)
            if need:
                if i == total:
                    threshold, best = k, kept
                    if first_leaf:
                        return best, nodes, False
                else:
                    e = order[i]
                    bar = ~(kept | 1 << e)
                    for c in through[e]:
                        if not c & bar:
                            dead |= 1 << e
                            killed += weights[e]
                            break
                    else:
                        kept |= 1 << e
                        k += 1
                        included[i] = True
                    i += 1
                    continue
        # back up to the deepest node whose exclude branch is still to come
        i -= 1
        while i >= 0 and not included[i]:
            e = order[i]
            dead ^= 1 << e
            killed -= weights[e]
            if maker[-1] == i:
                held -= len(lists.pop())
                made.pop()
                maker.pop()
            i -= 1
        if i < 0:
            return best, nodes, False
        e = order[i]
        kept ^= 1 << e
        k -= 1
        dead |= 1 << e
        killed += weights[e]
        included[i] = False
        i += 1


def _greedy_free(through: list[list[int]], weights: list[int]) -> int:
    """A maximal pattern-free edge mask, grown from no edges.

    The edges are tried in ascending order of ``weights``, the number of
    copies through each, ties by index, and each is kept unless a copy
    through it would then lie in the kept set.  Every copy inside the
    result passes through the last of its edges to be kept, so the result
    is pattern-free; an edge left out closes a copy with edges kept before
    it, so the result is maximal.
    """
    kept = 0
    for i in sorted(range(len(through)), key=weights.__getitem__):
        bar = ~(kept | 1 << i)
        for c in through[i]:
            if not c & bar:
                break
        else:
            kept |= 1 << i
    return kept


def _edges_of(mask: int, edges: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The edges at the set bits of ``mask``, in the order of ``edges``."""
    return tuple(edges[i] for _, i in mask_edges((mask,)))


def rho_exact(
    pattern: OrderedGraph,
    host: OrderedGraph,
    node_budget: Optional[int] = None,
) -> DensityResult:
    """Branch-and-bound over include/exclude edge decisions, from a greedy seed, in two passes.

    The pattern's copies in the host are listed once, into the table of
    ``patterns.copy_table`` (``BudgetError`` if it could pass 2^31 bytes).
    From it ``_greedy_free`` grows a maximal pattern-free seed from no edges,
    trying the edges with the fewest copies through them first.  Both
    passes run ``_search`` on the table, one loop with the include test
    and the packing walk inline; its bound is kept + undecided
    less a greedy packing of copies disjoint in their undecided edges,
    walked over the live-copy lists each node inherits and skipped where
    they are too short to prune.  The first pass branches on edges in
    descending order of the number of pattern copies through them
    (fail-first), starts at the seed's size as its threshold and raises the
    threshold with each better leaf.  The result is optimal unless
    ``node_budget`` first-pass nodes run out, in which case ``exact`` is
    False and the best subgraph found so far is returned: the last leaf,
    or the seed if no leaf came first.  When the first pass completes, the
    second branches in canonical edge order with threshold optimum - 1 and
    stops at its first leaf, which is the lexicographically least optimum,
    whatever the seed.  ``nodes_explored`` counts the nodes of both passes;
    the budget applies to the first.
    """
    _check_pattern(pattern)
    edges, copies, through = copy_table(pattern, host.forward_masks)
    total = len(edges)
    weights = [len(t) for t in through]
    # both sorts are stable, reverse=True too, over an ascending range: ties go by index
    order = sorted(range(total), key=weights.__getitem__, reverse=True)
    best = _greedy_free(through, weights)
    found, nodes, exhausted = _search(copies, through, weights, order, best.bit_count(), node_budget)
    if found is not None:
        best = found
    if not exhausted:
        best, more, _ = _search(copies, through, weights, range(total), best.bit_count() - 1,
                                first_leaf=True)
        nodes += more
    return DensityResult(total, _edges_of(best, edges), not exhausted, nodes)


def quarter_free_subgraph(host: OrderedGraph) -> OrderedGraph:
    """A subgraph with no increasing 2-edge path and at least ceil(e/4) edges.

    Each vertex gets a label SOURCE or SINK; kept edges go from a SOURCE to a
    larger SINK.  Labels are fixed greedily by conditional expectation: under
    uniform random labels each edge survives with probability 1/4, and every
    greedy choice keeps the conditional expectation from dropping, so the
    integer outcome is >= e/4.  No kept path u < v < w can exist because v
    would need to be both SINK and SOURCE.

    Labels are fixed in vertex order, so when v is labelled its backward
    neighbours are labelled and its forward ones are not.  Only v's own edges
    change the expectation: as a SOURCE each forward edge survives with
    probability 1/2, as a SINK each backward edge from a SOURCE survives
    surely.  The greedy rule is therefore: v is a SOURCE iff
    |forward(v)| >= 2 |backward(v) & sources|, ties going to SOURCE.

    The kept forward masks are fwd[u] less the sources for each SOURCE u,
    and their transpose is bwd[v] & sources for each SINK v: O(n) mask
    operations in all, with no edge list, each vertex's label read from a
    list of flags kept beside the sources mask.
    """
    fwd, bwd = host.forward_masks, host.backward_masks
    sources = 0
    is_source = []  # each vertex's label, as it is fixed
    for v in range(host.n):
        source = fwd[v].bit_count() >= 2 * (bwd[v] & sources).bit_count()
        if source:
            sources |= 1 << v
        is_source.append(source)
    sinks = ~sources
    kept_fwd = tuple(mask & sinks if source else 0 for source, mask in zip(is_source, fwd))
    kept_bwd = tuple(0 if source else mask & sources for source, mask in zip(is_source, bwd))
    return OrderedGraph._from_masks(host.n, kept_fwd, kept_bwd)


def rho_local_search(
    pattern: OrderedGraph,
    host: OrderedGraph,
    budget: int = 2000,
    seed: int = 0,
) -> DensityResult:
    """Seeded hill climbing over F-free edge subsets (lower bound only).

    Start from the quarter constructor when the pattern contains an
    increasing 2-edge path (the start has none, checked in O(n), so it is
    F-free), else empty; then greedily add all addable edges, and for
    ``budget`` rounds try a random add with repair by cheapest deletion from
    the created copy, keeping the move only if it does not lose edges.  A
    round starts with as many edges as the best set, so its second deletion
    loses it whatever comes next: it stops and is reverted there.
    Containment is tested only through the edge just added, by the
    pattern's through-edge searches.  The
    greedy pass walks the host's forward masks less the kept ones in
    canonical order and asks only whether adding an edge would close a copy
    (``refused``), for the rest of the row at once: a refusal leaves the
    kept set unchanged, so the answers hold until the pass next adds an
    edge.  It skips the refused candidates by mask and adds the lowest one
    left, or ends the row.  A row opens with that question unless the row
    before it added an edge, and after an addition the pass asks edge by
    edge until a refusal.  So a row whose candidates are all refused, as
    all are on P3's maximal quarter start on ``generate_host(16, 3, 0)``,
    costs one question, and a row that adds edges, as most of P4's and
    H_2's do, asks only about the candidates it reaches: asking about the
    whole row before every addition made those solves at budget 10 there
    3.7-7.5 times slower.  The edges left
    out are then read in one numpy pass into a sorted list of keys
    u * n + v: a round draws one with ``rng.choice``, which picks the same
    index of the same order as from a list of pairs, so the seeded stream is
    unchanged, and ``bisect`` keeps the list sorted.  The rounds take the
    least copy through the new edge, whose edges choose the victim.  The
    certificate is read off the best forward masks by ``core.mask_arrays``.
    """
    _check_pattern(pattern)
    rng = random.Random(seed)
    pattern_edges = pattern.sorted_edges()
    least_copy_through, refused_in_row = through_edge_search(pattern, host.n)

    # the kept edges: fwd[u] holds u's kept neighbours v > u, bwd[v] those u < v
    fwd, bwd = [0] * host.n, [0] * host.n
    if has_monotone_p3(pattern):
        start = quarter_free_subgraph(host)
        if not has_monotone_p3(start):
            fwd, bwd = list(start.forward_masks), list(start.backward_masks)

    def flip(e: tuple[int, int]) -> None:
        u, v = e
        fwd[u] ^= 1 << v
        bwd[v] ^= 1 << u

    # the pass adds only the edge in hand, so its candidates, the host's edges
    # outside the start, are read off the masks once, a row at a time; the
    # docstring says when it asks about the rest of a row
    whole = True  # whether the next question is about the rest of the row
    for u, row in enumerate([mask & ~kept for mask, kept in zip(host.forward_masks, fwd)]):
        added = False
        while row:
            if whole:
                row &= ~refused_in_row(fwd, bwd, u, row)
                if not row:
                    break
            low = row & -row
            row ^= low
            if not whole and refused_in_row(fwd, bwd, u, low):
                whole = True
                continue
            fwd[u] |= low
            bwd[low.bit_length() - 1] |= 1 << u
            whole = False
            added = True
        whole = not added

    # ``absent``: the host's edges less the kept ones as sorted keys u * n + v,
    # which ``bisect`` keeps sorted, so rng.choice picks as from a fresh filter
    n = host.n
    us, vs = mask_arrays([mask & ~kept for mask, kept in zip(host.forward_masks, fwd)])
    absent = (us * n + vs).tolist()
    best = fwd.copy()  # read as edges once, at the end
    nodes = 0  # rounds begun
    for nodes in range(1, budget + 1):
        if not absent:
            break
        key = rng.choice(absent)
        e = divmod(key, n)
        flip(e)
        removed = []
        # the kept edges less e are pattern-free, so every copy passes through e
        while len(removed) < 2 and (images := least_copy_through(fwd, bwd, *e)) is not None:
            # delete one edge of the found copy, cheapest = any edge other
            # than the fresh one (prefer the last in canonical order)
            copy_edges = [(images[u], images[v]) for u, v in pattern_edges]
            victims = [c for c in copy_edges if c != e] or copy_edges
            flip(victims[-1])
            removed.append(victims[-1])
        if len(removed) == 2:  # lost: the round is undone
            for r in (e, *removed):
                flip(r)
            continue
        del absent[bisect_left(absent, key)]
        if removed:  # as many edges as before: the move stands
            u, v = removed[0]
            insort(absent, u * n + v)
        else:  # one edge more
            best = fwd.copy()

    us, vs = mask_arrays(best)
    return DensityResult(host.num_edges(), tuple(zip(us.tolist(), vs.tolist())), False, nodes)
