"""Ordered-subgraph containment and the monotone-path classification.

An ordered copy of a pattern F in a host G is a strictly increasing injection
of vertex labels that maps every pattern edge to a host edge; it is held as
its tuple of images, pattern vertex i -> images[i].  One backtracking kernel
enumerates them, behind ``ordered_copies``: it places pattern vertices left
to right, each among the host vertices above the previous image and in the
forward neighbourhoods of its placed backward neighbours, all as bitmask
operations.  It reads the host as forward bitmasks, one per
vertex: an OrderedGraph's ``forward_masks``, or the plain lists the local
search edits in place.  After each copy it may resume at a shallower
depth, skipping the later copies that repeat the images up to there.
``through_edge_search`` compiles, once per pattern, the masks that pin a
pattern edge onto host edges and feeds them to the kernel, behind two
searches: the least copy through a host edge, and which of a row of
candidate edges (u, v) would each close a copy, one walk per pattern edge
that refuses a candidate per copy, or a mask of them per placement when the
pinned vertex is the pattern's last or has one vertex after it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, Optional, Sequence

from .core import OrderedGraph


def validate_witness(pattern: OrderedGraph, host: OrderedGraph, images: Sequence[int]) -> bool:
    """Pure checker: ``images`` is strictly increasing, in range, and edge-preserving.

    A cube graph is an OrderedGraph, so it is checked as it is, unconverted.
    """
    return (
        len(images) == pattern.n
        and all(0 <= img < host.n for img in images)
        and all(a < b for a, b in zip(images, images[1:]))
        and all(host.has_edge(images[u], images[v]) for u, v in pattern.sorted_edges())
    )


def ordered_copies(pattern: OrderedGraph, fwd: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every ordered copy of ``pattern`` in the host ``fwd``, in lexicographic order.

    Pattern vertices are placed in increasing order; the image of vertex i
    must exceed the image of i-1, leave room for the vertices after it, and
    lie in the forward neighbourhood of every placed backward neighbour of i.
    The host is given by its forward bitmasks: it has len(fwd) vertices, and
    fwd[u] holds u's neighbours v > u.
    """
    k, full = pattern.n, (1 << len(fwd)) - 1
    limit = [full >> (k - i - 1) for i in range(k)]  # leave room for the vertices after i
    return _walk(_predecessors(pattern), fwd, limit)


def _walk(
    preds: Sequence[Sequence[int]],
    fwd: Sequence[int],
    limit: Sequence[int],
    resume: Optional[int] = None,
) -> Iterator[tuple[int, ...]]:
    """The kernel of ``ordered_copies``; limit[i] bounds vertex i's image before preds[i].

    After each copy the walk goes on at depth ``resume`` (default k - 1): it
    tries the next image of vertex ``resume`` under the same images of the
    vertices before it, so every later copy that repeats images[:resume + 1]
    is skipped.  limit[i] is read each time the walk enters depth i, so a
    caller may shrink ``limit`` (a list) between copies.
    """
    k = len(limit)
    if k == 0:
        yield ()
        return
    if resume is None:
        resume = k - 1
    images = [0] * k
    pending = [0] * k  # untried candidates at each depth
    pending[0] = limit[0]
    i = 0
    while i >= 0:
        mask = pending[i]
        if not mask:
            i -= 1
            continue
        low = mask & -mask
        pending[i] = mask ^ low
        images[i] = low.bit_length() - 1
        if i == k - 1:
            yield tuple(images)
            i = resume
            continue
        i += 1
        mask = limit[i] & ~((low << 1) - 1)
        for j in preds[i]:
            mask &= fwd[images[j]]
        pending[i] = mask


@lru_cache(maxsize=64)
def _predecessors(pattern: OrderedGraph) -> tuple[tuple[int, ...], ...]:
    """For each pattern vertex, its backward neighbours in ascending order."""
    return tuple(
        tuple(a for a in range(i) if pattern.backward(i) >> a & 1) for i in range(pattern.n)
    )


def through_edge_search(
    pattern: OrderedGraph, n: int
) -> tuple[Callable[..., Optional[tuple[int, ...]]], Callable[..., int]]:
    """Two searches for copies through host edges, on n-vertex hosts: ``(least, refused)``.

    The host is given by its forward and backward bitmasks ``fwd`` and
    ``bwd``.  ``least(fwd, bwd, u, v)`` is the lexicographically least
    ordered copy with (u, v) as an image edge, or None: for each pattern
    edge (a, b) the kernel runs with a pinned to u and b to v, vertices
    before a below u, vertices between a and b below v, and every pattern
    edge into a pinned vertex confining its source to the host's backward
    neighbourhood of that vertex's image; the least of these first copies
    is the answer.  When the host less the edge (u, v) is pattern-free,
    every copy passes through (u, v), so it equals ``contains_ordered`` at
    a fraction of its cost.  ValueError unless 0 <= u < v < n.

    ``refused(fwd, bwd, u, cands)`` answers whether edges would close a
    copy, a whole row at once.  The host must be pattern-free, and
    ``cands`` is a mask of vertices v > u with (u, v) not a host edge; the
    answer is the mask of those v for which the host plus (u, v) holds a
    copy, which then passes through (u, v).  For each pattern edge (a, b)
    one walk pins a to u and lets b range over the candidates not yet
    refused, with a dropped from b's predecessors: b's image is a
    candidate, so it is a forward neighbour of u once its edge is added.
    Every other forward neighbour of a reads fwd[u], which holds no
    candidate, so a copy uses exactly one candidate edge.  The bounds that
    ``least`` takes from v are taken from the candidates: below the highest
    one, and in the union of their backward neighbourhoods, which is built
    only when some template reads it (none of P3's does).  When b is the
    pattern's last vertex, or is followed by one vertex t alone, the walk
    places only vertices 0..b-1, and each placement refuses at once every
    candidate c above the image of b - 1 in the forward neighbourhoods of
    b's other predecessors for which t, if there is one, has an image
    above c in the forward neighbourhoods of its placed predecessors: in
    fwd[c] too when t is joined to b, one test per candidate, and else
    below the highest such image, one mask operation.  Otherwise the walk
    resumes at depth b after each copy (``_walk``'s ``resume``), and the
    copy's image of b leaves limit[b], so each refused v costs one copy.

    The local search's greedy pass asks ``refused`` about the rest of a
    row at once: a refusal leaves the host unchanged, so the answers hold
    until the pass next adds an edge, and it adds the lowest candidate not
    refused without asking again.  A row opens with that question unless
    the row before it added an edge; after an addition the pass asks one
    candidate at a time until one is refused.  So a row whose candidates
    are all refused, as all are on P3's maximal quarter start on
    ``generate_host(16, 3, 0)``, costs one question, while rows that add
    edges, as most of P4's and H_2's do, ask edge by edge: asking about
    the whole row before every addition made those solves at budget 10
    there 3.7-7.5 times slower.  Its rounds take ``least``, whose edges
    choose the victim.

    Which mask bounds each vertex's image depends only on the pattern, so it
    is compiled here, once, into a template per pattern edge that picks each
    vertex's mask from those a call builds; the two searches share the
    templates.  They take the pattern edges with the fewest vertices after b
    first, where a walk has the fewest unpinned vertices to place after the
    pinned ones; ``refused`` skips the candidates already refused, so that
    order saves walks.  Neither checks ``fwd`` or ``bwd``.
    """
    k, preds = pattern.n, _predecessors(pattern)
    room = [((1 << n) - 1) >> (k - i - 1) for i in range(k)]
    # codes into a call's masks, for b's image v: below u (0), and in bwd[u]
    # (+1) for a's predecessors, in bwd[v] (+2) for b's; u (4); below v (5),
    # in bwd[v] (+1) for b's predecessors; v (7); 8 + i for vertex i's room,
    # after b. ``refused`` reads bwd[v] as the union over its candidates, v as
    # the highest one for "below v" and all of them for "v", and u unchecked;
    # it also drops a from b's predecessors, since a candidate's edge from u
    # is not in fwd[u]
    templates = []
    reads_back = False  # whether a template reads bwd[v] (codes 2, 3 and 6)
    for a, b in sorted(pattern.sorted_edges(), key=lambda e: -e[1]):
        codes = [(i in preds[a]) + 2 * (i in preds[b]) for i in range(a)]
        codes += [4] + [5 + (i in preds[b]) for i in range(a + 1, b)] + [7]
        reads_back = reads_back or not {2, 3, 6}.isdisjoint(codes)
        row_preds = [*preds[:b], tuple(i for i in preds[b] if i != a), *preds[b + 1:]]
        templates.append((b, itemgetter(*codes, *range(8 + b + 1, 8 + k)), row_preds))

    def masks(bwd: Sequence[int], u: int, below: int, back: int, at_u: int, at_b: int) -> list[int]:
        below_u, back_u = (1 << u) - 1, bwd[u]
        return [below_u, below_u & back_u, below_u & back, below_u & back_u & back,
                at_u, below, below & back, at_b, *room]

    def least(fwd: Sequence[int], bwd: Sequence[int], u: int, v: int) -> Optional[tuple[int, ...]]:
        if not 0 <= u < v < n:
            raise ValueError(f"need 0 <= u < v < {n}, got u={u}, v={v}")
        edge = masks(bwd, u, (1 << v) - 1, bwd[v], 1 << u & bwd[v], 1 << v)
        best = None
        for _, template, _ in templates:
            limit = template(edge)
            if not all(limit):
                continue
            images = next(_walk(preds, fwd, limit), None)
            if images is not None and (best is None or images < best):
                best = images
        return best

    def refused(fwd: Sequence[int], bwd: Sequence[int], u: int, cands: int) -> int:
        back, rest = 0, cands if reads_back else 0
        while rest:
            low = rest & -rest
            back |= bwd[low.bit_length() - 1]
            rest ^= low
        # below the highest candidate
        below = ((1 << cands.bit_length()) - 1) >> 1
        row = masks(bwd, u, below, back, 1 << u, cands)
        found = 0
        for b, template, row_preds in templates:
            limit = list(template(row))
            limit[b] &= ~found
            if not all(limit):
                continue
            if b >= k - 2:  # one placement of 0..b-1 refuses a mask of candidates
                last, into = limit[b], row_preds[b]
                # the tail vertex t = k - 1 after b, when there is one: its
                # predecessors placed before b, and whether b is one of them
                tail, joined = b < k - 1, b in preds[-1]
                t_into = [j for j in preds[-1] if j < b]
                for images in _walk(row_preds[:b], fwd, limit[:b]):
                    hit = last & ~((2 << images[b - 1]) - 1)
                    for j in into:
                        hit &= fwd[images[j]]
                    if hit and tail:  # keep the c with an image of t above c
                        reach = limit[-1]
                        for j in t_into:
                            reach &= fwd[images[j]]
                        if joined:  # in fwd[c], which lies above c
                            rest, hit = hit, 0
                            while rest:
                                low = rest & -rest
                                rest ^= low
                                if reach & fwd[low.bit_length() - 1]:
                                    hit |= low
                        else:  # below the highest image t may take
                            hit &= ((1 << reach.bit_length()) - 1) >> 1
                    if hit:
                        found |= hit
                        last ^= hit
                        if not last:
                            break
                continue
            for images in _walk(row_preds, fwd, limit, resume=b):
                found |= 1 << images[b]
                limit[b] ^= 1 << images[b]
                if not limit[b]:
                    break
        return found

    return least, refused


def contains_ordered(pattern: OrderedGraph, host: OrderedGraph) -> Optional[tuple[int, ...]]:
    """The lexicographically first ordered copy of ``pattern`` in ``host``, or None."""
    return next(ordered_copies(pattern, host.forward_masks), None)


def monotone_p3(k: int = 3) -> OrderedGraph:
    """The increasing path on k vertices (k=3: the monotone path of length two)."""
    return OrderedGraph(k, [(i, i + 1) for i in range(k - 1)])


def has_monotone_p3(g: OrderedGraph) -> bool:
    """True iff some vertex has both a backward and a forward neighbour."""
    return find_monotone_p3(g) is not None


def find_monotone_p3(g: OrderedGraph) -> Optional[tuple[int, int, int]]:
    """A witness u < v < w with edges uv and vw, or None."""
    for v in range(g.n):
        back, fwd = g.backward(v), g.forward(v)
        if back and fwd:
            u = (back & -back).bit_length() - 1
            w = (fwd & -fwd).bit_length() - 1
            return (u, v, w)
    return None


def interval_chromatic(g: OrderedGraph) -> int:
    """Minimum number of order-intervals partitioning V with no internal edge.

    Leftmost-greedy extension: start a new interval exactly when the next
    vertex has a neighbour inside the current one.  Greedy is optimal for
    interval partitions (cross-checked exhaustively in tests).
    """
    parts, start = 1, 0
    for v in range(1, g.n):
        if g.backward(v) >> start:  # v has a neighbour in the current interval
            parts, start = parts + 1, v
    return parts


def pi_ordered(g: OrderedGraph) -> Fraction:
    """Complete-host density limit 1 - 1/(chi_interval - 1)."""
    chi = interval_chromatic(g)
    if chi < 2:
        raise ValueError("density limit is undefined for an edgeless pattern")
    return 1 - Fraction(1, chi - 1)


def build_hk(k: int) -> OrderedGraph:
    """The staircase H_k on [k] x {0,1}: edges (x,0)(y,1) for x <= y.

    Vertex (i, b) (1-based i) gets label 2(i-1) + b, so the labels carry the
    lexicographic order on pairs.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    edges = [(2 * a, 2 * b + 1) for a in range(k) for b in range(a, k)]
    return OrderedGraph(2 * k, edges)


class MonotonePathError(ValueError):
    """Raised when a pattern unexpectedly contains an increasing 2-edge path."""

    def __init__(self, witness: tuple[int, int, int]):
        super().__init__(f"pattern contains the increasing path {witness}")
        self.witness = witness


def embed_into_hk(g: OrderedGraph) -> tuple[int, ...]:
    """The explicit embedding v_i -> (i, len_i) of a path-free graph into H_k.

    len_i, the number of edges on the longest increasing path ending at v_i,
    is 1 when v_i has a backward neighbour and 0 otherwise, since g has no
    increasing 2-edge path; k = |V(g)|.
    """
    witness = find_monotone_p3(g)
    if witness is not None:
        raise MonotonePathError(witness)
    return tuple(2 * i + (g.backward(i) != 0) for i in range(g.n))
