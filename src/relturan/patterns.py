"""Ordered-subgraph containment and the monotone-path classification.

An ordered copy of a pattern F in a host G is a strictly increasing injection
of vertex labels that maps every pattern edge to a host edge; it is held as
its tuple of images, pattern vertex i -> images[i].  One backtracking kernel
enumerates them, behind ``ordered_copies``: it places pattern vertices left
to right, each among the host vertices above the previous image and in the
forward neighbourhoods of its placed backward neighbours, all as bitmask
operations.  It reads the host as forward bitmasks, one per
vertex: an OrderedGraph's ``forward_masks``, or the plain lists the local
search edits in place.  ``through_edge_search`` compiles, once per pattern,
the masks that pin a pattern edge onto one host edge and feeds them to the
kernel, behind two entries: whether some copy passes through a host edge,
and the least such copy, which ``first_copy_through`` returns.
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


def ordered_copies(
    pattern: OrderedGraph, fwd: Sequence[int], allowed: Optional[Sequence[int]] = None
) -> Iterator[tuple[int, ...]]:
    """Every ordered copy of ``pattern`` in the host ``fwd``, in lexicographic order.

    Pattern vertices are placed in increasing order; the image of vertex i
    must exceed the image of i-1, leave room for the vertices after it, and
    lie in the forward neighbourhood of every placed backward neighbour of i.
    With ``allowed``, the image of vertex i must also lie in the bitmask
    ``allowed[i]``.  The host is given by its forward bitmasks: it has
    len(fwd) vertices, and fwd[u] holds u's neighbours v > u.
    """
    k, full = pattern.n, (1 << len(fwd)) - 1
    limit = [full >> (k - i - 1) for i in range(k)]  # leave room for the vertices after i
    if allowed is not None:
        limit = [room & mask for room, mask in zip(limit, allowed, strict=True)]
    return _walk(_predecessors(pattern), fwd, limit)


def _walk(
    preds: Sequence[Sequence[int]], fwd: Sequence[int], limit: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """The kernel of ``ordered_copies``; limit[i] bounds vertex i's image before preds[i]."""
    k = len(limit)
    if k == 0:
        yield ()
        return
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


def first_copy_through(
    pattern: OrderedGraph, fwd: Sequence[int], bwd: Sequence[int], u: int, v: int
) -> Optional[tuple[int, ...]]:
    """The lexicographically least ordered copy with (u, v) as an image edge.

    For each pattern edge (a, b) the kernel runs with a pinned to u and b
    to v: vertices before a lie below u, vertices between a and b below v,
    and every pattern edge into a pinned vertex confines its source to the
    host's backward neighbourhood of that vertex's image.  The least of
    these first copies is the answer.  When the host less the edge (u, v)
    is pattern-free, every copy passes through (u, v), so this equals
    ``contains_ordered`` at a fraction of its cost.  The host is given by
    its forward and backward bitmasks ``fwd`` and ``bwd``; ValueError
    unless 0 <= u < v < len(fwd).
    """
    if not 0 <= u < v < len(fwd):
        raise ValueError(f"need 0 <= u < v < {len(fwd)}, got u={u}, v={v}")
    return through_edge_search(pattern, len(fwd))[1](fwd, bwd, u, v)


def through_edge_search(
    pattern: OrderedGraph, n: int
) -> tuple[Callable[..., bool], Callable[..., Optional[tuple[int, ...]]]]:
    """Two searches for copies through a host edge, on n-vertex hosts: ``(exists, least)``.

    ``least(fwd, bwd, u, v)`` is ``first_copy_through(pattern, fwd, bwd, u, v)``;
    ``exists(fwd, bwd, u, v)`` is whether it is not None, and stops at the
    first template whose walk yields a copy.  Which mask bounds each
    vertex's image depends only on the pattern, so it is compiled here,
    once, into a template per pattern edge that picks each vertex's mask
    from those a call builds; both searches share the templates.  Neither
    checks its arguments.
    """
    k, preds = pattern.n, _predecessors(pattern)
    room = [((1 << n) - 1) >> (k - i - 1) for i in range(k)]
    # codes into a call's masks: below u (0), and in bwd[u] (+1) for a's
    # predecessors, in bwd[v] (+2) for b's; u (4); below v (5), in bwd[v] (+1)
    # for b's predecessors; v (7); 8 + i for vertex i's room, after b
    templates = []
    for a, b in pattern.sorted_edges():
        codes = [(i in preds[a]) + 2 * (i in preds[b]) for i in range(a)]
        codes += [4] + [5 + (i in preds[b]) for i in range(a + 1, b)] + [7]
        templates.append(itemgetter(*codes, *range(8 + b + 1, 8 + k)))

    def limits(bwd: Sequence[int], u: int, v: int) -> Iterator[tuple[int, ...]]:
        """Each template's image bounds for the edge (u, v), skipping those with an empty one."""
        below_u, below_v, back_u, back_v = (1 << u) - 1, (1 << v) - 1, bwd[u], bwd[v]
        masks = [below_u, below_u & back_u, below_u & back_v, below_u & back_u & back_v,
                 1 << u & back_v, below_v, below_v & back_v, 1 << v, *room]
        for template in templates:
            limit = template(masks)
            if all(limit):
                yield limit

    def exists(fwd: Sequence[int], bwd: Sequence[int], u: int, v: int) -> bool:
        for limit in limits(bwd, u, v):
            if next(_walk(preds, fwd, limit), None) is not None:
                return True
        return False

    def least(fwd: Sequence[int], bwd: Sequence[int], u: int, v: int) -> Optional[tuple[int, ...]]:
        best = None
        for limit in limits(bwd, u, v):
            images = next(_walk(preds, fwd, limit), None)
            if images is not None and (best is None or images < best):
                best = images
        return best

    return exists, least


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
