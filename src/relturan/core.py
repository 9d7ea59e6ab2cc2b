"""Cube vertices as integers, their levels, and the ordered graph with its cube case.

A vertex of the binary cube {0,1}^d is the integer 0..2^d-1 whose binary
expansion, most significant bit first, is the string x_1 x_2 ... x_d, so the
lexicographic order on strings is the integer order.  Everything downstream
(hosts, richness, tiling) is phrased in terms of the level of a pair,
``delta_int(u, v, d)``: the first index, 1-based, at which the two strings
differ.  ``tau`` counts the pairs at each level.  ``level_block`` is the one
level geometry: the aligned block of the vertices at a given level from v.
A cube graph, ``HypercubeGraph``, is an ``OrderedGraph`` on 2^d vertices
that adds the per-level statistics and no stored state.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def delta_int(u: int, v: int, d: int) -> int:
    """The level of u != v in {0,1}^d: the first index at which they differ (1-based)."""
    xor = u ^ v
    if xor == 0:
        raise ValueError("delta is undefined for equal strings")
    return d - (xor.bit_length() - 1)


def level_block(v: int, level: int, d: int) -> int:
    """The first vertex of the block {u : delta(u, v) = level} in {0,1}^d, 1 <= level <= d.

    The block is the 2^(d-level) consecutive vertices that agree with v before
    ``level`` and differ from it there.  It lies before v iff bit d - level of
    v is 1.
    """
    width = d - level
    return ((v >> width) ^ 1) << width


def tau(level: int, d: int) -> int:
    """Number of pairs u < v in {0,1}^d with delta(u, v) = level: 2^(2d-level-1)."""
    if not 1 <= level <= d:
        raise ValueError(f"level {level} out of range [1, {d}]")
    return 1 << (2 * d - level - 1)


def mask_edges(fwd: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (u, v) of the forward bitmasks ``fwd``, in lexicographic order."""
    out = []
    for u, mask in enumerate(fwd):
        while mask:
            low = mask & -mask
            out.append((u, low.bit_length() - 1))
            mask ^= low
    return out


def _edge_masks(
    n: int, edges: Iterable[tuple[int, int]], span: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward masks of ``edges`` on 0..n-1; ``span`` names
    the vertex range in the out-of-range message."""
    fwd = [0] * n
    bwd = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {span}")
        if u > v:
            u, v = v, u
        fwd[u] |= 1 << v
        bwd[v] |= 1 << u
    return tuple(fwd), tuple(bwd)


class OrderedGraph:
    """An ordered graph on vertices 0..n-1 with the natural order.

    Edges are unordered pairs (u, v) with u < v.  The graph is held only as
    per-vertex forward and backward neighbourhood bitmasks, which the
    containment kernel reads directly; the edge set and the sorted edge list
    are read off the forward masks on demand.  Instances are immutable after
    construction, and equal only to instances of the same class.
    """

    __slots__ = ("n", "_fwd", "_bwd")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._fwd, self._bwd = _edge_masks(n, edges, f"n={n}")

    @classmethod
    def _from_masks(cls, n: int, fwd: tuple[int, ...], bwd: tuple[int, ...]) -> OrderedGraph:
        """The graph whose masks are ``fwd`` and ``bwd``, taken as they are.

        The caller vouches that both have n entries, that fwd[u] holds only
        vertices v with u < v < n, and that ``bwd`` is its transpose; for a
        HypercubeGraph, n is a power of two and at least 2.
        """
        g = cls.__new__(cls)
        g.n, g._fwd, g._bwd = n, fwd, bwd
        return g

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set, built afresh from the masks at every read."""
        return frozenset(mask_edges(self._fwd))

    @property
    def forward_masks(self) -> tuple[int, ...]:
        """forward(u) for every vertex u, indexable by u."""
        return self._fwd

    @property
    def backward_masks(self) -> tuple[int, ...]:
        """backward(v) for every vertex v, indexable by v."""
        return self._bwd

    def forward(self, u: int) -> int:
        """Bitmask of neighbours v > u."""
        return self._fwd[u]

    def backward(self, u: int) -> int:
        """Bitmask of neighbours v < u."""
        return self._bwd[u]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge; False for any pair outside 0..n-1."""
        if u > v:
            u, v = v, u
        return 0 <= u and v < self.n and (self._fwd[u] >> v) & 1 == 1

    def num_edges(self) -> int:
        return sum(mask.bit_count() for mask in self._fwd)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return mask_edges(self._fwd)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.n == other.n and self._fwd == other._fwd

    def __hash__(self) -> int:
        return hash((self.n, self._fwd))

    def __repr__(self) -> str:
        return f"OrderedGraph(n={self.n}, m={self.num_edges()})"


class HypercubeGraph(OrderedGraph):
    """An ordered graph on {0,1}^d, vertices coded as integers 0..2^d-1.

    It stores nothing beyond the ordered graph's masks: d is read off n.
    """

    __slots__ = ()

    def __init__(self, d: int, edges: Iterable[tuple[int, int]] = ()):
        if d < 1:
            raise ValueError("dimension must be at least 1")
        self.n = 1 << d
        self._fwd, self._bwd = _edge_masks(self.n, edges, f"d={d}")

    @property
    def d(self) -> int:
        return self.n.bit_length() - 1

    def backward_degrees(self, level: int) -> list[int]:
        """Every vertex's number of backward level-``level`` neighbours, indexed by vertex."""
        d = self.d
        if not 1 <= level <= d:
            raise ValueError(f"level {level} out of range [1, {d}]")
        size = 1 << (d - level)
        block = (1 << size) - 1
        degrees = [0] * self.n
        # the vertices whose bit d - level is 1 come in runs of ``size``; a run
        # shares one level block, the run just before it
        for start in range(size, self.n, 2 * size):
            lo = level_block(start, level, d)
            degrees[start : start + size] = [
                ((mask >> lo) & block).bit_count() for mask in self._bwd[start : start + size]
            ]
        return degrees

    def level_counts(self) -> list[int]:
        """e_level for level = 1..d (index 0 unused)."""
        return [0] + [sum(self.backward_degrees(level)) for level in range(1, self.d + 1)]

    def to_ordered(self) -> OrderedGraph:
        """The same graph as a plain OrderedGraph, sharing this one's masks."""
        return OrderedGraph._from_masks(self.n, self._fwd, self._bwd)

    def __repr__(self) -> str:
        return f"HypercubeGraph(d={self.d}, m={self.num_edges()})"
