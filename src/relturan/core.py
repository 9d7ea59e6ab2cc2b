"""Cube vertices as integers, their levels, and the two graph classes.

A vertex of the binary cube {0,1}^d is the integer 0..2^d-1 whose binary
expansion, most significant bit first, is the string x_1 x_2 ... x_d, so the
lexicographic order on strings is the integer order.  Everything downstream
(hosts, richness, tiling) is phrased in terms of the level of a pair,
``delta_int(u, v, d)``: the first index, 1-based, at which the two strings
differ.  ``tau`` counts the pairs at each level.  ``level_block`` is the one
level geometry: the aligned block of the vertices at a given level from v.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


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


class OrderedGraph:
    """An ordered graph on vertices 0..n-1 with the natural order.

    Edges are unordered pairs (u, v) with u < v.  The graph is held only as
    per-vertex forward and backward neighbourhood bitmasks, which the
    containment kernel reads directly; the edge set and the sorted edge list
    are read off the forward masks on demand.  Instances are immutable after
    construction.
    """

    __slots__ = ("n", "_fwd", "_bwd")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        fwd = [0] * n
        bwd = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            fwd[u] |= 1 << v
            bwd[v] |= 1 << u
        self.n = n
        self._fwd = tuple(fwd)
        self._bwd = tuple(bwd)

    @classmethod
    def _from_masks(cls, n: int, fwd: tuple[int, ...], bwd: tuple[int, ...]) -> OrderedGraph:
        """The graph whose masks are ``fwd`` and ``bwd``, taken as they are.

        The caller vouches that both have n entries, that fwd[u] holds only
        vertices v with u < v < n, and that ``bwd`` is its transpose.
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
        return (
            isinstance(other, OrderedGraph)
            and self.n == other.n
            and self._fwd == other._fwd
        )

    def __hash__(self) -> int:
        return hash((self.n, self._fwd))

    def __repr__(self) -> str:
        return f"OrderedGraph(n={self.n}, m={self.num_edges()})"


class HypercubeGraph:
    """An ordered graph on {0,1}^d, vertices coded as integers 0..2^d-1.

    Adjacency is stored as one bitmask per vertex so that dense graphs on
    moderately large cubes (d up to ~12) stay cheap to hold and query.
    """

    __slots__ = ("d", "adj")

    def __init__(self, d: int, edges: Iterable[tuple[int, int]] = (), adj: Sequence[int] | None = None):
        if d < 1:
            raise ValueError("dimension must be at least 1")
        self.d = d
        n = 1 << d
        if adj is not None:
            if len(adj) != n:
                raise ValueError("adjacency table has wrong size")
            for v, mask in enumerate(adj):
                if (mask >> v) & 1:
                    raise ValueError(f"self-loop at {v}")
            self.adj = tuple(adj)
            for v, mask in enumerate(self.adj):
                if mask >> n:
                    raise ValueError("adjacency mask out of range")
        else:
            table = [0] * n
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for d={d}")
                table[u] |= 1 << v
                table[v] |= 1 << u
            self.adj = tuple(table)

    @property
    def n(self) -> int:
        return 1 << self.d

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            mask = self.adj[u] & ~((1 << (u + 1)) - 1)
            while mask:
                low = mask & -mask
                yield (u, low.bit_length() - 1)
                mask ^= low

    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def backward_degrees(self, level: int) -> list[int]:
        """Every vertex's number of backward level-``level`` neighbours, indexed by vertex."""
        if not 1 <= level <= self.d:
            raise ValueError(f"level {level} out of range [1, {self.d}]")
        size = 1 << (self.d - level)
        block = (1 << size) - 1
        degrees = [0] * self.n
        # the vertices whose bit d - level is 1 come in runs of ``size``; a run
        # shares one level block, the run just before it
        for start in range(size, self.n, 2 * size):
            lo = level_block(start, level, self.d)
            degrees[start : start + size] = [
                ((mask >> lo) & block).bit_count() for mask in self.adj[start : start + size]
            ]
        return degrees

    def level_counts(self) -> list[int]:
        """e_level for level = 1..d (index 0 unused)."""
        return [0] + [sum(self.backward_degrees(level)) for level in range(1, self.d + 1)]

    def to_ordered(self) -> OrderedGraph:
        return OrderedGraph(self.n, list(self.edges()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HypercubeGraph) and self.d == other.d and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.d, self.adj))

    def __repr__(self) -> str:
        return f"HypercubeGraph(d={self.d}, m={self.num_edges()})"
