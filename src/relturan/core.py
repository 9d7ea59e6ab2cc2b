"""Cube vertices as integers, their levels, and the ordered graph with its cube case.

A vertex of the binary cube {0,1}^d is the integer 0..2^d-1 whose binary
expansion, most significant bit first, is the string x_1 x_2 ... x_d, so the
lexicographic order on strings is the integer order.  Everything downstream
(hosts, richness, tiling) is phrased in terms of the level of a pair,
``delta_int(u, v, d)``: the first index, 1-based, at which the two strings
differ; ``pair_levels`` is its array form.  ``tau`` counts the pairs at
each level.  ``level_block`` is the one level geometry: the aligned block
of the vertices at a given level from v.
A cube graph, ``HypercubeGraph``, is an ``OrderedGraph`` on 2^d vertices
that adds the per-level statistics and no stored state: one level-degree
table, ``level_degrees``, over the vertices with a backward edge, whose
row sums are ``level_counts`` and whose reductions are the richness
extraction's stages.

Both bulk sources of graphs, a blocked host's block matrices and a cube
file's records, reach the masks through one array constructor,
``OrderedGraph._from_keys``, whose ``_key_masks`` packs the sorted pair keys
u * n + v a slab of ``_SLAB_BYTES`` at a time; an edge list on more vertices
than the cheap mask bound admits takes the same packer.  The way back,
``mask_arrays``, reads forward masks out as edge arrays a slab at a time,
unpacking only their set bytes (``_set_bits``, which the cube writer shares);
``mask_edges`` reads them a bit at a time, which is faster on small graphs.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice, repeat
from operator import and_, rshift
from typing import Iterable, Sequence

import numpy as np

#: bytes per slab: the array constructor packs, the bulk writers make and
#: write their records, and the cube reader reads and decodes them, this many
#: bytes at a time, so that no temporary grows with the graph or the file;
#: the tile sampler, ``tiling.split_level_counts`` and ``mask_arrays`` take
#: their rows in slabs of this size too
_SLAB_BYTES = 1 << 20
#: refuse to build data that could pass this many bytes: a graph's bitmasks
#: (``_check_mask_bytes``), a blocked host's cells (``hosts.generate_host``),
#: an exact search's copy table (``patterns.copy_table``) or a batch of tile
#: chains (``tiling.sample_many``)
_MAX_BUILD_BYTES = 1 << 31
#: the most decimal digits of an exact number the package makes: a1's
#: C(n, k) and alpha^k (``lemma_checks``) and a fraction's numerator or
#: denominator as the CLI writes it, past Python's own limit on int digits.
#: str() of an int is quadratic: 0.2 s for 108,659 digits, 1.9 s for 325,980,
#: and C(400000, 100000), 97,685 digits, takes 0.6 s (Python 3.11, 2-vCPU VM)
MAX_DIGITS = 100_000


class BudgetError(ValueError):
    """A size the package refuses before it starts, where it would exhaust
    memory or take too much work."""


class PostconditionError(RuntimeError):
    """A guarantee failed its explicit re-check: one of the staircase
    pipeline's postconditions, or the local search's path-free start."""


def _key_type(n: int) -> type:
    """The integer dtype of the pair keys u * n + v of n vertices: int32 when it holds n * n."""
    return np.int32 if n * n < 1 << 31 else np.int64


def delta_int(u: int, v: int, d: int) -> int:
    """The level of u != v in {0,1}^d: the first index at which they differ (1-based)."""
    xor = u ^ v
    if xor == 0:
        raise ValueError("delta is undefined for equal strings")
    return d - (xor.bit_length() - 1)


def pair_levels(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """``delta_int`` over arrays of pairs of vertices of {0,1}^d, d <= 63."""
    xor = np.bitwise_xor(x, y)
    if not xor.all():
        raise ValueError("delta is undefined for equal strings")
    # frexp's exponent of a positive integer below 2^53 is its bit length; a
    # larger one's bit length is 32 more than that of its top bits
    high = xor >> 32
    return d + 1 - np.where(high, np.frexp(high)[1] + 32, np.frexp(xor)[1])


def level_block(v: int, level: int, d: int) -> int:
    """The first vertex of the block {u : delta(u, v) = level} in {0,1}^d, 1 <= level <= d.

    The block is the 2^(d-level) consecutive vertices that agree with v before
    ``level`` and differ from it there.  It lies before v iff bit d - level of
    v is 1.  An int64 array of vertices gives the array of their blocks.
    """
    width = d - level
    return ((v >> width) ^ 1) << width


def tau(level: int, d: int) -> int:
    """Number of pairs u < v in {0,1}^d with delta(u, v) = level: 2^(2d-level-1)."""
    if not 1 <= level <= d:
        raise ValueError(f"level {level} out of range [1, {d}]")
    return 1 << (2 * d - level - 1)


def _nonzero_indices(masks: Sequence[int]) -> np.ndarray:
    """The indices of the non-zero ``masks``, ascending, as an int64 array.

    The masks are read as flag bytes, 2^14 at a time, so no int is made per
    mask and nothing grows with their number but the indices found: on 2^21
    masks it takes about 50 ms whether tracemalloc traces it or not, where
    ``compress(range(n), masks)`` took 48 ms untraced and 950 ms traced.
    """
    flags = map(bool, masks)
    found = [np.zeros(0, np.int64)]
    for lo in range(0, len(masks), 1 << 14):
        found.append(np.flatnonzero(np.frombuffer(bytes(islice(flags, 1 << 14)), np.uint8)) + lo)
    return np.concatenate(found)


def mask_edges(fwd: Sequence[int]) -> list[tuple[int, int]]:
    """The edges (u, v) of the forward bitmasks ``fwd``, in lexicographic order."""
    out = []
    for u, mask in enumerate(fwd):
        while mask:
            low = mask & -mask
            out.append((u, low.bit_length() - 1))
            mask ^= low
    return out


def mask_arrays(fwd: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The edges of the forward bitmasks ``fwd`` as int64 arrays ``(us, vs)``, in lexicographic order.

    The same edges as ``mask_edges``, read a run of rows about
    ``_SLAB_BYTES`` of mask bytes long (at least one row) at a time; only
    the non-zero bytes are unpacked, so a sparse row costs its set bytes,
    not its width.  Each call pays numpy's fixed costs: on K_9
    ``mask_edges`` takes about 4 us and this about 14 us (2-vCPU VM).  The
    masks must be non-negative and hold only vertices below len(fwd).
    """
    width = (len(fwd) + 7) // 8  # bytes per row
    step = max(1, _SLAB_BYTES // max(width, 1))
    us, vs = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo in range(0, len(fwd), step):
        bits = _set_bits(b"".join(m.to_bytes(width, "little") for m in fwd[lo:lo + step]))
        us.append(bits // (8 * width) + lo)
        vs.append(bits % (8 * width))
    return np.concatenate(us, dtype=np.int64), np.concatenate(vs, dtype=np.int64)


def _set_bits(data: bytes) -> np.ndarray:
    """The positions of the set bits of ``data`` read as one little-endian
    integer, in increasing order, as int64; only its non-zero bytes are
    unpacked, so a sparse run of bytes costs its set bytes, not its length."""
    raw = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(raw)
    # the set bytes' bits, lowest first, so the positions come out in order
    bits = np.flatnonzero(np.unpackbits(raw[at], bitorder="little"))
    if len(at) == len(raw):  # no byte skipped, as in dense rows: no int64 temporaries
        return bits
    return at[bits >> 3] * 8 + (bits & 7)


def _check_mask_bytes(n: int, keys: np.ndarray) -> None:
    """Refuse (``BudgetError``) masks of a graph on 0..n-1 that could pass
    ``_MAX_BUILD_BYTES``.

    ``keys`` holds the keys u * n + v of both orientations of every edge,
    sorted, so each row's last key is the vertex's farthest neighbour f:
    its forward and backward masks are each at most f + 1 bits long, as
    Python ints, and the sum of 2 (f + 1) bits over the rows bounds both.
    It is read a slab at a time, a row cut by a slab boundary counting in
    its last slab, and only when n^2 / 4 bytes, that bound for any graph on
    n vertices, pass the cap: at the default cap, for n above 92,681.
    """
    if n * n // 4 <= _MAX_BUILD_BYTES:
        return
    bits, last_row, last_bits = 0, -1, 0
    for lo in range(0, len(keys), _SLAB_BYTES // 8):
        part = keys[lo:lo + _SLAB_BYTES // 8]
        rows = part // n
        ends = np.append(rows[1:] != rows[:-1], True)
        row_bits = 2 * (part[ends] - rows[ends] * n + 1).astype(np.int64)
        bits += int(row_bits.sum()) - (last_bits if rows[0] == last_row else 0)
        last_row, last_bits = int(rows[-1]), int(row_bits[-1])
    if bits // 8 > _MAX_BUILD_BYTES:
        raise BudgetError(f"bitmasks of up to {bits // 8} bytes exceed {_MAX_BUILD_BYTES}")


def _edge_masks(
    n: int, edges: Iterable[tuple[int, int]], span: str
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward masks of ``edges`` on 0..n-1; ``span`` names
    the vertex range in the out-of-range message.

    Each edge sets its bit in two masks, which costs a copy of each mask: a
    mask of many bits grown one edge at a time costs its width per edge.
    So past the cheap bound of ``_check_mask_bytes``, where the masks may
    be that wide, the edges' keys go into an 8-byte array and
    ``_key_masks`` packs them, each row once.
    """
    wide = n * n // 4 > _MAX_BUILD_BYTES
    keys = array("q")
    fwd, bwd = ([], []) if wide else ([0] * n, [0] * n)
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {span}")
        if wide:
            keys.extend((u * n + v, v * n + u))
        else:
            if u > v:
                u, v = v, u
            fwd[u] |= 1 << v
            bwd[v] |= 1 << u
    if wide:
        return _key_masks(n, np.frombuffer(keys, np.int64))
    fwd = tuple(fwd)  # each list goes as its tuple is made
    return fwd, tuple(bwd)


def _key_masks(n: int, keys: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward masks of the graph on 0..n-1 whose edges are
    the pairs of ``keys``, as ``OrderedGraph._from_keys`` takes them, sorted
    in place; ``BudgetError`` where ``_check_mask_bytes`` refuses them.

    Each non-empty row is set as dense booleans up to its highest
    neighbour, in whole bytes, and packed into the vertex's neighbourhood:
    its bits above the vertex are the forward mask, those below the
    backward mask.  The rows go a run at a time, laid end to end: whole
    rows of at most ``_SLAB_BYTES / 16`` keys and ``_SLAB_BYTES`` cells (at
    least one row).  A run's rows are read off its own keys, so the n-entry
    mask lists are the only work done per vertex.
    """
    keys.sort()
    _check_mask_bytes(n, keys)
    fwd = [0] * n
    bwd = [0] * n
    keys_per_slab = _SLAB_BYTES // 16

    def row_start(x: int) -> int:
        # the probe is in keys.dtype, so that searchsorted makes no wider copy of keys
        return int(np.searchsorted(keys, keys.dtype.type(x * n)))

    at = 0
    while at < len(keys):
        # sorted, each vertex's neighbours are one run of keys: take the rows
        # from the next key's on, cut back to whole rows at keys_per_slab keys
        # (to one row, if that is longer)
        hi = at + keys_per_slab
        if hi < len(keys):
            hi = max(row_start(int(keys[hi]) // n), row_start(int(keys[at]) // n + 1))
        part = keys[at:hi]
        row_of = part // n
        # each row's first key, and its end
        starts = np.flatnonzero(np.concatenate(([True], row_of[1:] != row_of[:-1])))
        stops = np.append(starts[1:], len(part))
        slab = row_of[starts]
        # each row's bytes reach its highest neighbour, its last key; cut back
        # to the rows whose cells fit a slab
        ends = np.cumsum((part[stops - 1] - slab * n) // 8 + 1)
        rows = max(1, int(np.count_nonzero(ends <= _SLAB_BYTES // 8)))
        slab, ends, begins = slab[:rows], ends[:rows], np.append(0, ends[:rows - 1])
        part = part[:stops[rows - 1]]
        at += len(part)
        # the key x * n + c of the row that starts at byte b is its cell 8 b + c
        shift = (slab * n - 8 * begins).astype(keys.dtype)
        dense = np.zeros(8 * int(ends[-1]), bool)
        dense[part - np.repeat(shift, stops[:rows] - starts[:rows])] = True
        raw = np.packbits(dense, bitorder="little").tobytes()
        for b0, b1, x in zip(begins.tolist(), ends.tolist(), slab.tolist()):
            a = int.from_bytes(raw[b0:b1], "little")
            # a mask of x low bits would cost x bits on a row of fewer
            fwd[x] = a >> x << x
            bwd[x] = a ^ fwd[x]
    fwd = tuple(fwd)  # each list goes as its tuple is made
    return fwd, tuple(bwd)


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

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> OrderedGraph:
        """The graph whose edges are the pairs that ``keys`` holds, sorted in place.

        ``keys`` holds u * n + v for both orientations of every edge u != v
        of 0..n-1, repeats allowed, in ``_key_type(n)`` or a wider dtype;
        ``_key_masks`` packs them into the masks.
        """
        return cls._from_masks(n, *_key_masks(n, keys))

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

    def level_degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """The level-degree table: ``(vertices, table)``.

        ``vertices`` are the vertices with a backward neighbour, ascending,
        as int64; ``table`` is the ``(d + 1, len(vertices))`` int32 array
        whose cell ``[level, i]`` is the number of backward neighbours of
        ``vertices[i]`` at ``level``, row 0 all zero.  A cell is at most the
        block size 2^(d - level) <= 2^(d - 1), which int32 holds for every d
        whose 2^d masks fit in memory (d <= 32), and numpy sums int32 rows
        in int64, so row sums stay exact.  A vertex has such
        neighbours only where bit d - level of it is 1, in the block
        ``level_block`` gives: each such cell is one shift, mask and
        popcount of its backward mask, and a row is filled at once.
        """
        d, bwd = self.d, self._bwd
        vertices = _nonzero_indices(bwd)
        masks = list(compress(bwd, bwd))
        table = np.zeros((d + 1, len(vertices)), np.int32)
        for level in range(1, d + 1):
            width = d - level
            behind = (vertices >> width & 1).astype(bool)
            lo = level_block(vertices[behind], level, d).tolist()
            # (mask >> lo) & block, with no Python frame per cell
            cells = map(and_, map(rshift, compress(masks, behind), lo), repeat((1 << (1 << width)) - 1))
            table[level, behind] = np.fromiter(map(int.bit_count, cells), np.int32, len(lo))
        return vertices, table

    def level_counts(self) -> list[int]:
        """e_level for level = 1..d (index 0 is 0): the level-degree table's row sums."""
        return self.level_degrees()[1].sum(axis=1).tolist()

    def to_ordered(self) -> OrderedGraph:
        """The same graph as a plain OrderedGraph, sharing this one's masks."""
        return OrderedGraph._from_masks(self.n, self._fwd, self._bwd)

    def __repr__(self) -> str:
        return f"HypercubeGraph(d={self.d}, m={self.num_edges()})"
