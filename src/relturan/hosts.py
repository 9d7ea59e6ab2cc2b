"""Seeded construction of the blocked random host family and complete hosts.

The host on {0,1}^d x [m] keeps an m x m boolean matrix per ordered pair of
blocks (x, y), x < y; entry (i, j) says whether (x, i)(y, j) is an edge.  The
matrices are stacked in one (P, m, m) array beside a (P, 2) array of pairs.
Each cross-block pair is present independently with probability
2^(level - d) where level = delta(x, y).  There are no intra-block edges.
``BlockedGraph.to_ordered`` flattens a host to the keys of its edges, a
run of blocks at a time into one preallocated key array, and hands them to
``OrderedGraph._from_keys``, the one constructor that packs edge arrays
into masks.

Randomness comes from a counter-based generator (Philox4x64-10) keyed by
(seed, block-pair index), so the output is independent of generation order.
Each pair's matrix is the first m^2 words of ``Philox(key=[seed, index])``
in row-major order, and entry (i, j) is an edge iff its word's top d - level
bits are 0, which is exactly ``random() < 2^(level - d)`` on that word.
Pairs of at most ``_KERNEL_MAX_WORDS`` words are drawn in batches by
``_philox_words``, a numpy Philox4x64-10; larger pairs take numpy's own
``Philox.random_raw``, whose per-pair set-up cost their length repays.

Drawing goes by runs of consecutive pair indices (``host_runs``), each
about ``_SLAB_BYTES`` of cells drawn into one reused buffer: a run's
pairs, levels and index arrays are made from its first index, the pairs
of its rows of the triangle x < y cut to the run, so no int64 array of
one entry per block pair is built.  ``generate_host`` copies each run
into its preallocated pairs and cells; ``graphio.write_generated``
(``gen-host``) encodes and writes each run as it is drawn and never holds
the host.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (_SLAB_BYTES, BudgetError, HypercubeGraph, OrderedGraph, _key_type, delta_int,
                   pair_levels)

#: refuse hosts with more vertices than this
DEFAULT_VERTEX_BUDGET = 1 << 21
#: refuse hosts whose P m^2 cells plus ``_PAIR_BYTES`` per pair exceed this
_MAX_HOST_BYTES = 1 << 31
#: bytes per block pair besides its cells: a host holds 24 (its pair and
#: its key) and its constructor a few more, and a run of pairs being drawn
#: about this much a pair for its index and level arrays
_PAIR_BYTES = 64
#: pairs of at most this many words go to ``_philox_words`` (about 45 ns a
#: word); larger ones to ``Philox.random_raw`` (about 5 ns a word plus 7 us
#: of set-up a pair): at d = 8 the kernel was 1.2x faster at m = 12, level
#: at m = 13 and 14, and 0.8x at m = 16
_KERNEL_MAX_WORDS = 160
#: words per ``_philox_words`` call: enough to amortise numpy's per-call
#: cost while the batch's arrays stay in cache
_BATCH_WORDS = 1 << 15

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * x, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    t = x_lo * a_hi + (x_lo * a_lo >> _S32)
    mid = x_hi * a_lo + (t & _LO32)
    return x_hi * a_hi + (t >> _S32) + (mid >> _S32), x * np.uint64(a)


def _philox_words(seed, idx, n_words: int) -> np.ndarray:
    """Row r is ``np.random.Philox(key=[seed, idx[r]]).random_raw(n_words)``.

    numpy increments the counter before it generates a block of four words,
    so block j = 1, 2, ... is Philox4x64-10 of the counter (j, 0, 0, 0).
    """
    k0 = np.array(seed, dtype=np.uint64)
    k1 = np.asarray(idx, dtype=np.uint64)[:, None]
    j = np.arange(1, (n_words + 3) // 4 + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # round 1: counter words 1-3 are 0, so it depends only on j and idx
        hi, lo = _mulhilo(_PHILOX_M[0], j)
        c0, c1, c2, c3 = k0, np.uint64(0), hi ^ k1, lo
        for _ in range(9):
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = k1 + np.uint64(_PHILOX_W[1])
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(len(k1), -1)[:, :n_words]


def _check_seed(seed: int) -> None:
    """A seed is a Philox key word: an int (not a bool) in [0, 2^64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def philox_rng(seed: int) -> np.random.Generator:
    """The Philox4x64-10 ``Generator`` keyed [seed, 0] of every stream outside host generation."""
    _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def block_level_counts(levels: np.ndarray, mats: np.ndarray, d: int) -> np.ndarray:
    """The int64 edge count per level 0..d (index 0 unused) of the blocks
    ``mats`` whose pairs lie at ``levels``."""
    # float weights are exact: a host has fewer than 2^53 edges
    counts = np.bincount(levels, weights=np.count_nonzero(mats, axis=(1, 2)), minlength=d + 1)
    return counts.astype(np.int64)


def nonempty_blocks(pairs: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block ``pairs`` and their cells ``mats`` restricted to blocks with at
    least one edge; the arrays themselves, not copies, when every block has one."""
    keep = mats.any(axis=(1, 2))
    if keep.all():
        return pairs, mats
    return pairs[keep], mats[keep]


class BlockedGraph:
    """A graph on {0,1}^d x [m] with block structure, ordered lexicographically.

    ``pairs`` is a (P, 2) array of block pairs x < y in lexicographic order
    and ``mats`` the matching (P, m, m) boolean array; row i, column j of
    ``mats[b]`` is the pair ((x, i), (y, j)) for (x, y) = ``pairs[b]``.
    Pairs not listed have no edges.  Vertex (x, i) precedes (y, j) iff
    x < y or x == y and i < j.
    """

    __slots__ = ("d", "m", "seed", "pairs", "mats", "_keys")

    def __init__(self, d: int, m: int, seed: int, pairs, mats):
        if d > 31:  # pair keys x << d | y must fit in an int64
            raise ValueError(f"d = {d} exceeds 31")
        self.d = d
        self.m = m
        self.seed = seed
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        mats = np.asarray(mats, dtype=bool).reshape(-1, m, m)
        # one sortable int64 per pair: x and y are below 2^d
        keys = pairs[:, 0] << d
        keys |= pairs[:, 1]
        if (keys[1:] <= keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            pairs, mats, keys = pairs[order], mats[order], keys[order]
        self.pairs = pairs
        self.mats = mats
        self._keys = keys

    @property
    def blocks(self) -> dict[tuple[int, int], np.ndarray]:
        """``{(x, y): view of its m x m block}`` over every listed pair."""
        return dict(zip(map(tuple, self.pairs.tolist()), self.mats))

    @property
    def n_blocks(self) -> int:
        return 1 << self.d

    @property
    def n(self) -> int:
        return self.m << self.d

    def block_matrix(self, x: int, y: int) -> np.ndarray:
        if not 0 <= x < y < self.n_blocks:
            raise ValueError(f"need 0 <= x < y < {self.n_blocks}")
        key = x << self.d | y
        b = int(np.searchsorted(self._keys, key))
        if b < len(self._keys) and self._keys[b] == key:
            return self.mats[b]
        return np.zeros((self.m, self.m), dtype=bool)

    def level_counts(self) -> list[int]:
        """Edge count per level 1..d (index 0 unused)."""
        levels = pair_levels(self.pairs[:, 0], self.pairs[:, 1], self.d)
        return block_level_counts(levels, self.mats, self.d).tolist()

    def num_edges(self) -> int:
        return sum(self.level_counts())

    def to_ordered(self) -> OrderedGraph:
        """Flatten to vertex labels x * m + i (lexicographic order preserved).

        The keys of the edges, forward ones then backward ones, are written
        into one ``_key_type(n)`` array a run of blocks at a time: a run has
        at most ``_SLAB_BYTES / 8`` cells, or is one larger block, so each
        int64 temporary holds at most ``_SLAB_BYTES`` (one block's 8 m^2
        bytes, if more), not 8 bytes per host edge.
        """
        if self.n > DEFAULT_VERTEX_BUDGET:
            raise BudgetError(f"{self.n} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
        n, m = self.n, self.m
        edges = np.count_nonzero(self.mats)
        keys = np.empty(2 * edges, _key_type(n))
        per_slab = max(1, _SLAB_BYTES // (8 * m * m))  # blocks
        at = 0
        for lo in range(0, len(self.pairs), per_slab):
            hi = lo + per_slab
            b, cell = np.divmod(np.flatnonzero(self.mats[lo:hi]), m * m)
            i, j = np.divmod(cell, m)
            us = self.pairs[lo:hi, 0][b] * m + i
            vs = self.pairs[lo:hi, 1][b] * m + j
            keys[at : at + len(us)] = us * n + vs
            keys[edges + at : edges + at + len(us)] = vs * n + us
            at += len(us)
        return OrderedGraph._from_keys(n, keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedGraph) or (self.d, self.m) != (other.d, other.m):
            return False
        (p, a), (q, b) = (nonempty_blocks(g.pairs, g.mats) for g in (self, other))
        return np.array_equal(p, q) and np.array_equal(a, b)

    def __repr__(self) -> str:
        return f"BlockedGraph(d={self.d}, m={self.m}, seed={self.seed})"


def _check_host(m: int, d: int, seed: int) -> int:
    """The block-pair count P of the host ``generate_host(m, d, seed)`` draws,
    or the ``ValueError`` or ``BudgetError`` that refuses it."""
    _check_seed(seed)
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if d > DEFAULT_VERTEX_BUDGET.bit_length():  # so m << d exceeds it; refused before that shift
        raise BudgetError(f"2^{d} blocks exceed budget {DEFAULT_VERTEX_BUDGET}")
    if (m << d) > DEFAULT_VERTEX_BUDGET:
        raise BudgetError(f"{m << d} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    n_pairs, words = (1 << d) * ((1 << d) - 1) // 2, m * m
    if n_pairs * (words + _PAIR_BYTES) > _MAX_HOST_BYTES:
        raise BudgetError(f"{n_pairs} block pairs of {words} cells exceed {_MAX_HOST_BYTES} bytes")
    return n_pairs


def host_runs(m: int, d: int, seed: int, per_run: int):
    """The host ``generate_host(m, d, seed)`` as runs of ``per_run`` (at least
    one) consecutive block pairs in pair-index order, each a tuple ``(pairs,
    levels, cells)``: the run's (k, 2) int64 pairs, their levels and their
    (k, m, m) boolean cells, drawn into one buffer that every run reuses.

    The size is checked at the call, the cells drawn as the runs are taken.
    """
    return _draw_runs(m, d, seed, _check_host(m, d, seed), max(1, per_run))


def _draw_runs(m, d, seed, n_pairs, per_run):
    key, words, n_blocks = np.array(seed, dtype=np.uint64), m * m, 1 << d
    buf = np.empty((min(per_run, n_pairs), words), bool)
    # the pair index of each block x's first pair, (x, x + 1)
    first = np.concatenate(([0], np.cumsum(np.arange(n_blocks - 1, 0, -1))))
    if words > _KERNEL_MAX_WORDS:
        bitgen = np.random.Philox(key=np.array([key, 0], dtype=np.uint64))
        state = bitgen.state  # counter 0; setting it also resets the output buffer
    for lo in range(0, n_pairs, per_run):
        count = min(per_run, n_pairs - lo)
        # the pairs of the run's rows x0..x1 of the triangle x < y, in
        # pair-index order, cut to the run's: at most 2^(d + 1) more
        x0, x1 = np.searchsorted(first, [lo, lo + count - 1], "right") - 1
        xs, ys = np.triu_indices(x1 - x0 + 1, x0 + 1, n_blocks)
        start = lo - first[x0]
        xs, ys = xs[start:start + count] + x0, ys[start:start + count]
        levels = pair_levels(xs, ys, d)
        cells = buf[:count]
        cells[levels == d] = True  # level d: probability 1
        drawn = np.flatnonzero(levels < d)
        # random() < 2^-k on a word w iff w >> (64 - k) == 0, that is iff
        # w < 2^(64 - k), here k = d - level >= 1; a pair's words are keyed
        # by its index, so a run boundary does not change them
        if words <= _KERNEL_MAX_WORDS:
            step = _BATCH_WORDS // words
            for s in range(0, len(drawn), step):
                rows = drawn[s : s + step]
                bounds = np.left_shift(np.uint64(1), (levels[rows] + (64 - d)).astype(np.uint64))
                cells[rows] = _philox_words(key, lo + rows, words) < bounds[:, None]
        else:
            for row, level in zip(drawn.tolist(), levels[drawn].tolist()):
                state["state"]["key"][1] = lo + row
                bitgen.state = state
                np.less(bitgen.random_raw(words), np.uint64(1 << (64 - d + level)), out=cells[row])
        yield np.column_stack((xs, ys)), levels, cells.reshape(count, m, m)


def generate_host(m: int, d: int, seed: int) -> BlockedGraph:
    """Sample the blocked host: cross-block pair probability 2^(delta(x,y) - d)."""
    n_pairs = _check_host(m, d, seed)
    pairs = np.empty((n_pairs, 2), np.int64)
    mats = np.empty((n_pairs, m, m), bool)
    lo = 0
    for run, _, cells in _draw_runs(m, d, seed, n_pairs, max(1, _SLAB_BYTES // (m * m + _PAIR_BYTES))):
        pairs[lo:lo + len(run)] = run
        mats[lo:lo + len(run)] = cells
        lo += len(run)
    return BlockedGraph(d, m, seed, pairs, mats)


class LevelCheck(NamedTuple):
    level: int
    count: int  # shadows tuple.count
    expected: float  # 2^(d-1) m^2
    relative_error: float  # signed
    ok: bool


class PairCheck(NamedTuple):
    x: int
    y: int
    p_size: int
    q_size: int
    edges: int
    bound: float  # (1 + eps) 2^(delta - d) |P| |Q|
    ok: bool


class HostReport(NamedTuple):
    """Statistical verification of the two defining host properties."""

    d: int
    m: int
    epsilon: float
    level_checks: tuple[LevelCheck, ...]
    pair_checks: tuple[PairCheck, ...]
    worst_pair_excess: float  # max over checks of edges / bound

    @property
    def levels_ok(self) -> bool:
        return all(c.ok for c in self.level_checks)

    @property
    def pairs_ok(self) -> bool:
        return all(c.ok for c in self.pair_checks)

    @property
    def ok(self) -> bool:
        return self.levels_ok and self.pairs_ok


def verify_host(
    host: BlockedGraph, epsilon: float, sample_budget: int, seed: int
) -> HostReport:
    """Check per-level counts and sampled cross-block subset densities.

    Property (i): e_level in (1 +- epsilon) 2^(d-1) m^2 for every level.
    Property (ii): for sampled block pairs and uniform subsets P, Q of size
    ceil(m^(2/3)), the P-Q edge count is at most
    (1 + epsilon) 2^(delta - d) |P| |Q|.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d, m = host.d, host.m
    expected = (1 << (d - 1)) * m * m
    level_checks = []
    for level, count in enumerate(host.level_counts()):
        if level == 0:
            continue
        rel = (count - expected) / expected
        level_checks.append(
            LevelCheck(level, count, float(expected), rel, abs(rel) <= epsilon)
        )

    rng = philox_rng(seed)
    subset_size = min(m, math.ceil(m ** (2 / 3)))
    pair_checks = []
    worst = 0.0
    n_blocks = host.n_blocks
    for _ in range(sample_budget):
        x = int(rng.integers(n_blocks))
        y = int(rng.integers(n_blocks))
        if x == y:
            y = (x + 1) % n_blocks
        if x > y:
            x, y = y, x
        p_idx = rng.choice(m, size=subset_size, replace=False)
        q_idx = rng.choice(m, size=subset_size, replace=False)
        mat = host.block_matrix(x, y)
        edges = int(mat[np.ix_(p_idx, q_idx)].sum())
        bound = (1 + epsilon) * 2.0 ** (delta_int(x, y, d) - d) * subset_size * subset_size
        pair_checks.append(PairCheck(x, y, subset_size, subset_size, edges, bound, edges <= bound))
        if bound > 0:
            worst = max(worst, edges / bound)
    return HostReport(d, m, epsilon, tuple(level_checks), tuple(pair_checks), worst)


def _complete_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forward and backward masks of the complete graph on 0..n-1."""
    full = (1 << n) - 1
    fwd = tuple(full >> (u + 1) << (u + 1) for u in range(n))
    return fwd, tuple((1 << v) - 1 for v in range(n))


def complete_ordered(n: int) -> OrderedGraph:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 4096:
        raise BudgetError(f"complete graph on {n} vertices refused")
    return OrderedGraph._from_masks(n, *_complete_masks(n))


def complete_hypercube(d: int) -> HypercubeGraph:
    if d < 1:
        raise ValueError("need d >= 1")
    if d > 13:
        raise BudgetError(f"complete cube graph at d={d} refused")
    return HypercubeGraph._from_masks(1 << d, *_complete_masks(1 << d))
