"""Seeded construction of the blocked random host family and complete hosts.

The host on {0,1}^d x [m] keeps an m x m boolean matrix per ordered pair of
blocks (x, y), x < y; entry (i, j) says whether (x, i)(y, j) is an edge.  The
matrices are stacked in one (P, m, m) array beside a (P, 2) array of pairs.
Each cross-block pair is present independently with probability
2^(level - d) where level = delta(x, y).  There are no intra-block edges.

Randomness comes from a counter-based generator (Philox4x64-10) keyed by
(seed, block-pair index), so the output is independent of generation order.
Each pair's matrix is the first m^2 words of ``Philox(key=[seed, index])``
in row-major order, and entry (i, j) is an edge iff its word's top d - level
bits are 0, which is exactly ``random() < 2^(level - d)`` on that word.
Pairs of at most ``_KERNEL_MAX_WORDS`` words are drawn in batches by
``_philox_words``, a numpy Philox4x64-10; larger pairs take numpy's own
``Philox.random_raw``, whose per-pair set-up cost their length repays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HypercubeGraph, OrderedGraph, delta_int

#: refuse hosts with more vertices than this
DEFAULT_VERTEX_BUDGET = 1 << 21
#: refuse hosts whose P m^2 cells plus ``_PAIR_BYTES`` per pair exceed this
_MAX_HOST_BYTES = 1 << 31
#: bytes per block pair of the pair, level and index arrays generation builds
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


class BudgetError(ValueError):
    pass


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


def _pair_levels(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """``delta_int`` over arrays of pairs of vertices of {0,1}^d, d <= 63."""
    xor = np.bitwise_xor(x, y)
    if not xor.all():
        raise ValueError("delta is undefined for equal strings")
    # frexp's exponent of a positive integer below 2^53 is its bit length; a
    # larger one's bit length is 32 more than that of its top bits
    high = xor >> 32
    return d + 1 - np.where(high, np.frexp(high)[1] + 32, np.frexp(xor)[1])


def _bit_rows(n: int, rows: np.ndarray, cols: np.ndarray) -> tuple[int, ...]:
    """For each r < n, the int whose bit c is set for every pair (r, c) of
    ``rows`` and ``cols``: distinct pairs of integers below n."""
    if not len(rows):
        return (0,) * n
    key_type = np.int32 if n * n <= 1 << 31 else np.int64
    rows, cols = np.divmod(np.sort(rows.astype(key_type) * n + cols), n)
    # each nonempty row's bytes, up to the one of its highest bit, are laid
    # end to end; a pair's byte is then nondecreasing in the sorted order, so
    # the bits of one byte are a run, and as they are distinct their sum is
    # their OR
    first = np.flatnonzero(np.diff(rows, prepend=-1))  # of each nonempty row
    ends = np.append(first[1:], len(rows))
    sizes = cols[ends - 1] // 8 + 1
    starts = np.cumsum(sizes) - sizes
    byte = np.repeat(starts, ends - first) + (cols >> 3)
    run = np.flatnonzero(np.diff(byte, prepend=-1))
    packed = np.zeros(int(starts[-1] + sizes[-1]), np.uint8)
    packed[byte[run]] = np.add.reduceat((1 << (cols & 7)).astype(np.uint8), run)
    raw = packed.tobytes()
    masks = [0] * n
    for r, start, size in zip(rows[first].tolist(), starts.tolist(), sizes.tolist()):
        masks[r] = int.from_bytes(raw[start:start + size], "little")
    return tuple(masks)


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
        keys = pairs[:, 0] << d | pairs[:, 1]
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

    def nonempty(self) -> tuple[np.ndarray, np.ndarray]:
        """``pairs`` and ``mats`` restricted to blocks with at least one edge."""
        keep = self.mats.any(axis=(1, 2))
        return self.pairs[keep], self.mats[keep]

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
        edges = np.count_nonzero(self.mats, axis=(1, 2))
        # float weights are exact: a host has fewer than 2^53 edges
        levels = _pair_levels(self.pairs[:, 0], self.pairs[:, 1], self.d)
        counts = np.bincount(levels, weights=edges, minlength=self.d + 1)
        return counts.astype(np.int64).tolist()

    def num_edges(self) -> int:
        return sum(self.level_counts())

    def to_ordered(self) -> OrderedGraph:
        """Flatten to vertex labels x * m + i (lexicographic order preserved)."""
        if self.n > DEFAULT_VERTEX_BUDGET:
            raise BudgetError(f"{self.n} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
        m = self.m
        b, cell = np.divmod(np.flatnonzero(self.mats), m * m)
        i, j = np.divmod(cell, m)
        us = self.pairs[b, 0] * m + i
        vs = self.pairs[b, 1] * m + j  # > us, as x < y
        return OrderedGraph._from_masks(self.n, _bit_rows(self.n, us, vs), _bit_rows(self.n, vs, us))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedGraph) or (self.d, self.m) != (other.d, other.m):
            return False
        (p, a), (q, b) = self.nonempty(), other.nonempty()
        return np.array_equal(p, q) and np.array_equal(a, b)

    def __repr__(self) -> str:
        return f"BlockedGraph(d={self.d}, m={self.m}, seed={self.seed})"


def generate_host(m: int, d: int, seed: int) -> BlockedGraph:
    """Sample the blocked host: cross-block pair probability 2^(delta(x,y) - d)."""
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
    key = np.array(seed, dtype=np.uint64)
    xs, ys = np.triu_indices(1 << d, k=1)  # pair-index order
    levels = _pair_levels(xs, ys, d)
    mats = np.ones((n_pairs, words), dtype=bool)  # level d: probability 1
    drawn = np.flatnonzero(levels < d)
    # random() < 2^-k on a word w iff w >> (64 - k) == 0, here k = d - level
    if words <= _KERNEL_MAX_WORDS:
        step = _BATCH_WORDS // words
        for s in range(0, len(drawn), step):
            rows = drawn[s : s + step]
            shifts = (levels[rows] + (64 - d)).astype(np.uint64)[:, None]
            mats[rows] = _philox_words(key, rows, words) >> shifts == 0
    else:
        bitgen = np.random.Philox(key=np.array([key, 0], dtype=np.uint64))
        state = bitgen.state  # counter 0; setting it also resets the output buffer
        for idx, level in zip(drawn.tolist(), levels[drawn].tolist()):
            state["state"]["key"][1] = idx
            bitgen.state = state
            mats[idx] = bitgen.random_raw(words) >> (64 - d + level) == 0
    return BlockedGraph(d, m, seed, np.column_stack((xs, ys)), mats)


@dataclass(frozen=True)
class LevelCheck:
    level: int
    count: int
    expected: float  # 2^(d-1) m^2
    relative_error: float  # signed
    ok: bool


@dataclass(frozen=True)
class PairCheck:
    x: int
    y: int
    p_size: int
    q_size: int
    edges: int
    bound: float  # (1 + eps) 2^(delta - d) |P| |Q|
    ok: bool


@dataclass(frozen=True)
class HostReport:
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
    if n > DEFAULT_VERTEX_BUDGET or n > 4096:
        raise BudgetError(f"complete graph on {n} vertices refused")
    return OrderedGraph._from_masks(n, *_complete_masks(n))


def complete_hypercube(d: int) -> HypercubeGraph:
    if d < 1:
        raise ValueError("need d >= 1")
    n = 1 << d
    if n > DEFAULT_VERTEX_BUDGET or d > 13:
        raise BudgetError(f"complete cube graph at d={d} refused")
    return HypercubeGraph._from_masks(n, *_complete_masks(n))
