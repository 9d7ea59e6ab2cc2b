"""Seeded construction of the blocked random host family and complete hosts.

The host on {0,1}^d x [m] keeps an m x m boolean matrix per ordered pair of
blocks (x, y), x < y; entry (i, j) says whether (x, i)(y, j) is an edge.  Each
cross-block pair is present independently with probability 2^(level - d)
where level = delta(x, y).  There are no intra-block edges.

Randomness comes from a counter-based generator (Philox) keyed by
(seed, block-pair index), so the output is independent of generation order
and worker count.  Generation reuses one Philox object and resets its state
to counter 0 under each pair's key, so each pair still draws exactly the
stream of ``Philox(key=[seed, pair_index])`` and host files do not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import HypercubeGraph, OrderedGraph, delta_int, tau

#: refuse hosts with more vertices than this unless the caller overrides
DEFAULT_VERTEX_BUDGET = 1 << 21


class BudgetError(ValueError):
    pass


def _pair_levels(x: np.ndarray, y: np.ndarray, d: int) -> np.ndarray:
    """``delta_int`` over arrays of block pairs."""
    xor = np.bitwise_xor(x, y)
    if not xor.all():
        raise ValueError("delta is undefined for equal strings")
    # frexp's exponent of a positive integer below 2^53 is its bit length
    return d + 1 - np.frexp(xor)[1]


class BlockedGraph:
    """A graph on {0,1}^d x [m] with block structure, ordered lexicographically.

    ``blocks[(x, y)]`` for x < y is an m x m boolean array; row i, column j is
    the pair ((x, i), (y, j)).  Vertex (x, i) precedes (y, j) iff x < y or
    x == y and i < j.
    """

    __slots__ = ("d", "m", "seed", "blocks")

    def __init__(self, d: int, m: int, seed: int, blocks: dict[tuple[int, int], np.ndarray]):
        self.d = d
        self.m = m
        self.seed = seed
        self.blocks = blocks

    @property
    def n_blocks(self) -> int:
        return 1 << self.d

    @property
    def n(self) -> int:
        return self.m << self.d

    def block_matrix(self, x: int, y: int) -> np.ndarray:
        if not 0 <= x < y < self.n_blocks:
            raise ValueError(f"need 0 <= x < y < {self.n_blocks}")
        return self.blocks.get((x, y), np.zeros((self.m, self.m), dtype=bool))

    def level_counts(self) -> list[int]:
        """Edge count per level 1..d (index 0 unused)."""
        if not self.blocks:
            return [0] * (self.d + 1)
        pairs = np.fromiter(chain.from_iterable(self.blocks), np.int64, 2 * len(self.blocks))
        x, y = pairs.reshape(-1, 2).T
        edges = np.count_nonzero(np.stack(list(self.blocks.values())), axis=(1, 2))
        # float weights are exact: a host has fewer than 2^53 edges
        counts = np.bincount(_pair_levels(x, y, self.d), weights=edges, minlength=self.d + 1)
        return counts.astype(np.int64).tolist()

    def num_edges(self) -> int:
        return sum(self.level_counts())

    def to_ordered(self, budget: int = DEFAULT_VERTEX_BUDGET) -> OrderedGraph:
        """Flatten to vertex labels x * m + i (lexicographic order preserved)."""
        if self.n > budget:
            raise BudgetError(f"{self.n} vertices exceeds budget {budget}")
        edges = []
        for (x, y), mat in self.blocks.items():
            rows, cols = np.nonzero(mat)
            base_x, base_y = x * self.m, y * self.m
            edges.extend((base_x + int(i), base_y + int(j)) for i, j in zip(rows, cols))
        return OrderedGraph(self.n, edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedGraph) or (self.d, self.m) != (other.d, other.m):
            return False
        keys = set(self.blocks) | set(other.blocks)
        return all(
            np.array_equal(self.block_matrix(*k), other.block_matrix(*k)) for k in keys
        )

    def __repr__(self) -> str:
        return f"BlockedGraph(d={self.d}, m={self.m}, seed={self.seed})"


def generate_host(m: int, d: int, seed: int, budget: int = DEFAULT_VERTEX_BUDGET) -> BlockedGraph:
    """Sample the blocked host: cross-block pair probability 2^(delta(x,y) - d)."""
    if m < 1 or d < 1:
        raise ValueError("need m >= 1 and d >= 1")
    if (m << d) > budget:
        raise BudgetError(f"{m << d} vertices exceeds budget {budget}")
    xs, ys = np.triu_indices(1 << d, k=1)  # pair-index order
    levels = _pair_levels(xs, ys, d)
    mats = np.ones((len(xs), m, m), dtype=bool)  # level d: probability 1
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0; setting it also resets the output buffer
    draw = np.empty((m, m))
    drawn = np.flatnonzero(levels < d)
    for idx, p in zip(drawn.tolist(), np.ldexp(1.0, levels[drawn] - d).tolist()):
        state["state"]["key"][1] = idx
        bitgen.state = state
        rng.random(out=draw)
        np.less(draw, p, out=mats[idx])
    return BlockedGraph(d, m, seed, dict(zip(zip(xs.tolist(), ys.tolist()), mats)))


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

    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
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


def complete_ordered(n: int, budget: int = DEFAULT_VERTEX_BUDGET) -> OrderedGraph:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > budget or n > 4096:
        raise BudgetError(f"complete graph on {n} vertices refused")
    return OrderedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_hypercube(d: int, budget: int = DEFAULT_VERTEX_BUDGET) -> HypercubeGraph:
    if d < 1:
        raise ValueError("need d >= 1")
    n = 1 << d
    if n > budget or d > 13:
        raise BudgetError(f"complete cube graph at d={d} refused")
    full = (1 << n) - 1
    adj = [full ^ (1 << v) for v in range(n)]
    return HypercubeGraph(d, adj=adj)
