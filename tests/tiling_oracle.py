"""Per-cell reference for the windowed embedding's exact law.

These are the straightforward rational-arithmetic definitions that
``relturan.tiling`` replaced with integer class counts: the probability of
one (i, j) slot landing on one pair (x, y), its sum over pattern edges,
and a guarantee report that evaluates every (level, y) cell.  They serve
the tests as the oracle for small d, together with the single-draw sampler
whose ``check`` spells out the sampler's invariants, and the batch sampler
as it drew all its ranking reals at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from relturan.core import OrderedGraph, delta_int, tau
from relturan.tiling import GuaranteeReport, LevelGuarantee, TilingConfig, _sample_batch


def position_of(cfg: TilingConfig, level: int) -> int:
    """1-based index of a level inside the level set, or 0 if absent."""
    return cfg.levels.index(level) + 1 if level in cfg.levels else 0


@dataclass(frozen=True)
class EmbeddingSample:
    """One draw: window start, chosen levels, and the vertex chain."""

    a: int
    levels: tuple[int, ...]  # l_1 < ... < l_h
    vertices: tuple[int, ...]  # v_1 < ... < v_h, integer-coded

    def check(self, cfg: TilingConfig) -> None:
        """Raise ``AssertionError`` unless the draw keeps the sampler's
        invariants: window membership, split levels and the top bit.  The
        raises are explicit, as pytest rewrites no assert outside test
        modules and ``python -O`` drops them."""
        if not 0 <= self.a < cfg.L - cfg.w:
            raise AssertionError(f"window start {self.a} outside [0, {cfg.L - cfg.w})")
        for l in self.levels:
            if not self.a < position_of(cfg, l) <= self.a + cfg.w:
                raise AssertionError(f"level {l} outside the window from {self.a}")
        for vi, vj, l in zip(self.vertices, self.vertices[1:], self.levels):
            if not (vi < vj and delta_int(vi, vj, cfg.d) == l):
                raise AssertionError(f"pair ({vi}, {vj}) does not split at level {l}")
        top = self.levels[-1]
        if (self.vertices[-1] >> (cfg.d - top)) & 1:
            raise AssertionError(f"vertex {self.vertices[-1]} has bit 1 at level {top}")


def one_draw_sample_batch(
    cfg: TilingConfig, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_sample_batch`` as it drew its ranking reals: all n rows in one draw,
    with masks built from each chain's suffix widths."""
    d, L, w, h = cfg.d, cfg.L, cfg.w, cfg.h
    a = rng.integers(0, L - w, size=n)
    keys = rng.random((n, w))
    offsets = np.sort(np.argpartition(keys, h - 1, axis=1)[:, :h], axis=1) + 1
    levels = np.asarray((0,) + cfg.levels, dtype=np.int64)[a[:, None] + offsets]
    z = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
    verts = np.empty((n, h), dtype=np.uint64)
    sep = np.zeros(n, dtype=np.uint64)
    full = np.uint64((1 << d) - 1)
    for t in range(h):
        s = (d - levels[:, t]).astype(np.uint64)
        pref_mask = (full >> (s + np.uint64(1))) << (s + np.uint64(1))
        wt = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
        suf_mask = (np.uint64(1) << s) - np.uint64(1)
        verts[:, t] = (z & pref_mask) | sep | (wt & suf_mask)
        sep = sep | (np.uint64(1) << s)
    return verts, a, levels


def sample_embedding(cfg: TilingConfig, rng: np.random.Generator) -> EmbeddingSample:
    """One draw of the embedding chain from the vectorised sampler."""
    v, a, levels = _sample_batch(cfg, 1, rng)
    return EmbeddingSample(int(a[0]), tuple(int(l) for l in levels[0]), tuple(int(x) for x in v[0]))


def exact_pair_probability(cfg: TilingConfig, i: int, j: int, x: int, y: int) -> Fraction:
    """P(v_i = x and v_j = y), exact.

    Counts admissible level sets per window position: the slot-i level is
    pinned at the split level of (x, y); lower slots take positions where y
    has bit 1, slot j a position where y has bit 0, and higher slots are
    free.  The bitstring blocks contribute the factor
    2^(j-1) / 2^(2d - split - 1).
    """
    d, L, w, h = cfg.d, cfg.L, cfg.w, cfg.h
    if not 1 <= i < j <= h:
        raise ValueError("need 1 <= i < j <= h")
    if not 0 <= x < y < (1 << d):
        raise ValueError("need 0 <= x < y < 2^d")
    split = delta_int(x, y, d)
    kappa = position_of(cfg, split)
    if kappa == 0:
        return Fraction(0)

    # ones[p] = number of positions q <= p where y has bit 1 at level iota(q)
    ones = [0] * (L + 1)
    for p in range(1, L + 1):
        bit = (y >> (d - cfg.levels[p - 1])) & 1
        ones[p] = ones[p - 1] + bit

    def count_ones(lo: int, hi: int) -> int:
        # positions in [lo, hi]
        if hi < lo:
            return 0
        return ones[hi] - ones[lo - 1]

    total = 0
    for a in range(0, L - w):
        if not a < kappa <= a + w:
            continue
        c1 = math.comb(count_ones(a + 1, kappa - 1), i - 1)
        if c1 == 0:
            continue
        inner = 0
        for r in range(kappa + 1, a + w + 1):
            bit_r = (y >> (d - cfg.levels[r - 1])) & 1
            if bit_r != 0:
                continue
            inner += math.comb(count_ones(kappa + 1, r - 1), j - i - 1) * math.comb(
                a + w - r, h - j
            )
        total += c1 * inner
    prob_levels = Fraction(total, (L - w) * math.comb(w, h))
    return prob_levels * Fraction(1 << (j - 1), 1 << (2 * d - split - 1))


def exact_edge_probability(
    pattern: OrderedGraph, cfg: TilingConfig, x: int, y: int
) -> Fraction:
    """P(xy lands on an embedded pattern edge): sum over pattern edges.

    The per-edge events are disjoint because the chain is strictly
    increasing, so the sum is exact.
    """
    if pattern.n != cfg.h:
        raise ValueError("pattern size must equal the chain length")
    total = Fraction(0)
    for u, v in pattern.sorted_edges():
        total += exact_pair_probability(cfg, u + 1, v + 1, x, y)
    return total


def oracle_guarantee_report(
    pattern: OrderedGraph, cfg: TilingConfig, epsilon: float
) -> GuaranteeReport:
    """The guarantee report with one ``exact_edge_probability`` per (level, y) cell."""
    d = cfg.d
    e_pat = len(pattern.edges)
    eps = Fraction(epsilon)
    per_level = []
    passing_levels = 0
    for level in cfg.levels:
        cap = tau(level, d)
        threshold = (1 - eps) * Fraction(e_pat, cfg.L * cap)
        passing = 0
        width = d - level
        per_y = 1 << width  # x's pairing with a given y at this level
        for y in range(1 << d):
            if (y >> width) & 1 == 0:
                continue
            x = y & ~((1 << (width + 1)) - 1)  # any representative splits alike
            if exact_edge_probability(pattern, cfg, x, y) >= threshold:
                passing += per_y
        per_level.append(LevelGuarantee(level, threshold, passing, cap))
        if Fraction(passing, cap) >= 1 - eps:
            passing_levels += 1
    return GuaranteeReport(epsilon, tuple(per_level), passing_levels)
