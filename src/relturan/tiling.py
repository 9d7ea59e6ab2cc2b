"""The windowed random embedding into the full cube and its exact law.

The sampler draws a window of consecutive positions inside an ascending
level set, a uniform subset of levels within the window, and then uniform
bitstring blocks that assemble into a chain v_1 < ... < v_h whose
consecutive pairs split exactly at the chosen levels.  The exact
guarantee report decides, for every pair (x, y), whether the chance that
some pattern edge lands on it reaches the near-uniform bound.  That chance
depends on x only through the split level and on y only through its bits
at the at most 2w - 2 level positions within w - 1 of the split's
position, so the report counts these classes of y in integer arithmetic,
and its work per level depends on w and not on d.

The configuration and the report are NamedTuple records;
``TilingConfig`` checks its values on construction.

Window convention: the start a is uniform on the integers [0, L - w), the
half-open variant; the level positions used are (a, a + w].

The batch sampler draws, in this order, n window starts a, the n x w
ranking reals, n shared prefixes z and then, for each of the h slots, n
suffix blocks.  The ranking reals come a slab of rows (``_SLAB_BYTES``) at
a time: row after row they are the same stream one (n, w) draw takes, and
each slab is reduced to its h levels at once.  The other draws stay
full-length, n values each: the stream gives all n starts before the
first ranking real, and each slot's blocks for all n chains before the
next slot's, so drawing them a slab of chains at a time would reorder the
stream, and no chain is whole before the last draw.  Once the levels are
drawn the int64 starts are kept as uint8, and each slot's vertices are
built with ``out=`` operations in their column of the chains and in one
n-long buffer of split bits that every slot reuses, beside the prefixes
and the slot's draw.  A batch thus holds about n (9h + 25) bytes, the
chains, levels and starts among them, besides one slab and its
temporaries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import _MAX_BUILD_BYTES, _SLAB_BYTES, BudgetError, OrderedGraph, pair_levels, tau
from .hosts import philox_rng

DEFAULT_REPORT_BUDGET = 1 << 22  # max number of y-classes in a report


class _TilingFields(NamedTuple):
    d: int
    levels: tuple[int, ...]  # ascending subset of [1, d]
    w: int
    h: int


class TilingConfig(_TilingFields):
    """Ambient dimension, working level set, window width, chain length.

    Checked on construction; ``_replace`` and ``_make`` build the tuple
    directly and skip the checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "TilingConfig":
        self = super().__new__(cls, *args, **kwargs)
        if any(not 1 <= l <= self.d for l in self.levels):
            raise ValueError("levels must lie in [1, d]")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly ascending")
        if not 1 <= self.h <= self.w:
            raise ValueError("need 1 <= h <= w")
        if self.w >= len(self.levels):
            raise ValueError("window must be shorter than the level set")
        return self

    @property
    def L(self) -> int:
        return len(self.levels)


def _window_levels(cfg: TilingConfig, a: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The (n, h) uint8 levels of a uniform h-subset of each window (a, a + w],
    by ranking random reals drawn a slab of rows at a time, in the order one
    (n, w) draw takes them."""
    w, h = cfg.w, cfg.h
    level_table = np.asarray((0,) + cfg.levels, dtype=np.uint8)
    levels = np.empty((len(a), h), dtype=np.uint8)
    step = max(1, _SLAB_BYTES // (8 * w))
    for lo in range(0, len(a), step):
        keys = rng.random((min(step, len(a) - lo), w))
        offsets = np.sort(np.argpartition(keys, h - 1, axis=1)[:, :h], axis=1) + 1
        positions = a[lo:lo + step, None] + offsets  # 1-based positions in [L]
        levels[lo:lo + step] = level_table[positions]
    return levels


def _sample_batch(
    cfg: TilingConfig, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised sampling: returns (vertices [n, h], a [n], levels [n, h]),
    a and the levels as uint8."""
    d, L, w, h = cfg.d, cfg.L, cfg.w, cfg.h
    if d > 62:
        raise ValueError("vectorised sampler supports d <= 62")
    a = rng.integers(0, L - w, size=n)
    levels = _window_levels(cfg, a, rng)
    a = a.astype(np.uint8)  # below L - w <= 61

    z = rng.integers(0, 1 << d, size=n, dtype=np.uint64)  # shared prefix blocks
    verts = np.empty((n, h), dtype=np.uint64)
    one = np.uint64(1)
    # each slot's blocks are built in place: its split bits in one n-length
    # buffer that every slot reuses, its vertices in their column of verts
    split = np.empty(n, np.uint64)
    for t in range(h):
        np.subtract(d, levels[:, t], out=split)
        np.left_shift(one, split, out=split)  # the split bit, d - level
        wt = rng.integers(0, 1 << d, size=n, dtype=np.uint64)
        vt = verts[:, t]
        np.subtract(split, one, out=vt)
        wt &= vt  # its suffix below the split bit
        # z's prefix above the split bit, the split bit 0, and the suffix
        vt |= split
        np.invert(vt, out=vt)
        vt &= z
        vt |= wt
        del wt
        # the levels ascend, so each split bit lies above the later ones and
        # stays in z's prefix from here on
        z |= split
    return verts, a, levels


def sample_many(cfg: TilingConfig, n: int, seed: int) -> np.ndarray:
    """n sampled vertex chains as an [n, h] integer array.

    A batch whose n (9h + 25) bytes pass ``_MAX_BUILD_BYTES`` is refused
    (``BudgetError``) before anything is drawn.
    """
    if (size := n * (9 * cfg.h + 25)) > _MAX_BUILD_BYTES:
        raise BudgetError(f"{n} chains of {cfg.h} vertices need {size} bytes, over {_MAX_BUILD_BYTES}")
    verts, _, _ = _sample_batch(cfg, n, philox_rng(seed))
    return verts


def split_level_counts(cfg: TilingConfig, verts: np.ndarray) -> np.ndarray:
    """The (h - 1, d + 1) int64 table whose row t counts the chains of
    ``verts`` by the split level of their slot-t pair (v_t, v_t+1), taken a
    slab of chains (``_SLAB_BYTES``) at a time; column 0 is always 0."""
    counts = np.zeros((cfg.h - 1, cfg.d + 1), np.int64)
    step = max(1, _SLAB_BYTES // (8 * cfg.h))
    for lo in range(0, len(verts), step):
        chains = verts[lo:lo + step]
        for t, slot in enumerate(counts):
            slot += np.bincount(pair_levels(chains[:, t], chains[:, t + 1], cfg.d), minlength=cfg.d + 1)
    return counts


class LevelGuarantee(NamedTuple):
    level: int
    threshold: Fraction
    passing_pairs: int
    total_pairs: int

    @property
    def pass_fraction(self) -> Fraction:
        return Fraction(self.passing_pairs, self.total_pairs)


class GuaranteeReport(NamedTuple):
    epsilon: float
    per_level: tuple[LevelGuarantee, ...]
    passing_levels: int  # levels whose pair pass-fraction reaches 1 - epsilon

    @property
    def level_fraction(self) -> Fraction:
        return Fraction(self.passing_levels, len(self.per_level))


def _class_span(cfg: TilingConfig, kappa: int) -> tuple[int, int, int, int]:
    """(a_lo, a_hi, n_left, n_right) for the level in position kappa.

    a runs over the window starts with a < kappa <= a + w and 0 <= a < L - w
    (none for kappa = L).  y is read at the n_left positions a_lo+1..kappa-1
    and the n_right positions kappa+1..a_hi+w.
    """
    a_lo, a_hi = max(0, kappa - cfg.w), min(kappa - 1, cfg.L - cfg.w - 1)
    if a_lo > a_hi:
        return a_lo, a_hi, 0, 0
    return a_lo, a_hi, kappa - 1 - a_lo, a_hi + cfg.w - kappa


def _score_bound(pattern: OrderedGraph, w: int) -> int:
    """An upper bound on every integer ``_class_scores`` forms.

    Each binomial it reads is C(n, m) with n < w, so at most 2^(w-1); each
    term of S is at most the largest value of every factor.
    """
    h = pattern.n
    scores = sum(
        (1 << v) * w * math.comb(w - 1, u) * (w - 1) * math.comb(w - 1, v - u - 1)
        * math.comb(w - 1, h - v - 1)
        for u, v in pattern.sorted_edges()
    )
    return max(scores, 1 << (w - 1))


def _class_scores(
    pattern: OrderedGraph, cfg: TilingConfig, kappa: int, comb: np.ndarray
) -> np.ndarray:
    """S for every class of y at the level in position kappa, as int64.

    A class fixes y's bits at positions a_lo+1..kappa-1 (the row index, bit
    t for position a_lo+1+t) and kappa+1..a_hi+w (the column index, bit s
    for position kappa+1+s).  For the edge of slots i < j,

        S_ij(y) = sum_a C(ones(a+1..kappa-1), i-1)
                  * sum_{r: y_r = 0} C(ones(kappa+1..r-1), j-i-1) C(a+w-r, h-j)

    over window starts a and slot-j positions kappa < r <= a + w; S sums
    2^(j-1) S_ij over the edges.  The row and column factors are independent,
    so each slot i costs one matrix product.
    """
    w, h = cfg.w, cfg.h
    a_lo, a_hi, n_left, n_right = _class_span(cfg, kappa)
    starts = a_hi - a_lo + 1

    left_bits = (np.arange(1 << n_left)[:, None] >> np.arange(n_left)) & 1
    # ones_from[:, t]: ones at positions a_lo+1+t .. kappa-1, the count for a = a_lo + t
    ones_from = np.zeros((1 << n_left, n_left + 1), dtype=np.int64)
    ones_from[:, :n_left] = np.cumsum(left_bits[:, ::-1], axis=1)[:, ::-1]
    left_ones = ones_from[:, :starts]

    right_bits = (np.arange(1 << n_right)[:, None] >> np.arange(n_right)) & 1
    ones_before = np.cumsum(right_bits, axis=1) - right_bits  # ones at kappa+1 .. r-1
    # free positions above slot j: a + w - r for a = a_lo + t and r = kappa + 1 + s
    above = (a_lo + w - kappa - 1) + np.arange(starts)[None, :] - np.arange(n_right)[:, None]

    right_by_i: dict[int, np.ndarray] = {}
    for u, v in pattern.sorted_edges():
        i, j = u + 1, v + 1
        slot_j = (1 - right_bits) * comb[ones_before, j - i - 1]
        tail = np.where(above >= 0, comb[np.maximum(above, 0), h - j], 0)
        right = (slot_j @ tail) << (j - 1)
        right_by_i[i] = right_by_i.get(i, 0) + right
    scores = np.zeros((1 << n_left, 1 << n_right), dtype=np.int64)
    for i, right in right_by_i.items():
        scores += comb[left_ones, i - 1] @ right.T
    return scores


def tiling_guarantee_report(
    pattern: OrderedGraph,
    cfg: TilingConfig,
    epsilon: float,
    budget: int = DEFAULT_REPORT_BUDGET,
) -> GuaranteeReport:
    """Exact per-level fractions of pairs meeting the near-uniform bound.

    For each working level, every pair (x, y) splitting there is checked
    against (1 - eps) e(pattern) / (L tau_level).  The probability depends
    on x only through the split level, and on y only through the class of
    its bits at the level positions within w - 1 of the split's position.
    Over the common denominator (L - w) C(w, h) tau_level a pair passes iff
    its class score S (see ``_class_scores``) reaches one integer cut, so
    the report counts passing classes and scales each by the number of
    pairs it stands for.  ``budget`` bounds the number of classes.
    """
    if pattern.n != cfg.h:
        raise ValueError("pattern size must equal the chain length")
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    d, L, w, h = cfg.d, cfg.L, cfg.w, cfg.h
    widths = [sum(_class_span(cfg, kappa)[2:]) for kappa in range(1, L + 1)]  # class bits
    classes = sum(1 << k for k in widths)
    if classes > budget:
        raise ValueError(f"{classes} y-classes exceed budget {budget}")
    bound = _score_bound(pattern, w)
    if bound >= np.iinfo(np.int64).max:
        raise ValueError(f"class scores up to {bound} could overflow int64 (w = {w}, h = {h})")

    e_pat = pattern.num_edges()
    eps = Fraction(epsilon)
    p, q = eps.numerator, eps.denominator
    # S L q >= (q - p) e (L - w) C(w, h), and 0 <= S <= bound
    cut = -(-(q - p) * e_pat * (L - w) * math.comb(w, h) // (L * q))
    cut = min(max(cut, 0), bound + 1)
    comb = np.array([[math.comb(n, m) for m in range(h)] for n in range(w)], dtype=np.int64)
    per_level = []
    passing_levels = 0
    for kappa, (level, k) in enumerate(zip(cfg.levels, widths), start=1):
        cap = tau(level, d)
        threshold = (1 - eps) * Fraction(e_pat, L * cap)
        passing_classes = int(np.count_nonzero(_class_scores(pattern, cfg, kappa, comb) >= cut))
        # a class holds 2^(d-1-k) values of y, each paired with 2^(d-level) values of x
        passing = passing_classes << (2 * d - 1 - k - level)
        per_level.append(LevelGuarantee(level, threshold, passing, cap))
        if Fraction(passing, cap) >= 1 - eps:
            passing_levels += 1
    return GuaranteeReport(epsilon, tuple(per_level), passing_levels)
