"""Rich-level analysis and the constructive staircase-embedding pipeline.

A level is alpha-rich when its edge count reaches an alpha fraction of the
full-cube capacity.  The extraction step finds a fundamental interval I, a
vertex x in the left half, and a subgraph of the right half whose every
edge has its larger endpoint adjacent to x, while retaining many rich
levels.  Iterating it (after stripping each vertex's top forward level)
embeds the staircase pattern H_k.  Every level statistic it reads, the
working levels' counts and each vertex's backward level degrees, comes
from one table, ``HypercubeGraph.level_degrees``.

The literal proportion constants make extraction impossible at any
tractable dimension, so the pipeline takes one eps: ``thresholds(eps)``
gives the paper's stage thresholds as functions of it, and without eps a
permissive desk preset for machine-scale runs.  The thresholds and the
pipeline's results are NamedTuple records: an extraction gives one
``ExtractionResult``, each stage's output once, or the ``StageFailure`` of
the first stage that failed.  Every postcondition is stated relative to
whichever thresholds actually ran, and a broken one raises
``PostconditionError``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import HypercubeGraph, PostconditionError, _nonzero_indices, delta_int, level_block, tau


def rich_levels(counts: list[int], d: int, alpha: float, m: int = 1) -> list[int]:
    """The alpha-rich levels, ascending: count_l >= alpha * tau_l * m * m in floats.

    The product is a double rounded at each step, not alpha tau_l m^2
    exactly: at alpha = 0.1, d = 4, level 4 and m = 5 it is 20.0, though 0.1
    times 200 is exactly 20.0000000000000011..., so a count of 20 is rich.
    ``bench/oracles.py`` compares the same way.  ``counts`` are per-level
    edge counts (index 0 unused) of a cube graph (m = 1) or a blocked host
    on {0,1}^d x [m].
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    return [level for level in range(1, d + 1) if counts[level] >= alpha * tau(level, d) * m * m]


def average_richness(level_counts: list[int], d: int, m: int = 1) -> Fraction:
    """(1/d) sum_l e_l / (tau_l m^2): each level's count against its capacity.

    A blocked host on {0,1}^d x [m] has tau_l m^2 vertex pairs at level l; a
    cube graph is the case m = 1.  The complete host gives exactly 1.
    """
    return sum(
        Fraction(level_counts[level], tau(level, d) * m * m) for level in range(1, d + 1)
    ) / d


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PostconditionError(message)


def strip_top_forward(g: HypercubeGraph) -> tuple[HypercubeGraph, tuple[int, ...]]:
    """Remove each vertex's forward edges at its own highest forward level.

    Returns the stripped graph and the number of edges removed at each
    level (index 0 unused).  Removal decisions are computed on the input's
    forward masks and applied simultaneously: x's victims leave fwd[x], and
    x leaves each victim's bwd.  Only the vertices with forward edges are
    walked; the forward tuple is built once from their stripped forward
    masks, kept in order, and the zeros of the vertices between.
    Neither step makes an int per vertex: under tracemalloc a d = 21 strip
    spent 6.6 s on those of ``range(n)``.  The backward masks are edited in
    one list copy, made a tuple before the forward tuple is built, so that
    no list is held beside both tuples.  The number removed at level l is
    at most (#vertices with top level l) times 2^(d-l), i.e. at most twice
    p_l tau_l; checked on every run (PostconditionError otherwise).
    """
    d, n = g.d, g.n
    fwd, bwd = g.forward_masks, list(g.backward_masks)
    pieces, lo, tops, removed = [], 0, [0] * (d + 1), [0] * (d + 1)
    for x, forward in zip(_nonzero_indices(fwd).tolist(), compress(fwd, fwd)):
        # forward level blocks lie nearer x the higher their level, so the
        # least forward neighbour is at the top level, and the top level's
        # neighbours are the forward neighbours before its block ends
        level = delta_int(x, (forward & -forward).bit_length() - 1, d)
        end = level_block(x, level, d) + (1 << (d - level))
        victims = forward & ((1 << end) - 1)
        tops[level] += 1
        removed[level] += victims.bit_count()
        # the stripped mask, after the zeros of the vertices since the last one walked
        pieces += repeat(0, x - lo), (forward ^ victims,)
        lo = x + 1
        while victims:
            low = victims & -victims
            bwd[low.bit_length() - 1] ^= 1 << x
            victims ^= low
    for level in range(1, d + 1):
        bound = tops[level] << (d - level)
        _require(removed[level] <= bound, f"removed {removed[level]} level-{level} edges, bound {bound}")
    bwd = tuple(bwd)
    pieces.append(repeat(0, n - lo))
    return HypercubeGraph._from_masks(n, tuple(chain.from_iterable(pieces)), bwd), tuple(removed)


class Thresholds(NamedTuple):
    """Stage thresholds for the interval-extraction pipeline: the lower
    bound each stage must meet."""

    rich_alpha: float  # threshold defining the working level set
    y1_value: float  # mean-f cutoff for the first vertex pool
    y1_prop: float  # required size of that pool, fraction of |V|
    f_value: float  # per-level f cutoff defining each vertex's level set
    lstar_prop: float  # required popularity of the pivot level among low halves
    y2_prop: float  # required density of the pool inside the chosen interval
    x_prop: float  # required adjacency fraction for the chosen left vertex
    final_prop: float  # popularity cutoff for the surviving level set


def thresholds(eps: Optional[float] = None) -> Thresholds:
    """The paper's literal thresholds at eps in (0, 1], or without eps the
    desk preset, permissive enough to succeed at dimensions a machine can
    hold.  Both value thresholds are positive in each, so the vertices
    selected genuinely have backward edges."""
    if eps is None:
        tiny = 1e-12
        return Thresholds(tiny, tiny, 0.0, tiny, 0.0, 0.0, 0.0, 0.0)
    if not 0 < eps <= 1:  # eps is the working set's rich_levels alpha
        raise ValueError("eps must be in (0, 1]")
    return Thresholds(eps, eps / 3, eps / 6, eps / 6, eps / 18, eps**2 / 108, eps / 6, eps / 24)


class StageFailure(NamedTuple):
    stage: str  # name of the first stage whose threshold failed
    detail: str = ""


class ExtractionResult(NamedTuple):
    """Every stage's output, for audit, then the certificate and the subgraph.

    The right half of I starts at ``interval_index << subgraph.d``, and the
    certified rich-level count is ``len(surviving_levels)``.
    """

    working_levels: tuple[int, ...]
    y1: tuple[int, ...]
    pivot_level: int
    y2: tuple[int, ...]
    interval_index: int  # index of I's right half among the intervals at the pivot level
    x: int  # vertex in the left half of I, original coordinates
    y3: tuple[int, ...]
    surviving_levels: tuple[int, ...]
    certified_eta: float
    subgraph: HypercubeGraph  # on {0,1}^(d - pivot), relabelled


def extract_rich_interval(
    g: HypercubeGraph, eps: Optional[float] = None
) -> Union[ExtractionResult, StageFailure]:
    """Run the extraction pipeline under ``thresholds(eps)``; failure names
    the first failing stage.

    Every stage reads ``g.level_degrees()``, the table of backward level
    degrees of the vertices with a backward edge, through
    f = degree / 2^(d - level): working levels (the table's alpha-rich row
    sums) -> Y1 (vertices whose mean f over the working levels is large) ->
    each vertex's level set (the working levels where its f is large) split
    into low and high halves, a boolean row per level -> pivot level in
    most low halves -> interval of the pivot level holding most of Y2 (the
    vertices with the pivot in their low half) -> left-half vertex x with
    most neighbours there -> Y3 = those neighbours -> surviving levels in
    many high halves of Y3 -> relabelled subgraph of the right half.  Ties
    always break towards the smallest index so reruns are reproducible.
    A vertex with no backward edge has mean f 0, so it can be left out of
    Y1 because ``y1_value`` is positive.  The result holds each stage's
    output, the certified eta and the subgraph; its guarantees are replayed
    before it is returned.
    """
    t = thresholds(eps)
    d, n = g.d, g.n
    vertices, table = g.level_degrees()
    working = rich_levels(table.sum(axis=1).tolist(), d, t.rich_alpha)
    if len(working) < 2:
        return StageFailure("working-levels", f"only {len(working)} levels qualify")

    # a row of f per working level; every f is k / 2^j <= 1, so each one,
    # and a sum of at most d of them, is exact in floats in any order
    levels = np.array(working)
    f = table[levels] / (1 << (d - levels))[:, None]
    in_y1 = f.sum(axis=0) / len(working) >= t.y1_value
    y1, f = vertices[in_y1], f[:, in_y1]
    if len(y1) < max(1, t.y1_prop * n):
        return StageFailure("y1", f"|Y1| = {len(y1)}")

    # a column per vertex of Y1: its level set, whose high half is its
    # largest ceil(|L_y|/2) levels and the low half the rest
    member = f >= t.f_value
    rank = member.cumsum(axis=0, dtype=np.int8)  # a rank counts at most d levels
    low = member & (rank <= rank[-1] // 2)
    high = member & ~low

    popularity = low.sum(axis=1)
    at = int(popularity.argmax())  # the least of the most popular levels
    pivot, best = working[at], int(popularity[at])
    if best < max(1, t.lstar_prop * len(y1)):
        return StageFailure("pivot-level", f"best popularity {best}")

    y2 = y1[low[at]]
    width = d - pivot
    intervals, members = np.unique(y2 >> width, return_counts=True)
    j_idx = int(intervals[members.argmax()])  # the least of the fullest intervals
    inside = y2[y2 >> width == j_idx].tolist()
    if len(inside) < max(1, t.y2_prop * (1 << width)):
        return StageFailure("interval", f"|Y2 ∩ J| = {len(inside)}")
    # members of Y2 have positive backward degree at the pivot level, so the
    # chosen interval is the right half of its parent
    _require(j_idx & 1 == 1, f"interval {j_idx} at the pivot level is a left half")
    base, size = j_idx << width, 1 << width  # the right half's first vertex and size
    inside_mask = sum(1 << y for y in inside)

    # the left half's vertex with most neighbours inside, the least such
    degree = {x: (g.forward(x) & inside_mask).bit_count() for x in range(base - size, base)}
    x = max(degree, key=lambda v: (degree[v], -v))
    if degree[x] < max(1, t.x_prop * len(inside)):
        return StageFailure("x", f"best left-vertex degree {degree[x]}")
    y3 = [y for y in inside if g.has_edge(x, y)]
    y3_mask = sum(1 << y for y in y3)

    # how many high halves of Y3 hold each working level
    popular = high[:, np.searchsorted(y1, y3)].sum(axis=1)
    kept = popular >= max(1, t.final_prop * len(y3))
    surviving, counts = levels[kept].tolist(), popular[kept].tolist()
    if len(surviving) < max(1, t.final_prop * len(working)):
        return StageFailure("surviving-levels", f"{len(surviving)} levels survive")
    # at least one level survives, each above the pivot, so the right half has two vertices or more
    _require(all(level > pivot for level in surviving), "a surviving level is not above the pivot")

    # the subgraph keeps the edges of the right half whose larger endpoint is
    # in Y3: w's forward neighbours in Y3 and, for w in Y3, its backward
    # neighbours in the right half, relabelled by the base
    rhs = slice(base, base + size)
    rhs_mask = ((1 << size) - 1) << base
    sub_fwd = tuple((mask & y3_mask) >> base for mask in g.forward_masks[rhs])
    sub_bwd = tuple(
        (mask & rhs_mask) >> base if (y3_mask >> w) & 1 else 0
        for w, mask in enumerate(g.backward_masks[rhs], base)
    )
    subgraph = HypercubeGraph._from_masks(size, sub_fwd, sub_bwd)

    # each counted vertex contributes an integer backward degree of at least
    # ceil(f_value * 2^(d - level)); the implied richness of the extracted
    # subgraph is the worst such guarantee over surviving levels (scaled a
    # hair down so float rounding cannot overshoot the integer counts)
    certified_eta = min(
        count * math.ceil(t.f_value * (1 << (d - level))) / tau(level - pivot, width)
        for level, count in zip(surviving, counts)
    )
    certified_eta = min(certified_eta, 1.0) * (1 - 1e-9)
    result = ExtractionResult(
        working_levels=tuple(working),
        y1=tuple(y1.tolist()),
        pivot_level=pivot,
        y2=tuple(y2.tolist()),
        interval_index=j_idx,
        x=x,
        y3=tuple(y3),
        surviving_levels=tuple(surviving),
        certified_eta=certified_eta,
        subgraph=subgraph,
    )
    _replay_postconditions(g, result)
    return result


def _replay_postconditions(g: HypercubeGraph, res: ExtractionResult) -> None:
    """Independent re-checks of the extraction guarantees (PostconditionError)."""
    sub = res.subgraph
    base, y3 = res.interval_index << sub.d, set(res.y3)
    for v in range(base, base + sub.n):
        if sub.backward(v - base):  # v is the larger endpoint of an edge
            _require(v in y3 and g.has_edge(res.x, v), "larger endpoint not adjacent to x")
    count = len(rich_levels(sub.level_counts(), sub.d, res.certified_eta))
    _require(count >= len(res.surviving_levels),
             f"recomputed rich count {count} < certified {len(res.surviving_levels)}")


def embed_hk_rich(
    g: HypercubeGraph, k: int, eps: Optional[float] = None
) -> Optional[tuple[int, ...]]:
    """Recursively embed the staircase H_k using interval extraction.

    Base case k=1 takes the lexicographically least edge.  Otherwise strip
    top forward levels, extract (I, x, subgraph), embed H_{k-1} in the
    subgraph, lift, and prepend x together with its retained top-level
    forward neighbour y, which precedes everything in the right half.
    Returns None as soon as any stage fails.  Every extraction runs under
    ``thresholds(eps)``.
    """
    res = extract_rich_interval(strip_top_forward(g)[0], eps) if k > 1 else None
    return embed_hk_extracted(g, k, res, eps)


def embed_hk_extracted(
    g: HypercubeGraph,
    k: int,
    res: Union[ExtractionResult, StageFailure, None],
    eps: Optional[float] = None,
) -> Optional[tuple[int, ...]]:
    """``embed_hk_rich`` continued from its top-level extraction.

    ``res`` must be ``extract_rich_interval(strip_top_forward(g)[0], eps)``;
    it is not read when k = 1.  That extraction's x has a top forward
    neighbour in ``g`` above the pivot level and before the right half; a
    result whose x has none raises PostconditionError.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        # the least edge: the first vertex with a forward neighbour, and its least one
        u = next((u for u, forward in enumerate(g.forward_masks) if forward), None)
        return None if u is None else (u, (g.forward(u) & -g.forward(u)).bit_length() - 1)
    if isinstance(res, StageFailure):
        return None
    inner = embed_hk_rich(res.subgraph, k - 1, eps)
    if inner is None:
        return None
    base = res.interval_index << res.subgraph.d
    lifted = tuple(v + base for v in inner)

    x = res.x
    forward = g.forward(x)
    y = (forward & -forward).bit_length() - 1  # at x's top forward level
    _require(forward != 0 and delta_int(x, y, g.d) > res.pivot_level and x < y < lifted[0],
             f"x = {x} has no top forward neighbour above the pivot level before the right half")
    return (x, y) + lifted
