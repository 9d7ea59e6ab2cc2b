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
tractable dimension, so all stage thresholds live in a Thresholds object:
``Thresholds.paper(eps)`` carries the literal values, ``Thresholds.desk()``
a permissive preset for machine-scale runs.  Thresholds and the pipeline's
results are NamedTuple records; ``Thresholds`` checks its values on
construction, and the extraction checks them again.  Every postcondition
is stated relative to whichever thresholds actually ran.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import NamedTuple, Optional, Union

import numpy as np

from .core import HypercubeGraph, delta_int, level_block, tau


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


class PostconditionError(RuntimeError):
    """A guarantee of the extraction pipeline failed its explicit re-check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PostconditionError(message)


def strip_top_forward(g: HypercubeGraph) -> tuple[HypercubeGraph, tuple[int, ...]]:
    """Remove each vertex's forward edges at its own highest forward level.

    Returns the stripped graph and the number of edges removed at each
    level (index 0 unused).  Removal decisions are computed on the input's
    forward masks and applied simultaneously: x's victims leave fwd[x], and
    x leaves each victim's bwd.  Only the vertices with forward edges are
    walked; their stripped forward masks are kept as edits, and the forward
    tuple is built once from them and the input's.  The backward masks are
    edited in one list copy, made a tuple before the forward tuple is
    built, so that no list is held beside both tuples.  The number removed
    at level l is at most (#vertices with top level l) times 2^(d-l), i.e.
    at most twice p_l tau_l; checked on every run (PostconditionError
    otherwise).
    """
    d, n = g.d, g.n
    fwd, bwd = g.forward_masks, list(g.backward_masks)
    edits, tops, removed = {}, [0] * (d + 1), [0] * (d + 1)
    for x, forward in zip(compress(range(n), fwd), compress(fwd, fwd)):
        # forward level blocks lie nearer x the higher their level, so the
        # least forward neighbour is at the top level, and the top level's
        # neighbours are the forward neighbours before its block ends
        level = delta_int(x, (forward & -forward).bit_length() - 1, d)
        end = level_block(x, level, d) + (1 << (d - level))
        victims = forward & ((1 << end) - 1)
        tops[level] += 1
        removed[level] += victims.bit_count()
        edits[x] = forward ^ victims
        while victims:
            low = victims & -victims
            bwd[low.bit_length() - 1] ^= 1 << x
            victims ^= low
    for level in range(1, d + 1):
        bound = tops[level] << (d - level)
        _require(removed[level] <= bound, f"removed {removed[level]} level-{level} edges, bound {bound}")
    bwd = tuple(bwd)
    return HypercubeGraph._from_masks(n, tuple(map(edits.get, range(n), fwd)), bwd), tuple(removed)


class _ThresholdFields(NamedTuple):
    rich_alpha: float  # threshold defining the working level set
    y1_value: float  # mean-f cutoff for the first vertex pool
    y1_prop: float  # required size of that pool, fraction of |V|
    f_value: float  # per-level f cutoff defining each vertex's level set
    lstar_prop: float  # required popularity of the pivot level among low halves
    y2_prop: float  # required density of the pool inside the chosen interval
    x_prop: float  # required adjacency fraction for the chosen left vertex
    final_prop: float  # popularity cutoff for the surviving level set


def _check_values(thresholds: _ThresholdFields) -> None:
    if thresholds.f_value <= 0 or thresholds.y1_value <= 0:
        raise ValueError("value thresholds must be positive")


class Thresholds(_ThresholdFields):
    """Stage thresholds for the interval-extraction pipeline.

    Values are the lower bounds each stage must meet; ``paper`` uses the
    literal constants as functions of eps, ``desk`` a permissive preset for
    dimensions a machine can hold.  All value thresholds must be positive so
    that selected vertices genuinely have backward edges: checked on
    construction and again by ``extract_rich_interval``, since ``_replace``
    and ``_make`` build the tuple directly and skip the constructor.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "Thresholds":
        self = super().__new__(cls, *args, **kwargs)
        _check_values(self)
        return self

    @classmethod
    def paper(cls, eps: float) -> "Thresholds":
        if not 0 < eps <= 1:  # eps is the working set's rich_levels alpha
            raise ValueError("eps must be in (0, 1]")
        return cls(
            rich_alpha=eps,
            y1_value=eps / 3,
            y1_prop=eps / 6,
            f_value=eps / 6,
            lstar_prop=eps / 18,
            y2_prop=eps**2 / 108,
            x_prop=eps / 6,
            final_prop=eps / 24,
        )

    @classmethod
    def desk(cls) -> "Thresholds":
        tiny = 1e-12
        return cls(
            rich_alpha=tiny,
            y1_value=tiny,
            y1_prop=0.0,
            f_value=tiny,
            lstar_prop=0.0,
            y2_prop=0.0,
            x_prop=0.0,
            final_prop=0.0,
        )


class StageFailure(NamedTuple):
    stage: str  # name of the first stage whose threshold failed
    detail: str = ""


class ExtractionTrace(NamedTuple):
    """Every intermediate set of the pipeline, for audit."""

    working_levels: tuple[int, ...]
    y1: tuple[int, ...]
    pivot_level: int
    y2: tuple[int, ...]
    interval_index: int  # index of the chosen interval at the pivot level
    x: int
    y3: tuple[int, ...]
    surviving_levels: tuple[int, ...]


class ExtractionResult(NamedTuple):
    x: int  # vertex in the left half of the parent interval I, original coordinates
    subgraph: HypercubeGraph  # on {0,1}^(d - pivot), relabelled
    rhs_base: int  # original coordinate of the smallest member of I's right half
    pivot_level: int
    certified_eta: float
    certified_rich_count: int
    trace: ExtractionTrace


def extract_rich_interval(
    g: HypercubeGraph, thresholds: Thresholds
) -> Union[ExtractionResult, StageFailure]:
    """Run the extraction pipeline; failure names the first failing stage.

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
    Y1 only because ``y1_value`` is positive: thresholds whose value
    thresholds are not, as ``_replace`` can make, raise ``ValueError``.
    """
    _check_values(thresholds)
    d, n = g.d, g.n
    vertices, table = g.level_degrees()
    working = rich_levels(table.sum(axis=1).tolist(), d, thresholds.rich_alpha)
    if len(working) < 2:
        return StageFailure("working-levels", f"only {len(working)} levels qualify")

    # a row of f per working level; every f is k / 2^j <= 1, so each one,
    # and a sum of at most d of them, is exact in floats in any order
    levels = np.array(working)
    f = table[levels] / (1 << (d - levels))[:, None]
    in_y1 = f.sum(axis=0) / len(working) >= thresholds.y1_value
    y1, f = vertices[in_y1], f[:, in_y1]
    if len(y1) < max(1, thresholds.y1_prop * n):
        return StageFailure("y1", f"|Y1| = {len(y1)}")

    # a column per vertex of Y1: its level set, whose high half is its
    # largest ceil(|L_y|/2) levels and the low half the rest
    member = f >= thresholds.f_value
    rank = member.cumsum(axis=0, dtype=np.int8)  # a rank counts at most d levels
    low = member & (rank <= rank[-1] // 2)
    high = member & ~low

    popularity = low.sum(axis=1)
    at = int(popularity.argmax())  # the least of the most popular levels
    pivot, best = working[at], int(popularity[at])
    if best < max(1, thresholds.lstar_prop * len(y1)):
        return StageFailure("pivot-level", f"best popularity {best}")

    y2 = y1[low[at]]
    width = d - pivot
    intervals, members = np.unique(y2 >> width, return_counts=True)
    j_idx = int(intervals[members.argmax()])  # the least of the fullest intervals
    inside = y2[y2 >> width == j_idx].tolist()
    if len(inside) < max(1, thresholds.y2_prop * (1 << width)):
        return StageFailure("interval", f"|Y2 ∩ J| = {len(inside)}")
    # members of Y2 have positive backward degree at the pivot level, so the
    # chosen interval is the right half of its parent
    _require(j_idx & 1 == 1, f"interval {j_idx} at the pivot level is a left half")
    base, size = j_idx << width, 1 << width  # the right half's first vertex and size
    inside_mask = sum(1 << y for y in inside)

    # the left half's vertex with most neighbours inside, the least such
    degree = {x: (g.forward(x) & inside_mask).bit_count() for x in range(base - size, base)}
    x = max(degree, key=lambda v: (degree[v], -v))
    if degree[x] < max(1, thresholds.x_prop * len(inside)):
        return StageFailure("x", f"best left-vertex degree {degree[x]}")
    y3 = [y for y in inside if g.has_edge(x, y)]
    y3_mask = sum(1 << y for y in y3)

    # how many high halves of Y3 hold each working level
    popular = high[:, np.searchsorted(y1, y3)].sum(axis=1)
    kept = popular >= max(1, thresholds.final_prop * len(y3))
    surviving, counts = levels[kept].tolist(), popular[kept].tolist()
    if len(surviving) < max(1, thresholds.final_prop * len(working)):
        return StageFailure("surviving-levels", f"{len(surviving)} levels survive")
    _require(all(level > pivot for level in surviving), "a surviving level is not above the pivot")

    if width < 1:
        return StageFailure("subgraph", "right half is a single vertex")
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
        count * math.ceil(thresholds.f_value * (1 << (d - level))) / tau(level - pivot, width)
        for level, count in zip(surviving, counts)
    )
    certified_eta = min(certified_eta, 1.0) * (1 - 1e-9)
    result = ExtractionResult(
        x=x,
        subgraph=subgraph,
        rhs_base=base,
        pivot_level=pivot,
        certified_eta=certified_eta,
        certified_rich_count=len(surviving),
        trace=ExtractionTrace(
            working_levels=tuple(working),
            y1=tuple(y1.tolist()),
            pivot_level=pivot,
            y2=tuple(y2.tolist()),
            interval_index=j_idx,
            x=x,
            y3=tuple(y3),
            surviving_levels=tuple(surviving),
        ),
    )
    _replay_postconditions(g, result)
    return result


def _replay_postconditions(g: HypercubeGraph, res: ExtractionResult) -> None:
    """Independent re-checks of the extraction guarantees (PostconditionError)."""
    sub = res.subgraph
    y3 = set(res.trace.y3)
    for v in range(sub.n):
        if sub.backward(v):  # v is the larger endpoint of an edge
            _require(v + res.rhs_base in y3 and g.has_edge(res.x, v + res.rhs_base),
                     "larger endpoint not adjacent to x")
    count = len(rich_levels(sub.level_counts(), sub.d, res.certified_eta))
    _require(count >= res.certified_rich_count,
             f"recomputed rich count {count} < certified {res.certified_rich_count}")


def embed_hk_rich(
    g: HypercubeGraph, k: int, thresholds: Optional[Thresholds] = None
) -> Optional[tuple[int, ...]]:
    """Recursively embed the staircase H_k using interval extraction.

    Base case k=1 takes the lexicographically least edge.  Otherwise strip
    top forward levels, extract (I, x, subgraph), embed H_{k-1} in the
    subgraph, lift, and prepend x together with its retained top-level
    forward neighbour y, which precedes everything in the right half.
    Returns None as soon as any stage fails.
    """
    thresholds = Thresholds.desk() if thresholds is None else thresholds
    res = extract_rich_interval(strip_top_forward(g)[0], thresholds) if k > 1 else None
    return embed_hk_extracted(g, k, res, thresholds)


def embed_hk_extracted(
    g: HypercubeGraph,
    k: int,
    res: Union[ExtractionResult, StageFailure, None],
    thresholds: Thresholds,
) -> Optional[tuple[int, ...]]:
    """``embed_hk_rich`` continued from its top-level extraction.

    ``res`` must be ``extract_rich_interval(strip_top_forward(g)[0],
    thresholds)``; it is not read when k = 1.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        # the least edge: the first vertex with a forward neighbour, and its least one
        u = next((u for u, forward in enumerate(g.forward_masks) if forward), None)
        return None if u is None else (u, (g.forward(u) & -g.forward(u)).bit_length() - 1)
    if isinstance(res, StageFailure):
        return None
    inner = embed_hk_rich(res.subgraph, k - 1, thresholds)
    if inner is None:
        return None
    lifted = tuple(v + res.rhs_base for v in inner)

    x = res.x
    forward = g.forward(x)
    y = (forward & -forward).bit_length() - 1  # at x's top forward level
    if not forward or delta_int(x, y, g.d) <= res.pivot_level or not x < y < lifted[0]:
        return None  # cannot happen when extraction succeeded; defensive
    return (x, y) + lifted
