"""Rich-level analysis and the constructive staircase-embedding pipeline.

A level is alpha-rich when its edge count reaches an alpha fraction of the
full-cube capacity.  The extraction step finds a fundamental interval I, a
vertex x in the left half, and a subgraph of the right half whose every
edge has its larger endpoint adjacent to x, while retaining many rich
levels.  Iterating it (after stripping each vertex's top forward level)
embeds the staircase pattern H_k.

The literal proportion constants make extraction impossible at any
tractable dimension, so all stage thresholds live in a Thresholds object:
``Thresholds.paper(eps)`` carries the literal values, ``Thresholds.desk()``
a permissive preset for machine-scale runs.  Every postcondition is stated
relative to whichever thresholds actually ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

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


@dataclass(frozen=True)
class StripStats:
    top_level: tuple[int, ...]  # per-vertex top forward level, 0 if none
    removed_per_level: tuple[int, ...]  # index 0 unused


def strip_top_forward(g: HypercubeGraph) -> tuple[HypercubeGraph, StripStats]:
    """Remove each vertex's forward edges at its own highest forward level.

    Removal decisions are computed on the input's forward masks and applied
    simultaneously: x's victims leave fwd[x], and x leaves each victim's bwd.
    The number removed at level l is at most (#vertices with top level l)
    times 2^(d-l), i.e. at most twice p_l tau_l; checked on every run
    (PostconditionError otherwise).
    """
    d, n = g.d, g.n
    top = [0] * n
    fwd, bwd = list(g.forward_masks), list(g.backward_masks)
    removed = [0] * (d + 1)
    for x, forward in enumerate(g.forward_masks):
        if not forward:
            continue
        # forward level blocks lie nearer x the higher their level, so the
        # least forward neighbour is at the top level, and the top level's
        # neighbours are the forward neighbours before its block ends
        level = top[x] = delta_int(x, (forward & -forward).bit_length() - 1, d)
        end = level_block(x, level, d) + (1 << (d - level))
        victims = forward & ((1 << end) - 1)
        removed[level] += victims.bit_count()
        fwd[x] ^= victims
        while victims:
            low = victims & -victims
            bwd[low.bit_length() - 1] ^= 1 << x
            victims ^= low
    for level in range(1, d + 1):
        bound = top.count(level) << (d - level)
        _require(removed[level] <= bound, f"removed {removed[level]} level-{level} edges, bound {bound}")
    stripped = HypercubeGraph._from_masks(n, tuple(fwd), tuple(bwd))
    return stripped, StripStats(tuple(top), tuple(removed))


@dataclass(frozen=True)
class Thresholds:
    """Stage thresholds for the interval-extraction pipeline.

    Values are the lower bounds each stage must meet; ``paper`` uses the
    literal constants as functions of eps, ``desk`` a permissive preset for
    dimensions a machine can hold.  All value thresholds must be positive so
    that selected vertices genuinely have backward edges.
    """

    rich_alpha: float  # threshold defining the working level set
    y1_value: float  # mean-f cutoff for the first vertex pool
    y1_prop: float  # required size of that pool, fraction of |V|
    f_value: float  # per-level f cutoff defining each vertex's level set
    lstar_prop: float  # required popularity of the pivot level among low halves
    y2_prop: float  # required density of the pool inside the chosen interval
    x_prop: float  # required adjacency fraction for the chosen left vertex
    final_prop: float  # popularity cutoff for the surviving level set

    def __post_init__(self) -> None:
        if self.f_value <= 0 or self.y1_value <= 0:
            raise ValueError("value thresholds must be positive")

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

@dataclass(frozen=True)
class StageFailure:
    stage: str  # name of the first stage whose threshold failed
    detail: str = ""


@dataclass(frozen=True)
class ExtractionTrace:
    """Every intermediate set of the pipeline, for audit."""

    working_levels: tuple[int, ...]
    y1: tuple[int, ...]
    pivot_level: int
    y2: tuple[int, ...]
    interval_index: int  # index of the chosen interval at the pivot level
    x: int
    y3: tuple[int, ...]
    surviving_levels: tuple[int, ...]


@dataclass(frozen=True)
class ExtractionResult:
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

    Stages: working level set -> Y1 (vertices with large mean backward
    density f) -> per-vertex level sets split into low/high halves -> pivot
    level maximising low-half membership -> interval with the densest Y2
    share -> left-half vertex x with most Y2 neighbours -> Y3 = its
    neighbours -> surviving levels popular among high halves -> relabelled
    subgraph of the right half.  Ties always break towards the smallest
    index so reruns are reproducible.
    """
    d, n = g.d, g.n
    back = [[]] + [g.backward_degrees(level) for level in range(1, d + 1)]
    working = rich_levels([sum(row) for row in back], d, thresholds.rich_alpha)
    if len(working) < 2:
        return StageFailure("working-levels", f"only {len(working)} levels qualify")

    # f(level, y) = backward level-degree / 2^(d - level), exact via integers
    def f(level: int, y: int) -> float:
        return back[level][y] / (1 << (d - level))

    y1 = [
        y
        for y in range(n)
        if sum(f(level, y) for level in working) / len(working) >= thresholds.y1_value
    ]
    if len(y1) < max(1, thresholds.y1_prop * n):
        return StageFailure("y1", f"|Y1| = {len(y1)}")

    level_sets = {
        y: [level for level in working if f(level, y) >= thresholds.f_value] for y in y1
    }
    # the high half is the largest ceil(|L_y|/2) levels, the low half the rest
    low_half = {y: ls[: len(ls) // 2] for y, ls in level_sets.items()}
    high_half = {y: ls[len(ls) // 2 :] for y, ls in level_sets.items()}

    popularity = {level: sum(level in low_half[y] for y in y1) for level in working}
    pivot = max(working, key=lambda level: (popularity[level], -level))
    if popularity[pivot] < max(1, thresholds.lstar_prop * len(y1)):
        return StageFailure("pivot-level", f"best popularity {popularity[pivot]}")

    y2 = [y for y in y1 if pivot in low_half[y]]
    width = d - pivot
    interval_members: dict[int, list[int]] = {}
    for y in y2:
        interval_members.setdefault(y >> width, []).append(y)
    j_idx = max(interval_members, key=lambda i: (len(interval_members[i]), -i))
    inside = interval_members[j_idx]
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

    popular_count = {level: sum(level in high_half[y] for y in y3) for level in working}
    surviving = [
        level
        for level in working
        if popular_count[level] >= max(1, thresholds.final_prop * len(y3))
    ]
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
        popular_count[level]
        * math.ceil(thresholds.f_value * (1 << (d - level)))
        / tau(level - pivot, width)
        for level in surviving
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
            y1=tuple(y1),
            pivot_level=pivot,
            y2=tuple(y2),
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
    if thresholds is None:
        thresholds = Thresholds.desk()
    res = None
    if k > 1:
        res = extract_rich_interval(strip_top_forward(g)[0], thresholds)
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
    if not forward or delta_int(x, y, g.d) <= res.pivot_level:
        return None  # cannot happen when extraction succeeded; defensive
    if not (x < y < lifted[0]):
        return None
    return (x, y) + lifted
