"""Per-vertex list references for the strip, the level-degree table and the extraction.

``HypercubeGraph.level_degrees`` computes every backward level degree of
the vertices with a backward edge as one table, and ``extract_rich_interval``
runs its stages as reductions over that table.  This is the package as it
stood before the table: one list of all 2^d vertices' degrees per level,
an ``f`` closure, and dicts for the level sets, their halves, popularity
and interval membership.  Both must give the same level counts and the same
result or ``StageFailure``, field by field.  ``strip_top_forward`` is the
strip as it stood before it walked only the vertices with forward edges:
both mask tables copied to lists, every vertex visited and its top level
kept, the oracle for the strip's output and the measure of its time.
"""

from __future__ import annotations

import math
from typing import Union

from relturan.core import HypercubeGraph, delta_int, level_block, tau
from relturan.richness import (
    ExtractionResult,
    StageFailure,
    Thresholds,
    _replay_postconditions,
    _require,
    rich_levels,
)


def strip_top_forward(g: HypercubeGraph) -> tuple[HypercubeGraph, tuple[int, ...]]:
    """Remove each vertex's forward edges at its own highest forward level,
    and count the removed edges per level (index 0 unused); the removals
    are bounded per level by d scans of the per-vertex top levels."""
    d, n = g.d, g.n
    top = [0] * n
    fwd, bwd = list(g.forward_masks), list(g.backward_masks)
    removed = [0] * (d + 1)
    for x, forward in enumerate(g.forward_masks):
        if not forward:
            continue
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
    return HypercubeGraph._from_masks(n, tuple(fwd), tuple(bwd)), tuple(removed)


def backward_degrees(g: HypercubeGraph, level: int) -> list[int]:
    """Every vertex's number of backward level-``level`` neighbours, indexed by vertex."""
    d = g.d
    if not 1 <= level <= d:
        raise ValueError(f"level {level} out of range [1, {d}]")
    size = 1 << (d - level)
    block = (1 << size) - 1
    degrees = [0] * g.n
    # the vertices whose bit d - level is 1 come in runs of ``size``; a run
    # shares one level block, the run just before it
    for start in range(size, g.n, 2 * size):
        lo = level_block(start, level, d)
        degrees[start : start + size] = [
            ((mask >> lo) & block).bit_count() for mask in g.backward_masks[start : start + size]
        ]
    return degrees


def level_counts(g: HypercubeGraph) -> list[int]:
    """e_level for level = 1..d (index 0 unused)."""
    return [0] + [sum(backward_degrees(g, level)) for level in range(1, g.d + 1)]


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
    back = [[]] + [backward_degrees(g, level) for level in range(1, d + 1)]
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
        working_levels=tuple(working),
        y1=tuple(y1),
        pivot_level=pivot,
        y2=tuple(y2),
        interval_index=j_idx,
        x=x,
        y3=tuple(y3),
        surviving_levels=tuple(surviving),
        certified_eta=certified_eta,
        subgraph=subgraph,
    )
    _replay_postconditions(g, result)
    return result
