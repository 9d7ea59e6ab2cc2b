"""Text serialization for ordered graphs, cube graphs, and blocked hosts.

Ordered-graph format: first line "n m", then m lines "u v" with u < v.
Cube-graph format: first line "d m", then m lines with two bitstrings.
Blocked-host format: first line "d m seed", then for each nonempty block
pair a line "x y" followed by m hex-encoded rows of the m x m matrix.
All writers emit in sorted order so round-trips are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .core import BitString, HypercubeGraph, OrderedGraph
from .hosts import BlockedGraph


class FormatError(ValueError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def dumps_ordered(g: OrderedGraph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def loads_ordered(text: str) -> OrderedGraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        n, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'n m', got {lines[0]!r}") from None
    edges = []
    for i in range(1, m + 1):
        if i >= len(lines):
            raise FormatError(i + 1, f"expected {m} edge lines, file ends early")
        try:
            u, v = (int(t) for t in lines[i].split())
        except ValueError:
            raise FormatError(i + 1, f"expected 'u v', got {lines[i]!r}") from None
        if not 0 <= u < v < n:
            raise FormatError(i + 1, f"edge ({u}, {v}) violates 0 <= u < v < {n}")
        edges.append((u, v))
    try:
        return OrderedGraph(n, edges)
    except ValueError as exc:
        raise FormatError(1, str(exc)) from None


def dumps_hypercube(g: HypercubeGraph) -> str:
    edge_list = sorted(g.edges())
    lines = [f"{g.d} {len(edge_list)}"]
    lines.extend(
        f"{BitString(g.d, u)} {BitString(g.d, v)}" for u, v in edge_list
    )
    return "\n".join(lines) + "\n"


def loads_hypercube(text: str) -> HypercubeGraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        d, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'd m', got {lines[0]!r}") from None
    edges = []
    for i in range(1, m + 1):
        if i >= len(lines):
            raise FormatError(i + 1, f"expected {m} edge lines, file ends early")
        parts = lines[i].split()
        if len(parts) != 2 or any(len(p) != d or set(p) - {"0", "1"} for p in parts):
            raise FormatError(i + 1, f"expected two length-{d} bitstrings, got {lines[i]!r}")
        u, v = (int(p, 2) for p in parts)
        if u == v:
            raise FormatError(i + 1, "self-loop")
        edges.append((u, v))
    return HypercubeGraph(d, edges)


def dumps_blocked(g: BlockedGraph) -> str:
    width = (g.m + 3) // 4
    lines = [f"{g.d} {g.m} {g.seed}"]
    for (x, y) in sorted(g.blocks):
        mat = g.blocks[(x, y)]
        if not mat.any():
            continue
        lines.append(f"{x} {y}")
        # each row as a little-endian bit integer: column j is bit j
        for row in np.packbits(mat, axis=1, bitorder="little"):
            lines.append(f"{int.from_bytes(row.tobytes(), 'little'):0{width}x}")
    return "\n".join(lines) + "\n"


def loads_blocked(text: str) -> BlockedGraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        d, m, seed = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'd m seed', got {lines[0]!r}") from None
    if d < 1 or m < 1:
        raise FormatError(1, "need d >= 1 and m >= 1")
    blocks: dict[tuple[int, int], np.ndarray] = {}
    i = 1
    while i < len(lines):
        try:
            x, y = (int(t) for t in lines[i].split())
        except ValueError:
            raise FormatError(i + 1, f"expected 'x y', got {lines[i]!r}") from None
        if not 0 <= x < y < (1 << d):
            raise FormatError(i + 1, f"block pair ({x}, {y}) out of range")
        if (x, y) in blocks:
            raise FormatError(i + 1, f"duplicate block pair ({x}, {y})")
        mat = np.zeros((m, m), dtype=bool)
        for r in range(m):
            i += 1
            if i >= len(lines):
                raise FormatError(i + 1, "block matrix truncated")
            try:
                val = int(lines[i], 16)
            except ValueError:
                raise FormatError(i + 1, f"expected hex row, got {lines[i]!r}") from None
            if val >> m:
                raise FormatError(i + 1, f"row has bits beyond column {m - 1}")
            for j in range(m):
                if (val >> j) & 1:
                    mat[r, j] = True
        blocks[(x, y)] = mat
        i += 1
    return BlockedGraph(d, m, seed, blocks)


def write_blocked(path, g: BlockedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_blocked(g))


def read_blocked(path) -> BlockedGraph:
    with open(path) as fh:
        return loads_blocked(fh.read())


def write_ordered(path, g: OrderedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_ordered(g))


def read_ordered(path) -> OrderedGraph:
    with open(path) as fh:
        return loads_ordered(fh.read())


def write_hypercube(path, g: HypercubeGraph) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_hypercube(g))


def read_hypercube(path) -> HypercubeGraph:
    with open(path) as fh:
        return loads_hypercube(fh.read())
