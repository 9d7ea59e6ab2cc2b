"""Text serialization for ordered graphs, cube graphs, and blocked hosts.

Ordered-graph format: first line "n m", then m lines "u v" with u < v.
Cube-graph format: first line "d m", then m lines with two bitstrings.
Blocked-host format: first line "d m seed", then for each nonempty block
pair a line "x y" followed by m hex-encoded rows of the m x m matrix.
All writers emit in sorted order so round-trips are byte-identical.
"""

from __future__ import annotations

import numpy as np

from .core import HypercubeGraph, OrderedGraph
from .hosts import DEFAULT_VERTEX_BUDGET, BlockedGraph


class FormatError(ValueError):
    """Malformed graph file; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


#: largest cube dimension a file may declare: the host vertex budget, which
#: also caps the m << d vertices of a blocked-host header
_MAX_CUBE_D = DEFAULT_VERTEX_BUDGET.bit_length() - 1


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


def _labels(d: int) -> list[str]:
    """The bitstring label of every vertex of {0,1}^d, in vertex order."""
    return [format(v, f"0{d}b") for v in range(1 << d)]


def dumps_hypercube(g: HypercubeGraph) -> str:
    labels = _labels(g.d)
    lines = [f"{labels[u]} {labels[v]}" for u, v in g.edges()]
    return "\n".join([f"{g.d} {len(lines)}", *lines]) + "\n"


def loads_hypercube(text: str) -> HypercubeGraph:
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        d, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'd m', got {lines[0]!r}") from None
    if not 1 <= d <= _MAX_CUBE_D:
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D}, got {d}")
    # one lookup checks a label's length and alphabet and gives its vertex
    vertex = {label: v for v, label in enumerate(_labels(d))}.get
    adj = [0] * (1 << d)
    for line_no, line in enumerate(lines[1:m + 1], 2):
        parts = line.split()
        if len(parts) != 2 or (u := vertex(parts[0])) is None or (v := vertex(parts[1])) is None:
            raise FormatError(line_no, f"expected two length-{d} bitstrings, got {line!r}")
        if u == v:
            raise FormatError(line_no, "self-loop")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if len(lines) <= m:
        raise FormatError(len(lines) + 1, f"expected {m} edge lines, file ends early")
    return HypercubeGraph(d, adj=adj)


def dumps_blocked(g: BlockedGraph) -> str:
    m = g.m
    pairs, mats = g.nonempty()
    # a row is the little-endian bit integer of its columns (column j is bit
    # j) in ceil(m/4) hex digits: reverse each row's bytes for big-endian
    # hex, then drop the leading digit, always 0, that the bytes have beyond
    # ceil(m/4) when that is odd
    packed = np.packbits(mats, axis=2, bitorder="little")[:, :, ::-1]
    row_bytes = packed.shape[2]
    rows = packed.tobytes().hex("\n", row_bytes).split("\n")
    skip = 2 * row_bytes - (m + 3) // 4
    if skip:
        rows = [row[skip:] for row in rows]
    lines = [f"{g.d} {m} {g.seed}"]
    for b, (x, y) in enumerate(pairs.tolist()):
        lines.append(f"{x} {y}")
        lines += rows[b * m:(b + 1) * m]
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
    if m << d > DEFAULT_VERTEX_BUDGET:
        raise FormatError(1, f"{m << d} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    pairs: dict[tuple[int, int], None] = {}  # insertion-ordered set
    rows: list[int] = []  # every block's rows, in file order
    i = 1
    while i < len(lines):
        try:
            x, y = (int(t) for t in lines[i].split())
        except ValueError:
            raise FormatError(i + 1, f"expected 'x y', got {lines[i]!r}") from None
        if not 0 <= x < y < (1 << d):
            raise FormatError(i + 1, f"block pair ({x}, {y}) out of range")
        if (x, y) in pairs:
            raise FormatError(i + 1, f"duplicate block pair ({x}, {y})")
        pairs[(x, y)] = None
        for line_no, line in enumerate(lines[i + 1:i + m + 1], i + 2):
            try:
                row = int(line, 16)
            except ValueError:
                raise FormatError(line_no, f"expected hex row, got {line!r}") from None
            if row >> m:
                raise FormatError(line_no, f"row has bits beyond column {m - 1}")
            rows.append(row)
        i += m + 1
        if i > len(lines):
            raise FormatError(len(lines) + 1, "block matrix truncated")
    row_bytes = (m + 7) // 8
    packed = b"".join([row.to_bytes(row_bytes, "little") for row in rows])
    bits = np.unpackbits(
        np.frombuffer(packed, dtype=np.uint8).reshape(len(pairs), m, row_bytes),
        axis=2, count=m, bitorder="little",
    ).view(bool)
    return BlockedGraph(d, m, seed, list(pairs), bits)


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
