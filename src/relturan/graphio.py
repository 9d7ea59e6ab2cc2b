"""Text serialization for ordered graphs, cube graphs, and blocked hosts.

Ordered-graph format: first line "n m", then m lines "u v" with u < v.
Cube-graph format: first line "d m", then m lines with two bitstrings.
Blocked-host format: first line "d m seed", then for each nonempty block
pair a line "x y" followed by m hex-encoded rows of the m x m matrix.
All writers emit in sorted order so round-trips are byte-identical.

Cube and blocked-host files laid out exactly as the writers lay them out are
decoded as whole numpy arrays; every other file goes through the per-line
readers, the only code that raises ``FormatError``.
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
    lines = [f"{g.n} {g.num_edges()}"]
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
    if not 0 <= n <= DEFAULT_VERTEX_BUDGET or m < 0:
        raise FormatError(1, f"need 0 <= n <= {DEFAULT_VERTEX_BUDGET} and m >= 0, got {lines[0]!r}")
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


#: rows per slab of the cube decoder's layout check
_SLAB = 1 << 16


def _label_bytes(d: int) -> np.ndarray:
    """(2^d, d) uint8 table: row v is v's bitstring label in ASCII "0"/"1"."""
    big_endian = np.arange(1 << d, dtype=">u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(big_endian, axis=1)[:, 32 - d:] | ord("0")


def dumps_hypercube(g: HypercubeGraph) -> str:
    d = g.d
    # the forward neighbours v > u of u are the set bits of adj[u] >> (u + 1):
    # lay those masks end to end as little-endian bytes and unpack them once
    forward = [mask >> u >> 1 for u, mask in enumerate(g.adj)]
    sizes = [(f.bit_length() + 7) // 8 for f in forward]
    packed = b"".join([f.to_bytes(size, "little") for f, size in zip(forward, sizes)])
    offsets = np.cumsum([0, *sizes[:-1]]) * 8  # first bit of each vertex's mask
    bits = np.flatnonzero(np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little"))
    us = np.searchsorted(offsets, bits, side="right") - 1
    vs = bits - offsets[us] + us + 1
    head = f"{d} {len(bits)}\n".encode()
    out = np.empty(len(head) + len(bits) * (2 * d + 2), np.uint8)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    lines = out[len(head):].reshape(len(bits), 2 * d + 2)
    labels = _label_bytes(d)
    lines[:, :d] = labels[us]
    lines[:, d] = ord(" ")
    lines[:, d + 1:-1] = labels[vs]
    lines[:, -1] = ord("\n")
    return str(out, "ascii")


def loads_hypercube(text: str) -> HypercubeGraph:
    """Decode a cube-graph file.

    When the header line ends in "\\n" and the first m edge lines are laid out
    exactly as ``dumps_hypercube`` writes them, they are decoded as one byte
    array.  Any other file goes to the per-line reader, which alone raises
    ``FormatError``, so what a file means and how it fails do not depend on
    the path taken.
    """
    start = text.find("\n") + 1  # of the first edge line; 0 if there is none
    head = text[:start - 1] if start else text
    try:
        d, m = (int(t) for t in head.split())
    except ValueError:
        return _loads_hypercube_lines(text)
    width = 2 * d + 2  # two labels, a space and a newline
    if not (start and text.isascii() and head.splitlines() == [head]
            and 1 <= d <= _MAX_CUBE_D and 0 <= m * width <= len(text) - start):
        return _loads_hypercube_lines(text)
    rows = np.frombuffer(text.encode("ascii"), np.uint8, m * width, start)
    rows = rows.reshape(m, width)
    # on a label column b | 1 == ord("1") holds for exactly the bytes "0" and
    # "1"; the separator and line-end columns are masked with 0 and must match
    # exactly.  Checked a slab of rows at a time, so that no temporary is as
    # large as the file
    mask = np.ones(width, np.uint8)
    mask[[d, -1]] = 0
    layout = np.full(width, ord("1"), np.uint8)
    layout[d] = ord(" ")
    layout[-1] = ord("\n")
    if not all(((rows[i:i + _SLAB] | mask) == layout).all() for i in range(0, m, _SLAB)):
        return _loads_hypercube_lines(text)
    u = np.zeros(m, np.int32)
    v = np.zeros(m, np.int32)
    for i in range(d):
        u <<= 1
        u += rows[:, i]
        v <<= 1
        v += rows[:, d + 1 + i]
    # each label byte is ord("0") plus its bit
    u -= ord("0") * ((1 << d) - 1)
    v -= ord("0") * ((1 << d) - 1)
    del rows
    if (u == v).any():  # the per-line reader names the first one
        return _loads_hypercube_lines(text)
    n = 1 << d
    # both orientations of every edge as sorted keys u << d | v: each vertex's
    # neighbours are one run, found by searchsorted
    keys = np.concatenate([u.astype(np.int64) << d | v, v.astype(np.int64) << d | u])
    del u, v
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) << d)
    adj = [0] * n
    mark = np.zeros(n, bool)
    for x in np.flatnonzero(np.diff(bounds)).tolist():
        nbrs = keys[bounds[x]:bounds[x + 1]] & (n - 1)
        mark[nbrs] = True
        adj[x] = int.from_bytes(np.packbits(mark[:nbrs[-1] + 1], bitorder="little").tobytes(), "little")
        mark[nbrs] = False
    return HypercubeGraph(d, adj=adj)


def _loads_hypercube_lines(text: str) -> HypercubeGraph:
    """The per-line cube-graph reader: any spacing ``str.split`` takes and any
    line break ``str.splitlines`` takes; the only source of ``FormatError``."""
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        d, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'd m', got {lines[0]!r}") from None
    if not 1 <= d <= _MAX_CUBE_D:
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D}, got {d}")
    if m < 0:  # lines[1:m + 1] would drop lines from the end
        raise FormatError(1, f"need m >= 0, got {m}")
    # one lookup checks a label's length and alphabet and gives its vertex
    vertex = {format(v, f"0{d}b"): v for v in range(1 << d)}.get
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


#: hex digit value of each byte; 16 for bytes that are not lowercase hex digits
_NIBBLE = np.full(256, 16, np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def _pair_array(pair_lines: list[str]) -> np.ndarray | None:
    """The (P, 2) int64 array of block-pair lines that are each two runs of
    1-18 ASCII digits around one space, or None if any line is not."""
    joined = "\n".join(pair_lines)
    if not (pair_lines and joined.isascii()):
        return None
    chars = np.frombuffer(joined.encode("ascii"), np.uint8)
    is_sep = (chars == ord(" ")) | (chars == ord("\n"))
    sep = np.flatnonzero(is_sep)
    # the join put P - 1 newlines in, so P spaces at every other separator
    # make the separators alternate: one space on each line
    if len(sep) != 2 * len(pair_lines) - 1 or (chars[sep[0::2]] != ord(" ")).any():
        return None
    digits = np.diff(sep, prepend=-1, append=len(chars)) - 1
    if not (((1 <= digits) & (digits <= 18)).all() and (is_sep | (chars - ord("0") < 10)).all()):
        return None
    return np.fromstring(joined, dtype=np.int64, sep=" ").reshape(-1, 2)


def loads_blocked(text: str) -> BlockedGraph:
    """Decode a blocked-host file.

    When every block-pair line is "x y" in decimal, every pair is in range
    and listed once, and every row is exactly ceil(m/4) lowercase hex digits
    with no bit beyond column m - 1, the file is decoded as whole arrays.
    Any other file goes to the per-line reader, which alone raises
    ``FormatError``.
    """
    lines = text.splitlines()
    try:
        d, m, seed = (int(t) for t in lines[0].split())
    except (IndexError, ValueError):
        return _loads_blocked_lines(text)
    stride = m + 1  # a pair line and its m rows
    if not 1 <= d <= _MAX_CUBE_D or m < 1 or m << d > DEFAULT_VERTEX_BUDGET or (len(lines) - 1) % stride:
        return _loads_blocked_lines(text)
    pairs = _pair_array(lines[1::stride])
    if pairs is None:
        return _loads_blocked_lines(text)
    x, y = pairs.T
    if not ((0 <= x) & (x < y) & (y < 1 << d)).all() or len(np.unique(x << d | y)) < len(x):
        return _loads_blocked_lines(text)
    rows = lines[1:]
    del rows[::stride]
    width = (m + 3) // 4
    hex_rows = "".join(rows)
    if set(map(len, rows)) != {width} or not hex_rows.isascii():
        return _loads_blocked_lines(text)
    nibbles = _NIBBLE[np.frombuffer(hex_rows.encode("ascii"), np.uint8)].reshape(-1, width)
    if (nibbles > 15).any():
        return _loads_blocked_lines(text)
    # a row is the big-endian hex of its little-endian column bits: reverse
    # the nibbles, pad them to whole bytes and pair them, low nibble first
    nibbles = nibbles[:, ::-1]
    if width % 2:
        nibbles = np.pad(nibbles, ((0, 0), (0, 1)))
    packed = nibbles[:, 0::2] | nibbles[:, 1::2] << 4
    if m % 8 and (packed[:, -1] >> m % 8).any():  # bits beyond column m - 1
        return _loads_blocked_lines(text)
    bits = np.unpackbits(packed, axis=1, count=m, bitorder="little").view(bool)
    return BlockedGraph(d, m, seed, pairs, bits.reshape(-1, m, m))


def _loads_blocked_lines(text: str) -> BlockedGraph:
    """The per-line blocked-host reader: any row ``int(row, 16)`` takes; the
    only source of ``FormatError``."""
    lines = text.splitlines()
    if not lines:
        raise FormatError(1, "empty file")
    try:
        d, m, seed = (int(t) for t in lines[0].split())
    except ValueError:
        raise FormatError(1, f"expected 'd m seed', got {lines[0]!r}") from None
    if not 1 <= d <= _MAX_CUBE_D or m < 1:  # before m << d, a 2^d-bit integer
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D} and m >= 1")
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
