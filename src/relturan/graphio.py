"""Text serialization for ordered graphs, cube graphs, and blocked hosts.

Ordered-graph format: first line "n m", then m lines "u v" with u < v.
Cube-graph format: first line "d m", then m lines with two bitstrings.
Blocked-host format: first line "d m seed", then for each nonempty block
pair a line "x y" followed by m hex-encoded rows of the m x m matrix.
All writers emit in sorted order so round-trips are byte-identical.

The two bulk formats are written as fixed-width byte records in one
uint8 array, with no Python string per line:

- a cube edge line is a record of 2d + 2 bytes: u's label, " ", v's label
  and "\n", where a label is d bytes "0"/"1", most significant bit first;
- a blocked-host row line is a record of ceil(m/4) + 1 bytes: the row's
  lowercase hex digits and "\n".  The "x y" line before each block's m
  rows is the one line of varying width.

A file is decoded as whole numpy arrays when it is ASCII, its header line
ends in "\n" and holds no other line break, and its lines are laid out
exactly as these records: the first m edge lines of a cube file; every
line of a blocked-host file, which then ends in "\n", with each "x y" line
two runs of decimal digits around one space.  Every other file goes
through the per-line readers, the only code that raises ``FormatError``,
so what a file means and how it fails do not depend on the path taken.
"""

from __future__ import annotations

import math

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


#: bytes per slab of the cube decoder's layout check, so that no temporary
#: is as large as the file
_SLAB_BYTES = 1 << 20


def _label_fields(d: int) -> np.ndarray:
    """(2^d,) V{d + 1} table: entry v is v's bitstring label in ASCII "0"/"1"
    and one more byte, left 0."""
    big_endian = np.arange(1 << d, dtype=">u4").view(np.uint8).reshape(-1, 4)
    fields = np.zeros((1 << d, d + 1), np.uint8)
    np.bitwise_or(np.unpackbits(big_endian, axis=1)[:, 32 - d:], ord("0"), out=fields[:, :d])
    return fields.view(f"V{d + 1}").ravel()


def _encode_hypercube(g: HypercubeGraph) -> np.ndarray:
    """The cube-graph file as a uint8 array: the header, then one record of
    2d + 2 bytes per edge."""
    d = g.d
    # the forward neighbours v > u of u are the set bits of fwd[u] >> (u + 1):
    # lay those masks end to end as little-endian bytes and unpack them once
    forward = [mask >> u >> 1 for u, mask in enumerate(g.forward_masks)]
    sizes = [(f.bit_length() + 7) // 8 for f in forward]
    packed = b"".join([f.to_bytes(size, "little") for f, size in zip(forward, sizes)])
    bits = np.flatnonzero(np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little"))
    counts = [f.bit_count() for f in forward]
    us = np.repeat(np.arange(len(forward)), counts)
    # bit b of the unpacked masks, in u's mask that starts at bit offsets[u],
    # is v = b - offsets[u] + u + 1
    offsets = np.cumsum([0, *sizes[:-1]]) * 8
    vs = bits - np.repeat(offsets - np.arange(len(forward)) - 1, counts)
    head = f"{d} {len(bits)}\n".encode()
    out = np.empty(len(head) + len(bits) * (2 * d + 2), np.uint8)
    out[:len(head)] = np.frombuffer(head, np.uint8)
    # a record is two (d + 1)-byte fields, u's label and " ", then v's label
    # and "\n": each label is gathered as one opaque V{d + 1} value, then the
    # byte after it is set
    fields = _label_fields(d)
    records = out[len(head):].view(fields.dtype).reshape(-1, 2)
    records[:, 0] = fields[us]
    records[:, 1] = fields[vs]
    lines = out[len(head):].reshape(-1, 2 * d + 2)
    lines[:, d] = ord(" ")
    lines[:, -1] = ord("\n")
    return out


def dumps_hypercube(g: HypercubeGraph) -> str:
    return str(_encode_hypercube(g), "ascii")


def _cube_layout_ok(buf: bytes, start: int, m: int, d: int) -> bool:
    """Whether the m records of 2d + 2 bytes from ``buf[start]`` on are each
    two labels of "0"/"1" bytes around " " and ending in "\n"."""
    width = 2 * d + 2
    # on a label column b | 1 == ord("1") holds for exactly the bytes "0" and
    # "1"; the separator and line-end columns are masked with 0 and must match
    # exactly
    mask = np.ones(width, np.uint8)
    mask[[d, -1]] = 0
    layout = np.full(width, ord("1"), np.uint8)
    layout[d] = ord(" ")
    layout[-1] = ord("\n")
    # the layout repeats every lcm(width, 8) bytes: check whole periods as
    # uint64 words, a slab at a time, and the records after them as bytes
    period = math.lcm(width, 8)
    whole = m * width // period
    words = np.frombuffer(buf, np.uint64, whole * period // 8, start).reshape(whole, period // 8)
    mask_words = np.tile(mask, period // width).view(np.uint64)
    layout_words = np.tile(layout, period // width).view(np.uint64)
    slab = max(1, _SLAB_BYTES // period)
    if not all(((words[i:i + slab] | mask_words) == layout_words).all()
               for i in range(0, whole, slab)):
        return False
    rest = np.frombuffer(buf, np.uint8, m * width - whole * period, start + whole * period)
    return bool(((rest.reshape(-1, width) | mask) == layout).all())


def loads_hypercube(text: str) -> HypercubeGraph:
    """Decode a cube-graph file.

    When the file is ASCII, its header line ends in "\\n" and holds no other
    line break, and the first m edge lines are each a record of 2d + 2 bytes,
    "u v\\n" with u and v d-byte "0"/"1" labels, they are decoded as one byte
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
    buf = text.encode("ascii")
    if not _cube_layout_ok(buf, start, m, d):
        return _loads_hypercube_lines(text)
    rows = np.frombuffer(buf, np.uint8, m * width, start).reshape(m, width)
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
    del rows, buf  # the encoded file, before the keys are made
    if (u == v).any():  # the per-line reader names the first one
        return _loads_hypercube_lines(text)
    n = 1 << d
    # both orientations of every edge as sorted keys u << d | v: each vertex's
    # neighbours are one run, found by searchsorted.  Below 2^31 they sort as int32
    key_type = np.int32 if 2 * d < 31 else np.int64
    u, v = u.astype(key_type, copy=False), v.astype(key_type, copy=False)
    keys = np.concatenate([u << d | v, v << d | u])
    del u, v
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(n + 1, dtype=key_type) << d)
    fwd = [0] * n
    bwd = [0] * n
    mark = np.zeros(n, bool)
    for x in np.flatnonzero(np.diff(bounds)).tolist():
        nbrs = keys[bounds[x]:bounds[x + 1]] & (n - 1)
        mark[nbrs] = True
        a = int.from_bytes(np.packbits(mark[:nbrs[-1] + 1], bitorder="little").tobytes(), "little")
        mark[nbrs] = False
        # x's run holds all its neighbours: those above x, then those below
        fwd[x] = a >> x << x
        bwd[x] = a & ((1 << x) - 1)
    return HypercubeGraph._from_masks(n, tuple(fwd), tuple(bwd))


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
    fwd = [0] * (1 << d)
    bwd = [0] * (1 << d)
    for line_no, line in enumerate(lines[1:m + 1], 2):
        parts = line.split()
        if len(parts) != 2 or (u := vertex(parts[0])) is None or (v := vertex(parts[1])) is None:
            raise FormatError(line_no, f"expected two length-{d} bitstrings, got {line!r}")
        if u == v:
            raise FormatError(line_no, "self-loop")
        if u > v:
            u, v = v, u
        fwd[u] |= 1 << v
        bwd[v] |= 1 << u
    if len(lines) <= m:
        raise FormatError(len(lines) + 1, f"expected {m} edge lines, file ends early")
    return HypercubeGraph._from_masks(1 << d, tuple(fwd), tuple(bwd))


def _decimal_fields(a: np.ndarray) -> np.ndarray:
    """``a``'s non-negative integers in decimal ASCII, right-aligned in
    fields of the widest one's length along a new last axis, with 0 bytes
    in place of leading zeros."""
    size = len(str(a.max())) if a.size else 1
    power = 10 ** np.arange(size - 1, -1, -1, dtype=np.int64)
    a = a[..., None]
    digits = (a // power % 10).astype(np.uint8) + ord("0")
    digits[(a < power) & (power > 1)] = 0
    return digits


def _encode_blocked(g: BlockedGraph) -> np.ndarray:
    """The blocked-host file as a uint8 array: the header, then per
    nonempty block its "x y" line and m records of ceil(m/4) + 1 bytes."""
    m = g.m
    pairs, mats = g.nonempty()
    # a row is the little-endian bit integer of its columns (column j is bit
    # j) in ceil(m/4) hex digits: reverse each row's bytes for big-endian
    # hex, then drop the leading digit, always 0, that the bytes have beyond
    # ceil(m/4) when that is odd
    packed = np.packbits(mats, axis=2, bitorder="little")[:, :, ::-1]
    hex_width, width = 2 * packed.shape[2], (m + 3) // 4
    digits = np.frombuffer(packed.tobytes().hex().encode("ascii"), np.uint8)
    # one row per block: its "x y\n" line as two fields padded with 0 bytes,
    # then its m row records; dropping the padding lays the blocks end to end
    fields = _decimal_fields(pairs)
    field_width = fields.shape[2] + 1
    lines = np.empty((len(pairs), 2 * field_width + m * (width + 1)), np.uint8)
    pair_lines = lines[:, :2 * field_width].reshape(len(pairs), 2, field_width)
    pair_lines[:, :, :-1] = fields
    pair_lines[:, :, -1] = (ord(" "), ord("\n"))
    rows = lines[:, 2 * field_width:].reshape(len(pairs), m, width + 1)
    rows[:, :, :-1] = digits.reshape(len(pairs), m, hex_width)[:, :, hex_width - width:]
    rows[:, :, -1] = ord("\n")
    head = np.frombuffer(f"{g.d} {m} {g.seed}\n".encode(), np.uint8)
    return np.concatenate((head, lines[lines != 0]))


def dumps_blocked(g: BlockedGraph) -> str:
    return str(_encode_blocked(g), "ascii")


#: hex digit value of each byte; 16 for bytes that are not lowercase hex digits
_NIBBLE = np.full(256, 16, np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def _pair_array(chars: np.ndarray, count: int) -> np.ndarray | None:
    """The (count, 2) int64 array of the ``count`` lines that ``chars`` holds,
    each ending in its one "\\n", when each is "x y": two runs of 1-18 ASCII
    digits around one space; None if any is not."""
    is_sep = (chars == ord(" ")) | (chars == ord("\n"))
    sep = np.flatnonzero(is_sep)
    # with the newlines, spaces at every other separator make the separators
    # alternate: one space on each line
    if len(sep) != 2 * count or (chars[sep[0::2]] != ord(" ")).any():
        return None
    digits = np.diff(sep, prepend=-1) - 1
    if not (((1 <= digits) & (digits <= 18)).all() and (is_sep | (chars - ord("0") < 10)).all()):
        return None
    return np.fromstring(chars.tobytes(), dtype=np.int64, sep=" ").reshape(-1, 2)


def loads_blocked(text: str) -> BlockedGraph:
    """Decode a blocked-host file.

    When the file is ASCII and ends in "\\n", its header line holds no other
    line break, every block-pair line is "x y" in decimal, every pair is in
    range and listed once, and every row line is a record of ceil(m/4) + 1
    bytes, lowercase hex digits and "\\n", with no bit beyond column m - 1,
    the file is decoded as whole arrays.  Any other file goes to the
    per-line reader, which alone raises ``FormatError``.
    """
    start = text.find("\n") + 1  # of the first block-pair line; 0 if there is none
    head = text[:start - 1] if start else text
    try:
        d, m, seed = (int(t) for t in head.split())
    except ValueError:
        return _loads_blocked_lines(text)
    if not (start and text.isascii() and head.splitlines() == [head] and text.endswith("\n")
            and 1 <= d <= _MAX_CUBE_D and 1 <= m and m << d <= DEFAULT_VERTEX_BUDGET):
        return _loads_blocked_lines(text)
    buf = np.frombuffer(text.encode("ascii"), np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    stride, width = m + 1, (m + 3) // 4  # lines per block; hex digits per row
    if len(ends) == 1 or (len(ends) - 1) % stride:
        return _loads_blocked_lines(text)
    lengths = np.diff(ends).reshape(-1, stride)  # every line after the header, its "\n" included
    n_pairs = len(lengths)
    if (lengths[:, 1:] != width + 1).any():
        return _loads_blocked_lines(text)
    # a block is its pair line and m row records, laid end to end
    spans = np.column_stack((lengths[:, 0], np.full(n_pairs, m * (width + 1)))).ravel()
    is_pair = np.repeat(np.tile([True, False], n_pairs), spans)
    body = buf[start:]
    pairs = _pair_array(body[is_pair], n_pairs)
    if pairs is None:
        return _loads_blocked_lines(text)
    x, y = pairs.T
    keys = np.sort(x << d | y)  # a pair listed twice is two equal neighbours
    if not ((0 <= x) & (x < y) & (y < 1 << d)).all() or (keys[1:] == keys[:-1]).any():
        return _loads_blocked_lines(text)
    nibbles = _NIBBLE[body[~is_pair].reshape(-1, width + 1)[:, :width]]
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
    with open(path, "wb") as fh:
        fh.write(_encode_blocked(g))


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
    with open(path, "wb") as fh:
        fh.write(_encode_hypercube(g))


def read_hypercube(path) -> HypercubeGraph:
    with open(path) as fh:
        return loads_hypercube(fh.read())
