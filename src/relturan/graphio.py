"""Text serialization for ordered graphs, cube graphs, and blocked hosts.

Ordered-graph format: first line "n m", then m lines "u v" with u < v.
Cube-graph format: first line "d m", then m lines with two bitstrings.
Blocked-host format: first line "d m seed", then for each nonempty block
pair a line "x y" followed by m hex-encoded rows of the m x m matrix.
All writers emit in sorted order so round-trips are byte-identical.

The two bulk formats are written as fixed-width byte records in uint8
arrays, with no Python string per line:

- a cube edge line is a record of 2d + 2 bytes: u's label, " ", v's label
  and "\n", where a label is d bytes "0"/"1", most significant bit first;
- a blocked-host row line is a record of ceil(m/4) + 1 bytes: the row's
  lowercase hex digits and "\n".  The "x y" line before each block's m
  rows is the one line of varying width.

Each host format has one reader, which decodes a file as numpy arrays, a
slab at a time, and takes exactly the layout its writer writes: the
header line "d m" or "d m seed", ASCII ints one space apart; for a cube
file the next m edge records, after which nothing is read; for a
blocked-host file every line, with each "x y" line two runs of 1-18
decimal digits around one space, no block pair listed twice, and a final
"\n".  Each slab is checked whole; only a slab that fails is searched
for its first bad line, which the ``FormatError`` names (the line after
the last, when the file ends early).  ``read_*`` read a regular file in
place and any other (a pipe, say) into memory first, as ``loads_*`` take
their text; ``read_host`` tells the formats apart by their header lines.
Ordered graphs, written by hand as patterns, have one lenient per-line
reader, ``loads_ordered``, which takes any spacing.

Memory besides the graph itself, where a slab is ``_SLAB_BYTES`` (1 MiB)
and the temporaries made from one slab take a few times its size.  A
blocked host holds its nonempty block pairs alone, m^2 cells and 24 bytes
each, so its costs below are per nonempty block pair:

- cube writer: one slab, the records and neighbour-mask bytes of a run
  of whole vertices with forward edges (one vertex's, if larger), about 40
  bytes per such vertex to find the runs (none for the others), and label
  tables of 2^w w bytes for runs of w <= 16 label bits (1 MiB at most);
- blocked writer: one slab, the cells and the records of a run of block
  pairs, ``_SLAB_BYTES / _block_bytes(d, m)`` of them (at least one);
- ``write_generated`` (``gen-host``): no host at all, only one such run of
  block pairs drawn into a reused buffer, about 64 bytes per pair of the
  run for its indices and levels, a copy of the run's nonempty blocks, and
  8 bytes per block;
- cube reader: one slab plus 8 bytes per edge (16 when d > 15), the keys
  of both orientations of every edge, which ``OrderedGraph._from_keys``
  sorts and packs in slabs of its own, and 32 bytes per vertex of mask
  lists and tuples;
- blocked reader: one slab of whole blocks, as many as the writer's run,
  and 16 bytes per listed block pair, the keys that catch a pair listed
  twice, and the cells of any listed block without an edge (no writer
  lists one) until the graph drops it;
- both readers size their keys, cells and buffers for no more records or
  blocks than the file's bytes can hold, and ``loads_*`` and a pipe add
  the file's bytes.
"""

from __future__ import annotations

import io
import math
import os
import stat
from collections.abc import Iterator
from itertools import compress

import numpy as np

from .core import _SLAB_BYTES, HypercubeGraph, OrderedGraph, _key_type, _nonzero_indices, _set_bits
from .hosts import DEFAULT_VERTEX_BUDGET, BlockedGraph, block_level_counts, host_runs


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


def _fast_header(fh, names: str) -> tuple[int, list[int]]:
    """The length and the ints of the header line of the binary stream ``fh``,
    one per field of ``names`` ("d m", say): ASCII digits one space apart,
    ending in "\\n" within 64 bytes; ``FormatError`` at line 1 otherwise.

    A canonical header is at most 2 + 1 + 7 + 1 + 20 + 1 bytes."""
    line = fh.readline(64)
    head, newline, _ = line.partition(b"\n")
    fields = head.split(b" ")
    if newline and len(fields) == len(names.split()) and all(map(bytes.isdigit, fields)):
        return len(line), [int(t) for t in fields]
    raise FormatError(1, f"expected '{names}', got {_text(head)}")


def _text(line: bytes) -> str:
    """``line`` as a message shows it: the repr of its ASCII text."""
    return repr(line.decode("ascii", "backslashreplace"))


def _header(lines: list[str], names: str) -> list[int]:
    """The ints of the header line ``lines[0]``, one per field of ``names``
    ("d m", say); ``FormatError`` at line 1 when there is no line, or when it
    holds another number of fields or one that is not an int."""
    if not lines:
        raise FormatError(1, "empty file")
    parts = lines[0].split()
    if len(parts) == len(names.split()):
        try:
            return [int(t) for t in parts]
        except ValueError:
            pass
    raise FormatError(1, f"expected '{names}', got {lines[0]!r}")


def loads_ordered(text: str) -> OrderedGraph:
    lines = text.splitlines()
    n, m = _header(lines, "n m")
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
    return OrderedGraph(n, edges)


def _label_chunks(d: int) -> list[tuple[int, int, np.ndarray]]:
    """A d-bit label cut into runs of at most 16 bits of about equal length,
    most significant first: for each, its first byte in the label, the shift
    of its bits in a vertex int, and its 2^w strings of w bytes "0"/"1" as a
    table of V{w} values, 2^w w bytes (1 MiB at most)."""
    parts = -(-d // 16)
    chunks, at = [], 0
    for left in range(parts, 0, -1):
        w = (d - at) // left
        bits = np.unpackbits(np.arange(1 << w, dtype=">u2").view(np.uint8).reshape(-1, 2), axis=1)
        table = np.ascontiguousarray(bits[:, 16 - w:] + ord("0")).view(f"V{w}").ravel()
        chunks.append((at, d - at - w, table))
        at += w
    return chunks


def _cube_records(masks: list[int], verts: np.ndarray, counts: np.ndarray, d: int,
                  chunks: list[tuple[int, int, np.ndarray]]) -> np.ndarray:
    """The records of 2d + 2 bytes of the forward edges of the vertices
    ``verts``, in increasing order, whose forward ``masks`` and edge
    ``counts`` are given, as one uint8 array; ``chunks`` as
    ``_label_chunks(d)``."""
    # the forward neighbours v > u of u are the set bits of fwd[u] >> (u + 1):
    # lay those masks end to end as little-endian bytes and read their set bits once
    forward = [mask >> u >> 1 for u, mask in zip(verts.tolist(), masks)]
    sizes = [(f.bit_length() + 7) // 8 for f in forward]
    bits = _set_bits(b"".join([f.to_bytes(size, "little") for f, size in zip(forward, sizes)]))
    us = np.repeat(verts, counts)
    # bit b of the masks laid end to end, in u's mask that starts at bit
    # offsets[u], is v = b - offsets[u] + u + 1
    offsets = np.cumsum([0, *sizes[:-1]]) * 8
    vs = bits - np.repeat(offsets - verts - 1, counts)
    # a record is u's label, " ", v's label and "\n"; each run of a label's
    # bytes is gathered from its table as one opaque value into a strided
    # view of the records, "wrap" keeping the run's low bits of x >> shift
    width = 2 * d + 2
    lines = np.empty((len(bits), width), np.uint8)
    for x, start in ((us, 0), (vs, d + 1)):
        for at, shift, table in chunks:
            run = np.ndarray(len(x), table.dtype, lines, start + at, (width,))
            run[...] = np.take(table, x >> shift if shift else x, mode="wrap")
    lines[:, d] = ord(" ")
    lines[:, -1] = ord("\n")
    return lines.ravel()


def _encode_hypercube(g: HypercubeGraph) -> Iterator[np.ndarray]:
    """The cube-graph file as uint8 slabs: the header, then the records of
    2d + 2 bytes of runs of whole vertices with forward edges, each run's
    records, mask bytes and per-vertex arrays about ``_SLAB_BYTES`` and at
    least one vertex."""
    d, fwd = g.d, g.forward_masks
    # the vertices with forward edges (v > u), their masks and edge counts
    verts = _nonzero_indices(fwd)
    masks = list(compress(fwd, fwd))
    counts = np.fromiter(map(int.bit_count, masks), np.int64, len(masks))
    yield np.frombuffer(f"{d} {counts.sum()}\n".encode(), np.uint8)
    # a vertex costs its records, up to a byte per bit of its forward mask
    # (its bytes, and an int64 index and 8 unpacked bytes per non-zero one)
    # and about 64 bytes of per-vertex lists and arrays
    spans = np.fromiter(map(int.bit_length, masks), np.int64, len(masks)) - verts
    ends = np.cumsum(counts * (2 * d + 2) + spans + 64)
    del spans
    chunks = _label_chunks(d)
    lo = 0
    while lo < len(masks):
        # the longest run of whole vertices from lo that fits a slab, at least one
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + _SLAB_BYTES, "right"))
        hi = max(hi, lo + 1)
        yield _cube_records(masks[lo:hi], verts[lo:hi], counts[lo:hi], d, chunks)
        lo = hi


def dumps_hypercube(g: HypercubeGraph) -> str:
    return str(b"".join(_encode_hypercube(g)), "ascii")


def _cube_layout(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask and the layout of a record of 2d + 2 bytes: ``record | mask ==
    layout`` holds for exactly the records of two labels of "0"/"1" bytes
    around " " and ending in "\\n"."""
    # on a label column b | 1 == ord("1") holds for exactly the bytes "0" and
    # "1"; the separator and line-end columns are masked with 0 and must match
    # exactly
    mask = np.ones(2 * d + 2, np.uint8)
    mask[[d, -1]] = 0
    layout = np.full(2 * d + 2, ord("1"), np.uint8)
    layout[d] = ord(" ")
    layout[-1] = ord("\n")
    return mask, layout


def _cube_layout_ok(slab: np.ndarray, d: int) -> bool:
    """Whether every record of the uint8 ``slab`` of whole records of 2d + 2
    bytes is laid out as ``_cube_layout(d)`` says."""
    width = 2 * d + 2
    mask, layout = _cube_layout(d)
    # the layout repeats every lcm(width, 8) bytes: check whole periods as
    # uint64 words and the records after them as bytes
    period = math.lcm(width, 8)
    whole = len(slab) // period * period
    words = slab[:whole].view(np.uint64).reshape(-1, period // 8)
    if not ((words | np.tile(mask, period // width).view(np.uint64))
            == np.tile(layout, period // width).view(np.uint64)).all():
        return False
    return bool(((slab[whole:].reshape(-1, width) | mask) == layout).all())


def _cube_error(part: np.ndarray, d: int, m: int, line_no: int) -> FormatError:
    """The error of the first bad line of the uint8 ``part``, edge lines of a
    cube file of m edges from line ``line_no`` on: a record that is not laid
    out as ``_cube_layout(d)`` says or is a self-loop, or a partial record at
    the end; the file ends early, at the line after ``part``, if none is."""
    width = 2 * d + 2
    rows = part[:len(part) // width * width].reshape(-1, width)
    mask, layout = _cube_layout(d)
    laid_out = ((rows | mask) == layout).all(axis=1)
    bad = np.flatnonzero(~laid_out | (rows[:, :d] == rows[:, d + 1:-1]).all(axis=1))
    r = int(bad[0]) if len(bad) else len(rows)
    if r < len(rows) and laid_out[r]:
        return FormatError(line_no + r, "self-loop")
    if r * width < len(part):
        line, newline, _ = part[r * width:].tobytes().partition(b"\n")
        ending = "" if newline else " and a line end"
        return FormatError(line_no + r, f"expected two length-{d} bitstrings{ending}, got {_text(line)}")
    return FormatError(line_no + r, f"expected {m} edge lines, file ends early")


def _read_cube(fh) -> HypercubeGraph:
    """Decode the cube-graph file that the seekable binary stream ``fh``
    holds, a slab at a time.

    The header line is "d m", and the next m lines must each be a record of
    2d + 2 bytes, "u v\\n" with u and v d-byte "0"/"1" labels and u != v;
    the bytes after them are not read.  Each slab of records is checked
    whole and decoded into one key array that holds both orientations of
    every edge, u << d | v and v << d | u, in ``_key_type(2^d)``, int32 when
    2d < 31, and ``_from_keys`` packs the keys into the masks.  A slab that
    fails a check, or that the file cannot fill, is searched for its first
    bad line (``_cube_error``); the keys and the slab are sized for no more
    records than the file's bytes hold.
    """
    start, (d, m) = _fast_header(fh, "d m")
    if not 1 <= d <= _MAX_CUBE_D:
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D}, got {d}")
    width = 2 * d + 2  # two labels, a space and a newline
    size = fh.seek(0, os.SEEK_END) - start
    fh.seek(start)
    fit = min(m, size // width)  # m unless the file ends early
    n = 1 << d
    keys = np.empty(2 * fit, _key_type(n))
    per_slab = max(1, _SLAB_BYTES // width)  # records
    slab = np.empty(min(per_slab * width, m * width, size), np.uint8)
    for lo in range(0, m, per_slab):
        hi = min(lo + per_slab, m)
        part = slab[:fh.readinto(slab[:(hi - lo) * width])]
        if len(part) < (hi - lo) * width or not _cube_layout_ok(part, d):
            raise _cube_error(part, d, m, lo + 2)
        rows = part.reshape(-1, width)
        labels = np.zeros((2, hi - lo), keys.dtype)
        for i in range(d):
            labels <<= 1
            labels[0] += rows[:, i]
            labels[1] += rows[:, d + 1 + i]
        # each label byte is ord("0") plus its bit
        labels -= ord("0") * (n - 1)
        u, v = labels
        if (u == v).any():
            raise _cube_error(part, d, m, lo + 2)
        np.left_shift(u, d, out=keys[lo:hi])
        keys[lo:hi] |= v
        np.left_shift(v, d, out=keys[fit + lo:fit + hi])
        keys[fit + lo:fit + hi] |= u
    return HypercubeGraph._from_keys(n, keys)


def _decimal_fields(a: np.ndarray) -> np.ndarray:
    """``a``'s non-negative integers in decimal ASCII, right-aligned in
    fields of the widest one's length along a new last axis, with 0 bytes
    in place of leading zeros."""
    size = len(str(a.max())) if a.size else 1
    # int32 holds every block index: a BlockedGraph has d <= 31
    power = 10 ** np.arange(size - 1, -1, -1, dtype=np.int32)
    a = a.astype(np.int32)[..., None]
    digits = (a // power % 10).astype(np.uint8) + ord("0")
    digits[(a < power) & (power > 1)] = 0
    return digits


def _blocked_records(pairs: np.ndarray, mats: np.ndarray, m: int) -> np.ndarray:
    """Each block's "x y" line and m records of ceil(m/4) + 1 bytes, laid end
    to end as one uint8 array."""
    # a row is the little-endian bit integer of its columns (column j is bit
    # j) in ceil(m/4) hex digits: pad the rows to whole bytes and pack them
    # all in one flat call, reverse each row's bytes for big-endian hex, then
    # drop the leading digit, always 0, that the bytes have beyond ceil(m/4)
    # when that is odd
    if m % 8:
        padded = np.zeros((len(mats), m, (m + 7) // 8 * 8), bool)
        padded[:, :, :m] = mats
        mats = padded
    packed = np.packbits(mats.reshape(-1), bitorder="little").reshape(len(mats), m, -1)[:, :, ::-1]
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
    return lines[lines != 0]


def _block_bytes(d: int, m: int) -> int:
    """What a block pair costs the blocked codecs' slabs: the largest of its
    m^2 cells, its lines (m rows of ceil(m/4) + 1 bytes and an "x y" line of
    at most 2d + 2) and 16 bytes for each of their m + 1 line ends, which the
    reader finds and measures as int64."""
    return max(m * m, m * ((m + 3) // 4 + 1) + 2 * d + 2, 16 * (m + 1))


def _encode_runs(d: int, m: int, seed: int, runs) -> Iterator[np.ndarray]:
    """The blocked-host file as uint8 slabs: the header, then for each
    ``(pairs, cells)`` of ``runs``, blocks that each have an edge, their lines."""
    yield np.frombuffer(f"{d} {m} {seed}\n".encode(), np.uint8)
    for pairs, mats in runs:
        if len(pairs):  # _blocked_records takes one block at least
            yield _blocked_records(pairs, mats, m)


def _encode_blocked(g: BlockedGraph) -> Iterator[np.ndarray]:
    """The blocked-host file as uint8 slabs, a run of block pairs at a time,
    each run's cells and records about ``_SLAB_BYTES`` and at least one pair."""
    step = max(1, _SLAB_BYTES // _block_bytes(g.d, g.m))
    return _encode_runs(g.d, g.m, g.seed, ((g.pairs[lo:lo + step], g.mats[lo:lo + step])
                                           for lo in range(0, len(g.pairs), step)))


def dumps_blocked(g: BlockedGraph) -> str:
    return str(b"".join(_encode_blocked(g)), "ascii")


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


def _decode_blocks(body: np.ndarray, ends: np.ndarray, d: int, m: int,
                   pairs: np.ndarray, mats: np.ndarray) -> bool:
    """Decode the whole blocks that the uint8 ``body`` holds, whose line ends
    are ``ends``, into ``pairs`` and ``mats``, or return False if any line
    is not laid out as ``_read_blocked`` says, a pair's repeats aside."""
    stride, width = m + 1, (m + 3) // 4  # lines per block; hex digits per row
    lengths = np.diff(ends, prepend=-1).reshape(-1, stride)  # each line, its "\n" included
    count = len(lengths)
    if (lengths[:, 1:] != width + 1).any():
        return False
    # a block is its pair line and m row records, laid end to end
    spans = np.column_stack((lengths[:, 0], np.full(count, m * (width + 1)))).ravel()
    is_pair = np.repeat(np.tile([True, False], count), spans)
    got = _pair_array(body[is_pair], count)
    if got is None:
        return False
    x, y = got.T
    if not ((0 <= x) & (x < y) & (y < 1 << d)).all():
        return False
    nibbles = _NIBBLE[body[~is_pair].reshape(-1, width + 1)[:, :width]]
    if (nibbles > 15).any():
        return False
    # a row is the big-endian hex of its little-endian column bits: reverse
    # the nibbles, pad them to whole bytes and pair them, low nibble first
    nibbles = nibbles[:, ::-1]
    if width % 2:
        nibbles = np.pad(nibbles, ((0, 0), (0, 1)))
    packed = nibbles[:, 0::2] | nibbles[:, 1::2] << 4
    if m % 8 and (packed[:, -1] >> m % 8).any():  # bits beyond column m - 1
        return False
    # unpacked in one flat call, then each row cut to its m columns
    bits = np.unpackbits(packed.reshape(-1), bitorder="little").view(bool)
    mats.reshape(-1, m)[:] = bits.reshape(len(packed), -1)[:, :m]
    pairs[:] = got
    return True


def _block_error(raw: bytes, d: int, m: int, pairs: np.ndarray, at: int) -> FormatError:
    """The error of the first bad line of a blocked-host file whose first
    ``at`` blocks are laid out as the writer lays them out and list
    ``pairs[:at]``, and whose lines from block ``at`` on ``raw`` holds (all
    of them, or up to a bad one): a pair listed before, a pair line that is
    not "x y" in range, a row that is not ceil(m/4) lowercase hex digits
    with no bit beyond column m - 1, or a line without its "\\n"; the file
    ends early, at the line after ``raw``, if none is."""
    stride, width = m + 1, (m + 3) // 4
    line_no, error, keys, at_byte = 2 + at * stride, None, [], 0
    while error is None and at_byte < len(raw):
        end = raw.find(b"\n", at_byte)
        line = raw[at_byte:end] if end >= 0 else raw[at_byte:]
        if (line_no - 2) % stride == 0:
            x, space, y = line.partition(b" ")
            if not (space and all(1 <= len(t) <= 18 and t.isdigit() for t in (x, y))):
                error = f"expected 'x y', got {_text(line)}"
            elif not int(x) < int(y) < 1 << d:
                error = f"block pair ({int(x)}, {int(y)}) out of range"
            else:
                keys.append(int(x) << d | int(y))
        elif len(line) != width or line.strip(b"0123456789abcdef"):
            error = f"expected hex row, got {_text(line)}"
        elif int(line, 16) >> m:
            error = f"row has bits beyond column {m - 1}"
        if error is None and end < 0:
            error = f"expected a line end after {_text(line)}"
        if error is None:
            line_no, at_byte = line_no + 1, end + 1
    # a pair listed twice comes before any other bad line past its block
    keys = np.concatenate((pairs[:at, 0] << d | pairs[:at, 1], np.array(keys, np.int64)))
    repeats = np.setdiff1d(np.arange(len(keys)), np.unique(keys, return_index=True)[1])
    if len(repeats):
        x, y = divmod(int(keys[repeats[0]]), 1 << d)
        return FormatError(2 + int(repeats[0]) * stride, f"duplicate block pair ({x}, {y})")
    return FormatError(line_no, error or "block matrix truncated")


def _read_blocked(fh) -> BlockedGraph:
    """Decode the blocked-host file that the seekable binary stream ``fh``
    holds, a slab of whole blocks at a time.

    The header line is "d m seed", every block-pair line "x y", two runs of
    1-18 decimal digits around one space, every pair in range and listed
    once, and every row line a record of ceil(m/4) + 1 bytes, lowercase hex
    digits and "\\n", with no bit beyond column m - 1; the file ends in
    "\\n".  A first pass counts the lines, so that the pairs and cells are
    allocated once, for no more blocks than the file's lines and bytes can
    hold; the second checks each slab whole and decodes it into them.  A
    slab that fails a check, or a pair listed twice, is searched for the
    first bad line (``_block_error``).
    """
    start, (d, m, seed) = _fast_header(fh, "d m seed")
    if not 1 <= d <= _MAX_CUBE_D or m < 1:  # before m << d, a 2^d-bit integer
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D} and m >= 1")
    if m << d > DEFAULT_VERTEX_BUDGET:
        raise FormatError(1, f"{m << d} vertices exceeds budget {DEFAULT_VERTEX_BUDGET}")
    lines = 0
    while chunk := fh.read(_SLAB_BYTES):
        lines += chunk.count(b"\n")
    size = fh.tell() - start
    stride, width = m + 1, (m + 3) // 4  # lines per block; hex digits per row
    # a block is m rows of width + 1 bytes and a pair line of 4 bytes at least
    fit = min(lines // stride, size // (m * (width + 1) + 4))
    pairs = np.empty((fit, 2), np.int64)
    mats = np.empty((fit, m, m), bool)
    # a slab is at most as many blocks as the writer's, read from a buffer
    # that holds as many whose pair lines have the canonical 2d + 2 bytes at
    # most, and at least one of any that decodes, whose pair line is at most 38
    per_slab = max(1, _SLAB_BYTES // _block_bytes(d, m))  # blocks
    buf = np.empty(min(per_slab * (m * (width + 1) + 2 * d + 2) + 38, size), np.uint8)
    fh.seek(start)
    at = held = 0  # blocks decoded; bytes carried over to the next slab
    while len(data := buf[:held + fh.readinto(buf[held:])]):
        ends = np.flatnonzero(data == ord("\n"))[:per_slab * stride]
        count = len(ends) // stride
        end = ends[count * stride - 1] + 1 if count else len(data)
        # no whole block in a full buffer, or more blocks than fit, hold a bad line
        if not count or at + count > fit or not _decode_blocks(
                data[:end], ends[:count * stride], d, m, pairs[at:at + count], mats[at:at + count]):
            raise _block_error(data[:end].tobytes(), d, m, pairs, at)
        at += count
        held = len(data) - end
        buf[:held] = data[end:]
    # a pair listed twice, in one slab or two, is two equal neighbours among
    # the sorted pair keys, an all-zero block included, which the graph drops
    keys = np.sort(pairs[:, 0] << d | pairs[:, 1])
    if (keys[1:] == keys[:-1]).any():
        raise _block_error(b"", d, m, pairs, at)
    return BlockedGraph(d, m, seed, pairs, mats)


def write_blocked(path, g: BlockedGraph) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_encode_blocked(g))


def write_generated(path, m: int, d: int, seed: int) -> list[int]:
    """Write the file ``write_blocked(path, generate_host(m, d, seed))`` writes
    and return the host's ``level_counts()``, holding one run of block pairs,
    about ``_SLAB_BYTES`` of cells and records, at a time.

    A size ``generate_host`` refuses is refused before the file is opened.
    """
    runs = host_runs(m, d, seed, _SLAB_BYTES // _block_bytes(d, m))
    counts = np.zeros(d + 1, np.int64)

    def counted():
        for pairs, levels, mats in runs:
            counts[:] += block_level_counts(levels, mats, d)
            yield pairs, mats

    with open(path, "wb") as fh:
        fh.writelines(_encode_runs(d, m, seed, counted()))
    return counts.tolist()


def write_ordered(path, g: OrderedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_ordered(g))


def read_ordered(path) -> OrderedGraph:
    with open(path) as fh:
        return loads_ordered(fh.read())


def write_hypercube(path, g: HypercubeGraph) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_encode_hypercube(g))


def _read_file(path, read):
    """``read`` on the binary stream of the file at ``path``, or on its bytes
    read into memory when it is not a regular file (a pipe, say)."""
    with open(path, "rb") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            return read(fh)
        data = fh.read()
    return read(io.BytesIO(data))


def read_hypercube(path) -> HypercubeGraph:
    return _read_file(path, _read_cube)


def loads_hypercube(text: str) -> HypercubeGraph:
    return _read_cube(io.BytesIO(text.encode()))


def read_blocked(path) -> BlockedGraph:
    return _read_file(path, _read_blocked)


def loads_blocked(text: str) -> BlockedGraph:
    return _read_blocked(io.BytesIO(text.encode()))


def read_host(path) -> BlockedGraph | HypercubeGraph:
    """The host at ``path``: a blocked host when its header line holds three
    fields ("d m seed"), a cube graph otherwise."""

    def read(fh):
        blocked = len(fh.readline(64).split()) == 3
        fh.seek(0)
        return (_read_blocked if blocked else _read_cube)(fh)

    return _read_file(path, read)
