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

A file is decoded as numpy arrays, a slab at a time, when it is ASCII,
its header line ends in "\n" and holds no other line break, and its lines
are laid out exactly as these records: the first m edge lines of a cube
file; every line of a blocked-host file, which then ends in "\n", with
each "x y" line two runs of 1-18 decimal digits around one space, and no
block pair listed twice.  Every other file goes through the per-line
readers, the only code that raises ``FormatError``, so what a file means
and how it fails do not depend on the path taken.

Memory besides the graph itself, where a slab is ``_SLAB_BYTES`` (1 MiB)
and the temporaries made from one slab take a few times its size:

- cube writer: one slab, the records and unpacked neighbour masks of a run
  of whole vertices with forward edges (one vertex's, if larger), about 40
  bytes per such vertex to find the runs (none for the others), and label
  tables of 2^w w bytes for runs of w <= 16 label bits (1 MiB at most);
- blocked writer: one slab, the cells and the records of a run of block
  pairs, ``_SLAB_BYTES / _block_bytes(d, m)`` of them (at least one);
- ``write_generated`` (``gen-host``): no host at all, only one such run of
  block pairs drawn into a reused buffer, about 64 bytes per pair of the
  run for its indices and levels, and 8 bytes per block;
- cube reader (``read_hypercube``): one slab plus 8 bytes per edge (16 when
  d > 15), the keys of both orientations of every edge, which
  ``OrderedGraph._from_keys`` sorts and packs in slabs of its own, and 32
  bytes per vertex of mask lists and tuples; a file that leaves a doubt is
  read whole as text, as ``loads_hypercube`` reads it;
- blocked reader (``read_blocked``): one slab of whole blocks, as many as
  the writer's run, and 8 bytes per listed block pair, the keys that catch
  a pair listed twice; a file that leaves a doubt, among them one whose
  bytes cannot hold the blocks its line count declares (found before any
  cell is allocated), is read whole as text, as ``loads_blocked`` reads it;
- ``loads_hypercube`` and ``loads_blocked``: the text, its ASCII bytes and
  what the reader takes;
- the per-line cube reader: the text's lines and a tuple per edge line,
  then the masks ``HypercubeGraph`` builds from them (32 bytes per vertex);
  a file it refuses costs its lines alone, whatever its d.

The formats share one header reader per path, ``_fast_header`` for the
array readers and ``_header`` for the per-line ones; the host formats share
one file dispatch (``_read_file``) and one text dispatch (``_loads_text``).
``read_host`` tells them apart by their header lines.
"""

from __future__ import annotations

import io
import math
import os
import stat
from collections.abc import Iterator
from itertools import compress

import numpy as np

from .core import _SLAB_BYTES, HypercubeGraph, OrderedGraph, _key_type
from .hosts import DEFAULT_VERTEX_BUDGET, BlockedGraph, block_level_counts, host_runs, nonempty_blocks


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


def _fast_header(fh, fields: int) -> tuple[int, list[int]] | None:
    """The length and the ints of the header line of the binary stream ``fh``,
    read from at most 64 bytes, or None unless the line is ASCII, ends in
    "\\n", holds no other line break and holds exactly ``fields`` ints.

    A canonical header is at most 2 + 1 + 7 + 1 + 20 + 1 bytes; a longer line
    leaves a doubt."""
    line = fh.readline(64)
    if not (line.endswith(b"\n") and line.isascii()):
        return None
    head = line[:-1].decode("ascii")
    parts = head.split()
    if len(parts) != fields or head.splitlines() != [head]:
        return None
    try:
        return len(line), [int(t) for t in parts]
    except ValueError:
        return None


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
    # lay those masks end to end as little-endian bytes and unpack them once
    forward = [mask >> u >> 1 for u, mask in zip(verts.tolist(), masks)]
    sizes = [(f.bit_length() + 7) // 8 for f in forward]
    packed = b"".join([f.to_bytes(size, "little") for f, size in zip(forward, sizes)])
    bits = np.flatnonzero(np.unpackbits(np.frombuffer(packed, np.uint8), bitorder="little"))
    us = np.repeat(verts, counts)
    # bit b of the unpacked masks, in u's mask that starts at bit offsets[u],
    # is v = b - offsets[u] + u + 1
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
    records, unpacked masks and per-vertex arrays about ``_SLAB_BYTES`` and
    at least one vertex."""
    n, d, fwd = g.n, g.d, g.forward_masks
    # the vertices with forward edges (v > u), their masks and edge counts
    verts = np.fromiter(compress(range(n), fwd), np.int64)
    masks = list(compress(fwd, fwd))
    counts = np.fromiter(map(int.bit_count, masks), np.int64, len(masks))
    yield np.frombuffer(f"{d} {counts.sum()}\n".encode(), np.uint8)
    # a vertex costs its records, its forward mask unpacked to a byte per bit
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


def _cube_layout_ok(slab: np.ndarray, d: int) -> bool:
    """Whether the uint8 ``slab`` of whole records of 2d + 2 bytes holds, in
    each, two labels of "0"/"1" bytes around " " and ending in "\\n"."""
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
    # uint64 words and the records after them as bytes
    period = math.lcm(width, 8)
    whole = len(slab) // period * period
    words = slab[:whole].view(np.uint64).reshape(-1, period // 8)
    if not ((words | np.tile(mask, period // width).view(np.uint64))
            == np.tile(layout, period // width).view(np.uint64)).all():
        return False
    return bool(((slab[whole:].reshape(-1, width) | mask) == layout).all())


def _read_cube(fh) -> HypercubeGraph | None:
    """Decode the cube-graph file that the seekable binary stream ``fh``
    holds, a slab at a time, or return None if any byte leaves a doubt.

    The header line must end in "\\n" and hold no other line break, and the
    first m edge lines must each be a record of 2d + 2 bytes, "u v\\n" with
    u and v d-byte "0"/"1" labels and u != v; the file must be ASCII, so that
    read as text it holds the same lines.  Each slab of records is checked
    and decoded into one key array that holds both orientations of every
    edge, u << d | v and v << d | u, in ``_key_type(2^d)``, int32 when
    2d < 31, and ``_from_keys`` packs the keys into the masks.
    """
    if (head := _fast_header(fh, 2)) is None:
        return None
    start, (d, m) = head
    width = 2 * d + 2  # two labels, a space and a newline
    if not (1 <= d <= _MAX_CUBE_D and 0 <= m * width <= fh.seek(0, os.SEEK_END) - start):
        return None
    fh.seek(start)
    n = 1 << d
    keys = np.empty(2 * m, _key_type(n))
    per_slab = max(1, _SLAB_BYTES // width)  # records
    slab = np.empty(min(per_slab, m) * width, np.uint8)
    for lo in range(0, m, per_slab):
        hi = min(lo + per_slab, m)
        part = slab[:(hi - lo) * width]
        if fh.readinto(part) != len(part) or not _cube_layout_ok(part, d):
            return None
        rows = part.reshape(-1, width)
        labels = np.zeros((2, hi - lo), keys.dtype)
        for i in range(d):
            labels <<= 1
            labels[0] += rows[:, i]
            labels[1] += rows[:, d + 1 + i]
        # each label byte is ord("0") plus its bit
        labels -= ord("0") * (n - 1)
        u, v = labels
        if (u == v).any():  # the per-line reader names the first one
            return None
        np.left_shift(u, d, out=keys[lo:hi])
        keys[lo:hi] |= v
        np.left_shift(v, d, out=keys[m + lo:m + hi])
        keys[m + lo:m + hi] |= u
    # the lines after the m edge lines are read by no path, but must decode as text
    while chunk := fh.read(_SLAB_BYTES):
        if not chunk.isascii():
            return None
    return HypercubeGraph._from_keys(n, keys)


def _loads_hypercube_lines(text: str) -> HypercubeGraph:
    """The per-line cube-graph reader: any spacing ``str.split`` takes and any
    line break ``str.splitlines`` takes; the only source of ``FormatError``."""
    lines = text.splitlines()
    d, m = _header(lines, "d m")
    if not 1 <= d <= _MAX_CUBE_D:
        raise FormatError(1, f"need 1 <= d <= {_MAX_CUBE_D}, got {d}")
    if m < 0:  # lines[1:m + 1] would drop lines from the end
        raise FormatError(1, f"need m >= 0, got {m}")
    edges = []
    for line_no, line in enumerate(lines[1:m + 1], 2):
        parts = line.split()
        if len(parts) != 2 or not all(len(p) == d and not p.strip("01") for p in parts):
            raise FormatError(line_no, f"expected two length-{d} bitstrings, got {line!r}")
        u, v = int(parts[0], 2), int(parts[1], 2)
        if u == v:
            raise FormatError(line_no, "self-loop")
        edges.append((u, v))
    if len(lines) <= m:
        raise FormatError(len(lines) + 1, f"expected {m} edge lines, file ends early")
    return HypercubeGraph(d, edges)


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
    ``(pairs, cells)`` of ``runs`` the lines of its nonempty blocks."""
    yield np.frombuffer(f"{d} {m} {seed}\n".encode(), np.uint8)
    for pairs, mats in runs:
        pairs, mats = nonempty_blocks(pairs, mats)
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
    are ``ends``, into ``pairs`` and ``mats``, or return False if any pair
    line, pair or row leaves a doubt."""
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


def _read_blocked(fh) -> BlockedGraph | None:
    """Decode the blocked-host file that the binary stream ``fh`` holds, a
    slab of whole blocks at a time, or return None if any byte leaves a doubt.

    The file must be ASCII and end in "\\n", its header line must hold no
    other line break, every block-pair line must be "x y", two runs of 1-18
    decimal digits around one space, every pair in range and listed once,
    and every row line a record of ceil(m/4) + 1 bytes, lowercase hex digits
    and "\\n", with no bit beyond column m - 1.  A first pass checks the
    bytes and counts the lines, so that the pairs and cells are allocated
    once, at their size, and only when the bytes can hold that many blocks;
    the second decodes each slab into them.
    """
    if (head := _fast_header(fh, 3)) is None:
        return None
    start, (d, m, seed) = head
    if not (1 <= d <= _MAX_CUBE_D and 1 <= m and m << d <= DEFAULT_VERTEX_BUDGET):
        return None
    lines, last = 0, b"\n"
    while chunk := fh.read(_SLAB_BYTES):
        if not chunk.isascii():
            return None
        lines, last = lines + chunk.count(b"\n"), chunk[-1:]
    stride, width = m + 1, (m + 3) // 4  # lines per block; hex digits per row
    n_pairs = lines // stride
    # before the cells are allocated: a block is m rows of width + 1 bytes and
    # a pair line of 4 bytes at least
    if last != b"\n" or lines % stride or fh.tell() - start < n_pairs * (m * (width + 1) + 4):
        return None
    pairs = np.empty((n_pairs, 2), np.int64)
    mats = np.empty((n_pairs, m, m), bool)
    # a slab is at most as many blocks as the writer's, read from a buffer
    # that holds as many whose pair lines have the canonical 2d + 2 bytes at
    # most, and at least one of any that decodes, whose pair line is at most 38
    per_slab = max(1, _SLAB_BYTES // _block_bytes(d, m))  # blocks
    buf = np.empty(per_slab * (m * (width + 1) + 2 * d + 2) + 38, np.uint8)
    fh.seek(start)
    at = held = 0  # blocks decoded; bytes carried over to the next slab
    while at < n_pairs:
        data = buf[:held + fh.readinto(buf[held:])]
        ends = np.flatnonzero(data == ord("\n"))[:per_slab * stride]
        count = len(ends) // stride
        if not count:  # a block longer than any that decodes
            return None
        end = ends[count * stride - 1] + 1
        if not _decode_blocks(data[:end], ends[:count * stride], d, m,
                              pairs[at:at + count], mats[at:at + count]):
            return None
        at += count
        held = len(data) - end
        buf[:held] = data[end:]
    # a pair listed twice, in one slab or two, is two equal neighbours among
    # the sorted pair keys of the graph
    g = BlockedGraph(d, m, seed, pairs, mats)
    return None if (g._keys[1:] == g._keys[:-1]).any() else g


def _loads_blocked_lines(text: str) -> BlockedGraph:
    """The per-line blocked-host reader: any row ``int(row, 16)`` takes; the
    only source of ``FormatError``."""
    lines = text.splitlines()
    d, m, seed = _header(lines, "d m seed")
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


def _read_file(path, fast, loads):
    """Decode the regular file at ``path`` with the array reader ``fast``; a
    file it returns None for, or a stream such as a pipe, is read whole as
    text, as ``open(path).read()`` reads it, and goes to ``loads``."""
    with open(path, "rb") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            if (g := fast(fh)) is not None:
                return g
            fh.seek(0)
        return loads(io.TextIOWrapper(fh).read())


def _loads_text(text: str, fast, loads_lines):
    """Decode ``text`` with the array reader ``fast`` on its bytes when it is
    ASCII; text it returns None for, or other text, goes to the per-line
    reader ``loads_lines``, which alone raises ``FormatError``, so what a
    file means and how it fails do not depend on the path taken."""
    if text.isascii() and (g := fast(io.BytesIO(text.encode("ascii")))) is not None:
        return g
    return loads_lines(text)


def read_hypercube(path) -> HypercubeGraph:
    """The cube graph in the file at ``path``, read as ``_read_file`` reads."""
    return _read_file(path, _read_cube, loads_hypercube)


def loads_hypercube(text: str) -> HypercubeGraph:
    """The cube graph in ``text``, read as ``_loads_text`` reads."""
    return _loads_text(text, _read_cube, _loads_hypercube_lines)


def read_blocked(path) -> BlockedGraph:
    """The blocked host in the file at ``path``, read as ``_read_file`` reads."""
    return _read_file(path, _read_blocked, loads_blocked)


def loads_blocked(text: str) -> BlockedGraph:
    """The blocked host in ``text``, read as ``_loads_text`` reads."""
    return _loads_text(text, _read_blocked, _loads_blocked_lines)


def read_host(path) -> BlockedGraph | HypercubeGraph:
    """The host at ``path``: a blocked host when its header line holds three
    fields ("d m seed"), a cube graph otherwise.

    The header is read on its own and the file then read again by its
    format's reader, save from a stream such as a pipe, which can be read
    only once: that is read whole, as text, and decoded from the text.  A
    file that is not text fails as reading it whole as text does.
    """
    with open(path, errors="replace") as fh:
        if fh.seekable():
            head, text = fh.readline(), None
        else:
            fh.reconfigure(errors="strict")
            head = text = fh.read()
    first = head.partition("\n")[0].splitlines()
    if first and len(first[0].split()) == 3:
        return read_blocked(path) if text is None else loads_blocked(text)
    return read_hypercube(path) if text is None else loads_hypercube(text)
