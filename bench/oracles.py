"""Output checks for the benchmark, independent of the code the benchmark times.

Every check works on plain Python values (edge tuples, file text, decoded
JSON) and shares no code with ``relturan``: containment is re-derived by
enumerating increasing vertex tuples, host files are decoded by a strict
parser written here, and cube-graph edges are looked up as lines of the
file itself.  A failed check raises ``CheckFailed`` with a short label that
names the property, so that the runner can tell known defects apart from
new failures.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np


class CheckFailed(Exception):
    """An output violated the property named by ``label``."""

    def __init__(self, label: str, detail: str):
        super().__init__(f"{label}: {detail}")
        self.label = label
        self.detail = detail


def require(condition: bool, label: str, detail: str) -> None:
    if not condition:
        raise CheckFailed(label, detail)


# ------------------------------------------------------------ ordered graphs


def canon(edges) -> set[tuple[int, int]]:
    return {(u, v) if u < v else (v, u) for u, v in edges}


def has_copy(pattern_n: int, pattern_edges, n: int, edges: set) -> bool:
    """True iff some increasing injection maps every pattern edge into ``edges``."""
    for combo in combinations(range(n), pattern_n):
        if all((combo[u], combo[v]) in edges for u, v in pattern_edges):
            return True
    return False


def has_increasing_path(edges) -> bool:
    """Linear scan for u < v < w with uv and vw both edges."""
    lower = {u for u, _ in edges}
    return any(v in lower for _, v in edges)


def check_subgraph(cert, host_edges: set) -> set:
    kept = canon(cert)
    require(len(kept) == len(cert), "subset", "certificate repeats an edge")
    extra = kept - host_edges
    require(not extra, "subset", f"edges not in host: {sorted(extra)[:3]}")
    return kept


def check_exact_optimum(
    best: int,
    cert,
    exact: bool,
    pattern_n: int,
    pattern_edges,
    n: int,
    host_edges: set,
    extremal: int | None = None,
    reference: tuple | None = None,
) -> None:
    """A proven optimum: an F-free, maximal subgraph of the host of the claimed size.

    ``extremal`` is the known optimum (floor(n^2/4) for P3 on K_n);
    ``reference`` is the (count, certificate) pair of the exhaustive oracle.
    """
    require(exact, "exact", "solver did not prove optimality")
    kept = check_subgraph(cert, host_edges)
    require(best == len(kept), "size", f"best_edge_count {best} != |certificate| {len(kept)}")
    require(
        not has_copy(pattern_n, pattern_edges, n, kept),
        "pattern-free",
        "certificate contains a copy of the pattern",
    )
    for e in sorted(host_edges - kept):
        require(
            has_copy(pattern_n, pattern_edges, n, kept | {e}),
            "maximal",
            f"host edge {e} can be added without creating a copy",
        )
    if extremal is not None:
        require(best == extremal, "extremal", f"optimum {best} != known value {extremal}")
    if reference is not None:
        ref_best, ref_cert = reference
        require(best == ref_best, "exhaustive", f"optimum {best} != exhaustive {ref_best}")
        require(
            tuple(sorted(kept)) == tuple(ref_cert),
            "exhaustive",
            "certificate is not the lexicographically least optimum",
        )


def check_p3_free(cert, host_edges: set, min_edges: int = 0) -> None:
    """A subgraph of the host with no increasing 2-edge path and at least ``min_edges`` edges."""
    kept = check_subgraph(cert, host_edges)
    require(not has_increasing_path(kept), "p3-free", "subgraph has an increasing 2-edge path")
    require(len(kept) >= min_edges, "quarter", f"{len(kept)} edges < required {min_edges}")


# ------------------------------------------------------------ blocked hosts


def decode_blocked(text: str) -> tuple[int, int, int, dict]:
    """Strict decoder for the blocked-host text format.

    Header ``d m seed``; then per nonempty block pair a line ``x y`` and m
    rows of exactly ceil(m/4) lowercase hex digits, column j being bit j.
    """
    lines = text.splitlines()
    require(bool(lines), "roundtrip", "empty file")
    head = lines[0].split()
    require(len(head) == 3, "roundtrip", f"bad header {lines[0]!r}")
    d, m, seed = (int(t) for t in head)
    row_re = re.compile(f"[0-9a-f]{{{(m + 3) // 4}}}")
    nbytes = (m + 7) // 8
    keys = []
    raw = bytearray()
    i = 1
    while i < len(lines):
        x, y = (int(t) for t in lines[i].split())
        require(0 <= x < y < (1 << d), "roundtrip", f"block pair ({x}, {y}) out of range")
        keys.append((x, y))
        rows = lines[i + 1:i + 1 + m]
        require(len(rows) == m, "roundtrip", f"block ({x}, {y}) truncated")
        for r, row in enumerate(rows):
            require(
                row_re.fullmatch(row) is not None,
                "roundtrip",
                f"block ({x}, {y}) row {r} is {row[:24]!r}, not {(m + 3) // 4} hex digits",
            )
            val = int(row, 16)
            require(val >> m == 0, "roundtrip", f"block ({x}, {y}) row {r} has bits beyond m")
            raw += val.to_bytes(nbytes, "little")
        i += 1 + m
    require(len(set(keys)) == len(keys), "roundtrip", "duplicate block pair")
    bits = np.unpackbits(np.frombuffer(bytes(raw), dtype=np.uint8), bitorder="little")
    mats = bits.reshape(len(keys), m, nbytes * 8)[:, :, :m].astype(bool)
    return d, m, seed, dict(zip(keys, mats))


def check_blocked_file(text: str, d: int, m: int, seed: int, blocks: dict) -> dict:
    """The file decodes to exactly the reference host; returns the decoded blocks."""
    fd, fm, fseed, got = decode_blocked(text)
    require((fd, fm, fseed) == (d, m, seed), "roundtrip", f"header {(fd, fm, fseed)}")
    want = {k for k, mat in blocks.items() if mat.any()}
    require(set(got) == want, "roundtrip", f"{len(got)} block pairs, expected {len(want)}")
    for key in sorted(want):
        require(np.array_equal(got[key], blocks[key]), "roundtrip", f"block {key} differs")
    return got


def level(u: int, v: int, d: int) -> int:
    """First index (1-based) at which the d-bit strings of u and v differ."""
    return d - (u ^ v).bit_length() + 1


def cube_capacity(lv: int, d: int) -> int:
    """Number of pairs u < v in {0,1}^d splitting at level lv."""
    return 1 << (2 * d - lv - 1)


def blocked_level_counts(d: int, blocks: dict) -> list[int]:
    counts = [0] * (d + 1)
    for (x, y), mat in blocks.items():
        counts[level(x, y, d)] += int(mat.sum())
    return counts


def decode_cube(text: str) -> tuple[int, list[int]]:
    """Dimension and per-level edge counts of a cube-graph file."""
    lines = text.splitlines()
    d, m = (int(t) for t in lines[0].split())
    counts = [0] * (d + 1)
    for line in lines[1:m + 1]:
        a, b = line.split()
        counts[level(int(a, 2), int(b, 2), d)] += 1
    return d, counts


def fraction_of(value) -> Fraction:
    """A rational as the CLI prints it: {"num": ..., "den": ...}."""
    return Fraction(int(value["num"]), int(value["den"]))


def check_richness(out: dict, d: int, m: int, alpha: float, counts: list[int]) -> None:
    """analyze-richness output against counts the benchmark took from the file.

    A level is rich when its count reaches alpha of the capacity tau_l m^2,
    and the average richness is (1/d) sum e_l / (tau_l m^2), m = 1 for a
    cube graph: one definition for both kinds of host.
    """
    require((out["d"], out["m"]) == (d, m), "shape", f"d, m = {out['d']}, {out['m']}")
    require(out["level_counts"] == counts[1:], "level_counts", f"{out['level_counts']} != {counts[1:]}")
    rich = [lv for lv in range(1, d + 1) if counts[lv] >= alpha * cube_capacity(lv, d) * m * m]
    require(out["rich_levels"] == rich, "rich_levels", f"{out['rich_levels']} != {rich}")
    require(out["rich_count"] == len(rich), "rich_levels", "rich_count disagrees")
    want = sum(Fraction(counts[lv], cube_capacity(lv, d) * m * m) for lv in range(1, d + 1)) / d
    got = fraction_of(out["average_richness"])
    require(got == want, "average_richness", f"{float(got)} != {float(want)} by definition")


# ------------------------------------------------------------ cube embeddings


def hk_edges(k: int) -> list[tuple[int, int]]:
    """Staircase H_k on labels 0..2k-1: (x,0)(y,1) for x <= y, (i,b) -> 2i+b."""
    return [(2 * a, 2 * b + 1) for a in range(k) for b in range(a, k)]


def cube_edge_lookup(text: str, d: int):
    """has_edge(u, v) for a cube-graph file, answered from the file's own lines."""
    body = "\n" + text

    def has_edge(u: int, v: int) -> bool:
        u, v = min(u, v), max(u, v)
        return f"\n{u:0{d}b} {v:0{d}b}\n" in body

    return has_edge


def check_witness(witness, k: int, d: int, has_edge) -> None:
    """An order-preserving copy of H_k in the cube graph, checked edge by edge."""
    require(witness is not None, "witness", "no embedding reported")
    require(len(witness) == 2 * k, "witness", f"{len(witness)} vertices for H_{k}")
    require(all(0 <= v < (1 << d) for v in witness), "witness", "vertex out of range")
    require(all(a < b for a, b in zip(witness, witness[1:])), "witness", "not increasing")
    for u, v in hk_edges(k):
        require(has_edge(witness[u], witness[v]), "witness", f"({witness[u]}, {witness[v]}) is not a cube edge")


# ------------------------------------------------------------ tiling and lemmas


def check_tile_sample(out: dict, n_samples: int, levels, h: int) -> None:
    require(out["n_samples"] == n_samples, "n_samples", f"{out['n_samples']} != {n_samples}")
    slots = out["per_slot_split_levels"]
    require(len(slots) == h - 1, "slots", f"{len(slots)} slots for h = {h}")
    allowed = {str(lv) for lv in levels}
    for t, counts in enumerate(slots):
        require(set(counts) <= allowed, "split-levels", f"slot {t} splits outside the level set")
        total = sum(counts.values())
        require(total == n_samples, "split-levels", f"slot {t} counts sum to {total}, not {n_samples}")


def check_tile_verify(out: dict, d: int, levels, epsilon: float) -> None:
    rows = out["per_level"]
    require([r["level"] for r in rows] == list(levels), "levels", "per-level rows do not match")
    passing = 0
    for r in rows:
        cap = cube_capacity(r["level"], d)
        require(r["total_pairs"] == cap, "capacity", f"level {r['level']}: {r['total_pairs']} != {cap}")
        require(0 <= r["passing_pairs"] <= cap, "pairs", f"level {r['level']} pass count out of range")
        require(r["pass_fraction"] == r["passing_pairs"] / cap, "pairs", "pass_fraction disagrees")
        passing += Fraction(r["passing_pairs"], cap) >= 1 - Fraction(epsilon)
    require(out["passing_levels"] == passing, "passing", f"{out['passing_levels']} != {passing}")
    frac = fraction_of(out["level_fraction"])
    require(frac == Fraction(passing, len(rows)), "passing", "level_fraction disagrees")
    require(out["ok"] is True and frac >= 1 - Fraction(epsilon), "ok", "guarantee not met")


def check_locally_balanced(out: dict, n: int, eps: float, n_samples: int) -> None:
    require(out["lemma"] == "locally-balanced", "lemma", out["lemma"])
    require(out["samples"] == n_samples, "samples", f"{out['samples']} != {n_samples}")
    require(out["params"]["min_window"] == math.ceil(math.log(n) ** 2), "window", "min_window")
    violating = out["extra"]["violating"]
    require(0 <= violating <= n_samples, "violating", f"{violating} out of range")
    require(out["lhs"] == violating / n_samples, "lhs", "violating fraction disagrees")
    require(out["passed"] is True and out["lhs"] < eps, "passed", f"lhs {out['lhs']} vs eps {eps}")
