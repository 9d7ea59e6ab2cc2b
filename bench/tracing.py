"""Spans at the layer boundaries of ``relturan``, recorded from outside the package.

The tracer replaces module and class attributes that callers look up at
call time (``relturan.density.contains_ordered``,
``relturan.graphio.read_hypercube``, ``HypercubeGraph.to_ordered``, ...)
with wrappers, and puts the originals back afterwards, so no file of the
package changes and untraced rounds run the unwrapped code.

A span records its layer, its kind, start, end, parent and the op it
belongs to.  Containment is called ~10^5 times per round, so it is folded
into a count, a hit count and a total time on the enclosing span rather
than recorded one span per call.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

#: folded calls are attributed to this layer
FOLD_LAYER = "patterns"


class Span:
    __slots__ = ("sid", "op", "layer", "kind", "parent", "start", "end",
                 "work", "fold_calls", "fold_hits", "fold_s")

    def __init__(self, sid, op, layer, kind, parent):
        self.sid, self.op, self.layer, self.kind, self.parent = sid, op, layer, kind, parent
        self.start = self.end = 0.0
        self.work = 0
        self.fold_calls = self.fold_hits = 0
        self.fold_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(path) -> int:
    return os.path.getsize(path)


def _wrap_specs(rt):
    """(owner, attribute, layer, kind, work) for every traced entry point.

    ``kind`` is a string or a function of the call arguments; ``work`` maps
    (args, kwargs, result) to the amount of work the call did.
    """
    core, density, hosts, graphio = rt.core, rt.density, rt.hosts, rt.graphio
    richness, tiling, lemma_checks = rt.richness, rt.tiling, rt.lemma_checks
    specs = [
        (density, "rho_exact", "density", "exact", lambda a, k, r: r.nodes_explored),
        (density, "quarter_free_subgraph", "density", "quarter",
         lambda a, k, r: len(_arg(a, k, 0, "host").edges)),
        (density, "rho_local_search", "density", "local", lambda a, k, r: r.nodes_explored),
        (hosts, "generate_host", "hosts", "generate",
         lambda a, k, r: (1 << _arg(a, k, 1, "d")) * ((1 << _arg(a, k, 1, "d")) - 1) // 2),
        (hosts.BlockedGraph, "to_ordered", "hosts", "to_ordered", None),
        (core.HypercubeGraph, "level_counts", "core", "level_counts", None),
        (core.HypercubeGraph, "to_ordered", "core", "to_ordered", None),
        (richness, "strip_top_forward", "richness", "strip", None),
        (richness, "extract_rich_interval", "richness", "extract",
         lambda a, k, r: int(isinstance(r, richness.StageFailure))),
        (richness, "embed_hk_rich", "richness", "embed", None),
        (tiling, "tiling_guarantee_report", "tiling", "report",
         lambda a, k, r: len(_arg(a, k, 1, "cfg").levels) << (_arg(a, k, 1, "cfg").d - 1)),
        (tiling, "sample_many", "tiling", "sample", lambda a, k, r: _arg(a, k, 1, "n")),
        (lemma_checks, "check_locally_balanced", "lemma_checks", "a2", lambda a, k, r: r.samples),
    ]
    for fmt in ("blocked", "hypercube", "ordered"):
        specs.append((graphio, f"write_{fmt}", "graphio", "dump",
                      lambda a, k, r: _size(_arg(a, k, 0, "path"))))
        specs.append((graphio, f"read_{fmt}", "graphio", "load",
                      lambda a, k, r: _size(_arg(a, k, 0, "path"))))
    for fmt in ("blocked", "hypercube"):
        specs.append((graphio, f"loads_{fmt}", "graphio", "load",
                      lambda a, k, r: len(_arg(a, k, 0, "text"))))
    if rt.cli is not None:
        specs.append((rt.cli, "main", "cli", lambda a, k: _arg(a, k, 0, "argv")[0], None))
    return specs


class Tracer:
    """Collects spans for the ops the runner opens with ``op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = None

    # -- recording

    def open(self, layer: str, kind: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), self._op, layer, kind, parent)
        self.spans.append(span)
        self.stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def op(self, pass_id: int, name: str) -> Span:
        """Open the root span of one op; all spans below it share its id."""
        self._op = (pass_id, name)
        return self.open("bench", name)

    # -- installation

    def install(self, rt) -> None:
        for owner, attr, layer, kind, work in _wrap_specs(rt):
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), layer, kind, work))
        self._patch(rt.density, "contains_ordered", self._fold_wrapper(rt.density.contains_ordered))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, layer, kind, work):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            span = tracer.open(layer, kind if isinstance(kind, str) else kind(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return wrapper

    def _fold_wrapper(self, fn):
        stack = self.stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            top = stack[-1]
            top.fold_calls += 1
            top.fold_s += dt
            top.fold_hits += result is not None
            return result

        return wrapper

    # -- output

    def spans_of(self, ops) -> list[Span]:
        """The spans of the given ops, each a (pass id, op name) pair."""
        return [s for s in self.spans if s.op in ops]

    def dump(self, path) -> None:
        rows = [
            {"id": s.sid, "op": list(s.op), "layer": s.layer, "name": s.kind,
             "parent": s.parent, "start": s.start, "end": s.end, "work": s.work,
             "folded_calls": s.fold_calls, "folded_hits": s.fold_hits, "folded_s": s.fold_s}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fold_layer": FOLD_LAYER, "spans": rows}, fh)


def aggregate(spans: list[Span]) -> dict:
    """Per (layer, kind) totals and per-layer self times over a set of spans.

    ``time``/``calls``/``work`` count only spans with no ancestor of the same
    layer and kind, so recursion and read-then-parse nesting are not counted
    twice.  A span's self time is its duration minus its child spans and
    the calls folded into it; folded time is the fold layer's self time.
    """
    by_id = {s.sid: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    time, self_kind = defaultdict(float), defaultdict(float)
    calls, work = defaultdict(int), defaultdict(int)
    self_layer = defaultdict(float)
    fold = {"calls": 0, "hits": 0, "s": 0.0}
    for s in spans:
        key = (s.layer, s.kind)
        own = s.duration - child_s[s.sid] - s.fold_s
        self_kind[key] += own
        self_layer[s.layer] += own
        self_layer[FOLD_LAYER] += s.fold_s
        fold["calls"] += s.fold_calls
        fold["hits"] += s.fold_hits
        fold["s"] += s.fold_s
        p = by_id.get(s.parent)
        while p is not None and (p.layer, p.kind) != key:
            p = by_id.get(p.parent)
        if p is None:
            time[key] += s.duration
            calls[key] += 1
            work[key] += s.work
    return {"time": time, "calls": calls, "work": work, "self": self_kind,
            "self_layer": self_layer, "fold": fold}


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


#: per-layer metric name -> unit; the names the traced run prints
PER_LAYER = {
    "patterns.contains_calls": "count",
    "patterns.contains_s": "s",
    "patterns.contains_per_s": "1/s",
    "patterns.contains_hit_ratio": "ratio",
    "density.exact_nodes": "count",
    "density.exact_nodes_per_s": "1/s",
    "density.exact_self_s": "s",
    "density.quarter_s": "s",
    "density.quarter_edges_per_s": "1/s",
    "density.local_s": "s",
    "density.local_self_s": "s",
    "density.local_rounds": "count",
    "hosts.generate_s": "s",
    "hosts.block_pairs_per_s": "1/s",
    "hosts.to_ordered_s": "s",
    "graphio.dump_s": "s",
    "graphio.dump_mb_per_s": "MB/s",
    "graphio.load_s": "s",
    "graphio.load_mb_per_s": "MB/s",
    "graphio.roundtrip_failures": "count",
    "core.cube_level_counts_s": "s",
    "core.cube_to_ordered_s": "s",
    "richness.strip_s": "s",
    "richness.extract_s": "s",
    "richness.extract_calls": "count",
    "richness.embed_s": "s",
    "richness.stage_failures": "count",
    "tiling.report_s": "s",
    "tiling.report_cells_per_s": "1/s",
    "tiling.sample_s": "s",
    "tiling.samples_per_s": "1/s",
    "lemma_checks.a2_s": "s",
    "lemma_checks.a2_strings_per_s": "1/s",
    "cli.gen_host_s": "s",
    "cli.analyze_richness_s": "s",
    "cli.embed_hk_s": "s",
    "cli.tile_verify_s": "s",
    "cli.tile_sample_s": "s",
    "cli.appendix_check_s": "s",
    "cli.solve_s": "s",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.layer_self_sum_s": "s",
    "bench.self_sum_ok": "bool",
    "bench.exact_nodes_stable": "bool",
}

CLI_SUBCOMMANDS = ("gen-host", "analyze-richness", "embed-hk", "tile-verify",
                   "tile-sample", "appendix-check", "solve")


def layer_metrics(agg: dict, roundtrip_failures: int) -> dict:
    """The module metrics of PER_LAYER (except the bench.* ones) from ``aggregate``."""
    t, c, w, own = agg["time"], agg["calls"], agg["work"], agg["self"]
    fold = agg["fold"]
    out = {
        "patterns.contains_calls": fold["calls"],
        "patterns.contains_s": fold["s"],
        "patterns.contains_per_s": _rate(fold["calls"], fold["s"]),
        "patterns.contains_hit_ratio": _rate(fold["hits"], fold["calls"]),
        "density.exact_nodes": w["density", "exact"],
        "density.exact_nodes_per_s": _rate(w["density", "exact"], t["density", "exact"]),
        "density.exact_self_s": own["density", "exact"],
        "density.quarter_s": t["density", "quarter"],
        "density.quarter_edges_per_s": _rate(w["density", "quarter"], t["density", "quarter"]),
        "density.local_s": t["density", "local"],
        "density.local_self_s": own["density", "local"],
        "density.local_rounds": w["density", "local"],
        "hosts.generate_s": t["hosts", "generate"],
        "hosts.block_pairs_per_s": _rate(w["hosts", "generate"], t["hosts", "generate"]),
        "hosts.to_ordered_s": t["hosts", "to_ordered"],
        "graphio.dump_s": t["graphio", "dump"],
        "graphio.dump_mb_per_s": _rate(w["graphio", "dump"] / 1e6, t["graphio", "dump"]),
        "graphio.load_s": t["graphio", "load"],
        "graphio.load_mb_per_s": _rate(w["graphio", "load"] / 1e6, t["graphio", "load"]),
        "graphio.roundtrip_failures": roundtrip_failures,
        "core.cube_level_counts_s": t["core", "level_counts"],
        "core.cube_to_ordered_s": t["core", "to_ordered"],
        "richness.strip_s": t["richness", "strip"],
        "richness.extract_s": t["richness", "extract"],
        "richness.extract_calls": c["richness", "extract"],
        "richness.embed_s": t["richness", "embed"],
        "richness.stage_failures": w["richness", "extract"],
        "tiling.report_s": t["tiling", "report"],
        "tiling.report_cells_per_s": _rate(w["tiling", "report"], t["tiling", "report"]),
        "tiling.sample_s": t["tiling", "sample"],
        "tiling.samples_per_s": _rate(w["tiling", "sample"], t["tiling", "sample"]),
        "lemma_checks.a2_s": t["lemma_checks", "a2"],
        "lemma_checks.a2_strings_per_s": _rate(w["lemma_checks", "a2"], t["lemma_checks", "a2"]),
        "cli.self_s": agg["self_layer"]["cli"],
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub.replace('-', '_')}_s"] = t["cli", sub]
    return out
