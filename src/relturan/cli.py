"""Unified command-line front end.

Subcommands cover host generation, pattern classification, density
solving, richness analysis, staircase embedding, the windowed sampler and
its exact verifier, the auxiliary-inequality checks, and grid reports of
three experiments: quarter-density, local-density and host-stats.
Structured results go to stdout as JSON, a result record as an object of
its fields; ``--out-dir`` additionally writes
the result, any CSV plot data, and a run manifest recording everything
needed to reproduce the run.

Exit codes: 0 success, 1 a verification or embedding check failed,
2 usage error (bad flags, malformed input files, a size past a memory
budget).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__, density, graphio, hosts, lemma_checks, patterns, richness, tiling
from .core import tau

#: the flags whose files the manifest records a digest of, where a subcommand has one
_INPUT_FLAGS = ("pattern", "host", "grid")


def _digest(path: str) -> Optional[str]:
    """The SHA-256 of the file at ``path``; None unless it is a regular file.

    A pipe has been drained by the command that read it, so its bytes can no
    longer be digested.
    """
    if not Path(path).is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _jsonify(obj):
    if isinstance(obj, Fraction):
        try:
            approx = float(obj)
        except OverflowError:  # exact binomials outgrow a double; num/den stay exact
            approx = None
        return {"num": str(obj.numerator), "den": str(obj.denominator), "float": approx}
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a result record (NamedTuple)
        return _jsonify(obj._asdict())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit(result, args) -> None:
    payload = json.dumps(_jsonify(result), indent=2, sort_keys=True)
    if args.out_dir:
        # made before printing, so a run whose out-dir fails prints no result
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
    print(payload)
    if args.out_dir:
        (out / "result.json").write_text(payload + "\n")
        manifest = {
            "command": args.command,
            "params": {k: v for k, v in vars(args).items()
                       if k not in ("command", "func") and v is not None},
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "input_digests": {name: _digest(getattr(args, name))
                              for name in _INPUT_FLAGS if hasattr(args, name)},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        (out / "manifest.json").write_text(
            json.dumps(_jsonify(manifest), indent=2, sort_keys=True) + "\n"
        )


def _write_csv(args, name: str, header: list[str], rows: list[list]) -> Optional[str]:
    if not args.out_dir:
        return None
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


# ---------------------------------------------------------------- commands
#
# Each command returns (result, failure): the result to print, or None when
# a check failed before there was one, and the message of a failed check, or
# None.  ``main`` prints the result and turns a failure into exit 1.


def cmd_gen_host(args):
    counts = graphio.write_generated(args.out, args.m, args.d, args.seed)
    return {
        "d": args.d,
        "m": args.m,
        "seed": args.seed,
        "edges": sum(counts),
        "level_counts": counts[1:],
        "out": args.out,
    }, None


def cmd_classify(args):
    pat = graphio.read_ordered(args.pattern)
    has_p3 = patterns.has_monotone_p3(pat)
    chi = patterns.interval_chromatic(pat)
    try:
        pi = patterns.pi_ordered(pat)
    except ValueError:
        pi = None
    return {
        "has_monotone_p3": has_p3,
        "chi_interval": chi,
        "pi": pi,
        # rho_<(F) = 0 iff F has no monotone P3; an edgeless F gets no class
        "classification": ("AT_LEAST_QUARTER" if has_p3 else "ZERO") if pat.num_edges() else None,
        "hk_embedding": patterns.embed_into_hk(pat) if pat.num_edges() and not has_p3 else None,
    }, None


def cmd_solve(args):
    if args.mode == "exhaustive" and args.budget is not None:
        raise ValueError("--budget bounds the exact and local searches; exhaustive mode takes none")
    pat = graphio.read_ordered(args.pattern)
    host = graphio.read_ordered(args.host)
    if args.mode == "exhaustive":
        res = density.rho_exhaustive(pat, host)
    elif args.mode == "exact":
        res = density.rho_exact(pat, host, node_budget=args.budget)
    else:
        budget = 2000 if args.budget is None else args.budget
        res = density.rho_local_search(pat, host, budget=budget, seed=args.seed)
    return {
        "best_edges": res.best_edge_count,
        "total": res.total_edges,
        "ratio": res.ratio,
        "exact": res.exact,
        "nodes_explored": res.nodes_explored,
        "certificate": [list(e) for e in res.certificate],
    }, None


def cmd_analyze_richness(args):
    host = graphio.read_host(args.host)
    d, m = host.d, host.m if isinstance(host, hosts.BlockedGraph) else 1
    counts = host.level_counts()
    rich = richness.rich_levels(counts, d, args.alpha, m)
    _write_csv(args, "levels.csv", ["level", "count", "capacity", "rich"],
               [[lv, counts[lv], tau(lv, d) * m * m, int(lv in rich)] for lv in range(1, d + 1)])
    return {
        "d": d,
        "m": m,
        "alpha": args.alpha,
        "level_counts": counts[1:],
        "rich_levels": rich,
        "rich_count": len(rich),
        "average_richness": richness.average_richness(counts, d, m),
    }, None


#: ``embed-hk --preset paper`` without ``--epsilon``
PAPER_EPSILON = 0.1


def cmd_embed_hk(args):
    if args.preset == "paper":
        thresholds = richness.Thresholds.paper(
            PAPER_EPSILON if args.epsilon is None else args.epsilon)
    elif args.epsilon is not None:
        raise ValueError("--epsilon sets the paper preset's thresholds; pass --preset paper")
    else:
        thresholds = richness.Thresholds.desk()
    g = graphio.read_hypercube(args.host)
    stripped, stats = richness.strip_top_forward(g)
    res = richness.extract_rich_interval(stripped, thresholds)
    witness = richness.embed_hk_extracted(g, args.k, res, thresholds)
    ok = witness is not None
    if ok and not patterns.validate_witness(patterns.build_hk(args.k), g, witness):
        return None, f"embedding {list(witness)} is not an ordered copy of H_{args.k}"
    if args.trace:  # the audit record is built only when it is written
        trace_record: dict = {"k": args.k, "preset": args.preset}
        if isinstance(res, richness.StageFailure):
            trace_record["extraction"] = {"failed_stage": res.stage, "detail": res.detail}
        else:
            trace_record["extraction"] = res.trace._asdict()
            trace_record["certified_eta"] = res.certified_eta
            trace_record["certified_rich_count"] = res.certified_rich_count
        trace_record["stripped_edges_per_level"] = list(stats.removed_per_level[1:])
        trace_record["witness"] = witness
        Path(args.trace).write_text(json.dumps(_jsonify(trace_record), indent=2) + "\n")
    failure = None if ok else f"no H_{args.k} embedding found under the {args.preset} preset"
    return {"embedded": ok, "k": args.k, "witness": witness}, failure


def _tiling_config(args, h: int) -> tiling.TilingConfig:
    levels = tuple(int(t) for t in args.levels.split(","))
    return tiling.TilingConfig(args.d, levels, args.w, h)


def cmd_tile_sample(args):
    pat = graphio.read_ordered(args.pattern)
    cfg = _tiling_config(args, pat.n)
    verts = tiling.sample_many(cfg, args.n_samples, args.seed)
    per_slot = [{str(lv): c for lv, c in enumerate(slot) if c}
                for slot in tiling.split_level_counts(cfg, verts).tolist()]
    if args.out_dir:  # the first 10000 chains, built only to be written
        _write_csv(args, "chains.csv", [f"v{t + 1}" for t in range(cfg.h)],
                   verts[:10000].tolist())
    return {
        "n_samples": args.n_samples,
        "d": cfg.d,
        "w": cfg.w,
        "h": cfg.h,
        "per_slot_split_levels": per_slot,
    }, None


def cmd_tile_verify(args):
    pat = graphio.read_ordered(args.pattern)
    cfg = _tiling_config(args, pat.n)
    budget = tiling.DEFAULT_REPORT_BUDGET if args.budget is None else args.budget
    report = tiling.tiling_guarantee_report(pat, cfg, args.epsilon, budget=budget)
    per_level = [{**lg._asdict(), "threshold": float(lg.threshold),
                  "pass_fraction": float(lg.pass_fraction)} for lg in report.per_level]
    ok = report.level_fraction >= 1 - Fraction(args.epsilon)
    _write_csv(args, "levels.csv", ["level", "threshold", "pass_fraction"],
               [[r["level"], r["threshold"], r["pass_fraction"]] for r in per_level])
    return {
        "epsilon": args.epsilon,
        "per_level": per_level,
        "passing_levels": report.passing_levels,
        "level_fraction": report.level_fraction,
        "ok": ok,
    }, None if ok else "too few levels meet the near-uniform bound"


def _is_number(value) -> bool:
    """A finite JSON number: true, false, NaN and Infinity (or 1e400) are not."""
    return type(value) is int or type(value) is float and math.isfinite(value)


#: the largest exponent, in size, of a fraction string: Python's own limit on
#: the digits of an int read from a string. ``Fraction`` builds 10^exponent,
#: which for "1e10000000" takes seconds
_MAX_FRACTION_EXPONENT = 4300


def _is_fraction(value) -> bool:
    """A finite JSON number, or a string ``Fraction`` reads ("1/0" it does not)
    with an exponent of at most ``_MAX_FRACTION_EXPONENT`` in size."""
    if type(value) is not str:
        return _is_number(value)
    try:
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > _MAX_FRACTION_EXPONENT:
            return False
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


#: each check parameter's description and JSON type test; the exact checks read
#: alpha, eps, eta and f with Fraction, so a string such as "1/3" serves there,
#: but a2 compares its eps with floats
_FRACTION = ("a number or a fraction string", _is_fraction)
_PARAM_TYPES = {
    **dict.fromkeys(("k", "n", "x", "y", "n_samples", "seed", "n_max"),
                    ("an integer", lambda v: type(v) is int)),
    **dict.fromkeys(("alpha", "eps", "eta"), _FRACTION),
    "f": ("a list of numbers or fraction strings",
          lambda v: type(v) is list and all(map(_FRACTION[1], v))),
    "exhaustive": ("true or false", lambda v: type(v) is bool),
    "a2 eps": ("a number", _is_number),
}


def cmd_appendix_check(args):
    params = json.loads(args.params)
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    if args.lemma == "a1":
        check = lemma_checks.check_binomial_fraction
    elif args.lemma == "a2":
        check = lemma_checks.check_locally_balanced
    elif "f" in params:
        check = lemma_checks.check_binomial_average
    else:
        check = lemma_checks.check_binomial_identity
    try:
        inspect.signature(check).bind(**params)
    except TypeError as exc:  # a parameter the check does not take, or a missing one
        raise ValueError(f"params of --lemma {args.lemma}: {exc}") from None
    for key, value in params.items():  # bound above, so every key is a known parameter
        kind, ok = _PARAM_TYPES["a2 eps" if (args.lemma, key) == ("a2", "eps") else key]
        if not ok(value):
            raise ValueError(f"param {key} must be {kind}, got {json.dumps(value)}")
    report = check(**params)
    return report, None if report.passed else f"lemma check {report.lemma} failed"


def _grid_ints(spec: dict, key: str, default: list) -> list[int]:
    """``spec[key]``, checked to be a list of ints (JSON true and false are not)."""
    values = spec.get(key, default)
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"grid {key} must be a list of integers, got {values!r}")
    return values


#: each report experiment's CSV columns between status and runtime_s, and
#: their values in a row whose host ``generate_host`` refuses
_REPORT_COLUMNS = {
    "quarter-density": (["total_edges", "kept_edges", "ratio"], [0, 0, "nan"]),
    "local-density": (["total_edges", "kept_edges", "ratio"], [0, 0, "nan"]),
    "host-stats": (["levels_ok", "pairs_ok", "pair_checks", "worst_excess"], [False, 0, 0, "nan"]),
}


def _report_values(experiment: str, m: int, d: int, seed: int, budget, epsilon) -> list:
    """One report row's values between status and runtime_s."""
    host = hosts.generate_host(m, d, seed)
    if experiment == "host-stats":
        rep = hosts.verify_host(host, epsilon, 50 if budget is None else budget, seed)
        return [rep.levels_ok, sum(c.ok for c in rep.pair_checks), len(rep.pair_checks),
                f"{rep.worst_pair_excess:.6f}"]
    host = host.to_ordered()
    if experiment == "quarter-density":
        kept = density.quarter_free_subgraph(host).num_edges()
    else:
        rounds = 500 if budget is None else budget
        kept = density.rho_local_search(patterns.monotone_p3(), host, rounds, seed).best_edge_count
    total = host.num_edges()
    return [total, kept, f"{kept / total if total else 1.0:.6f}"]


def cmd_report(args):
    """Run the grid's experiment on ``generate_host(m, d, seed)`` for every d,
    m and seed, one CSV row each:

    - ``quarter-density``: the edges the quarter constructor keeps;
    - ``local-density``: the edges the P3 local search keeps in ``--budget``
      rounds (default 500);
    - ``host-stats``: ``verify_host`` with the grid's ``epsilon`` (default
      0.1) and ``--budget`` sampled pair checks (default 50), and how many
      of them hold.
    """
    with open(args.grid) as fh:
        spec = json.load(fh)
    # check the whole grid before any row runs
    if not isinstance(spec, dict):
        raise ValueError("grid must be a JSON object")
    experiment = spec.get("experiment", "quarter-density")
    if experiment not in _REPORT_COLUMNS:
        raise ValueError(f"unknown experiment {experiment!r}")
    if experiment == "quarter-density" and args.budget is not None:
        raise ValueError("--budget sets the local-density rounds and the host-stats pair checks; "
                         "quarter-density takes none")
    d_values = _grid_ints(spec, "d_values", [])
    m_values = _grid_ints(spec, "m_values", [spec.get("m", 8)])
    seeds = _grid_ints(spec, "seeds", [args.seed])
    for seed in seeds:
        if not 0 <= seed < 1 << 64:  # the rule of --seed
            raise ValueError(f"grid seeds must be non-negative and below 2^64, got {seed}")
    epsilon = spec.get("epsilon", 0.1)
    if not (_is_number(epsilon) and epsilon > 0):
        raise ValueError(f"grid epsilon must be a positive number, got {json.dumps(epsilon)}")
    columns, refused = _REPORT_COLUMNS[experiment]
    rows = []
    for d in d_values:
        for m in m_values:
            for seed in seeds:
                t0 = time.perf_counter()
                try:
                    values = _report_values(experiment, m, d, seed, args.budget, epsilon)
                    status = "ok"
                except ValueError as exc:  # BudgetError among them
                    values, status = refused, f"infeasible: {exc}"
                rows.append([d, m, seed, status, *values, f"{time.perf_counter() - t0:.3f}"])
    header = ["d", "m", "seed", "status", *columns, "runtime_s"]
    path = _write_csv(args, "report.csv", header, rows)
    if path is None:  # no out-dir: print the CSV itself
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    return {"experiment": experiment, "rows": len(rows), "csv": path}, None


# ------------------------------------------------------------------ parser


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 1 << 64:  # Philox keys are uint64
        raise argparse.ArgumentTypeError(f"seed must be non-negative and below 2^64, got {seed}")
    return seed


def _bounded(name: str, convert, holds, bounds: str):
    """An argparse type that converts its text with ``convert`` and refuses a
    value that ``holds`` rejects; argparse names it ``name`` in the message
    for a text that ``convert`` cannot read."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
        return value
    parse.__name__ = name
    return parse


_unit_fraction = _bounded("_unit_fraction", float, lambda v: 0 <= v <= 1, "in [0, 1]")
_open_unit_fraction = _bounded("_open_unit_fraction", float, lambda v: 0 < v < 1, "in (0, 1)")
_positive_unit_fraction = _bounded("_positive_unit_fraction", float, lambda v: 0 < v <= 1,
                                   "in (0, 1]")
_positive_int = _bounded("_positive_int", int, lambda v: v >= 1, "at least 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, and
    every call of ``main`` gets a fresh namespace of the defaults."""
    p = argparse.ArgumentParser(prog="relturan", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def options(sp, func, seed=False, budget=None):
        """Register --seed and --budget only on subcommands that read them."""
        if seed:
            sp.add_argument("--seed", type=_seed, default=0)
        if budget:
            sp.add_argument("--budget", type=budget, default=None)
        sp.add_argument("--out-dir", default=None)
        sp.set_defaults(func=func)

    sp = sub.add_parser("gen-host", help="sample and save a blocked random host")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out", required=True)
    options(sp, cmd_gen_host, seed=True)

    sp = sub.add_parser("classify", help="classify an ordered pattern")
    sp.add_argument("--pattern", required=True)
    options(sp, cmd_classify)

    sp = sub.add_parser("solve", help="largest pattern-free subgraph of a host")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--host", required=True)
    sp.add_argument("--mode", choices=("exact", "exhaustive", "local"), default="exact")
    options(sp, cmd_solve, seed=True, budget=_positive_int)

    sp = sub.add_parser("analyze-richness", help="per-level edge richness of a host")
    sp.add_argument("--host", required=True)
    sp.add_argument("--alpha", type=_unit_fraction, required=True)
    options(sp, cmd_analyze_richness)

    sp = sub.add_parser("embed-hk", help="embed the staircase via interval extraction")
    sp.add_argument("--host", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--epsilon", type=_positive_unit_fraction, default=None,
                    help=f"the paper preset's eps (default {PAPER_EPSILON}); "
                         "a usage error under --preset desk")
    sp.add_argument("--preset", choices=("paper", "desk"), default="desk")
    sp.add_argument("--trace", default=None, help="write the audit trace to this JSON file")
    options(sp, cmd_embed_hk)

    sp = sub.add_parser("tile-sample", help="draw windowed embedding chains")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--levels", required=True, help="comma-separated ascending levels")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--n-samples", type=int, default=10000)
    options(sp, cmd_tile_sample, seed=True)

    sp = sub.add_parser("tile-verify", help="exact per-level near-uniformity table")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--levels", required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--epsilon", type=_open_unit_fraction, required=True)
    options(sp, cmd_tile_verify, budget=_positive_int)

    sp = sub.add_parser("appendix-check", help="verify one auxiliary inequality")
    sp.add_argument("--lemma", choices=("a1", "a2", "a3"), required=True)
    sp.add_argument("--params", required=True, help="JSON object of check parameters")
    options(sp, cmd_appendix_check)

    sp = sub.add_parser("report", help="run a parameter grid of quarter-density, local-density "
                                       "or host-stats and emit a CSV table")
    sp.add_argument("--grid", required=True,
                    help='JSON grid: "experiment", "d_values", "m" or "m_values", "seeds", '
                         'and "epsilon" for host-stats')
    options(sp, cmd_report, seed=True, budget=_positive_int)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand: print its result, then exit 1 if a check failed.

    A usage error (bad flags, malformed input, a file-system error on a
    path given) prints nothing on stdout and exits 2.
    """
    args = build_parser().parse_args(argv)
    try:
        result, failure = args.func(args)
        if result is not None:
            _emit(result, args)
    except (OSError, ValueError) as exc:  # FormatError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure is not None:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
