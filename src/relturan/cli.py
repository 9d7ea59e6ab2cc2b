"""Unified command-line front end.

Subcommands cover host generation, pattern classification, density
solving, richness analysis, staircase embedding, the windowed sampler and
its exact verifier, the auxiliary-inequality checks, and grid reports of
the experiments that ``report --help`` lists.
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
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import __version__, density, graphio, hosts, lemma_checks, patterns, richness, tiling
from .core import MAX_DIGITS, BudgetError, tau

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
        # at least the digits of the longer part, as log10(2) < 0.30103
        bits = max(obj.numerator.bit_length(), obj.denominator.bit_length())
        if (digits := bits * 30103 // 100000 + 1) > MAX_DIGITS:
            raise BudgetError(f"an exact fraction of up to {digits} digits exceeds {MAX_DIGITS}")
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(0)
            return {"num": str(obj.numerator), "den": str(obj.denominator), "float": approx}
        finally:  # main may run in-process, so the limit is restored
            sys.set_int_max_str_digits(limit)
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):  # a result record (NamedTuple)
        return _jsonify(obj._asdict())
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _write_out(args, name: str, text: str) -> Optional[str]:
    """Write ``text`` to the file ``name`` under ``--out-dir`` and return its
    path; without ``--out-dir``, write nothing and return None."""
    if not args.out_dir:
        return None
    path = Path(args.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    return str(path)


def _csv(header: list[str], rows: list[list]) -> str:
    """The CSV table of ``header`` and ``rows``, lines ending in CRLF."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _emit(result, args) -> None:
    payload = json.dumps(_jsonify(result), indent=2, sort_keys=True)
    # written before printing, so a run whose out-dir fails prints no result
    if _write_out(args, "result.json", payload + "\n"):
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
        _write_out(args, "manifest.json",
                   json.dumps(_jsonify(manifest), indent=2, sort_keys=True) + "\n")
    print(payload)


# ---------------------------------------------------------------- commands
#
# Each command returns (result, failure): the result to print, or None when
# a check failed before there was one or the command printed its own table,
# and the message of a failed check, or None.  ``main`` prints the result and
# turns a failure into exit 1.


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
    pat = graphio.read_ordered(args.pattern)
    host = graphio.read_ordered(args.host)
    if args.mode == "exact":
        if args.seed is not None:
            raise ValueError("--seed seeds the local search; --mode exact reads none")
        res = density.rho_exact(pat, host, node_budget=args.budget)
    else:
        args.seed = 0 if args.seed is None else args.seed  # the manifest records the seed run
        res = density.rho_local_search(pat, host, budget=args.budget or 2000, seed=args.seed)
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
    _write_out(args, "levels.csv", _csv(["level", "count", "capacity", "rich"], [
        [lv, counts[lv], tau(lv, d) * m * m, int(lv in rich)] for lv in range(1, d + 1)]))
    return {
        "d": d,
        "m": m,
        "alpha": args.alpha,
        "level_counts": counts[1:],
        "rich_levels": rich,
        "rich_count": len(rich),
        "average_richness": richness.average_richness(counts, d, m),
    }, None


def cmd_embed_hk(args):
    """Embed H_k under the paper's thresholds at ``--epsilon``, or under the
    desk preset without it."""
    preset = "desk" if args.epsilon is None else "paper"
    g = graphio.read_hypercube(args.host)
    stripped, removed = richness.strip_top_forward(g)
    res = richness.extract_rich_interval(stripped, args.epsilon)
    witness = richness.embed_hk_extracted(g, args.k, res, args.epsilon)
    ok = witness is not None
    if ok and not patterns.validate_witness(patterns.build_hk(args.k), g, witness):
        return None, f"embedding {list(witness)} is not an ordered copy of H_{args.k}"
    if args.out_dir:  # the audit record is built only when it is written
        trace_record: dict = {"k": args.k, "preset": preset}
        if isinstance(res, richness.StageFailure):
            trace_record["extraction"] = {"failed_stage": res.stage, "detail": res.detail}
        else:
            trace_record["extraction"] = dict(zip(res._fields[:-2], res))  # less eta and the subgraph
            trace_record["certified_eta"] = res.certified_eta
            trace_record["certified_rich_count"] = len(res.surviving_levels)
        trace_record["stripped_edges_per_level"] = list(removed[1:])
        trace_record["witness"] = witness
        _write_out(args, "trace.json", json.dumps(_jsonify(trace_record), indent=2) + "\n")
    failure = None if ok else f"no H_{args.k} embedding found under the {preset} preset"
    return {"embedded": ok, "k": args.k, "witness": witness}, failure


def cmd_tile_sample(args):
    pat = graphio.read_ordered(args.pattern)
    cfg = tiling.TilingConfig(args.d, args.levels, args.w, pat.n)
    verts = tiling.sample_many(cfg, args.n_samples, args.seed)
    per_slot = [{str(lv): c for lv, c in enumerate(slot) if c}
                for slot in tiling.split_level_counts(cfg, verts).tolist()]
    if args.out_dir:  # the first 10000 chains, built only to be written
        _write_out(args, "chains.csv", _csv([f"v{t + 1}" for t in range(cfg.h)],
                                            verts[:10000].tolist()))
    return {
        "n_samples": args.n_samples,
        "d": cfg.d,
        "w": cfg.w,
        "h": cfg.h,
        "per_slot_split_levels": per_slot,
    }, None


def cmd_tile_verify(args):
    pat = graphio.read_ordered(args.pattern)
    cfg = tiling.TilingConfig(args.d, args.levels, args.w, pat.n)
    report = tiling.tiling_guarantee_report(pat, cfg, args.epsilon,
                                            budget=args.budget or tiling.DEFAULT_REPORT_BUDGET)
    per_level = [{**lg._asdict(), "threshold": float(lg.threshold),
                  "pass_fraction": float(lg.pass_fraction)} for lg in report.per_level]
    ok = report.level_fraction >= 1 - Fraction(args.epsilon)
    _write_out(args, "levels.csv", _csv(["level", "threshold", "pass_fraction"], [
        [r["level"], r["threshold"], r["pass_fraction"]] for r in per_level]))
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


def _is_fraction(value) -> bool:
    """A finite JSON number, or a string ``Fraction`` reads ("1/0" it does not)
    with an exponent no larger in size than Python's own limit on the digits
    of an int read from a string: ``Fraction`` builds 10^exponent, which for
    "1e10000000" takes seconds."""
    if type(value) is not str:
        return _is_number(value)
    try:
        _, e, exponent = value.lower().partition("e")
        if e and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            return False
        Fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


#: each check parameter's description and JSON type test, by its annotation in
#: the check's signature; a check reads a Number with Fraction, so a string such
#: as "1/3" serves there, but a float it compares as a float
_PARAM_TYPES = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", _is_number),
    "Number": ("a number or a fraction string", _is_fraction),
    "Sequence[Number]": ("a list of numbers or fraction strings",
                         lambda v: type(v) is list and all(map(_is_fraction, v))),
    "bool": ("true or false", lambda v: type(v) is bool),
}
#: each lemma's check of params without and with an "f": a3 checks its
#: identity, or its inequality on the table f
_LEMMAS = {
    "a1": (lemma_checks.check_binomial_fraction,) * 2,
    "a2": (lemma_checks.check_locally_balanced,) * 2,
    "a3": (lemma_checks.check_binomial_identity, lemma_checks.check_binomial_average),
}


def cmd_appendix_check(args):
    params = json.loads(args.params)
    if not isinstance(params, dict):
        raise ValueError("params must be a JSON object")
    check = _LEMMAS[args.lemma]["f" in params]
    try:
        bound = inspect.signature(check).bind(**params)
    except TypeError as exc:  # a parameter the check does not take, or a missing one
        raise ValueError(f"params of --lemma {args.lemma}: {exc}") from None
    for key, value in params.items():  # bound above, so every key is a known parameter
        kind, ok = _PARAM_TYPES[bound.signature.parameters[key].annotation]
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


#: the seeds --seed and a grid's "seeds" take: Philox keys are uint64
_SEEDS = range(1 << 64)


def _density_row(host, kept: int) -> list:
    total = host.num_edges()
    return [total, kept, f"{kept / total if total else 1.0:.6f}"]


def _quarter_density(m: int, d: int, seed: int, _) -> list:
    host = hosts.generate_host(m, d, seed).to_ordered()
    return _density_row(host, density.quarter_free_subgraph(host).num_edges())


def _local_density(m: int, d: int, seed: int, rounds: int) -> list:
    host = hosts.generate_host(m, d, seed).to_ordered()
    res = density.rho_local_search(patterns.monotone_p3(), host, rounds, seed)
    return _density_row(host, res.best_edge_count)


def _host_stats(m: int, d: int, seed: int, checks: int, epsilon: float) -> list:
    rep = hosts.verify_host(hosts.generate_host(m, d, seed), epsilon, checks, seed)
    return [rep.levels_ok, sum(c.ok for c in rep.pair_checks), len(rep.pair_checks),
            f"{rep.worst_pair_excess:.6f}"]


#: the keys every report grid may hold
_GRID_KEYS = ("experiment", "d_values", "m", "seeds")
_DENSITY_COLUMNS = {"total_edges": 0, "kept_edges": 0, "ratio": "nan"}
#: each report experiment, a CSV row per d and seed of its grid: its columns
#: between status and runtime_s, each with its value in a row whose host
#: ``generate_host`` refuses; --budget's default (None refuses the flag) and
#: what it counts; its grid keys past ``_GRID_KEYS``, each with its default,
#: description and type test; and its row function, whose values are those of
#: ``row(m, d, seed, budget, **keys)``
_EXPERIMENTS = {
    # the edges the quarter constructor keeps
    "quarter-density": (_DENSITY_COLUMNS, None, "", {}, _quarter_density),
    # the edges the P3 local search keeps in --budget rounds
    "local-density": (_DENSITY_COLUMNS, 500, "rounds", {}, _local_density),
    # verify_host with the grid's epsilon and --budget sampled pair checks, and how many hold
    "host-stats": ({"levels_ok": False, "pairs_ok": 0, "pair_checks": 0, "worst_excess": "nan"},
                   50, "pair checks",
                   {"epsilon": (0.1, "a positive number", lambda v: _is_number(v) and v > 0)},
                   _host_stats),
}


def cmd_report(args):
    """Run the grid's experiment for every d and seed of the grid at its m,
    one CSV row each, as ``_EXPERIMENTS`` gives it."""
    with open(args.grid) as fh:
        spec = json.load(fh)
    # check the whole grid before any row runs
    if not isinstance(spec, dict):
        raise ValueError("grid must be a JSON object")
    name = spec.get("experiment", "quarter-density")
    if name not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    columns, default_budget, _, extra, row = _EXPERIMENTS[name]
    keys = (*_GRID_KEYS, *extra)
    if unknown := [key for key in spec if key not in keys]:
        raise ValueError(f"{name} grids take no key {unknown[0]!r}; "
                         f"their keys are {', '.join(keys)}")
    if default_budget is None and args.budget is not None:
        sets = " and the ".join(f"{other} {counts}" for other, (_, takes, counts, _, _)
                                in _EXPERIMENTS.items() if takes)
        raise ValueError(f"--budget sets the {sets}; {name} takes none")
    d_values = _grid_ints(spec, "d_values", [])
    if type(m := spec.get("m", 8)) is not int:
        raise ValueError(f"grid m must be an integer, got {m!r}")
    seeds = _grid_ints(spec, "seeds", [0])
    if bad := [seed for seed in seeds if seed not in _SEEDS]:
        raise ValueError(f"grid seeds must be non-negative and below 2^64, got {bad[0]}")
    values = {key: spec.get(key, default) for key, (default, _, _) in extra.items()}
    for key, (_, kind, ok) in extra.items():
        if not ok(values[key]):
            raise ValueError(f"grid {key} must be {kind}, got {json.dumps(values[key])}")
    budget = args.budget or default_budget
    rows = []
    for d in d_values:
        for seed in seeds:
            t0 = time.perf_counter()
            try:
                cells, status = row(m, d, seed, budget, **values), "ok"
            except ValueError as exc:  # BudgetError among them
                cells, status = columns.values(), f"infeasible: {exc}"
            rows.append([d, m, seed, status, *cells, f"{time.perf_counter() - t0:.3f}"])
    table = _csv(["d", "m", "seed", "status", *columns, "runtime_s"], rows)
    if (path := _write_out(args, "report.csv", table)) is None:  # no out-dir: the CSV alone
        sys.stdout.write(table)
        return None, None
    return {"experiment": name, "rows": len(rows), "csv": path}, None


# ------------------------------------------------------------------ parser


def _bounded(name: str, convert, holds, bounds: str):
    """An argparse type named ``name`` that converts its text with ``convert``
    and refuses, with one message, a text it cannot read or a value that
    ``holds`` rejects."""
    def parse(text: str):
        try:
            if holds(value := convert(text)):
                return value
        except ValueError:  # a text convert cannot read
            pass
        raise argparse.ArgumentTypeError(f"must be {bounds}, got {text}")
    parse.__name__ = name
    return parse


_unit_fraction = _bounded("_unit_fraction", float, lambda v: 0 <= v <= 1, "in [0, 1]")
_open_unit_fraction = _bounded("_open_unit_fraction", float, lambda v: 0 < v < 1, "in (0, 1)")
_positive_unit_fraction = _bounded("_positive_unit_fraction", float, lambda v: 0 < v <= 1,
                                   "in (0, 1]")
_positive_int = _bounded("_positive_int", int, lambda v: v >= 1, "at least 1")
_seed = _bounded("_seed", int, lambda v: v in _SEEDS, "non-negative and below 2^64")
_levels = _bounded("_levels", lambda text: tuple(map(int, text.split(","))), lambda v: True,
                   "comma-separated integers")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it as it was, and
    every call of ``main`` gets a fresh namespace of the defaults."""
    p = argparse.ArgumentParser(prog="relturan", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def options(sp, func, budget=None):
        """Register --budget, with ``budget`` its help, only on subcommands that
        read it, as each subcommand that reads --seed registers its own, then
        --out-dir."""
        if budget:
            sp.add_argument("--budget", type=_positive_int, default=None, help=budget)
        sp.add_argument("--out-dir", default=None)
        sp.set_defaults(func=func)

    sp = sub.add_parser("gen-host", help="sample and save a blocked random host")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=_seed, default=0)
    options(sp, cmd_gen_host)

    sp = sub.add_parser("classify", help="classify an ordered pattern")
    sp.add_argument("--pattern", required=True)
    options(sp, cmd_classify)

    sp = sub.add_parser("solve", help="largest pattern-free subgraph of a host")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--host", required=True)
    sp.add_argument("--mode", choices=("exact", "local"), default="exact")
    sp.add_argument("--seed", type=_seed, default=None, help="the local search's seed (default 0)")
    options(sp, cmd_solve, budget="first-pass search nodes in exact mode (default: unbounded); "
                                  "rounds in local mode (default 2000)")

    sp = sub.add_parser("analyze-richness", help="per-level edge richness of a host")
    sp.add_argument("--host", required=True)
    sp.add_argument("--alpha", type=_unit_fraction, required=True)
    options(sp, cmd_analyze_richness)

    sp = sub.add_parser("embed-hk", help="embed the staircase via interval extraction")
    sp.add_argument("--host", required=True)
    sp.add_argument("--k", type=_positive_int, required=True)
    sp.add_argument("--epsilon", type=_positive_unit_fraction, default=None,
                    help="run the paper's thresholds at this eps; without it, the desk preset")
    options(sp, cmd_embed_hk)

    sp = sub.add_parser("tile-sample", help="draw windowed embedding chains")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--levels", type=_levels, required=True, help="comma-separated ascending levels")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--n-samples", type=_positive_int, default=10000)
    sp.add_argument("--seed", type=_seed, default=0)
    options(sp, cmd_tile_sample)

    sp = sub.add_parser("tile-verify", help="exact per-level near-uniformity table")
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--levels", type=_levels, required=True)
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--epsilon", type=_open_unit_fraction, required=True)
    options(sp, cmd_tile_verify,
            budget=f"y-classes the report may count (default {tiling.DEFAULT_REPORT_BUDGET})")

    sp = sub.add_parser("appendix-check", help="verify one auxiliary inequality")
    sp.add_argument("--lemma", choices=tuple(_LEMMAS), required=True)
    sp.add_argument("--params", required=True, help="JSON object of check parameters")
    options(sp, cmd_appendix_check)

    experiments = " or ".join(", ".join(_EXPERIMENTS).rsplit(", ", 1))  # "a, b or c"
    sp = sub.add_parser("report", help=f"run a parameter grid of {experiments} and emit a CSV table")
    keys = ", ".join(f'"{key}"' for key in _GRID_KEYS[1:]) + "".join(
        f', and "{key}" for {name}' for name, (*_, extra, _) in _EXPERIMENTS.items() for key in extra)
    sp.add_argument("--grid", required=True, help=f'JSON grid: "experiment" ({experiments}), {keys}')
    budgets = "; ".join(f"{name} {counts} (default {default})" if default else f"{name} takes none"
                        for name, (_, default, counts, _, _) in _EXPERIMENTS.items())
    options(sp, cmd_report, budget=f"per experiment: {budgets}")

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
