#!/usr/bin/env python3
"""Benchmark for relturan: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-small --seed 0 --seconds 20 --trace 0

One caller in one process runs a workload's ops back to back, single
threaded, in rounds of identical inputs made from ``--seed``.  The number of
rounds is ``--seconds`` over the workload's ``round_s``, so it does not
depend on how fast the code under test is; a run stops early only if it
overruns ``--seconds`` several times over.  Every op's output is checked,
outside the timed region, by ``oracles``.

Times are normalised to a reference machine speed.  On a shared machine
the speed of the same code drifts by up to 1.6x, in phases that can outlast
a whole run, so neither the fastest nor the median raw time of a run is
steady from run to run.  A fixed pure-Python calibration loop is therefore
timed right before and right after every op and every set-up; the op's
time divided by the mean of the two, times the loop's time at the reference
speed (``CALIB_REF_S``), is its normalised time.  The correction is whole
only for code that slows as the loop does: interpreter-bound code does,
file parsing and numpy kernels only in part, and the speed also changes
inside a long op; what is left shows as run-to-run spread.  Raw times are
printed as well.

End-to-end metrics (``--trace 0``):

* ``setup_s``: the trimmed mean (lowest and highest dropped) of the
  normalised times of several set-ups, each importing the package and
  building and writing the workload's fixtures;
* ``norm_wall_s``: one round's ops, each at the trimmed mean of its
  normalised times over the untraced rounds.  Within a run an op's
  normalised time still scatters by about 10% (the speed changes inside an
  op as well), so the estimate is a mean over many rounds, made robust by
  the trim; the raw wall time of every round is printed too;
* ``peak_rss_mb``: peak resident set of the process through set-up and the
  first round, before any check runs or builds its reference data; later
  rounds repeat the same calls;
* ``ok_ratio``: ops whose output passed every check, over ops attempted;
* ``p3_density``: mean P3-free edge fraction of the workload's P3 results.

With ``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer ones of ``tracing``, from the fastest traced set-up and each
op's fastest traced run, plus the tracing overhead against the untraced
rounds.  The last line of stdout is the JSON result; the lines before it,
starting with ``#``, give provenance, failures with their reasons and every
metric with its unit.  The package is imported from ``src/`` of this
checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# the package's own imports, loaded once so that each timed import below
# measures relturan itself rather than the standard library or numpy
import csv  # noqa: F401
import hashlib  # noqa: F401

import numpy

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: end-to-end metric name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "norm_wall_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "p3_density": ("ratio", "higher"),
}

#: rounds of each kind (untraced, traced) a run makes at least; the first
#: round also pays for lazy imports and first-touch allocation
MIN_ROUNDS = 2
#: a run whose rounds have taken this many times ``--seconds`` stops early,
#: so that a badly slowed machine still ends the run in time
OVERRUN = 4
#: share of the raw wall time that may lie outside every layer span (harness
#: glue and timer noise) on top of the measured tracing overhead
SELF_SUM_SLACK = 0.01
#: the calibration loop: CALIB_N pure-Python integer additions, fastest of
#: CALIB_REPS runs
CALIB_N, CALIB_REPS = 40_000, 3
#: the calibration loop's fastest time on the reference machine (a 2-vCPU
#: x86-64 VM, CPython 3.11); normalised times are seconds at that speed
CALIB_REF_S = 0.00125


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    output: object = None
    failure: tuple | None = None  # (label, detail)
    pass_id: int = -1
    density: float | None = None
    nodes: int | None = None
    calib: float = 0.0  # mean calibration-loop time before and after the op

    @property
    def norm_seconds(self) -> float:
        return normalised(self.seconds, self.calib)


@dataclass
class Round:
    pass_id: int
    traced: bool
    seconds: float
    results: list = field(default_factory=list)


def calibrate() -> float:
    """The calibration loop's time now: a probe of the machine's current speed."""
    best = float("inf")
    for _ in range(CALIB_REPS):
        t0 = perf_counter()
        x = 0
        for i in range(CALIB_N):
            x += i
        best = min(best, perf_counter() - t0)
    return best


def trimmed_mean(values) -> float:
    """The mean of ``values`` without the lowest and the highest, if there are four or more."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 4 else values)


def normalised(seconds: float, calib: float) -> float:
    """``seconds`` measured while the calibration loop took ``calib``, at reference speed."""
    return seconds / calib * CALIB_REF_S


def import_relturan(with_cli: bool) -> SimpleNamespace:
    """A fresh import of the package from this checkout's src/."""
    for name in [m for m in sys.modules if m == "relturan" or m.startswith("relturan.")]:
        del sys.modules[name]
    pkg = importlib.import_module("relturan")
    if Path(pkg.__file__).resolve().parent != (SRC / "relturan").resolve():
        raise ImportError(f"relturan imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        core=pkg.core, density=pkg.density, patterns=pkg.patterns, hosts=pkg.hosts,
        graphio=pkg.graphio, richness=pkg.richness, tiling=pkg.tiling,
        lemma_checks=pkg.lemma_checks,
        cli=importlib.import_module("relturan.cli") if with_cli else None,
    )


def run_round(ops, rt, tracer, pass_id) -> Round:
    rnd = Round(pass_id, tracer is not None, 0.0)
    if tracer:
        tracer.install(rt)
    start = perf_counter()
    calib = calibrate()
    for op in ops:
        root = tracer.op(pass_id, op.name) if tracer else None
        t0 = perf_counter()
        try:
            res = OpResult(op, 0.0, output=op.run())
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            res = OpResult(op, 0.0, failure=("raised", "".join(
                traceback.format_exception_only(type(exc), exc)).strip()))
        res.seconds, res.pass_id = perf_counter() - t0, pass_id
        if root:
            tracer.close(root)
        res.calib = (calib + (calib := calibrate())) / 2
        rnd.results.append(res)
    rnd.seconds = perf_counter() - start
    if tracer:
        tracer.uninstall()
    return rnd


def check_round(rnd: Round) -> None:
    """Check every output, keep the figures the metrics need, and drop the output."""
    for res in rnd.results:
        if res.failure:
            continue
        op = res.op
        try:
            op.check(res.output)
            res.density = op.density(res.output) if op.density else None
            res.nodes = op.nodes(res.output) if op.nodes else None
        except workloads.CheckFailed as exc:
            res.failure = (exc.label, exc.detail)
        except Exception as exc:  # a malformed output can break a check; count it as failed
            res.failure = ("check-error", f"{type(exc).__name__}: {exc}")
        res.output = None


def planned_rounds(wl, seconds: float, traced_run: bool) -> int:
    """Rounds a run makes, untraced and traced together: fixed by ``seconds``."""
    rounds = max(MIN_ROUNDS, round(seconds / wl.round_s))
    return max(rounds, 2 * MIN_ROUNDS) if traced_run else rounds


def fastest(rounds) -> list:
    """For each op of a round, its fastest execution over ``rounds``."""
    return [min(execs, key=lambda res: res.seconds) for execs in zip(*(r.results for r in rounds))]


def trace_metrics(tracer, setup_s, rounds, wall) -> tuple[dict, dict]:
    """Per-layer metrics from the fastest traced set-up and each op's fastest traced run.

    Set-up k is pass k; ``wall`` is the raw untraced wall time of the same run,
    each op at its fastest.
    """
    best = fastest([r for r in rounds if r.traced])
    setup_id = min(range(len(setup_s)), key=setup_s.__getitem__)
    op_spans = tracer.spans_of({(res.pass_id, res.op.name) for res in best})
    roundtrip = sum(1 for res in best if res.failure and res.failure[0] == "roundtrip")
    metrics = tracing.layer_metrics(
        tracing.aggregate(tracer.spans_of({(setup_id, "setup")}) + op_spans), roundtrip)

    overhead = sum(res.seconds for res in best) - wall
    self_layer = tracing.aggregate(op_spans)["self_layer"]
    layer_sum = sum(v for layer, v in self_layer.items() if layer != "bench")
    nodes = {sum(res.nodes for res in r.results if res.nodes is not None) for r in rounds}
    metrics.update({
        "bench.trace_overhead_s": overhead,
        "bench.trace_overhead_ratio": overhead / wall,
        "bench.layer_self_sum_s": layer_sum,
        "bench.self_sum_ok": int(abs(layer_sum - wall) <= abs(overhead) + SELF_SUM_SLACK * wall),
        "bench.exact_nodes_stable": int(len(nodes) == 1),
    })
    notes = {
        "traced_rounds": sum(r.traced for r in rounds), "fastest_setup_pass": setup_id,
        "self_time_by_layer_s": {k: round(v, 6) for k, v in sorted(self_layer.items())},
        "exact_nodes_per_round": sorted(nodes),
    }
    return metrics, notes


def log(line: str) -> None:
    print(f"# {line}")


def run(wl, args, work: Path) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    setup_s, setup_norm = [], []
    for pass_id in range(wl.setups):
        fixtures = None
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        gc.collect()
        calib = calibrate()
        t0 = perf_counter()
        rt = import_relturan(wl.cli)
        if tracer:
            tracer.install(rt)
            root = tracer.op(pass_id, "setup")
        fixtures = wl.setup(rt, args.seed, work)
        if tracer:
            tracer.close(root)
            tracer.uninstall()
        setup_s.append(perf_counter() - t0)
        setup_norm.append(normalised(setup_s[-1], (calib + calibrate()) / 2))

    plan = wl.plan(rt, args.seed, fixtures, work)
    gc.collect()
    pass_id = len(setup_s)
    rounds, measured = [], 0.0
    planned = planned_rounds(wl, args.seconds, tracer is not None)
    while len(rounds) < planned and measured <= OVERRUN * args.seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        rnd = run_round(plan.ops, rt, tracer if traced else None, pass_id)
        pass_id += 1
        measured += rnd.seconds
        if not rounds:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        check_round(rnd)
        rounds.append(rnd)

    results = [res for r in rounds for res in r.results]
    failures = [(res.op.name, *res.failure) for res in results if res.failure]
    unexpected = [f for f in failures if (f[0], f[1]) not in workloads.KNOWN_DEFECTS]
    untraced = [r for r in rounds if not r.traced]
    densities = [res.density for res in rounds[-1].results if res.density is not None]
    wall = sum(res.seconds for res in fastest(untraced))
    e2e = {
        "setup_s": trimmed_mean(setup_norm),
        "norm_wall_s": sum(trimmed_mean(res.norm_seconds for res in execs)
                           for execs in zip(*(r.results for r in untraced))),
        "peak_rss_mb": peak_kib / 1024,
        "ok_ratio": 1 - len(failures) / len(results),
        "p3_density": statistics.fmean(densities) if densities else 0.0,
    }

    log(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log(f"why: {wl.why}")
    log("provenance " + json.dumps({
        "workload": wl.name, "seed": args.seed, "why": wl.why, "inputs": plan.inputs(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "loop": "closed, 1 caller, 1 thread",
        "ops_per_round": len(plan.ops), "setups": len(setup_s), "rounds": len(rounds),
        "planned_rounds": planned,
    }, sort_keys=True))
    for name, label, detail in sorted(set(failures)):
        reason = workloads.KNOWN_DEFECTS.get((name, label))
        count = sum(1 for f in failures if f == (name, label, detail))
        log(f"failed op {name} x{count} [{label}] {detail}"
            + (f" -- known defect: {reason}" if reason else " -- UNEXPECTED"))
    calibs = [res.calib for res in results]
    log(f"norm_wall_s {e2e['norm_wall_s']:.4f} s over {len(untraced)} untraced rounds; raw: "
        f"sum of each op's fastest run {wall:.4f} s, median round "
        f"{statistics.median(r.seconds for r in untraced):.4f} s, rounds (calibration included) "
        + " ".join(f"{r.seconds:.4f}" for r in untraced))
    log(f"calibration loop {min(calibs) * 1e3:.4f} to {max(calibs) * 1e3:.4f} ms, median "
        f"{statistics.median(calibs) * 1e3:.4f} ms; reference {CALIB_REF_S * 1e3:.4f} ms")
    log("setup_s per set-up, normalised: " + ", ".join(f"{s:.4f}" for s in setup_norm)
        + "; raw: " + ", ".join(f"{s:.4f}" for s in setup_s))
    log(f"fail_ratio {len(failures) / len(results):.6f} ({len(failures)} of {len(results)} ops)")
    log(f"peak_rss_mb {e2e['peak_rss_mb']:.2f} MiB after set-up and one round; "
        f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.2f} MiB at the end, checks included")

    per_layer = {}
    if tracer:
        per_layer, notes = trace_metrics(tracer, setup_s, rounds, wall)
        log("trace " + json.dumps(notes, sort_keys=True))
        trace_path = work.parent / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        log(f"spans written to {trace_path.relative_to(ROOT)}")
    for k, (unit, better) in END_TO_END.items():
        log(f"end-to-end {k} = {e2e[k]:.6g} {unit} ({better} is better)")
    for k, unit in (tracing.PER_LAYER.items() if tracer else ()):
        log(f"per-layer {k} = {per_layer[k]:.6g} {unit}")
    if tracer:
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    return {"correct": not unexpected, "attempted": len(results), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "relturan" / "__init__.py").is_file():
        print(f"error: no relturan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]()
    work = ROOT / ".bench_work" / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        result = run(wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
