"""The three benchmark workloads: fixtures, timed ops and their checks.

Each workload has a timed ``setup`` (building and writing its fixtures with
the package's own functions) and an untimed ``plan`` that returns the list
of ops one round runs.  The reference values a check needs are built by the
check itself on its first call, so they are not resident while the rounds
that peak_rss_mb covers run.  Ops call the package's public functions
through module attributes, so the tracer's wrappers see them.  Inputs
depend only on the workload seed.  ``round_s`` is the share of the run's
``--seconds`` that one round stands for, so it fixes how many rounds a run
makes; it is set per workload so that a run's rounds take about one to two
times ``--seconds``, and all workloads' runs together fit a fixed time budget.
"""

from __future__ import annotations

import io
import json
from functools import cache
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracles
from oracles import CheckFailed, require

#: (op, check label) -> reason, for defects the seed commit is known to have.
#: These ops run and are timed like any other; their failures are counted.
KNOWN_DEFECTS = {
    ("gen-host-d4-m256", "roundtrip"):
        "dumps_blocked computes 1 << np.int64(j), which overflows for columns j >= 63, "
        "so hosts with m >= 64 are written with rows graphio.loads_blocked rejects",
    ("analyze-richness-cube-d4", "average_richness"):
        "analyze-richness divides cube-graph level counts by 2^(d-1) m^2 instead of the "
        "capacity tau_l; the complete cube at d=4 reports 3.75 where the definition gives 1.0",
    # the same defect on a blocked host, whose rich levels the CLI itself takes against
    # tau_l m^2 while its average divides by 2^(d-1) m^2
    ("analyze-richness-blocked", "average_richness"):
        "analyze-richness divides blocked-host level counts by 2^(d-1) m^2 instead of the "
        "capacity tau_l m^2 that its own rich_levels uses",
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    #: P3-free edge fraction of the output, for ops that compute one
    density: Optional[Callable[[object], float]] = None
    #: branch-and-bound nodes of the output, for exact solves
    nodes: Optional[Callable[[object], int]] = None


@dataclass
class Plan:
    ops: list
    inputs: Callable[[], dict]


def derive_seed(workload: str, seed: int, label: str) -> int:
    """A non-negative 32-bit seed for one input, fixed by the workload seed."""
    return random.Random(f"{workload}:{seed}:{label}").randrange(1 << 32)


def _sizes(paths) -> dict:
    return {Path(p).name: Path(p).stat().st_size for p in paths if Path(p).exists()}


# ------------------------------------------------------------------ exact-small


class ExactSmall:
    name = "exact-small"
    why = ("branch-and-bound and ordered containment do nearly all the work; "
           "hosts, graphio and the CLI do none")
    cli = False
    #: set-ups per run, about a second in all; setup_s is their trimmed mean
    setups = 25
    round_s = 2.5  # 8 rounds of about 1.4 s
    N, E, RANDOM_HOSTS = 9, 14, 8

    def setup(self, rt, seed, workdir):
        rng = random.Random(derive_seed(self.name, seed, "hosts"))
        pairs = [(u, v) for u in range(self.N) for v in range(u + 1, self.N)]
        p3, h2 = rt.patterns.monotone_p3(), rt.patterns.build_hk(2)
        k7, k8 = rt.hosts.complete_ordered(7), rt.hosts.complete_ordered(8)
        instances = [("P3-K7", p3, k7), ("H2-K7", h2, k7), ("P3-K8", p3, k8)]
        for i in range(self.RANDOM_HOSTS):
            host = rt.core.OrderedGraph(self.N, rng.sample(pairs, self.E))
            instances += [(f"P3-R{i}", p3, host), (f"H2-R{i}", h2, host)]
        return instances

    def plan(self, rt, seed, instances, workdir):
        ops = []
        for name, pat, host in instances:
            host_edges = set(host.edges)
            complete = len(host_edges) == host.n * (host.n - 1) // 2
            extremal = host.n * host.n // 4 if name.startswith("P3") and complete else None

            @cache
            def reference(pat=pat, host=host, e=len(host_edges)):
                if e > rt.density.EXHAUSTIVE_EDGE_CAP:
                    return None
                ref = rt.density.rho_exhaustive(pat, host)
                return ref.best_edge_count, ref.certificate

            def check(res, pat=pat, host=host, host_edges=host_edges,
                      extremal=extremal, reference=reference):
                require(res.total_edges == len(host_edges), "size", "total_edges != e(host)")
                oracles.check_exact_optimum(
                    res.best_edge_count, res.certificate, res.exact, pat.n,
                    sorted(pat.edges), host.n, host_edges, extremal, reference())

            ops.append(Op(
                name=f"exact-{name}",
                run=lambda pat=pat, host=host: rt.density.rho_exact(pat, host),
                check=check,
                density=(lambda r: r.best_edge_count / r.total_edges) if extremal else None,
                nodes=lambda r: r.nodes_explored,
            ))

        def inputs():
            return {"instances": [
                {"name": name, "pattern_n": pat.n, "pattern_e": len(pat.edges),
                 "n": host.n, "e": len(host.edges)} for name, pat, host in instances]}

        return Plan(ops, inputs)


# ------------------------------------------------------------------ p3-large


class P3Large:
    name = "p3-large"
    why = ("density and containment used as a few long scans over thousands of edges; "
           "the quarter constructor's O(n*e) cost and the local-search density bound")
    cli = False
    setups = 15
    round_s = 2.9  # 7 rounds of about 4 s
    LOCAL_BUDGET = 10
    HOSTS = (("quarter-m8-d5", 8, 5), ("quarter-m8-d6", 8, 6), ("local-m16-d3", 16, 3))

    def setup(self, rt, seed, workdir):
        host_seed = derive_seed(self.name, seed, "hosts")
        return {name: (m, d, rt.hosts.generate_host(m, d, host_seed).to_ordered())
                for name, m, d in self.HOSTS}

    def plan(self, rt, seed, hosts, workdir):
        p3 = rt.patterns.monotone_p3()
        local_seed = derive_seed(self.name, seed, "local")
        ops = []
        for name, (m, d, host) in hosts.items():
            host_edges = set(host.edges)
            e = len(host_edges)
            if name.startswith("quarter"):
                def check(sub, host=host, host_edges=host_edges, e=e):
                    require(sub.n == host.n, "size", "vertex count changed")
                    oracles.check_p3_free(sub.edges, host_edges, math.ceil(e / 4))

                ops.append(Op(name, lambda host=host: rt.density.quarter_free_subgraph(host), check))
            else:
                def check(res, host_edges=host_edges, e=e):
                    require(res.total_edges == e, "size", "total_edges != e(host)")
                    require(res.best_edge_count == len(res.certificate), "size",
                            "best_edge_count != |certificate|")
                    oracles.check_p3_free(res.certificate, host_edges)

                ops.append(Op(
                    name,
                    lambda host=host: rt.density.rho_local_search(
                        p3, host, budget=self.LOCAL_BUDGET, seed=local_seed),
                    check,
                    density=lambda r: r.best_edge_count / r.total_edges,
                ))

        def inputs():
            return {"hosts": [{"name": name, "m": m, "d": d, "n": host.n, "e": len(host.edges)}
                              for name, (m, d, host) in hosts.items()],
                    "local_budget": self.LOCAL_BUDGET}

        return Plan(ops, inputs)


# ------------------------------------------------------------------ cube-cli


@dataclass
class CliRun:
    rc: int
    out: str
    err: str


def _cli_json(run: CliRun) -> dict:
    require(run.rc == 0, "exit", f"exit code {run.rc}: {run.err.strip()[-200:]}")
    try:
        return json.loads(run.out)
    except ValueError:
        raise CheckFailed("output", f"stdout is not JSON: {run.out[:80]!r}") from None


class CubeCli:
    name = "cube-cli"
    why = ("the CLI end to end: graphio, hosts, the cube graph, richness, tiling and the "
           "lemma checks do the work, density and containment almost none")
    cli = True
    setups = 4
    round_s = 4.0  # 5 rounds of about 5 s
    TILE_VERIFY = {"d": 11, "w": 6, "epsilon": 0.5}
    TILE_SAMPLE = {"d": 12, "w": 6, "n_samples": 100_000}
    A2 = {"n": 1024, "eps": 0.3, "n_samples": 2000}
    #: the complete host of the one exact solve: a fixed, known optimum
    SOLVE_N = 7

    def setup(self, rt, seed, workdir):
        fx = {"cube10": workdir / "cube-d10.hg", "cube4": workdir / "cube-d4.hg",
              "p3": workdir / "p3.og", "k7": workdir / f"k{self.SOLVE_N}.og"}
        rt.graphio.write_hypercube(fx["cube10"], rt.hosts.complete_hypercube(10))
        rt.graphio.write_hypercube(fx["cube4"], rt.hosts.complete_hypercube(4))
        rt.graphio.write_ordered(fx["p3"], rt.patterns.monotone_p3())
        rt.graphio.write_ordered(fx["k7"], rt.hosts.complete_ordered(self.SOLVE_N))
        return fx

    def plan(self, rt, seed, fx, workdir):
        gen_seed = derive_seed(self.name, seed, "gen-host")
        ops = []

        def cli_op(name, argv, check, density=None, nodes=None):
            def run(argv=[str(a) for a in argv]):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    rc = rt.cli.main(argv)
                return CliRun(rc, out.getvalue(), err.getvalue())

            ops.append(Op(name, run, lambda r: check(_cli_json(r)),
                          density and (lambda r: density(json.loads(r.out))),
                          nodes and (lambda r: nodes(json.loads(r.out)))))

        # gen-host at two sizes; files must decode to the same host
        gen_paths, gen_refs = {}, {}
        for d, m in ((8, 8), (4, 256)):
            path = gen_paths[d, m] = workdir / f"gen-d{d}-m{m}.rg"

            @cache
            def reference(d=d, m=m):
                blocks = rt.hosts.generate_host(m, d, gen_seed).blocks
                return blocks, oracles.blocked_level_counts(d, blocks)

            def check(out, d=d, m=m, path=path, reference=reference):
                blocks, counts = reference()
                require(out["edges"] == sum(counts), "edges", f"{out['edges']} != {sum(counts)}")
                require(out["level_counts"] == counts[1:], "level_counts", "level counts differ")
                oracles.check_blocked_file(path.read_text(), d, m, gen_seed, blocks)

            cli_op(f"gen-host-d{d}-m{m}",
                   ["gen-host", "--d", d, "--m", m, "--seed", gen_seed, "--out", path], check)
            gen_refs[d, m] = reference

        # analyze-richness on the blocked host written above and on a cube file;
        # the gen-host check has shown the blocked file decodes to the reference host
        alpha = 0.5
        cli_op("analyze-richness-blocked",
               ["analyze-richness", "--host", gen_paths[8, 8], "--alpha", alpha],
               lambda out: oracles.check_richness(out, 8, 8, alpha, gen_refs[8, 8]()[1]))
        cube4 = cache(lambda: oracles.decode_cube(fx["cube4"].read_text()))
        cli_op("analyze-richness-cube-d4", ["analyze-richness", "--host", fx["cube4"], "--alpha", alpha],
               lambda out: oracles.check_richness(out, cube4()[0], 1, alpha, cube4()[1]))

        cube10_edge = cache(lambda: oracles.cube_edge_lookup(fx["cube10"].read_text(), 10))

        def check_embed(out):
            require(out["embedded"] is True, "embedded", "no H_3 embedding found")
            oracles.check_witness(out["witness"], 3, 10, cube10_edge())

        cli_op("embed-hk-k3-d10", ["embed-hk", "--host", fx["cube10"], "--k", 3], check_embed)

        tv = self.TILE_VERIFY
        tv_levels = list(range(1, tv["d"] + 1))
        cli_op(f"tile-verify-d{tv['d']}",
               ["tile-verify", "--pattern", fx["p3"], "--d", tv["d"],
                "--levels", ",".join(map(str, tv_levels)), "--w", tv["w"], "--epsilon", tv["epsilon"]],
               lambda out: oracles.check_tile_verify(out, tv["d"], tv_levels, tv["epsilon"]))

        ts = self.TILE_SAMPLE
        ts_levels = list(range(1, ts["d"] + 1))
        cli_op(f"tile-sample-d{ts['d']}",
               ["tile-sample", "--pattern", fx["p3"], "--d", ts["d"],
                "--levels", ",".join(map(str, ts_levels)), "--w", ts["w"],
                "--n-samples", ts["n_samples"], "--seed", derive_seed(self.name, seed, "tile")],
               lambda out: oracles.check_tile_sample(out, ts["n_samples"], ts_levels, 3))

        a2 = dict(self.A2, seed=derive_seed(self.name, seed, "a2"))
        cli_op("appendix-check-a2", ["appendix-check", "--lemma", "a2", "--params", json.dumps(a2)],
               lambda out: oracles.check_locally_balanced(out, a2["n"], a2["eps"], a2["n_samples"]))

        # one exact solve, so that p3_density has a value here: P3 on K_7, whose
        # optimum floor(49/4) = 12 of 21 edges is known
        n = self.SOLVE_N
        k7_edges = {(u, v) for u in range(n) for v in range(u + 1, n)}

        def check_solve(out):
            require(out["total"] == len(k7_edges), "size", "total != e(host)")
            oracles.check_exact_optimum(
                out["best_edges"], [tuple(e) for e in out["certificate"]], out["exact"],
                3, [(0, 1), (1, 2)], n, k7_edges, extremal=n * n // 4)

        cli_op(f"solve-exact-k{n}",
               ["solve", "--pattern", fx["p3"], "--host", fx["k7"], "--mode", "exact"],
               check_solve, density=lambda out: out["best_edges"] / out["total"],
               nodes=lambda out: out["nodes_explored"])

        def inputs():
            files = [fx["cube10"], fx["cube4"], fx["p3"], fx["k7"], *gen_paths.values()]
            return {"gen_host": [{"d": d, "m": m, "n": m << d} for d, m in gen_paths],
                    "cube_d": [10, 4], "tile_verify": tv, "tile_sample": ts, "a2": self.A2,
                    "solve_exact": {"pattern": "P3", "n": n, "e": len(k7_edges)},
                    "file_bytes": _sizes(files)}

        return Plan(ops, inputs)


WORKLOADS = {w.name: w for w in (ExactSmall, P3Large, CubeCli)}
