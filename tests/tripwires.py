"""The tripwires: the pinned results, bounds and exit codes of the CLI and the
package on inputs too large or too slow for the tier-1 suite, one table row
each, run by one harness.

Run from the repository root (stdlib only; Linux, for ``pidfd_open`` and
``RLIMIT_AS``)::

    PYTHONPATH=src python tests/tripwires.py

It builds the fixtures once in a temporary directory, runs every row there
as a child process of its own, prints one line per row and exits 1 if any
row failed. A new guarantee is a new row.
"""
import csv
import functools
import hashlib
import json
import os
import re
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Optional

#: the address-space limit of the rows that must fail fast rather than allocate
AS_LIMIT = 2 << 30


class Digest(str):
    """A pin on the sha256 of ``repr`` of a JSON list of pairs as a tuple of
    tuples: a certificate's digest."""


class Length(int):
    """A pin on the length of a JSON list."""


class Row(NamedTuple):
    """One tripwire: a command, the bounds it runs under and what it must give.

    The exit code is held to the CLI's contract: stderr never holds a
    traceback, exit 2 ends it with an ``error:`` line (``ERROR_LINE``), and
    it holds a ``check failed:`` line exactly when the exit code is 1.
    """
    name: str
    #: ``relturan.cli`` arguments, or ``("-c", source, *argv)`` for a snippet;
    #: paths are relative to the fixture directory
    command: tuple
    #: seconds from start to exit, start-up included, or None for no timeout
    timeout: Optional[float]
    code: int = 0
    #: RLIMIT_AS in bytes
    limit: Optional[int] = None
    #: peak RSS in MiB: the child's own ``ru_maxrss``, or the ``peak_mib`` a
    #: snippet prints when it measures at a point before its end
    ceiling: Optional[float] = None
    #: stdout's JSON field -> value (a Digest or Length pins that of the field)
    pins: dict = {}
    #: a file the row writes -> the sha256 of its bytes, or a CSV's {column: values}
    files: dict = {}
    #: a regular expression stderr must match whole
    stderr: Optional[str] = None


FIXTURES = r"""
import json
from relturan import graphio
from relturan.core import HypercubeGraph, OrderedGraph
from relturan.hosts import complete_hypercube, complete_ordered, generate_host
from relturan.patterns import build_hk, monotone_p3

for name, (m, d) in {"host16": (2, 3), "host32": (2, 4), "host128": (16, 3),
                     "host512": (8, 6), "host2048": (2, 10)}.items():
    graphio.write_ordered(f"{name}.og", generate_host(m, d, 0).to_ordered())
for name, g in {"p3": monotone_p3(), "h2": build_hk(2), "p4": monotone_p3(4),
                "reach": OrderedGraph(4, [(0, 2), (1, 3), (2, 3)]),
                "cherry": OrderedGraph(3, [(0, 1), (0, 2)]),
                "star600": OrderedGraph(600, [(0, i) for i in range(1, 600)]),
                "k8": complete_ordered(8)}.items():
    graphio.write_ordered(f"{name}.og", g)
grids = {"quarter": {"m": 4, "d_values": [2, 3], "seeds": [0], "experiment": "quarter-density"},
         "local": {"m": 4, "d_values": [2, 3], "seeds": [0], "experiment": "local-density"},
         "hosts": {"experiment": "host-stats", "m": 8, "d_values": [3], "seeds": [0, 1]},
         "typo": {"experiment": "host-stats", "m": 8, "d_value": [3]}}
for name, grid in grids.items():
    with open(f"{name}.json", "w") as fh:
        json.dump(grid, fh)

with open("tall.rg", "w") as fh:  # one block of 2^20 rows declared, 1 MiB of empty lines
    fh.write("1 1048576 0\n0 1\n" + "\n" * (1 << 20))
with open("wide.hg", "w") as fh:  # 10 bytes at d = 21
    fh.write("21 1\n0 1\n")
# the edges (u, 2^21 - 1 - u) for u < 2^15, whose bitmasks would take about 16 GiB
n, edges = 1 << 21, range(1 << 15)
with open("far.og", "w") as fh:
    fh.write(f"{n} {len(edges)}\n" + "".join(f"{u} {n - 1 - u}\n" for u in edges))
with open("far.hg", "w") as fh:
    fh.write(f"21 {len(edges)}\n" + "".join(f"{u:021b} {n - 1 - u:021b}\n" for u in edges))
# valid: the star from vertex 0 to the top 2^17 of 2^21 vertices, with (0, 1) in the cube file
top = range(n - (1 << 17), n)
with open("star.hg", "w") as fh:
    fh.write(f"21 {len(top) + 1}\n{0:021b} {1:021b}\n" + "".join(f"{0:021b} {v:021b}\n" for v in top))
with open("star.og", "w") as fh:
    fh.write(f"{n} {len(top)}\n" + "".join(f"0 {v}\n" for v in top))
# each host format's one reader takes only its writer's layout
with open("crlf.hg", "w", newline="\r\n") as fh:
    fh.write(graphio.dumps_hypercube(complete_hypercube(8)))
graphio.write_generated("upper.rg", 8, 8, 0)
with open("upper.rg", "rb") as fh:
    lines = fh.read().split(b"\n")
# the middle row line with a hex letter in it, in uppercase
at = next(i for i in range(len(lines) // 2, len(lines))
          if b" " not in lines[i] and lines[i].strip(b"0123456789"))
lines[at] = lines[at].upper()
with open("upper.rg", "wb") as fh:
    fh.write(b"\n".join(lines))
# the edges (0, v) for v = 1..131,073, one of them (0, 1), which the strip removes
graphio.write_hypercube("large-star.hg", HypercubeGraph(21, [(0, v) for v in range(1, 131_074)]))
"""

# local H_5 at budget 0, the greedy pass alone, which the CLI's budget of at least 1 cannot ask for
H5 = """
import json
from relturan.density import rho_local_search
from relturan.hosts import generate_host
from relturan.patterns import build_hk
r = rho_local_search(build_hk(5), generate_host(4, 4, 0).to_ordered(), budget=0)
print(json.dumps({"best_edges": len(r.certificate), "total": r.total_edges, "certificate": r.certificate}))
"""

# the peak RSS is read after the level counts, before the file's text is built
HOST = """
import hashlib, json, resource
from relturan.graphio import dumps_blocked
from relturan.hosts import generate_host
host = generate_host(2, 11, 0)
counts = host.level_counts()
peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"level_counts": counts, "peak_mib": peak_mib,
                  "digest": hashlib.sha256(dumps_blocked(host).encode()).hexdigest()}))
"""

CUBE = """
import json
from relturan.core import tau
from relturan.hosts import complete_hypercube
from relturan.richness import embed_hk_rich
g = complete_hypercube(13)
print(json.dumps({"level_counts": g.level_counts()[1:], "tau": [tau(level, 13) for level in range(1, 14)],
                  "witness": embed_hk_rich(g, 3)}))
"""

COMPLETE = """
import json
from relturan.hosts import complete_hypercube, complete_ordered
print(json.dumps({"k4096": complete_ordered(4096).num_edges(),
                  "cube13": complete_hypercube(13).to_ordered().num_edges()}))
"""

BALANCED = """
import json, sys
from relturan.lemma_checks import check_locally_balanced
print(json.dumps(check_locally_balanced(*json.loads(sys.argv[1])).extra))
"""

CODEC = """
import json
from relturan import graphio
from relturan.hosts import complete_hypercube, generate_host
cases = [("cube11.hg", complete_hypercube(11), graphio.write_hypercube, graphio.read_hypercube),
         ("d8-m8.rg", generate_host(8, 8, 0), graphio.write_blocked, graphio.read_blocked),
         ("d4-m256.rg", generate_host(256, 4, 0), graphio.write_blocked, graphio.read_blocked)]
reads_back = []
for path, g, write, read in cases:
    write(path, g)
    reads_back.append(read(path) == g)
print(json.dumps({"reads_back": reads_back}))
"""


def _solve(pattern, host, mode, timeout, *budget, **pins):
    return Row(f"solve {pattern} on {host} {mode}",
               ("solve", "--pattern", f"{pattern}.og", "--host", f"{host}.og", "--mode", mode, *budget),
               timeout, pins=pins)


def _usage_error(name, *argv, stderr=None):
    return Row(name, argv, 2, code=2, limit=AS_LIMIT, ceiling=100, stderr=stderr)


A1 = {"alpha": "1/2", "eps": 0.1, "k": 2, "n": 10}
LEVELS = ",".join(map(str, range(1, 41)))

ROWS = [
    # result records are NamedTuples: a frozen dataclass execs generated methods when its class is made
    Row("import: no dataclasses",
        ("-c", "import json, sys, relturan.cli; print(json.dumps({'dataclasses': 'dataclasses' in sys.modules}))"),
        None, pins={"dataclasses": False}),
    # report records a failed row as "infeasible: ..." and still exits 0
    Row("report quarter-density", ("report", "--grid", "quarter.json", "--out-dir", "quarter"), None,
        files={"quarter/report.csv": {"status": ["ok", "ok"]}}),
    Row("report local-density", ("report", "--grid", "local.json", "--budget", "10", "--out-dir", "local"),
        None, files={"local/report.csv": {"status": ["ok", "ok"]}}),
    Row("report host-stats", ("report", "--grid", "hosts.json", "--budget", "5", "--out-dir", "hosts"),
        None, files={"hosts/report.csv": {"status": ["ok", "ok"]}}),
    _solve("p3", "host16", "exact", 10, best_edges=22, nodes_explored=1400, exact=True,
           certificate=Digest("feec0685842fde11be3bac151936150f56a54e2e745d92dc84bb1dbff34f3631")),
    _solve("h2", "host16", "exact", 10, best_edges=30, nodes_explored=1254, exact=True,
           certificate=Digest("2b957e473ac2a91de60c8b0af1b96908df3bccd4d3c8778008cc2e1d30b8864f")),
    _solve("reach", "host32", "exact", 2, "--budget", "60000", best_edges=70, nodes_explored=60001,
           exact=False, certificate=Digest("fe3696c68b258693efe3938de3d31e61d2a2f4a443d083e86fae0ee13c888bcf")),
    _solve("h2", "host128", "local", 15, "--budget", "10", best_edges=774),
    _solve("p3", "host128", "local", 1.2, best_edges=1496, nodes_explored=2000,
           certificate=Digest("0ad23e28db44dd001cee6ff59f24125a16935bd76b493f49c9167d58bcac5c3d")),
    _solve("p4", "host128", "local", 1, "--budget", "10", best_edges=1936, nodes_explored=10,
           certificate=Digest("1867226e92e56634a9db25c86e65b3fa19b01e1f6eaa6a4e4167a59216e8eaf5")),
    _solve("p4", "host512", "local", 1, "--budget", "10", best_edges=5415, nodes_explored=10,
           certificate=Digest("e1a035b6c7d2e8618e39f5d93923f632693c27eaf9acae7e8b53a809fa75c767")),
    _solve("h2", "host512", "local", 1.5, "--budget", "10", best_edges=1322, nodes_explored=10,
           certificate=Digest("a2013975d8d68a5c45ac417aa2439b4261306afdf7c52d70c84102c5ebb88d0e")),
    _solve("p3", "host2048", "local", 3, "--budget", "10", best_edges=8196, nodes_explored=10,
           certificate=Digest("5ecc0e3612755926e77c5750ab5ad1ae3a23b1447a99ced88693f8502942382a")),
    _solve("cherry", "host2048", "local", 3, "--budget", "10", best_edges=2044, nodes_explored=10,
           certificate=Digest("7e02241f4e740ba33a933486fc9bd35323d84cbe8b5a3c0c2c673bd569da6725")),
    Row("local H_5 on generate_host(4, 4, 0), budget 0", ("-c", H5), 0.5, pins={
        "best_edges": 500, "certificate": Digest("61a6475bebbd246f78937436a2ffc059f3d006445db18f75662769de0f510d54")}),
    # the searches' and the copy table's generated source stop at their cap, where a 600-leaf star would nest 600 loops
    Row("solve star600 on k8 local", ("solve", "--pattern", "star600.og", "--host", "k8.og", "--mode", "local",
                                      "--budget", "10"), 2, limit=AS_LIMIT, ceiling=100, pins={"best_edges": 28}),
    Row("solve star600 on k8 exact", ("solve", "--pattern", "star600.og", "--host", "k8.og", "--mode", "exact"),
        2, limit=AS_LIMIT, ceiling=100, pins={"best_edges": 28, "exact": True, "nodes_explored": 30}),
    # 2,096,128 block pairs, 37,092 of them nonempty; the file is the one gen-host writes below
    Row("generate_host(2, 11, 0)", ("-c", HOST), 5, ceiling=46, pins={
        "level_counts": [0, 4061, 4078, 4167, 4124, 4184, 4094, 4054, 4047, 4045, 4173, 4096],
        "digest": "6fbc96d548132223352a97e4c550daaf065f50b314d1f7b734febfed9cc30d6b"}),
    Row("gen-host m 2 d 11", ("gen-host", "--m", "2", "--d", "11", "--seed", "0", "--out", "h.rg"), 5,
        ceiling=47, pins={"level_counts": [4061, 4078, 4167, 4124, 4184, 4094, 4054, 4047, 4045, 4173, 4096]},
        files={"h.rg": "6fbc96d548132223352a97e4c550daaf065f50b314d1f7b734febfed9cc30d6b"}),
    # the two sides of the kernel / random_raw crossover at d = 8: m = 12 by hosts._philox_below, m = 13 by Philox
    Row("gen-host m 12 d 8", ("gen-host", "--m", "12", "--d", "8", "--seed", "0", "--out", "d8-m12.rg"), 5,
        files={"d8-m12.rg": "afad6339d6491159e3eafbb67f3d2f90784771d081147e50184b2f141d95772d"}),
    Row("gen-host m 13 d 8", ("gen-host", "--m", "13", "--d", "8", "--seed", "0", "--out", "d8-m13.rg"), 5,
        files={"d8-m13.rg": "3def9364c93206cd19289b4f580468fba31546216f3c9f3ec4172a05ea0cac7d"}),
    Row("level counts and H_3 on the d = 13 cube", ("-c", CUBE), 2, pins={
        "level_counts": [1 << (25 - level) for level in range(1, 14)],
        "tau": [1 << (25 - level) for level in range(1, 14)], "witness": [0, 1, 4096, 4098, 6144, 6148]}),
    Row("K_4096 and the d = 13 cube as ordered graphs", ("-c", COMPLETE), 2,
        pins={"k4096": 8386560, "cube13": 33550336}),
    Row("A2 at n = 4096, eps = 0.1, 2000 samples", ("-c", BALANCED, "[4096, 0.1, 2000, 9]"), 1.5,
        pins={"violating": 2000, "window_fraction": 0.04872721352536005}),
    Row("A2 at n = 65536, eps = 0.3, 200 samples", ("-c", BALANCED, "[65536, 0.3, 200, 1]"), 1,
        pins={"violating": 0, "window_fraction": 0.0}),
    Row("tile-verify at d = 40", ("tile-verify", "--pattern", "p3.og", "--d", "40", "--levels", LEVELS,
                                  "--w", "4", "--epsilon", "0.5"), 20, pins={"per_level": Length(40)}),
    Row("d = 11 cube and two blocked hosts read back", ("-c", CODEC), 10, ceiling=84,
        pins={"reads_back": [True, True, True]},
        files={"cube11.hg": "5f59bcd07b0741fcb131d8ba692009b85aa30c81b906ba9a76ea525ecc7b8996",
               "d8-m8.rg": "3a23978644be91856d78655f103d42f9506043c1f581a97fa2459771a982f068",
               "d4-m256.rg": "c044e34d29ebf8a58d68dc0d71f3bd159cd659facab2c85ef047b035c642494d"}),
    # malformed or oversized inputs: each must be refused up front with exit 2
    _usage_error("tall", "analyze-richness", "--host", "tall.rg", "--alpha", "0.5"),
    _usage_error("wide", "analyze-richness", "--host", "wide.hg", "--alpha", "0.5"),
    _usage_error("zero-denominator", "appendix-check", "--lemma", "a1", "--params",
                 json.dumps({**A1, "eta": "1/0"})),
    _usage_error("far-ordered", "classify", "--pattern", "far.og"),
    _usage_error("far-cube", "analyze-richness", "--host", "far.hg", "--alpha", "0.5"),
    _usage_error("many-chains", "tile-sample", "--pattern", "p3.og", "--d", "6", "--levels", "1,2,3,4,5,6",
                 "--w", "4", "--n-samples", "1000000000"),
    _usage_error("no-samples", "tile-sample", "--pattern", "p3.og", "--d", "6", "--levels", "1,2,3,4,5,6",
                 "--w", "4", "--n-samples", "0", stderr=r"(?s).*argument --n-samples: must be at least 1, got 0\n"),
    _usage_error("negative-samples", "tile-sample", "--pattern", "p3.og", "--d", "6", "--levels", "1,2,3,4,5,6",
                 "--w", "4", "--n-samples", "-1", stderr=r"(?s).*argument --n-samples: must be at least 1, got -1\n"),
    _usage_error("huge-exponent", "appendix-check", "--lemma", "a1", "--params",
                 json.dumps({**A1, "eta": "1e10000000"})),
    _usage_error("grid-key-typo", "report", "--grid", "typo.json"),
    _usage_error("crlf", "analyze-richness", "--host", "crlf.hg", "--alpha", "0.5", stderr=r"error: line \d+: .*\n"),
    _usage_error("upper", "analyze-richness", "--host", "upper.rg", "--alpha", "0.5", stderr=r"error: line \d+: .*\n"),
    _usage_error("a1-binomial", "appendix-check", "--lemma", "a1", "--params",
                 json.dumps({**A1, "eta": 0.1, "k": 10**8, "n": 10**9})),
    _usage_error("a2-window-sums", "appendix-check", "--lemma", "a2", "--params",
                 json.dumps({"n": 10**8, "eps": 0.1, "n_samples": 1, "seed": 0})),
    _usage_error("a3-n-max", "appendix-check", "--lemma", "a3", "--params", '{"n_max": 100000}'),
    _usage_error("a3-premise-windows", "appendix-check", "--lemma", "a3", "--params", json.dumps(
        {"f": [0.5] * 20000, "n": 20000, "x": 1, "y": 1, "alpha": 0.5, "eps": 0.1, "eta": 0.001})),
    # the exact search reads no seed, so it refuses one
    _usage_error("solve-exact-seed", "solve", "--pattern", "p3.og", "--host", "host16.og", "--mode", "exact",
                 "--seed", "1"),
    # a flag's text that is no number is refused with the flag's bounds, not the name of its argparse type
    _usage_error("budget-text", "report", "--grid", "local.json", "--budget", "x",
                 stderr=r"(?s).*argument --budget: must be at least 1, got x\n"),
    _usage_error("alpha-text", "analyze-richness", "--host", "crlf.hg", "--alpha", "y",
                 stderr=r"(?s).*argument --alpha: must be in \[0, 1\], got y\n"),
    _usage_error("seed-text", "gen-host", "--d", "2", "--m", "2", "--out", "never.rg", "--seed", "x",
                 stderr=r"(?s).*argument --seed: must be non-negative and below 2\^64, got x\n"),
    # a k below 1 is refused while parsing, before the host file (here none) is read
    _usage_error("k-zero", "embed-hk", "--host", "never.hg", "--k", "0",
                 stderr=r"(?s).*argument --k: must be at least 1, got 0\n"),
    # so is a level text int() cannot read, before the pattern file (here none) is read
    _usage_error("levels-text", "tile-sample", "--pattern", "never.og", "--d", "3", "--levels", "1,,2", "--w", "1",
                 stderr=r"(?s).*argument --levels: must be comma-separated integers, got 1,,2\n"),
    # star.og and star.hg: the star from vertex 0 to the top 2^17 of 2^21 vertices, so vertex 0's masks
    # span all 2^21 bits; star.hg adds (0, 1), and every other edge lies on level 1; the star.og
    # ceiling keeps the 1.47 times headroom of the star.hg analyze-richness row over its peak
    Row("star.og loaded", ("-c", "import json, sys; from relturan import graphio; "
                                 "print(json.dumps({'edges': graphio.read_ordered(sys.argv[1]).num_edges()}))",
                           "star.og"), 2, limit=AS_LIMIT, ceiling=167, pins={"edges": 131072}),
    Row("star.hg analyze-richness", ("analyze-richness", "--host", "star.hg", "--alpha", "0.5"), 1.5,
        limit=AS_LIMIT, ceiling=135, pins={"level_counts": [131072] + [0] * 19 + [1]}),
    # the desk preset finds no H_2
    Row("star.hg embed-hk", ("embed-hk", "--host", "star.hg", "--k", "2"), 2.7, code=1, limit=AS_LIMIT,
        ceiling=216),
    # large-star.hg: the star (0, v) for v = 1..131,073, so vertex 0's mask spans 131,074 bits and the
    # edges fall on every level from 4 to 21, halving from level 5 up; each ceiling keeps the headroom
    # of the star.hg row of the same command, 1.47 and 1.72 times the peak
    Row("large-star.hg analyze-richness", ("analyze-richness", "--host", "large-star.hg", "--alpha", "0.5"),
        1.5, limit=AS_LIMIT, ceiling=133,
        pins={"level_counts": [0, 0, 0, 2] + [1 << (21 - level) for level in range(5, 22)]}),
    Row("large-star.hg embed-hk", ("embed-hk", "--host", "large-star.hg", "--k", "2"), 2.0, code=1,
        limit=AS_LIMIT, ceiling=276),
]


#: the last line of stderr on exit 2: the CLI's own ``error:`` line, or
#: argparse's, which puts the program and subcommand before it
ERROR_LINE = re.compile(r"(relturan( [a-z-]+)?: )?error: ")


def _failure(row: Row, code: int, stdout: str, stderr: str, peak_mib: float, cwd: str) -> Optional[str]:
    """Why the row failed, or None."""
    lines = stderr.splitlines()
    if code != row.code:
        return f"exit {code}, want {row.code}"
    if "Traceback" in stderr:
        return "a traceback on stderr"
    if code == 2 and not (lines and ERROR_LINE.match(lines[-1])):
        return "stderr does not end in an error: line"
    if any(line.startswith("check failed:") for line in lines) != (code == 1):
        return "a check failed: line without exit 1" if code != 1 else "exit 1 without a check failed: line"
    if row.stderr is not None and not re.fullmatch(row.stderr, stderr):
        return f"stderr does not match {row.stderr!r}"
    try:
        result = json.loads(stdout) if row.pins else {}
    except ValueError:
        return "stdout is not JSON"
    peak_mib = result.get("peak_mib", peak_mib)
    if row.ceiling is not None and peak_mib > row.ceiling:
        return f"peak RSS {peak_mib:.1f} MiB, over {row.ceiling} MiB"
    for field, want in row.pins.items():
        if field not in result:
            return f"no {field} in stdout"
        got = result[field]
        if isinstance(want, Digest):
            got = hashlib.sha256(repr(tuple(map(tuple, got))).encode()).hexdigest()
        elif isinstance(want, Length):
            got = len(got)
        if got != want:
            return f"{field} is {got!r}, want {want!r}"
    for path, want in row.files.items():
        with open(os.path.join(cwd, path), "rb") as fh:
            if isinstance(want, str):
                digest = hashlib.sha256()
                for block in iter(functools.partial(fh.read, 1 << 20), b""):
                    digest.update(block)
                got = digest.hexdigest()
            else:
                table = list(csv.DictReader(fh.read().decode().splitlines()))
                got = {column: [line[column] for line in table] for column in want}
        if got != want:
            return f"{path} is {got!r}, want {want!r}"
    return None


def run(rows: list, fixtures: str = FIXTURES) -> list:
    """Build the fixtures in a temporary directory, run each row there as a
    child of its own, print a line per row, and return the names of the rows
    that failed.

    A child past its timeout is killed with its process group. Each child is
    reaped with ``os.wait4``, whose ``ru_maxrss`` is that child's own peak.
    That peak starts at the resident size this process had when it forked
    the child, so this process stays small: it imports no package, leaves
    the fixtures to a child, and hashes files a block at a time.
    """
    # the rows run in the fixture directory, so relative entries would not resolve
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.abspath(p) for p in path if p))
    failed = []
    with tempfile.TemporaryDirectory() as cwd:
        subprocess.run([sys.executable, "-c", fixtures], cwd=cwd, env=env, check=True)
        for row in rows:
            command = row.command if row.command[0] == "-c" else ("-m", "relturan.cli", *row.command)
            limit = row.limit and functools.partial(resource.setrlimit, resource.RLIMIT_AS, (row.limit, row.limit))
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                start = time.monotonic()
                child = subprocess.Popen([sys.executable, *command], cwd=cwd, env=env, stdout=out, stderr=err,
                                         preexec_fn=limit, start_new_session=True)
                exited = os.pidfd_open(child.pid)
                try:
                    in_time = select.select([exited], [], [], row.timeout)[0]
                finally:
                    os.close(exited)
                if not in_time:
                    os.killpg(child.pid, signal.SIGKILL)
                _, status, usage = os.wait4(child.pid, 0)
                wall = time.monotonic() - start
                child.returncode = code = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
            peak_mib = usage.ru_maxrss / 1024
            why = (f"no exit within {row.timeout} s" if not in_time
                   else _failure(row, code, stdout, stderr, peak_mib, cwd))
            print(f"{'ok' if why is None else 'FAIL':4}  {row.name:<46} exit {code:>2}  {wall:6.2f} s  "
                  f"{peak_mib:6.1f} MiB" + ("" if why is None else f"  {why}; stderr: {stderr.strip()[-300:]!r}"),
                  flush=True)
            if why is not None:
                failed.append(row.name)
    return failed


if __name__ == "__main__":
    sys.exit(1 if run(ROWS) else 0)
