#!/usr/bin/env python3
"""Best-found path-free density on the blocked hosts as d grows.

On the complete host the optimum fraction is 1/2; on the blocked random
hosts the best-found fraction drifts downward with d, illustrating the gap
between the complete-host limit and the relative one.  Lower bounds only
(quarter constructor + local search), so the trend is advisory.

Usage: python3 scripts/density_trend.py [--m 8] [--d-max 6] [--seed 0]
"""

import argparse
import sys
import time

from relturan.density import quarter_free_subgraph, rho_local_search
from relturan.hosts import generate_host
from relturan.patterns import monotone_p3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--d-max", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget", type=int, default=300)
    args = ap.parse_args()

    pat = monotone_p3()
    print(f"{'d':>3} {'edges':>8} {'quarter':>8} {'local':>8} {'time_s':>7}")
    ratios = []
    for d in range(2, args.d_max + 1):
        t0 = time.perf_counter()
        host = generate_host(args.m, d, args.seed).to_ordered()
        total = host.num_edges()
        q = quarter_free_subgraph(host).num_edges() / total
        res = rho_local_search(pat, host, budget=args.budget, seed=args.seed)
        local = res.best_edge_count / total
        ratios.append(local)
        print(f"{d:>3} {total:>8} {q:>8.4f} {local:>8.4f} {time.perf_counter() - t0:>7.2f}")

    drops = sum(1 for a, b in zip(ratios, ratios[1:]) if b < a + 1e-9)
    print(f"\nbest-found density decreased at {drops}/{len(ratios) - 1} steps "
          "(advisory trend; all values are lower bounds >= 1/4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
