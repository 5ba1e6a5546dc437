"""Each route's solve alone, timed in fresh processes, alternating source trees.

    python3 tools/route_times.py TREE [TREE ...] [--sizes 46 94 198]
                                 [--processes 12] [--solves 7] [--json]

Each TREE is a checkout of this repository (for a comparison: the parent
first, then the change).  Per size m the problem is the Gegenbauer one of
`sorf solve` with mu 2, lambda 1, omega 1.5 and the default pole ladder,
N = (m + 2) / 4, built once per process outside the timed region.  A fresh
process per (round, tree) imports `sorf` from TREE/src with one BLAS
thread, makes one untimed warm-up solve per route and then times `--solves`
solves of each route (updating, sop, krylov) alone, keeping the median; the
rounds alternate the trees, so drift on a shared machine falls on every
tree alike.  Prints one line per size and route with, per tree, the median,
first and third quartile over the processes' medians in ms, and for two
trees the ratio of the medians (second over first) and the paired ratio:
per round, the second tree's process median over the first's, summarized
by the median and quartiles of those ratios, which cancels the drift that
one round's two processes share.  `--json` prints the values themselves as
one JSON document instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROUTES = ("updating", "sop", "krylov")

CHILD = """
import json, statistics, sys, time
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import GegenbauerSobolevConfig, build_jordan, default_pole_list, discretize_gegenbauer
from sorf.updating import solve_updating
out = {}
for m in map(int, sys.argv[2:]):
    config = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=(m + 2) // 4)
    spec = discretize_gegenbauer(config)
    poles, system = default_pole_list(config.poles, spec.m), build_jordan(spec)
    assert spec.m == m, (spec.m, m)
    routes = {"updating": lambda: solve_updating(spec, poles), "sop": lambda: solve_via_sop(system, poles), "krylov": lambda: rational_arnoldi(system, poles)}
    for name, solve in routes.items():
        solve()
        times = []
        for _ in range(int(sys.argv[1])):
            t0 = time.perf_counter()
            solve()
            times.append(1e3 * (time.perf_counter() - t0))
        out[f"{name}_m{m}_ms"] = statistics.median(times)
print(json.dumps(out))
"""


def run_process(tree: Path, sizes, solves: int) -> dict:
    """Per-route medians of one fresh process on `tree`'s source."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(solves), *map(str, sizes)], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def summary(values) -> dict:
    q1, median, q3 = np.percentile(values, (25, 50, 75))
    return {"median": round(float(median), 3), "q1": round(float(q1), 3), "q3": round(float(q3), 3), "values": [round(v, 3) for v in values]}


def measure(trees, sizes, processes: int, solves: int) -> tuple[dict, dict]:
    """({key: [summary per tree]}, {key: summary of the paired ratios}) with
    key `<route>_m<m>_ms`; the second is empty unless there are two trees."""
    samples = [[] for _ in trees]
    for _ in range(processes):
        for got, tree in zip(samples, trees):
            got.append(run_process(tree, sizes, solves))
    keys = [f"{route}_m{m}_ms" for m in sizes for route in ROUTES]
    times = {key: [summary([run[key] for run in got]) for got in samples] for key in keys}
    rounds = list(zip(*samples)) if len(trees) == 2 else []
    paired = {key: summary([b[key] / a[key] for a, b in rounds]) for key in keys if rounds}
    return times, paired


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path)
    parser.add_argument("--sizes", nargs="+", type=int, default=[46, 94, 198])
    parser.add_argument("--processes", type=int, default=12)
    parser.add_argument("--solves", type=int, default=7)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if any((m + 2) % 4 for m in args.sizes):
        parser.error("every size m must be 4N - 2 for an integer N")
    times, paired = measure([tree.resolve() for tree in args.trees], args.sizes, args.processes, args.solves)
    if args.json:
        doc = {"trees": [str(t) for t in args.trees], "processes": args.processes, "solves": args.solves}
        print(json.dumps({**doc, "times": times, "paired": paired}))
        return 0
    for key, per_tree in times.items():
        cells = [f"{s['median']:9.3f} ({s['q1']:.3f}-{s['q3']:.3f})" for s in per_tree]
        ratio = f"  x{per_tree[1]['median'] / per_tree[0]['median']:.2f}" if len(per_tree) == 2 else ""
        if key in paired:
            ratio += f"  paired x{paired[key]['median']:.3f} ({paired[key]['q1']:.3f}-{paired[key]['q3']:.3f})"
        print(f"{key:18s}" + "".join(cells) + ratio)
    return 0


if __name__ == "__main__":
    sys.exit(main())
