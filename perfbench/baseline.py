"""Run the benchmark over several seeds and summarize each metric.

From the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload in BENCHMARK.json it makes one untraced run per seed,
then one traced run on the first seed, one at a time.  Per end-to-end
metric it records the median, the quartiles (`statistics.quantiles(n=4)`)
and the spread (interquartile distance over the median) next to the
metric's bound; per-layer metrics are the traced run's values.  Comparing
two commits means running this on both with the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values: list[float], bound: float) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": abs(q3 - q1) / abs(med) if med else 0.0, "bound": bound, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    summary = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        results = [run(name, s, spec["run_seconds"], 0) for s in seeds]
        traced = run(name, seeds[0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in results], m["bound"])
                for m in spec["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, s in summary["workloads"][name]["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"{name:16s} {metric:28s} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}", flush=True)
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
