"""Benchmark of the sorf batch driver: seeded workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_all_m94 --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json; the workloads
themselves (config draws, entry point, output checks) live in workloads.py.
Each run starts fresh processes with BLAS pinned to one thread:

* --trace 0: SETUP_SAMPLES set-up-only processes, then the measuring
  process.  Each one imports `sorf` from `src/` and makes one untimed
  warm-up call.  A set-up sample is the wall time from process start to
  that point, divided by the calibration kernel (worker.py) timed in this
  process just before and just after it, and scaled by CAL_NOMINAL_MS;
  `setup_s` is the median of the samples.  The measuring process then runs
  a closed loop (one client) of whole passes over the workload's seeded
  config pool until --seconds have passed, and the end-to-end metrics
  follow.
* --trace 1: one process runs the first few configs of the pool, each once
  untraced and once with spans recorded around every layer (tracing.py),
  reports the per-layer metrics and the tracing overhead, and writes the
  spans to perfbench/spans.jsonl.  This is a fixed amount of work and
  ignores --seconds, so its counts repeat exactly.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it is the
full record: seed, drawn configs, machine, raw wall-clock times, failure
tally by exception type (with fail_ratio and untyped_fail_ratio) and the
log10 of the worst value of each error over the run.

* `attempted`: entry-point calls made.
* `failed`: calls that broke the program's contract -- an exception that is
  not a `SorfError` (or any exception escaping `cli.main`), or a returned
  output that failed a check.  A typed `SorfError` (cli exit 2, 3 or 4) is
  a documented outcome: it lowers `success_ratio` but is not counted here.
* `correct`: no returned output failed a check.

Metric conventions:

* `_cal` times and `setup_s` are wall times divided by a calibration kernel
  timed around them, scaled back to milliseconds or seconds (see worker.py);
  the raw wall times are in the record line.
* `success_ratio` is 1 - fail_ratio and `typed_ratio` is
  1 - untyped_fail_ratio, so that no end-to-end metric is ever 0.
* `E_*_digits_p50` are correct digits, -log10(E) floored at 1e-16: per
  route (updating, sop, krylov) the median over the run's checked outputs,
  then the least accurate route.  Bounds therefore read in decades.  A
  statistic over no outputs reads 16, as does `cross_agreement_digits_p50`
  on workloads whose outputs carry no cross agreement (one method per
  config, or sweep CSV rows).

The run writes only under `.perfbench_work/` in the checkout and removes it.
Outside a checkout (no `src/sorf`) it exits with status 2 and prints no
result.  Seeded summaries over many runs: baseline.py.  The benchmark's own
tests: `python3 -m pytest -q perfbench/selftest.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from worker import CAL_NOMINAL_MS, Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds until it printed `ready`, its record)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="sorf benchmark (see BENCHMARK.json)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sorf", "__init__.py")):
        print("error: run from the root of a sorf checkout (src/sorf not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work_root = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(work_root, str(os.getpid()))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ]
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    setup = []  # (wall seconds, calibration kernel seconds around them)
    try:
        if not args.trace:
            calibrate = Calibration()
            for _ in range(SETUP_SAMPLES):
                before = calibrate.settled()
                wall = spawn(cmd + ["--setup-only"], env, deadline)[0]
                setup.append((wall, 0.5 * (before + calibrate.settled())))
        record = spawn(cmd, env, deadline)[1]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)

    values = dict(record["metrics"])
    if setup:
        values["setup_s"] = statistics.median(wall / cal * CAL_NOMINAL_MS / 1e3 for wall, cal in setup)
        record["raw_wall"]["setup_samples_s"] = [wall for wall, _ in setup]
        record["raw_wall"]["setup_calibration_ms"] = [1e3 * cal for _, cal in setup]
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"error: metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    tally = record["tally"]
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally["check_failures"] == 0,
        "attempted": tally["calls"],
        "failed": tally["untyped"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
