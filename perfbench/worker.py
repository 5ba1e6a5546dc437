"""Run one workload in a fresh process and print its measurements as JSON.

Started by run.py, never by hand: it needs `src` on PYTHONPATH.  The process
pins BLAS to one thread before numpy loads, imports `sorf`, makes one untimed
warm-up call and prints `ready`; run.py times process start to that line as
one set-up sample.  With --setup-only it stops there.  Otherwise it runs

* --trace 0: a closed loop that makes whole passes through the seeded config
  pool until --seconds have passed, and prints the end-to-end metrics;
* --trace 1: the first `trace_calls` configs of the pool, each once untraced
  and once traced, prints the per-layer metrics and writes every span to
  SPANS_PATH.  The traced pass is a fixed amount of work, so its counts
  repeat exactly for one seed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from workloads import ERROR_KEYS, WORKLOADS, Runner, digits, make_pool  # noqa: E402

# A shared host changes speed by up to about 1.4x for stretches of seconds to
# minutes (other tenants), so raw wall times of two runs can differ by more
# than a useful regression bound.  A fixed calibration kernel -- interpreter
# loop, small dense products, and plane rotations on rows and columns of a
# complex matrix, like the program's own mix -- is timed before and after
# every call, and a call's time is divided by the kernel's time around it.
# On a 2-core shared VM the first two parts cut the run-to-run spread of
# solve_all_m94 throughput from about 20% to about 11%; adding the rotations,
# which track the updating kernel's row and column sweeps, cut the spread of
# single m = 62 and sweep calls further (about 15% to 10%).  It does not
# remove all of it.  The `_cal` metrics multiply the ratio back by
# CAL_NOMINAL_MS, about the kernel's time on that VM when it runs at full
# speed, so they read as milliseconds there.  Raw wall times are in the record line.  The
# kernel and CAL_NOMINAL_MS are part of the benchmark's definition.
CAL_NOMINAL_MS = 9.5

# Every traced run writes its spans here (JSON lines), replacing the last ones.
SPANS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans.jsonl")


class Calibration:
    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((60, 60))
        self.Z = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        self.np = np

    def settled(self) -> float:
        """Median of three kernel runs, for samples taken outside a call loop."""
        return statistics.median(self() for _ in range(3))

    def __call__(self) -> float:
        """Seconds taken by one run of the fixed calibration kernel."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        B = self.A
        for _ in range(200):
            B = self.np.tanh(B @ self.A * 0.01)
        Z, c, s = self.Z.copy(), 0.8, 0.6
        for k in range(300):
            i = k % 99
            top = Z[i, i:].copy()
            Z[i, i:] = c * top + s * Z[i + 1, i:]
            Z[i + 1, i:] = c * Z[i + 1, i:] - s * top
            left = Z[: i + 2, i].copy()
            Z[: i + 2, i] = c * left + s * Z[: i + 2, i + 1]
            Z[: i + 2, i + 1] = c * Z[: i + 2, i + 1] - s * left
        return time.perf_counter() - t0


def machine_record() -> dict:
    import numpy
    import scipy

    def blas_version(module) -> str:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError, AttributeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def error_values(outcomes, key: str, method: str | None = None) -> list[float]:
    """Error `key` of every checked output (one per method and config)."""
    return [errs[key] for o in outcomes if o.ok for m, errs in o.errors if method in (None, m)]


def median_digits(values: list[float]) -> float:
    return statistics.median(digits(v) for v in values) if values else digits(0.0)


def route_digits(outcomes, key: str) -> float:
    """Digits of the least accurate route: per method, the median over its
    checked outputs; then the lowest of those medians.  A median over all
    routes together would not move when only the worst route got worse."""
    methods = {m for o in outcomes if o.ok for m, _ in o.errors}
    return min((median_digits(error_values(outcomes, key, m)) for m in methods), default=digits(0.0))


def worst_digits(values: list[float]) -> float:
    return digits(max(values, default=0.0))


def tally(outcomes) -> dict:
    n = len(outcomes)
    failed = [o for o in outcomes if not o.ok]
    untyped = sum(o.untyped for o in outcomes)
    return {
        "calls": n,
        "ok": n - len(failed),
        "fail_ratio": len(failed) / n,
        "untyped": untyped,
        "untyped_fail_ratio": untyped / n,
        "check_failures": sum(o.error == "CheckError" for o in outcomes),
        "errors_typed": dict(Counter(o.error for o in failed if o.typed)),
        "errors_untyped": dict(Counter(o.error for o in failed if not o.typed)),
        "check_details": sorted({o.detail for o in failed if o.detail}),
        "warnings": sum(o.warnings for o in outcomes),
    }


def end_to_end(outcomes) -> dict:
    t = tally(outcomes)
    cross = [o.cross_agreement for o in outcomes if o.ok and o.cross_agreement is not None]
    scaled = [o.seconds / o.calibration * CAL_NOMINAL_MS / 1e3 for o in outcomes]
    solves = sum(o.solves for o in outcomes)
    raw = {
        "solves_per_s": solves / sum(o.seconds for o in outcomes),
        "call_ms_p50": 1e3 * statistics.median(o.seconds for o in outcomes),
        "calibration_ms_p50": 1e3 * statistics.median(o.calibration for o in outcomes),
        "calls": len(outcomes),
    }
    metrics = {
        "solves_per_s_cal": solves / sum(scaled),
        "call_ms_p50_cal": 1e3 * statistics.median(scaled),
        "success_ratio": t["ok"] / t["calls"],
        "typed_ratio": 1.0 - t["untyped_fail_ratio"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for key in ERROR_KEYS:
        metrics[f"{key}_digits_p50"] = route_digits(outcomes, key)
    metrics["cross_agreement_digits_p50"] = median_digits(cross)
    worst = {key: error_values(outcomes, key) for key in ERROR_KEYS}
    worst["cross_agreement"] = cross
    worst_log10 = {f"{key}_log10": math.log10(max(v)) if v and max(v) > 0 else None for key, v in worst.items()}
    return {"metrics": metrics, "raw_wall": raw, "tally": t, "worst": worst_log10}


def per_layer(tracer, traced, untraced, entry: str) -> dict:
    lt = tracer.layer_times()

    def get(name: str, key: str) -> float:
        return lt[name][key] if name in lt else 0

    m = {}
    spans = {
        "quadrature.rational_gauss": ("calls", "ms"),
        "quadrature.clenshaw_curtis": ("calls", "ms"),
        "sobolev.discretize_gegenbauer": ("self_ms",),
        "sobolev.build_jordan": ("ms",),
        "updating.solve_updating": ("calls", "ms"),
        "updating.embed": ("ms",),
        "updating.add_block": ("self_ms",),
        "updating.restore_hessenberg": ("calls", "ms"),
        "updating.op2_add_pole": ("calls",),
        "updating.op3_swap_adjacent": ("calls",),
        "reference.rational_arnoldi": ("calls", "ms"),
        "reference.solve_via_sop": ("ms",),
        "evaluation.evaluate_sorfs": ("calls", "ms"),
        "evaluation.discrete_moment_matrix": ("ms",),
        "evaluation.continuous_moment_matrix": ("calls", "self_ms"),
        "evaluation.metric_recurrence": ("ms",),
        "evaluation.metric_orthonormality": ("ms",),
        "evaluation.metric_poles": ("ms",),
        "evaluation.metric_sobolev": ("ms",),
        "evaluation.table_agreement": ("ms",),
        "driver.run_solve": ("self_ms",),
        "driver.run_sweep": ("self_ms",),
        "driver.parse_config": ("ms",),
        "cli.main": ("self_ms",),
    }
    for name, keys in spans.items():
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    for key in (
        "quadrature.clenshaw_curtis.nodes",
        "updating.eliminations",
        "updating.eliminations_expected",
        "reference.rational_arnoldi.shifted_solves",
        "evaluation.evaluate_sorfs.values",
    ):
        m[key] = tracer.counts.get(key, 0)
    expected = m["updating.eliminations_expected"]
    m["updating.elimination_ratio"] = m["updating.eliminations"] / expected if expected else 0.0
    m["updating.install_ms"] = get("updating.op2_add_pole", "ms") + get("updating.op3_swap_adjacent", "ms")
    m["reference.sop_install_ms"] = get("reference.op2_add_pole", "ms") + get("reference.op3_swap_adjacent", "ms")
    for method, layer in (("updating", "updating"), ("sop", "reference.sop"), ("krylov", "reference.krylov")):
        for key in ("E_p", "E_S_discrete"):
            m[f"{layer}.{key}_digits_worst"] = worst_digits(error_values(traced, key, method))
    m["cross_agreement_digits_worst"] = worst_digits(
        [o.cross_agreement for o in traced if o.ok and o.cross_agreement is not None]
    )
    for code in (0, 2, 3, 4):
        m[f"cli.exit.{code}"] = sum(o.exit_code == code for o in traced)
    m["cli.warnings"] = sum(o.warnings for o in traced) if entry == "cli" else 0
    t = tally(traced)
    m["fail_ratio"] = t["fail_ratio"]
    m["untyped_fail_ratio"] = t["untyped_fail_ratio"]
    # same configs in both passes, so the time ratio is the solves_per_s ratio
    m["trace.overhead"] = sum(o.seconds for o in traced) / sum(o.seconds for o in untraced) - 1.0
    return {"metrics": m, "tally": t, "missing_wrap_sites": tracer.missing}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    pool = make_pool(args.workload, args.seed)
    runner = Runner(args.workload, args.workdir)
    runner.call(wl.warmup)  # lazy imports and first-touch costs, untimed
    print("ready", flush=True)
    if args.setup_only:
        return 0

    record = {"workload": wl.name, "seed": args.seed, "configs": pool, "machine": machine_record()}
    if args.trace:
        from tracing import Tracer

        # each config runs untraced, then traced right after, so both calls
        # of a pair see the same host speed and trace.overhead stays steady
        tracer = Tracer()
        untraced, traced = [], []
        for k, cfg in enumerate(pool[: wl.trace_calls]):
            untraced.append(runner.call(cfg))
            tracer.call_id = k
            with tracer:
                traced.append(runner.call(cfg))
        tracer.write_spans(SPANS_PATH)
        record.update(per_layer(tracer, traced, untraced, wl.entry))
    else:
        calibrate = Calibration()
        calibrate()
        outcomes = []
        t0 = time.perf_counter()
        before = calibrate()
        while not outcomes or time.perf_counter() - t0 < args.seconds:
            for cfg in pool:
                outcome = runner.call(cfg)
                after = calibrate()
                outcome.calibration = 0.5 * (before + after)
                outcomes.append(outcome)
                before = after
        record.update(end_to_end(outcomes))
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
