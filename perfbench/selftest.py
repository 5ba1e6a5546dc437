"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection:
they start benchmark processes and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from workloads import WORKLOADS, CheckError, Runner, check_solve, check_sweep, make_pool  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

COUNT_SUFFIXES = (".calls", ".nodes", ".values", ".shifted_solves")
COUNT_NAMES = {"updating.eliminations", "updating.eliminations_expected", "cli.warnings"}


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pool_is_deterministic_per_seed_and_differs_across_seeds(name):
    assert make_pool(name, 7) == make_pool(name, 7)
    assert make_pool(name, 7) != make_pool(name, 8)
    assert len(make_pool(name, 7)) == WORKLOADS[name].pool_size


def test_fixed_mu_pools_cover_the_ladder_evenly():
    for name in ("solve_all_m94", "sweep_all_small", "krylov_m198"):
        pool = make_pool(name, 3)
        per_mu = len(pool) // len(workloads.MU_LADDER)
        assert sorted(c["mu"] for c in pool) == sorted(list(workloads.MU_LADDER) * per_mu)
        rungs = len(workloads.MU_LADDER)
        assert all(sorted(c["mu"] for c in pool[i:i + rungs]) == list(workloads.MU_LADDER)
                   for i in range(0, len(pool), rungs))
        assert all(1.05 <= c["omega"] <= 3.0 for c in pool)


def test_admissible_pool_is_stratified_over_the_admissible_set():
    for seed in (1, 2, 3):
        pool = make_pool("admissible_grid", seed)
        assert all(-1.0 < c["mu"] <= 5.0 and 1.001 < c["omega"] <= 3.0 for c in pool)
        assert sorted(c["N"] for c in pool) == sorted(list(range(2, 17)) * (len(pool) // 15))
        # mu = 0 is a stratum edge: the share of mu < 0 is the same for every seed
        assert sum(c["mu"] < 0 for c in pool) == len(pool) // 6


def test_checks_reject_broken_outputs():
    from sorf.driver import run_solve, run_sweep
    import numpy as np

    cfg = {"mu": 2.0, "omega": 1.5, "N": 3, "method": "all"}
    doc = run_solve(cfg)
    errors, cross = check_solve(np, doc, cfg)
    assert [m for m, _ in errors] == ["updating", "sop", "krylov"] and cross >= 0.0

    bad = json.loads(json.dumps(doc))
    bad["reports"][1]["H"][3][0] = [1.0, 0.0]
    with pytest.raises(CheckError, match="Hessenberg"):
        check_solve(np, bad, cfg)
    bad = json.loads(json.dumps(doc))
    bad["reports"][0]["metrics"]["E_p"] = 1e-9
    with pytest.raises(CheckError, match="E_p"):
        check_solve(np, bad, cfg)
    bad = json.loads(json.dumps(doc))
    bad["reports"][2]["poles"].pop()
    with pytest.raises(CheckError, match="poles"):
        check_solve(np, bad, cfg)

    sweep_cfg = {"mu": 2.0, "omega": 1.5, "N_range": [2, 3], "method": "all"}
    csv = run_sweep(sweep_cfg)
    assert len(check_sweep(csv, sweep_cfg)) == 6
    with pytest.raises(CheckError, match="rows"):
        check_sweep("\n".join(csv.splitlines()[:-1]), sweep_cfg)
    with pytest.raises(CheckError, match="header"):
        check_sweep(csv.replace("E_r", "Er", 1), sweep_cfg)


def _traced_counts(name: str, configs, workdir: str) -> dict:
    from tracing import Tracer
    from worker import per_layer

    runner = Runner(name, workdir)
    tracer = Tracer()
    with tracer:
        traced = [runner.call(cfg) for cfg in configs]
    metrics = per_layer(tracer, traced, traced, runner.wl.entry)["metrics"]
    return {
        k: v for k, v in metrics.items()
        if k.endswith(COUNT_SUFFIXES) or k in COUNT_NAMES or k.startswith("cli.exit.")
    }


@pytest.mark.parametrize("name,n", [
    ("solve_all_m94", 1), ("sweep_all_small", 1), ("krylov_m198", 1), ("admissible_grid", 8),
])
def test_trace_counts_repeat_exactly(name, n, tmp_path):
    configs = make_pool(name, 5)[:n]
    first = _traced_counts(name, configs, str(tmp_path))
    second = _traced_counts(name, configs, str(tmp_path))
    assert first == second
    if name == "krylov_m198":
        assert all(v == 0 for k, v in first.items() if k.startswith("updating."))
        assert first["reference.rational_arnoldi.calls"] == 1
    else:
        assert first["updating.eliminations"] > 0
    if name == "admissible_grid":
        assert sum(first[f"cli.exit.{c}"] for c in (0, 2, 3, 4)) <= n


def test_tracer_restores_every_function():
    import sorf.driver
    import sorf.updating
    from tracing import Tracer

    before = (sorf.driver.run_solve, sorf.updating.restore_hessenberg)
    tracer = Tracer()
    assert not tracer.missing
    with tracer:
        assert sorf.driver.run_solve is not before[0]
    assert (sorf.driver.run_solve, sorf.updating.restore_hessenberg) == before


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(trace):
    out = run_bench("--workload", "krylov_m198", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    record = json.loads(lines[-2])
    assert record["seed"] == 3 and record["configs"] == make_pool("krylov_m198", 3)
    if trace == "1":
        with open(os.path.join(ROOT, "perfbench", "spans.jsonl"), encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        calls = WORKLOADS["krylov_m198"].trace_calls
        assert sum(s["name"] == "driver.run_solve" and s["parent"] == -1 for s in spans) == calls
        assert {s["call"] for s in spans} == set(range(calls))
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "krylov_m198", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
