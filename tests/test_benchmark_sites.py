"""The benchmark's tracer wraps program functions by module and name; a
rename in `src/` would silently drop its spans and counters.  This checks
every wrap site still resolves and that a traced solve reports the counts it
always did, without writing anything under perfbench/."""

import json
import types
from pathlib import Path

from sorf import cli
from sorf.driver import run_solve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_benchmark_wrap_site_resolves():
    tracer = load_tracing().Tracer()
    assert tracer.missing == []


def test_traced_solve_counts_are_pinned():
    # N = 4, all three methods: the structure a kernel refactor must keep
    tracer = load_tracing().Tracer()
    with tracer:
        run_solve({"N": 4, "method": "all"})
    calls = {name: agg["calls"] for name, agg in tracer.layer_times().items()}
    # m = 14: the block that finds a partial solution of 2 rows (at most
    # SWEEP_MAX) is appended and swept, 3 eliminations; the five that find
    # 4 .. 12 rows lead, without any, and bypass add_block
    assert tracer.counts["updating.eliminations"] == 3
    assert tracer.counts["updating.eliminations_expected"] == 3
    # every route adds and moves its poles inside `install_poles` (op2's
    # rule `_add` and one ?tgexc call per move), which the tracer does not
    # wrap; the public op2 and op3 serve the tests alone
    assert calls.get("updating.op2_add_pole", 0) == 0
    assert calls.get("updating.op3_swap_adjacent", 0) == 0
    assert calls["updating.restore_hessenberg"] == 1
    # only the appended block embeds; the leading ones grow the route's one
    # workspace in place
    assert calls["updating.embed"] == 1
    assert calls["updating.add_block"] == 2
    assert tracer.counts["reference.rational_arnoldi.shifted_solves"] == 3
    # one node table for the three routes' pencils as one stack, and per
    # method one table for the continuous matrix
    assert calls["evaluation.evaluate_sorfs"] == 4
    # its values counter still totals every value: 3 pencils x 14 functions
    # x 2 orders x 7 nodes, and per method 3 functions x 2 orders x 801 points
    assert tracer.counts["evaluation.evaluate_sorfs.values"] == 3 * 14 * 2 * 7 + 3 * 3 * 2 * 801


def test_traced_cli_solve_records_one_run_solve_span(tmp_path):
    # the tracer wraps `sorf.cli.run_solve` by name: the cli must reach the
    # solve through that one call, or admissible_grid's layers read wrong
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "method": "all"}))
    tracer = load_tracing().Tracer()
    with tracer:
        assert cli.main(["solve", str(cfg), "-o", str(tmp_path / "report.json")]) == 0
    calls = {name: agg["calls"] for name, agg in tracer.layer_times().items()}
    assert calls["cli.main"] == 1
    assert calls["driver.run_solve"] == 1
