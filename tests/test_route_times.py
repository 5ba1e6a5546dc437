"""`tools/route_times.py` times each route's solve alone in fresh processes,
alternating source trees, so that route timings come from one script."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ROUTE_TIMES = ROOT / "tools" / "route_times.py"


def load_route_times_tool():
    spec = importlib.util.spec_from_file_location("sorf_route_times_tool", ROUTE_TIMES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_tree_reports_every_route_per_size(capsys):
    tool = load_route_times_tool()
    assert tool.main([str(ROOT), "--sizes", "6", "--processes", "1", "--solves", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["times"]) == {"updating_m6_ms", "sop_m6_ms", "krylov_m6_ms"}
    for (summary,) in doc["times"].values():
        assert len(summary["values"]) == 1 and summary["median"] > 0.0


def test_two_trees_print_a_ratio_per_line(capsys):
    tool = load_route_times_tool()
    assert tool.main([str(ROOT), str(ROOT), "--sizes", "6", "--processes", "1", "--solves", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["updating_m6_ms", "sop_m6_ms", "krylov_m6_ms"]
    assert all(" x" in line for line in lines)


def test_two_copies_of_one_tree_get_a_paired_ratio_per_round(tmp_path, capsys):
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    tool = load_route_times_tool()
    assert tool.main([*map(str, trees), "--sizes", "6", "--processes", "2", "--solves", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["paired"]) == set(doc["times"])
    for key, ratios in doc["paired"].items():
        assert len(ratios["values"]) == 2 and all(v > 0.0 for v in ratios["values"]), key
        assert ratios["q1"] <= ratios["median"] <= ratios["q3"], key
    assert tool.main([*map(str, trees), "--sizes", "6", "--processes", "1", "--solves", "1"]) == 0
    assert all(" paired x" in line for line in capsys.readouterr().out.splitlines())


def test_one_tree_has_no_paired_ratio(capsys):
    tool = load_route_times_tool()
    assert tool.main([str(ROOT), "--sizes", "6", "--processes", "1", "--solves", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["paired"] == {}


def test_a_size_that_is_not_4n_minus_2_is_refused():
    with pytest.raises(SystemExit) as exit:
        load_route_times_tool().main([str(ROOT), "--sizes", "7"])
    assert exit.value.code == 2
