"""`tools/digest.py` hashes solver output bit for bit, so that a refactor
which claims to change no bits can be checked against its parent."""

import importlib.util
import re
from pathlib import Path

from sorf import evaluation

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"
DOCS = [{"mu": 2.0, "omega": 1.5, "N": 2, "method": "all"}, {"N": 0}]  # the second fails typed


def load_digest_tool():
    spec = importlib.util.spec_from_file_location("sorf_digest_tool", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_a_deterministic_sha256_of_the_solves():
    tool = load_digest_tool()
    first = tool.digest(DOCS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", d) for d in first)
    assert tool.digest(DOCS) == first
    changed = tool.digest([{**DOCS[0], "omega": 1.6}, DOCS[1]])
    assert changed[0] != first[0] and changed[1] != first[1]


def test_pencil_digest_ignores_a_change_to_the_table_alone(monkeypatch):
    tool = load_digest_tool()
    full, pencils = tool.digest(DOCS)
    evaluate = evaluation.evaluate_sorfs

    def scaled(*args, **kwargs):
        table = evaluate(*args, **kwargs)
        return evaluation.SorfTable(2.0 * table.values, table.points)

    monkeypatch.setattr(evaluation, "evaluate_sorfs", scaled)
    rescored = tool.digest(DOCS)
    assert rescored[0] != full
    assert rescored[1] == pencils


def test_digest_reads_the_benchmark_pools():
    pools = load_digest_tool()._workloads()
    assert len(pools.make_pool("solve_all_m94", 1)) == pools.WORKLOADS["solve_all_m94"].pool_size
