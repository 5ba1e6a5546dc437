"""`tools/digest.py` hashes solver output bit for bit, so that a refactor
which claims to change no bits can be checked against its parent."""

import importlib.util
import re
from pathlib import Path

from sorf import driver, evaluation
from sorf.errors import DeflationError

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
    assert len(first) == 5 and all(re.fullmatch(r"[0-9a-f]{64}", d) for d in first)
    assert tool.digest(DOCS) == first
    changed = tool.digest([{**DOCS[0], "omega": 1.6}, DOCS[1]])
    assert changed[0] != first[0] and changed[1] != first[1]


def test_pencil_digest_ignores_a_change_to_the_table_alone(monkeypatch):
    tool = load_digest_tool()
    full, pencils, *routes = tool.digest(DOCS)
    evaluate = evaluation.evaluate_sorfs

    def scaled(*args, **kwargs):
        table = evaluate(*args, **kwargs)
        return evaluation.SorfTable(2.0 * table.values, table.points)

    monkeypatch.setattr(evaluation, "evaluate_sorfs", scaled)
    rescored = tool.digest(DOCS)
    assert rescored[0] != full
    assert rescored[1] == pencils
    assert list(rescored[2:]) == routes


def test_digest_reads_the_benchmark_pools():
    pools = load_digest_tool()._workloads()
    assert len(pools.make_pool("solve_all_m94", 1)) == pools.WORKLOADS["solve_all_m94"].pool_size


def test_route_digests_move_only_with_their_route(monkeypatch):
    tool = load_digest_tool()
    before = tool.digest(DOCS)
    solve = driver.solve_via_sop

    def doubled(*args):
        sol = solve(*args)
        sol.X[:2] *= 2.0  # (2H, 2K): the same poles and recurrence, other bytes
        return sol

    monkeypatch.setattr(driver, "solve_via_sop", doubled)
    after = tool.digest(DOCS)
    assert after[1] != before[1]
    assert [a != b for a, b in zip(after[2:], before[2:])] == [False, True, False]  # updating, sop, krylov


def test_a_route_that_raises_moves_only_its_own_digest(monkeypatch):
    # the routes after it in the driver's order are solved on their own
    tool = load_digest_tool()
    before = tool.digest(DOCS)

    def deflating(*args):
        raise DeflationError("updating deflated")

    monkeypatch.setattr(driver, "solve_updating", deflating)
    after = tool.digest(DOCS)
    assert [a != b for a, b in zip(after[2:], before[2:])] == [True, False, False]
