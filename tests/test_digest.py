"""`tools/digest.py` hashes solver output bit for bit, so that a refactor
which claims to change no bits can be checked against its parent."""

import importlib.util
import re
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def load_digest_tool():
    spec = importlib.util.spec_from_file_location("sorf_digest_tool", DIGEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_is_a_deterministic_sha256_of_the_solves():
    tool = load_digest_tool()
    docs = [{"mu": 2.0, "omega": 1.5, "N": 2, "method": "all"}, {"N": 0}]  # the second fails typed
    first = tool.digest(docs)
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert tool.digest(docs) == first
    assert tool.digest([{**docs[0], "omega": 1.6}, docs[1]]) != first


def test_digest_reads_the_benchmark_pools():
    pools = load_digest_tool()._workloads()
    assert len(pools.make_pool("solve_all_m94", 1)) == pools.WORKLOADS["solve_all_m94"].pool_size
