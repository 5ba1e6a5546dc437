"""Bitwise digest of what the solvers produce on the benchmark's config pools.

    PYTHONPATH=src python3 tools/digest.py --seed 1

prints one SHA-256 per workload of `perfbench/workloads.py`.  A digest covers,
for every (config, N, method) of that seed's pool, the bytes of H, K and Q,
the node table and the metrics; a (config, N) that raises a `SorfError`
contributes the error's type and message instead.  Two checkouts that print
the same digests produce bitwise identical pencils, tables, metrics and error
messages on those pools, so a refactor that claims to change no bits is
checked by running this script in both and comparing the output.

The pools are read from `perfbench/workloads.py` without importing it as a
package, so nothing is written under `perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads() -> types.ModuleType:
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # the dataclasses there look it up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def digest(docs) -> str:
    """SHA-256 hex digest over the solves of the config documents `docs`."""
    import numpy as np

    from sorf.driver import _solve_and_score, parse_config
    from sorf.errors import SorfError

    h = hashlib.sha256()
    for doc in docs:
        h.update(repr(sorted(doc.items())).encode())
        try:
            cfg = parse_config(doc)
        except SorfError as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        lo, hi = cfg["N_range"] or (cfg["N"], cfg["N"])
        for N in range(lo, hi + 1):
            try:
                for method, sol, metrics, table, _ in _solve_and_score(cfg, N):
                    h.update(f"{N} {method} {sol.wnorm!r} {sorted(metrics.items())!r}".encode())
                    for a in (sol.H, sol.K, sol.Q, table.values, table.points):
                        a = np.ascontiguousarray(a)
                        h.update(f"{a.dtype} {a.shape}".encode())
                        h.update(a.tobytes())
            except SorfError as exc:
                h.update(f"{N} {type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="benchmark seed whose pools are digested")
    parser.add_argument("--workload", action="append", help="digest only this workload (repeatable)")
    args = parser.parse_args(argv)
    # one BLAS thread before numpy loads, as in the benchmark: the bits of a
    # threaded reduction may depend on the thread count
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    wl = _workloads()
    for name in args.workload or list(wl.WORKLOADS):
        print(f"{name} {digest(wl.make_pool(name, args.seed))}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
