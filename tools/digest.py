"""Bitwise digest of what the solvers produce on the benchmark's config pools.

    PYTHONPATH=src python3 tools/digest.py --seed 1

prints, per workload of `perfbench/workloads.py`, its name and five SHA-256
digests.  The first covers, for every (config, N, method) of that seed's
pool, the bytes of H, K and Q, the node table and the metrics; a
(config, N) that raises a `SorfError` contributes the error's type and
message instead.  Each config also runs through the command line, in
process: `sorf sweep` when it has an `N_range`, else `sorf solve`, with
`-o` to a file.  Its exit code, its stderr (warnings as category and
message), and the written report or CSV without the wall times (the `ms`
fields, the last CSV column) enter the first digest; a missing output file
reads as empty.  Two checkouts that print the same digests
produce bitwise identical pencils, tables, metrics, error messages, reports
and exit codes on those pools, so a refactor that claims to change no bits is
checked by running this script in both and comparing the output.

The second digest covers the pencils alone: per solve the method, `wnorm`
and the bytes of H, K and Q, or the `SorfError`.  It separates a change to
the scoring (tables and metrics, which move the first digest) from a change
to the solvers: a change that only rescores prints new first digests and
the parent's second ones.  A solve whose scoring raises enters it as that
error, as in the first digest.

Three more digests follow, one per route (updating, sop, krylov), over the
same pencil bytes of that route's solves alone.  A (config, N) whose solve
or scoring raises reruns each route that had not yet yielded on its own, so
that an error, or a route that turns to raising, moves only the digest of
the route that raised: a change to one solver prints the parent's digests
for the other two.

The pools are read from `perfbench/workloads.py` without importing it as a
package, so nothing is written under `perfbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import types
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads() -> types.ModuleType:
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # the dataclasses there look it up
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _cli_bytes(doc, workdir: Path) -> bytes:
    """Exit code, stderr and timing-free output of `sorf solve|sweep` on `doc`."""
    from sorf import cli

    cfg, out = workdir / "config.json", workdir / "output"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    command = "sweep" if "N_range" in doc else "solve"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([command, str(cfg), "-o", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    if text and command == "solve":
        report = json.loads(text)
        for entry in report.get("reports", [report]):
            del entry["ms"]
        text = json.dumps(report)
    elif text:
        text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
    shown = [f"{w.category.__name__}: {w.message}" for w in caught]
    return f"exit {code} {stderr.getvalue()!r} {shown!r} {text}".encode()


def _array_bytes(a) -> bytes:
    import numpy as np

    a = np.ascontiguousarray(a)
    return f"{a.dtype} {a.shape}".encode() + a.tobytes()


def _pencil_bytes(N: int, method: str, sol) -> bytes:
    return f"{N} {method} {sol.wnorm!r}".encode() + b"".join(_array_bytes(a) for a in (sol.H, sol.K, sol.Q))


def _route_alone(cfg: dict, N: int, method: str) -> bytes:
    """Pencil bytes of one route solved and scored on its own, or its error."""
    from sorf.driver import _solve_and_score
    from sorf.errors import SorfError

    try:
        _, sol, *_ = next(_solve_and_score({**cfg, "method": method}, N))
    except SorfError as exc:
        return f"{N} {type(exc).__name__}: {exc}".encode()
    return _pencil_bytes(N, method, sol)


def digest(docs) -> tuple[str, ...]:
    """SHA-256 hex digests over the solves of the config documents `docs`:
    everything, direct and through the command line; the pencils alone; and
    the pencils of each route in `sorf.driver.METHODS`."""
    from sorf.driver import METHODS, _solve_and_score, parse_config
    from sorf.errors import SorfError

    h, p = hashlib.sha256(), hashlib.sha256()
    routes = {method: hashlib.sha256() for method in METHODS}

    def every(data: bytes) -> None:
        for d in (h, p, *routes.values()):
            d.update(data)

    with tempfile.TemporaryDirectory() as workdir:
        for doc in docs:
            every(repr(sorted(doc.items())).encode())
            h.update(_cli_bytes(doc, Path(workdir)))
            try:
                cfg = parse_config(doc)
            except SorfError as exc:
                every(f"{type(exc).__name__}: {exc}".encode())
                continue
            lo, hi = cfg["N_range"] or (cfg["N"], cfg["N"])
            for N in range(lo, hi + 1):
                done = set()
                try:
                    for method, sol, metrics, table, _ in _solve_and_score(cfg, N):
                        h.update(f"{N} {method} {sol.wnorm!r} {sorted(metrics.items())!r}".encode())
                        for a in (sol.H, sol.K, sol.Q, table.values, table.points):
                            h.update(_array_bytes(a))
                        pencil = _pencil_bytes(N, method, sol)
                        p.update(pencil)
                        routes[method].update(pencil)
                        done.add(method)
                except SorfError as exc:
                    error = f"{N} {type(exc).__name__}: {exc}".encode()
                    h.update(error)
                    p.update(error)
                    for method in (METHODS if cfg["method"] == "all" else (cfg["method"],)):
                        if method not in done:
                            routes[method].update(_route_alone(cfg, N, method))
    return h.hexdigest(), p.hexdigest(), *(d.hexdigest() for d in routes.values())


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
        print(name, *digest(wl.make_pool(name, args.seed)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
