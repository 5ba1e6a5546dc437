"""Spans around the program's layer boundaries, recorded from outside `src/`.

Each traced function is replaced, for the duration of a traced pass, by a
wrapper installed under the name its caller looks it up by (for example
`sorf.updating.restore_hessenberg`, which `add_block` calls).  The wrapper
records one span per call -- name, start, end, parent span and the id of the
entry-point call it belongs to -- in memory; leaving the `with` block puts
every original back.  Leaf helpers in `sorf.rotations` and `sorf.pencil` run
thousands of times inside the updating spans and are deliberately not
wrapped: their time stays in the enclosing updating span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

from sorf.pencil import is_infinite_pole
from sorf.updating import expected_elimination_count

# (module the caller looks the name up in, attribute, span name)
WRAP_SITES = (
    ("sorf.cli", "main", "cli.main"),
    ("sorf.cli", "run_solve", "driver.run_solve"),
    ("sorf.driver", "run_solve", "driver.run_solve"),
    ("sorf.driver", "run_sweep", "driver.run_sweep"),
    ("sorf.driver", "parse_config", "driver.parse_config"),
    ("sorf.driver", "discretize_gegenbauer", "sobolev.discretize_gegenbauer"),
    ("sorf.driver", "build_jordan", "sobolev.build_jordan"),
    ("sorf.sobolev", "rational_gauss", "quadrature.rational_gauss"),
    ("sorf.driver", "solve_updating", "updating.solve_updating"),
    ("sorf.reference", "solve_updating", "updating.solve_updating"),
    ("sorf.updating", "add_block", "updating.add_block"),
    ("sorf.updating", "embed", "updating.embed"),
    ("sorf.updating", "restore_hessenberg", "updating.restore_hessenberg"),
    ("sorf.updating", "op2_add_pole", "updating.op2_add_pole"),
    ("sorf.updating", "op3_swap_adjacent", "updating.op3_swap_adjacent"),
    ("sorf.driver", "rational_arnoldi", "reference.rational_arnoldi"),
    ("sorf.driver", "solve_via_sop", "reference.solve_via_sop"),
    ("sorf.reference", "op2_add_pole", "reference.op2_add_pole"),
    ("sorf.reference", "op3_swap_adjacent", "reference.op3_swap_adjacent"),
    ("sorf.evaluation", "evaluate_sorfs", "evaluation.evaluate_sorfs"),
    ("sorf.evaluation", "clenshaw_curtis", "quadrature.clenshaw_curtis"),
    ("sorf.driver", "discrete_moment_matrix", "evaluation.discrete_moment_matrix"),
    ("sorf.driver", "continuous_moment_matrix", "evaluation.continuous_moment_matrix"),
    ("sorf.driver", "metric_recurrence", "evaluation.metric_recurrence"),
    ("sorf.driver", "metric_orthonormality", "evaluation.metric_orthonormality"),
    ("sorf.driver", "metric_poles", "evaluation.metric_poles"),
    ("sorf.driver", "metric_sobolev", "evaluation.metric_sobolev"),
    ("sorf.driver", "table_agreement", "evaluation.table_agreement"),
)


# Work counters read off a wrapped call's arguments and result.
COUNTERS = {
    "updating.restore_hessenberg": lambda args, res: {
        "updating.eliminations": len(res),
        "updating.eliminations_expected": expected_elimination_count(args[0].shape[0], args[3]),
    },
    "evaluation.evaluate_sorfs": lambda args, res: {"evaluation.evaluate_sorfs.values": res.values.size},
    "quadrature.clenshaw_curtis": lambda args, res: {"quadrature.clenshaw_curtis.nodes": len(res.nodes)},
    "reference.rational_arnoldi": lambda args, res: {
        "reference.rational_arnoldi.shifted_solves": sum(not is_infinite_pole(p) for p in args[1]),
    },
}


class Tracer:
    """Holds the spans and counts; `with tracer:` installs the wrappers for
    the duration of the block and restores the originals on exit."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, call id)
        self.counts: defaultdict = defaultdict(int)
        self.call_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._sites: list = []  # (module, attribute, original, wrapper)
        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._sites.append((module, attr, original, self._wrap(original, name)))

    def _wrap(self, fn, name: str):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.call_id)
            if counter is not None:
                for key, n in counter(args, result).items():
                    self.counts[key] += n
            return result

        return traced

    def __enter__(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in reversed(self._sites):
            setattr(module, attr, original)

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive ms and self ms (inclusive time
        minus the time covered by its direct child spans)."""
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for (name, t0, t1, _, _), inner in zip(self.spans, child_s):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += 1e3 * (t1 - t0)
            agg["self_ms"] += 1e3 * (t1 - t0 - inner)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, call) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "call": call}) + "\n")
