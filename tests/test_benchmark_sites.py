"""The benchmark's tracer wraps program functions by module and name; a
rename in `src/` would silently drop its spans and counters.  This checks
every wrap site still resolves, without writing anything under perfbench/."""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_benchmark_wrap_site_resolves():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    tracer = module.Tracer()
    assert tracer.missing == []
