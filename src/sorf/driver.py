"""Batch driver: config documents in, report documents and sweep CSV out.

Documents are JSON.  Complex numbers are serialized as [re, im] pairs and
the point at infinity as the literal string "inf".  Reports carry the pencil
entries row-major, the realized pole list, the error metrics and the wall
time in milliseconds.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import time

import numpy as np

from .errors import AccuracyError, ConfigError, RuleValidationError, SorfError
from .evaluation import (
    continuous_moment_matrix,
    discrete_moment_matrix,
    evaluate_solutions,
    metric_orthonormality,
    metric_poles,
    metric_recurrence,
    metric_sobolev,
    table_agreement,
)
from .pencil import INFINITY, is_infinite_pole
from .quadrature import QuadratureRule
from .reference import rational_arnoldi, solve_via_sop
from .sobolev import (
    N_MAX,
    GegenbauerSobolevConfig,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_rule,
)
from .updating import solve_updating

SWEEP_CSV_HEADER = "N,m,method,E_r,E_p,E_Q,E_S_discrete,E_S_cont_leading,ms"

METHODS = ("updating", "sop", "krylov")  # the first is a config's default method


def _decode_real(value) -> float:
    """A real number field: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:  # an int beyond the float range
        raise ConfigError(f"number {value} is out of range") from exc


def _decode_scalar(value) -> complex:
    if isinstance(value, str):
        if value.strip().lower() in ("inf", "infinity"):
            return INFINITY
        raise ConfigError(f"unrecognized scalar literal {value!r}")
    if isinstance(value, (list, tuple)) and len(value) == 2:
        z = complex(_decode_real(value[0]), _decode_real(value[1]))
    else:
        z = complex(_decode_real(value))
    # refused at the boundary, where the message can quote the config value
    if np.isnan(z):
        raise ConfigError(f"scalar {value!r} has a NaN component")
    return z


def _decode_scalars(doc: dict, key: str) -> list | None:
    if key not in doc:
        return None
    if not isinstance(doc[key], (list, tuple)):
        raise ConfigError(f"{key} must be a list")
    return [_decode_scalar(p) for p in doc[key]]


def _decode_size(value) -> int:
    """A size field: an integer or an integral float, not a bool."""
    if not _decode_real(value).is_integer():
        raise ConfigError(f"size {value!r} is not an integer")
    return int(value)


def _encode_scalar(value) -> object:
    if is_infinite_pole(value):
        return "inf"
    z = complex(value)
    return [z.real, z.imag]


def _encode_matrix(M: np.ndarray) -> list:
    enabled = gc.isenabled()
    gc.disable()  # lists of floats form no cycles: spare the collector its passes
    try:
        return np.stack((M.real, M.imag), -1).tolist()
    finally:
        if enabled:
            gc.enable()


def parse_config(doc: dict) -> dict:
    """Validate a config document and fill in defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {
        "mu", "lambda", "omega", "N", "method", "poles", "free_poles",
        "quadrature_file", "N_range",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    rng = doc.get("N_range")
    if "N_range" in doc and not (isinstance(rng, (list, tuple)) and len(rng) == 2):
        raise ConfigError("N_range must be a [lo, hi] pair")
    out = {}
    out["mu"] = _decode_real(doc.get("mu", 2.0))
    out["lambda"] = _decode_real(doc.get("lambda", 1.0))
    out["omega"] = _decode_real(doc.get("omega", 1.1))
    out["N"] = _decode_size(doc.get("N", 3))
    out["N_range"] = (_decode_size(rng[0]), _decode_size(rng[1])) if "N_range" in doc else None
    if out["N_range"] is not None and not 1 <= out["N_range"][0] <= out["N_range"][1]:
        raise ConfigError("N_range must satisfy 1 <= lo <= hi")
    if out["N_range"] is not None and out["N_range"][1] > N_MAX:
        raise ConfigError(f"N_range ends at {out['N_range'][1]}, above the largest size N_MAX = {N_MAX}")
    method = doc.get("method", METHODS[0])
    if method not in METHODS + ("all",):
        raise ConfigError(f"method must be one of {METHODS + ('all',)}")
    out["method"] = method
    out["poles"] = _decode_scalars(doc, "poles")
    out["free_poles"] = _decode_scalars(doc, "free_poles")
    out["quadrature_file"] = doc.get("quadrature_file")
    if not isinstance(out["quadrature_file"], (str, type(None))):
        raise ConfigError("quadrature_file must be a path string")
    return out


def _gegenbauer_config(cfg: dict, N: int) -> GegenbauerSobolevConfig:
    poles = None if cfg["poles"] is None else cfg["poles"][: N - 1]
    return GegenbauerSobolevConfig(mu=cfg["mu"], lam=cfg["lambda"], omega=cfg["omega"], N=N, poles=poles)


def _solve_and_score(cfg: dict, N: int):
    """Yield (method, solution, metrics, node table, ms) for each configured
    method on the size-N problem; `ms` covers the solve, its continuous
    moment matrix, its metrics and an equal share of the node-table pass.
    A metric that is not finite raises AccuracyError.

    The rule, spec, J, w and pole list are built once and shared by the
    methods.  Each route is solved and its continuous matrix formed in
    `METHODS` order, so a config that the matrix refuses stops before any
    node table; one `evaluate_solutions` pass then tabulates every solved
    pencil at the nodes, and each route is scored and yielded in turn.  A
    route that fails in its solve or continuous matrix is raised after the
    routes before it are yielded, as a route at a time would.  Solvers and
    metrics are looked up in this module's globals at call time, so a
    wrapper installed under one of those names takes effect.
    """
    gcfg = _gegenbauer_config(cfg, N)
    path = cfg["quadrature_file"]
    rule = import_quadrature(read_json(path, malformed=RuleValidationError)) if path else None
    spec = discretize_gegenbauer(gcfg, rule=rule)
    psis = default_pole_list(gcfg.poles, spec.m, free=cfg["free_poles"])
    system = build_jordan(spec)
    solved, failure = [], None
    for method in METHODS if cfg["method"] == "all" else (cfg["method"],):
        t0 = time.perf_counter()
        try:
            if method == "updating":
                sol = solve_updating(spec, psis)
            elif method == "sop":
                sol = solve_via_sop(system, psis)
            else:
                sol = rational_arnoldi(system, psis)
            Mc = continuous_moment_matrix(sol.H, sol.K, sol.wnorm, gcfg.mu, gcfg.lam, max(N - 1, 1))
        except SorfError as exc:
            failure = exc
            break
        solved.append((method, sol, Mc, time.perf_counter() - t0))
    if not solved:
        raise failure
    t0 = time.perf_counter()
    tables = evaluate_solutions([sol for _, sol, _, _ in solved], np.array(spec.nodes), max(spec.orders))
    share = (time.perf_counter() - t0) / len(solved)
    for (method, sol, Mc, elapsed), table in zip(solved, tables):
        t0 = time.perf_counter()
        Md = discrete_moment_matrix(spec, table)
        metrics = {
            "E_r": metric_recurrence(system, sol),
            "E_p": metric_poles(sol, psis),
            "E_Q": metric_orthonormality(sol),
            "E_S_discrete": metric_sobolev(Md),
            "E_S_continuous_leading": metric_sobolev(Mc),
        }
        for name, value in metrics.items():
            if not math.isfinite(value):
                raise AccuracyError(f"the {method} solve scores {name} = {value}")
        yield method, sol, metrics, table, 1e3 * (elapsed + share + time.perf_counter() - t0)
    if failure is not None:
        raise failure


def run_solve(doc: dict, _keep_arrays: bool = False) -> dict:
    """Solve one configuration and emit a report document.

    `_keep_arrays` is for `sorf.cli`, which writes H and K straight from
    the solvers' arrays to the bytes `json.dumps` gives for their lists."""
    cfg = parse_config(doc)
    encode = np.asarray if _keep_arrays else _encode_matrix
    reports = []
    tables = {}
    for method, sol, metrics, table, ms in _solve_and_score(cfg, cfg["N"]):
        tables[method] = table
        reports.append(
            {
                "method": method,
                "m": sol.m,
                "H": encode(sol.H),
                "K": encode(sol.K),
                "poles": [_encode_scalar(p) for p in sol.poles()],
                "metrics": metrics,
                "ms": ms,
                "eval_conditioning": float(np.max(np.abs(table.values))),
            }
        )
    if cfg["method"] != "all":
        return reports[0]
    agreement = max(table_agreement(tables[a], tables[b]) for a, b in itertools.combinations(METHODS, 2))
    return {"reports": reports, "cross_agreement": agreement}


def run_sweep(doc: dict) -> str:
    """Run the configured methods over a range of N and emit the CSV text."""
    cfg = parse_config(doc)
    if cfg["N_range"] is None:
        raise ConfigError("sweep configs need an N_range field")
    lo, hi = cfg["N_range"]
    lines = [SWEEP_CSV_HEADER]
    for N in range(lo, hi + 1):
        for method, sol, metrics, _, ms in _solve_and_score(cfg, N):
            lines.append(
                f"{N},{sol.m},{method},{metrics['E_r']:.6e},{metrics['E_p']:.6e},"
                f"{metrics['E_Q']:.6e},{metrics['E_S_discrete']:.6e},"
                f"{metrics['E_S_continuous_leading']:.6e},{ms:.3f}"
            )
    return "\n".join(lines) + "\n"


def dump_quadrature(doc: dict) -> dict:
    """Construct the configured rational Gauss rule and emit a rule document."""
    cfg = parse_config(doc)
    return rule_document(gegenbauer_rule(_gegenbauer_config(cfg, cfg["N"])))


def rule_document(rule: QuadratureRule) -> dict:
    return {
        "nodes": rule.nodes.tolist(),
        "weights": rule.weights.tolist(),
        "provenance": rule.provenance,
    }


def import_quadrature(doc: dict) -> QuadratureRule:
    """Validate a rule document and return the rule (canonical node order)."""
    if not isinstance(doc, dict) or "nodes" not in doc or "weights" not in doc:
        raise RuleValidationError("rule document needs 'nodes' and 'weights'")
    nodes, weights = doc["nodes"], doc["weights"]
    if not (
        isinstance(nodes, (list, tuple)) and isinstance(weights, (list, tuple)) and len(nodes) == len(weights)
    ):
        raise RuleValidationError("'nodes' and 'weights' must be lists of equal length")
    try:
        nodes, weights = np.split(np.array([_decode_real(x) for x in [*nodes, *weights]]), 2)
    except ConfigError as exc:
        raise RuleValidationError(str(exc)) from exc
    order = np.argsort(nodes)
    try:
        return QuadratureRule(nodes[order], weights[order], str(doc.get("provenance", "imported")))
    except SorfError as exc:
        raise RuleValidationError(f"imported rule failed validation: {exc}") from exc


def read_json(path: str, unreadable=ConfigError, malformed=ConfigError):
    """The JSON document at `path`; raises `unreadable` when the file cannot
    be read and `malformed` when it is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise unreadable(f"cannot read {path!r}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # the last for deep nesting
        raise malformed(f"{path!r} is not valid UTF-8 JSON: {exc}") from exc

