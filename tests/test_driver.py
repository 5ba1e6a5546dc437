import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sorf.driver import (
    SWEEP_CSV_HEADER,
    _encode_matrix,
    _solve_and_score,
    dump_quadrature,
    import_quadrature,
    parse_config,
    run_solve,
    run_sweep,
)
import sorf.cli
import sorf.driver
import sorf.errors
import sorf.quadrature
from sorf.errors import (
    AccuracyError,
    ConfigError,
    DeflationError,
    KrylovBreakdownError,
    NumericalError,
    RuleValidationError,
    SorfError,
)
from sorf.sobolev import (
    N_MAX,
    GegenbauerSobolevConfig,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_pole_ladder,
)
from sorf.updating import solve_updating

BASE = {"mu": 2, "lambda": 1, "omega": 1.1, "N": 3}


def test_parse_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        parse_config({**BASE, "nuisance": 1})


def test_parse_config_rejects_bad_method():
    with pytest.raises(ConfigError):
        parse_config({**BASE, "method": "simplex"})


def test_parse_config_rejects_removed_pole_pair_count():
    # there is no pole-pair count: the prescribed poles come from `poles` or
    # the default ladder, so a document that sets M is rejected
    with pytest.raises(ConfigError, match="unknown config fields"):
        parse_config({**BASE, "M": 1})


def test_parse_config_rejects_removed_cc_order():
    # the continuous moment matrix always uses evaluation.CC_ORDER
    with pytest.raises(ConfigError, match="unknown config fields"):
        parse_config({**BASE, "cc_order": 400})


@pytest.mark.parametrize(
    "doc",
    [
        {"poles": 5},
        {"free_poles": 5},
        {"poles": [["a", 1]]},
        {"N_range": ["a", 3]},
        {"mu": float("nan")},
        {"omega": float("inf")},
        {"lambda": float("nan")},
        {"quadrature_file": ["rule.json"]},
        {"N": 2, "poles": [[float("nan"), 0]]},
        {"mu": 0, "omega": 1.7, "N": 5, "poles": [[-2, 0], [2, 0], "inf", [3, 0]]},
        {"N": 2.7},
        {"N_range": [2.5, 4]},
        {"N": True},
        {"mu": 10**400},
    ],
)
def test_malformed_config_is_a_config_error(doc):
    with pytest.raises(ConfigError):
        run_solve({**BASE, **doc})


@pytest.mark.parametrize(
    "doc",
    [
        {"mu": True},
        {"mu": "2"},
        {"lambda": "0.5"},
        {"poles": [True]},
        {"poles": [["1", 0]]},
        {"free_poles": [[True, 0]]},
    ],
)
def test_non_number_is_a_config_error(doc):
    # JSON booleans and numeric strings are not numbers; parse_config itself
    # refuses them, before any size or pole check could
    with pytest.raises(ConfigError):
        parse_config({**BASE, **doc})


def test_run_solve_reference_configuration():
    report = run_solve({**BASE, "method": "updating"})
    assert report["m"] == 10
    m = report["metrics"]
    assert m["E_r"] <= 1e-12
    assert m["E_p"] <= 1e-12
    assert m["E_Q"] <= 1e-12
    assert len(report["H"]) == 10 and len(report["H"][0]) == 10
    assert report["poles"][0] == pytest.approx([-1.1, 0.0], abs=1e-12)
    assert report["poles"][2] == "inf"
    assert "ms" in report  # reported, never asserted


def test_run_solve_all_methods_with_agreement():
    report = run_solve({**BASE, "method": "all"})
    assert [r["method"] for r in report["reports"]] == ["updating", "sop", "krylov"]
    assert report["cross_agreement"] <= 1e-10


def test_run_solve_all_methods_with_free_poles():
    # every route installs the finite and complex free poles, not only the
    # prescribed prefix
    free = [[-5, 0], [5, 0], [2, 1], "inf", [-3, 0.5], [6, 0], [-2.5, -1]]
    report = run_solve({**BASE, "method": "all", "free_poles": free})
    for r in report["reports"]:
        assert r["metrics"]["E_p"] <= 1e-10, r["method"]
        assert r["poles"][4] == pytest.approx([2, 1], abs=1e-10)
    assert report["cross_agreement"] <= 1e-10


def test_run_solve_minimal_system():
    report = run_solve({**BASE, "N": 1, "method": "updating"})
    assert report["m"] == 2


def test_report_matrix_decodes_bit_exactly():
    report = json.loads(json.dumps(run_solve({**BASE, "method": "updating"})))
    spec = discretize_gegenbauer(GegenbauerSobolevConfig(mu=2, lam=1, omega=1.1, N=3))
    sol = solve_updating(spec, default_pole_list(gegenbauer_pole_ladder(1.1, 2), spec.m))
    decoded = np.array(report["H"])
    # bytes, not values: -0.0 == 0.0 would hide a lost sign of zero
    assert decoded[..., 0].tobytes() == sol.H.real.tobytes()
    assert decoded[..., 1].tobytes() == sol.H.imag.tobytes()


@pytest.mark.parametrize("enabled", [True, False])
def test_encode_matrix_runs_no_collection_and_keeps_gc_state(enabled, monkeypatch):
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def refusing(*args, **kwargs):
        raise ValueError("stack refused")

    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    gc.callbacks.append(count)
    try:
        # a 198 x 198 encode allocates ~40k lists: dozens of collections
        # if the collector were left running
        _encode_matrix(np.ones((198, 198), complex))
        assert starts == []
        assert gc.isenabled() is enabled
        with monkeypatch.context() as patch, pytest.raises(ValueError, match="stack refused"):
            patch.setattr(sorf.driver.np, "stack", refusing)
            _encode_matrix(np.ones((2, 2)))
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        gc.enable() if was_enabled else gc.disable()


CONJUGATE_POLES = {"N": 6, "mu": 1.0, "omega": 1.5, "method": "all",
                   "poles": [[1.6, 0.4], [1.6, -0.4], [-2.0, 0.3], [-2.0, -0.3], [3.0, 0]]}
INFINITE_POLES = {**BASE, "method": "all", "free_poles": ["inf", [-5, 0], "inf", [2, 0], "inf", "inf", [6, 0]]}


def listed(report: dict) -> dict:
    """The library document for a report whose H and K are still arrays."""
    if "reports" in report:
        return {**report, "reports": [listed(r) for r in report["reports"]]}
    return {**report, "H": _encode_matrix(report["H"]), "K": _encode_matrix(report["K"])}


def without_ms(report: dict) -> dict:
    if "reports" in report:
        return {**report, "reports": [without_ms(r) for r in report["reports"]]}
    return {k: v for k, v in report.items() if k != "ms"}


@pytest.mark.parametrize("doc", [{**BASE, "N": 4, "method": "all"}, CONJUGATE_POLES, INFINITE_POLES],
                         ids=["real", "conjugate-poles", "infinite-poles"])
def test_solve_writer_gives_the_bytes_of_json_dumps(doc):
    arrays = run_solve(doc, _keep_arrays=True)
    assert without_ms(listed(arrays)) == without_ms(run_solve(doc))  # the seam changes nothing else
    reports = arrays.get("reports", [arrays])
    if doc is CONJUGATE_POLES:
        assert all(np.iscomplexobj(r["H"]) and np.iscomplexobj(r["K"]) for r in reports)
    if doc is INFINITE_POLES:
        assert all(np.any(np.diag(r["K"], -1) == 0) for r in reports)
    assert sorf.cli._report_json(arrays) == json.dumps(listed(arrays))


@pytest.mark.parametrize(
    "M",
    [
        np.array([[1.0, 2.0, 3.0], [-0.0, 4.0, 5.0], [-0.0, 0.0, 6.0]]),
        np.array([[1.0, 2.0], [0.0, 0.0], [0.0, -0.0]]),  # rows of +0.0 and of both signs
        np.array([[1 + 2j, complex(3, -0.0)], [complex(0, -0.0), 4j], [complex(-0.0, 0), 0j]]),
        np.asfortranarray(np.triu(np.arange(1.0, 17.0).reshape(4, 4) / 3, -1)),
    ],
    ids=["negative-zero-below-subdiagonal", "zero-rows", "complex-signed-zeros", "fortran-hessenberg"],
)
def test_matrix_writer_keeps_every_sign_of_zero(M):
    # every float goes through %r, so -0.0 stays -0.0 in either part and in any row or memory order
    assert sorf.cli._matrix_json(M) == json.dumps(_encode_matrix(M))
    assert sorf.cli._report_json({"H": M, "K": M.T, "m": 2}) == json.dumps(
        {"H": _encode_matrix(M), "K": _encode_matrix(M.T), "m": 2})


def test_cli_solve_builds_no_per_entry_lists(tmp_path, monkeypatch):
    def never(M):
        raise AssertionError("the cli encoded a matrix to per-entry lists")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONJUGATE_POLES))
    out = tmp_path / "report.json"
    with monkeypatch.context() as patch:
        patch.setattr(sorf.driver, "_encode_matrix", never)
        assert sorf.cli.main(["solve", str(cfg), "-o", str(out)]) == 0
    assert without_ms(json.loads(out.read_text())) == without_ms(run_solve(CONJUGATE_POLES))


def test_cli_parser_is_built_once_and_keeps_no_arguments(tmp_path, capsys):
    assert sorf.cli.build_parser() is sorf.cli.build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N": 2, "method": "krylov"}))
    report = tmp_path / "report.json"
    assert sorf.cli.main(["solve", str(cfg), "-o", str(report)]) == 0
    written = report.read_text()
    # no -o this time: the rule goes to stdout, not to the first call's file
    assert sorf.cli.main(["dump-quadrature", str(cfg)]) == 0
    rule = capsys.readouterr().out
    assert report.read_text() == written and json.loads(rule) == dump_quadrature({**BASE, "N": 2})
    (tmp_path / "rule.json").write_text(rule)
    copy = tmp_path / "copy.json"
    assert sorf.cli.main(["import-quadrature", str(tmp_path / "rule.json"), "-o", str(copy)]) == 0
    assert copy.read_text() == rule and report.read_text() == written
    args = sorf.cli.build_parser().parse_args(["import-quadrature", "r.json"])
    assert vars(args) == {"command": "import-quadrature", "rule": "r.json", "output": None}


def test_run_solve_deterministic():
    a = run_solve({**BASE, "method": "updating"})
    b = run_solve({**BASE, "method": "updating"})
    assert a["H"] == b["H"] and a["K"] == b["K"] and a["poles"] == b["poles"]
    assert a["metrics"] == b["metrics"]


def test_run_sweep_header_and_sizing():
    csv = run_sweep({**BASE, "N_range": [2, 3], "method": "updating"})
    lines = csv.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        N, m = int(row[0]), int(row[1])
        assert m == 2 + (N - 1) * 4
    assert [int(r[0]) for r in rows] == [2, 3]


def test_run_sweep_requires_range():
    with pytest.raises(ConfigError):
        run_sweep({**BASE})


def test_quadrature_round_trip_bit_exact():
    doc = dump_quadrature(BASE)
    rule = import_quadrature(doc)
    assert [float(x) for x in doc["nodes"]] == list(rule.nodes)
    assert [float(w) for w in doc["weights"]] == list(rule.weights)
    # a second pass through the document representation is also stable
    from sorf.driver import rule_document

    assert rule_document(rule) == doc


@pytest.mark.parametrize(
    "doc",
    [
        {"N": 4, "poles": [1.5, 1.5]},  # two poles where N - 1 = 3 are needed
        {"N": 4, "omega": 1.0},  # the default ladder would touch [-1, 1]
    ],
)
def test_dump_quadrature_rejects_what_solve_rejects(doc):
    with pytest.raises(ConfigError):
        run_solve(doc)
    with pytest.raises(ConfigError):
        dump_quadrature(doc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_continuous_moment_matrix_with_infinite_endpoint_weight_is_typed():
    # mu < 0 makes the weight infinite at t = +-1, where Clenshaw-Curtis
    # samples it: the weight is refused before it is evaluated there
    with pytest.raises(AccuracyError):
        run_solve({"mu": -0.5, "N": 4})


def test_infinite_prescribed_pole_with_imported_rule(tmp_path):
    # only building a rule needs finite poles; an imported rule does not
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(dump_quadrature(BASE)))
    doc = {**BASE, "method": "all", "poles": [[-1.1, 0], "inf"], "quadrature_file": str(path)}
    report = run_solve(doc)
    assert all(r["poles"][1] == "inf" for r in report["reports"])


def test_import_rejects_negative_weight():
    with pytest.raises(RuleValidationError):
        import_quadrature({"nodes": [0.0, 0.5], "weights": [1.0, -0.2]})


@pytest.mark.parametrize("weights", [["a", 1.0], [1.0], [1.0, 1.0, 1.0], 1.0, [[1.0, 0.5], 1.0]])
def test_import_rejects_malformed_weights(weights):
    with pytest.raises(RuleValidationError):
        import_quadrature({"nodes": [0.0, 0.5], "weights": weights})


def test_import_rejects_boolean_node():
    with pytest.raises(RuleValidationError):
        import_quadrature({"nodes": [True, 0.5], "weights": [1.0, 1.0]})


def test_import_rejects_coincident_nodes():
    with pytest.raises(RuleValidationError):
        import_quadrature({"nodes": [0.5, 0.5], "weights": [1.0, 1.0]})


def test_imported_rule_matches_internal_construction(tmp_path):
    doc = dump_quadrature(BASE)
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(doc))
    direct = run_solve({**BASE, "method": "updating"})
    via_file = run_solve({**BASE, "method": "updating", "quadrature_file": str(path)})
    assert np.allclose(
        np.array(direct["H"], dtype=float), np.array(via_file["H"], dtype=float), atol=1e-10
    )
    # node agreement between construction paths
    rebuilt = dump_quadrature(BASE)
    assert np.allclose(doc["nodes"], rebuilt["nodes"], atol=1e-10)


def test_explicit_pole_list_config():
    report = run_solve({"mu": 2, "lambda": 1, "omega": 1.5, "N": 2,
                        "poles": [[-1.3, 0.0]], "method": "updating"})
    assert report["poles"][0] == pytest.approx([-1.3, 0.0], abs=1e-12)


def test_free_poles_config():
    report = run_solve({**BASE, "method": "updating",
                        "free_poles": [[2.5, 0.0]] + ["inf"] * 6})
    assert report["poles"][2] == pytest.approx([2.5, 0.0], abs=1e-11)
    assert report["poles"][3] == "inf"
    assert report["metrics"]["E_p"] <= 1e-12


# ---------------------------------------------------------------------------
# command-line interface and exit codes
# ---------------------------------------------------------------------------


def run_cli(*args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "sorf", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


# the documented exit code and stderr prefix of each kind of error
EXIT_BY_ERROR = [
    (ConfigError, 2, "config error: "),
    (NumericalError, 3, "numerical failure: "),
    (RuleValidationError, 4, "validation error: "),
]


@pytest.mark.parametrize(
    "error",
    [e for e in vars(sorf.errors).values() if isinstance(e, type) and issubclass(e, SorfError) and e is not SorfError],
    ids=lambda e: e.__name__,
)
def test_cli_maps_every_error_to_its_exit_code(tmp_path, monkeypatch, capsys, error):
    documented = [(code, prefix) for kind, code, prefix in EXIT_BY_ERROR if issubclass(error, kind)]
    assert len(documented) == 1, f"{error.__name__} has no documented exit code"
    (code, prefix), = documented

    def failing(doc, _keep_arrays=False):
        raise error("raised from run_solve")

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BASE))
    monkeypatch.setattr(sorf.cli, "run_solve", failing)
    assert sorf.cli.main(["solve", str(cfg)]) == code
    captured = capsys.readouterr()
    assert captured.err == prefix + "raised from run_solve\n"  # one line, no traceback
    assert captured.out == ""


def test_cli_solve_success(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "method": "updating"}))
    out = tmp_path / "report.json"
    proc = run_cli("solve", str(cfg), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["m"] == 10


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "method": "bogus"}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 2


def test_cli_malformed_config_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "poles": 5}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_non_number_config_exit_code(tmp_path):
    # JSON booleans and numeric strings are not numbers
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "mu": True, "lambda": "0.5"}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_numerical_error_exit_code(tmp_path):
    # a prescribed pole inside [-1, 1] makes the modified measure ill-posed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": 2, "lambda": 1, "omega": 1.1, "N": 2,
                               "poles": [[0.5, 0.0]], "method": "updating"}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 3


def test_cli_complex_pole_without_its_conjugate_exits_numerical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 2, "poles": [[2, 1]]}))
    assert sorf.cli.main(["solve", str(cfg)]) == 3
    assert "does not define a real modified measure" in capsys.readouterr().err


def test_cli_infinite_endpoint_weight_exits_numerical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": -0.5, "N": 4}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


EXTREME_DOCS = [{"mu": mu, "N": 3} for mu in (512, 1e6, 1e300, 1e308)] + [{"mu": 600, "N": 8}]
HUGE_OMEGA_DOCS = [{"omega": omega, "N": 3} for omega in (1e154, 1e200, 1e308)]


@pytest.mark.parametrize("doc", EXTREME_DOCS + HUGE_OMEGA_DOCS)
def test_extreme_admissible_config_ends_in_metrics_or_typed_error(doc):
    try:
        report = run_solve({**doc, "method": "all"})
    except SorfError as exc:
        assert isinstance(exc, NumericalError)
        return
    assert "omega" not in doc  # huge omega overflows the pole factors
    assert math.isfinite(report["cross_agreement"])
    for entry in report["reports"]:
        assert all(math.isfinite(v) for v in entry["metrics"].values())


@pytest.mark.parametrize("doc", EXTREME_DOCS + HUGE_OMEGA_DOCS)
def test_cli_extreme_admissible_config_exits_cleanly(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("solve", str(cfg), "-o", str(tmp_path / "report.json"))
    assert proc.returncode in ((3,) if "omega" in doc else (0, 3)), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def ms_masked(text: str) -> str:
    return re.sub(r'"ms": [^,}]*', '"ms": 0', text)


@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mu=st.floats(-1.0, 5.0, exclude_min=True),
    omega=st.floats(1.001, 3.0, exclude_min=True),
    lam=st.floats(1e-2, 1e2),
    N=st.integers(1, 10),
)
def test_cli_solve_of_an_admissible_config_writes_the_report_or_exits_typed(tmp_path, capsys, mu, omega, lam, N):
    # every admissible config ends in the report's bytes, json.dumps(run_solve(cfg)),
    # or in a config or numerical failure with one line of stderr; a warning is
    # an error here, so it cannot pass as either outcome
    doc = {"mu": mu, "omega": omega, "lambda": lam, "N": N, "method": "all"}
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc))
    code = sorf.cli.main(["solve", str(cfg), "-o", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert ms_masked(out.read_text()) == ms_masked(json.dumps(run_solve(doc)) + "\n")
    else:
        assert code in (2, 3)
        assert err.startswith(("config error: ", "numerical failure: ")) and err.count("\n") == 1, err


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mu=st.floats(-1.0, 5.0, exclude_min=True),
    omega=st.floats(1.001, 3.0, exclude_min=True),
    lam=st.floats(1e-2, 1e2),
    ends=st.lists(st.integers(1, 6), min_size=2, max_size=2).map(sorted),
)
def test_cli_sweep_of_an_admissible_config_writes_the_csv_or_exits_typed(tmp_path, capsys, mu, omega, lam, ends):
    # every admissible sweep ends in run_sweep's CSV bytes, the wall times
    # (the last column) masked, or in a config or numerical failure with one
    # line of stderr; a warning is an error here
    doc = {"mu": mu, "omega": omega, "lambda": lam, "N_range": ends, "method": "all"}
    cfg, out = tmp_path / "cfg.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(doc))
    code = sorf.cli.main(["sweep", str(cfg), "-o", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        masked = lambda text: re.sub(r",[^,\n]*$", ",0", text, flags=re.M)
        assert masked(out.read_text()) == masked(run_sweep(doc))
    else:
        assert code in (2, 3)
        assert err.startswith(("config error: ", "numerical failure: ")) and err.count("\n") == 1, err


# free poles 1.7e308i: the pencils carry them, but their ratio h / k is past
# the float range, so E_p cannot be scored; 1e307i and a real 1.7e308 can
HUGE_POLE_DOC = {"N": 3, "free_poles": [[0, 1.7e308]] * 7}


@pytest.mark.parametrize("method", ["updating", "sop"])
def test_a_metric_that_is_not_finite_is_an_accuracy_error(method):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=f"the {method} solve scores E_p = inf"):
            run_solve({**HUGE_POLE_DOC, "method": method})
        for pole in ([0, 1e307], [1.7e308, 0]):
            report = run_solve({**HUGE_POLE_DOC, "free_poles": [pole] * 7, "method": method})
            assert all(math.isfinite(v) for v in report["metrics"].values())


def test_a_later_routes_failure_comes_after_the_routes_before_it(monkeypatch):
    # every route is solved before any is scored, yet the errors and yields
    # come in route order: the Krylov route breaks down on HUGE_POLE_DOC in
    # its solve, after which the updating route's metric is still the error
    with pytest.raises(AccuracyError, match="^the updating solve scores E_p = inf$"):
        run_solve({**HUGE_POLE_DOC, "method": "all"})
    with pytest.raises(KrylovBreakdownError):
        run_solve({**HUGE_POLE_DOC, "method": "krylov"})

    def deflating(*args):
        raise DeflationError("sop deflated")

    monkeypatch.setattr(sorf.driver, "solve_via_sop", deflating)
    yielded = []
    with pytest.raises(DeflationError, match="^sop deflated$"):
        for method, *_ in _solve_and_score(parse_config({"N": 4, "method": "all"}), 4):
            yielded.append(method)
    assert yielded == ["updating"]


@pytest.mark.parametrize("method", ["updating", "sop", "krylov", "all"])
def test_cli_exits_numerical_on_a_metric_that_is_not_finite(tmp_path, method):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**HUGE_POLE_DOC, "method": method}))
    proc = run_cli("solve", str(cfg), "-o", str(tmp_path / "report.json"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1, proc.stderr


# a derivative scaling of 1e150 (1e-150) swamps (vanishes beside) the rest of
# the pencil, so placing a pole at the trailing position deflates it
EXTREME_LAMBDA_DOCS = [{"N": 3, "lambda": 1e300}, {"N": 3, "lambda": 1e-300}]


@pytest.mark.parametrize("doc", EXTREME_LAMBDA_DOCS)
def test_extreme_lambda_deflates_in_pole_placement(tmp_path, doc):
    with pytest.raises(DeflationError) as info:
        run_solve({**doc, "method": "all"})
    assert "_add" in [frame.name for frame in traceback.extract_tb(info.tb)]  # op2's rule
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_dump_quadrature_refuses_zero_lambda(tmp_path):
    # lambda > 0 holds for every command, not only for the solves
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 4, "lambda": 0}))
    proc = run_cli("dump-quadrature", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "lambda must be positive" in proc.stderr


@pytest.mark.parametrize("doc", [{"N": 4, "poles": [1.5, 1.5]}, {"N": 4, "omega": 1.0}])
def test_cli_dump_quadrature_config_error_exit_code(tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("dump-quadrature", str(cfg))
    assert proc.returncode == 2, proc.stderr


def test_cli_import_validation_exit_code(tmp_path):
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps({"nodes": [0.0, 0.4], "weights": [1.0, -1.0]}))
    proc = run_cli("import-quadrature", str(rule))
    assert proc.returncode == 4


def test_cli_import_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(BASE))
    dumped = tmp_path / "rule.json"
    assert run_cli("dump-quadrature", str(cfg), "-o", str(dumped)).returncode == 0
    reimported = tmp_path / "rule2.json"
    assert run_cli("import-quadrature", str(dumped), "-o", str(reimported)).returncode == 0
    assert reimported.read_bytes() == dumped.read_bytes()


@pytest.mark.parametrize("command", ["solve", "dump-quadrature", "import-quadrature"])
def test_cli_writes_one_compact_json_line(tmp_path, capsys, command):
    doc = {**BASE, "N": 2, "method": "krylov"}
    if command == "import-quadrature":
        doc = dump_quadrature(doc)
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert sorf.cli.main([command, str(src), "-o", str(out)]) == 0
    assert sorf.cli.main([command, str(src)]) == 0
    for text in (out.read_text(), capsys.readouterr().out):
        assert text == json.dumps(json.loads(text)) + "\n"


def test_cli_sweep_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N_range": [2, 3], "method": "krylov"}))
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", str(cfg), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,m,method,E_r,E_p,E_Q,E_S_discrete,E_S_cont_leading,ms"
    assert len(lines) == 3


# real numbers that a rule document cannot hold: an [x, 0.0] pair (the form
# of a config's complex scalar, which no rule writer produces), the "inf"
# literal, JSON's NaN and Infinity, and a boolean
NOT_A_RULE_NUMBER = [[0.1, 0.0], "inf", math.nan, math.inf, True]


@pytest.mark.parametrize("field", ["nodes", "weights"])
@pytest.mark.parametrize("value", NOT_A_RULE_NUMBER, ids=["pair", "inf-literal", "nan", "infinity", "true"])
def test_a_rule_entry_that_is_not_a_real_number_exits_validation(tmp_path, capsys, field, value):
    rule = dump_quadrature(BASE)
    rule[field][1] = value
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "quadrature_file": str(path)}))
    assert sorf.cli.main(["import-quadrature", str(path)]) == 4
    assert sorf.cli.main(["solve", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.startswith("validation error: ") for line in captured.err.splitlines()] == [True, True]


# a UTF-16 byte-order mark: not UTF-8, so reading the file fails to decode
NOT_UTF8 = b"\xff\xfe{\x00}\x00"


# nested deeper than the JSON decoder recurses
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("content", [NOT_UTF8, TOO_DEEP], ids=["not-utf8", "too-deep"])
def test_cli_undecodable_config_exits_config_error(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content", [None, b"{not json", NOT_UTF8])
def test_cli_unusable_rule_file_exits_validation(tmp_path, content):
    rule = tmp_path / "rule.json"
    if content is not None:
        rule.write_bytes(content)
    proc = run_cli("import-quadrature", str(rule))
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("content, code", [(None, 2), (b"{not json", 4), (NOT_UTF8, 4)])
def test_cli_quadrature_file_errors_exit_by_kind(tmp_path, content, code):
    # an unreadable quadrature file is a config error, a malformed one fails validation
    rule = tmp_path / "rule.json"
    if content is not None:
        rule.write_bytes(content)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "quadrature_file": str(rule)}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_unwritable_output_exits_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N": 2, "method": "updating"}))
    proc = run_cli("solve", str(cfg), "-o", str(tmp_path / "missing" / "report.json"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_closed_stdout_exits_config_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 2, "method": "updating"}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sorf", "solve", str(cfg)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env={**os.environ, "PYTHONPATH": path},
    )
    proc.stdout.close()  # the reader goes away before the report is written
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2, stderr
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr


@pytest.mark.parametrize("command, entry", [("solve", "run_solve"), ("sweep", "run_sweep")])
def test_cli_unwritable_output_exits_before_the_solve(tmp_path, monkeypatch, command, entry):
    def never(doc):
        raise AssertionError(f"{entry} ran although the output cannot be written")

    monkeypatch.setattr(sorf.cli, entry, never)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N_range": [2, 3]}))
    assert sorf.cli.main([command, str(cfg), "-o", str(tmp_path / "missing" / "r.json")]) == 2


@pytest.mark.parametrize(
    "read, doc, error",
    [
        (parse_config, [1, 2], ConfigError),
        (parse_config, {"N_range": [2]}, ConfigError),
        (parse_config, {"N_range": 3}, ConfigError),
        (parse_config, {"N_range": [4, 2]}, ConfigError),
        (import_quadrature, {"weights": [1.0]}, RuleValidationError),
        (import_quadrature, {"nodes": [0.0]}, RuleValidationError),
    ],
    ids=["config-not-an-object", "short-range", "scalar-range", "lo-above-hi", "rule-without-nodes",
         "rule-without-weights"],
)
def test_driver_refuses_malformed_documents(read, doc, error):
    with pytest.raises(error):
        read(doc)


def test_a_size_above_the_ceiling_is_refused_before_any_rule_is_built(monkeypatch):
    # N <= N_MAX = 128 (m <= 510): a larger N, or an N_range that ends above
    # it, is a ConfigError (exit 2) raised before the base Gauss-Gegenbauer
    # rule, whose eigenvector matrix has order 8 sigma, is asked for; at
    # N = 3000 that matrix alone would take 17 GiB
    class RuleBuilt(Exception):
        pass

    def never(mu, n):
        raise RuleBuilt(n)

    monkeypatch.setattr(sorf.quadrature, "gauss_gegenbauer", never)
    assert N_MAX == 128
    refused = [
        (run, doc)
        for doc in ({"N": 3000}, {"N": 129}, {"N_range": [2, 3000]}, {"N_range": [2, 129]})
        for run in (run_solve, dump_quadrature, run_sweep)
        if run is not run_sweep or "N_range" in doc
    ]
    for run, doc in refused:
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match="N_MAX = 128"):
            run(doc)
        assert time.perf_counter() - t0 < 0.05, (run.__name__, doc)
    # the largest size still reaches the rule (today a PositivityError there)
    for run, doc in ((run_solve, {"N": 128}), (run_sweep, {"N_range": [128, 128]}), (dump_quadrature, {"N": 128})):
        with pytest.raises(RuleBuilt):
            run(doc)


def test_cli_imported_rule_of_wrong_size_exits_config_error(tmp_path):
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps(dump_quadrature({**BASE, "N": 3})))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N": 4, "quadrature_file": str(rule)}))
    proc = run_cli("solve", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert "sizing requires 7" in proc.stderr
