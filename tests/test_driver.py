import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sorf.driver import (
    SWEEP_CSV_HEADER,
    dump_quadrature,
    import_quadrature,
    parse_config,
    run_solve,
    run_sweep,
)
from sorf.errors import AccuracyError, ConfigError, NumericalError, RuleValidationError, SorfError
from sorf.sobolev import (
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
    assert json.loads(dumped.read_text()) == json.loads(reimported.read_text())


def test_cli_sweep_csv(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BASE, "N_range": [2, 3], "method": "krylov"}))
    out = tmp_path / "sweep.csv"
    proc = run_cli("sweep", str(cfg), "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,m,method,E_r,E_p,E_Q,E_S_discrete,E_S_cont_leading,ms"
    assert len(lines) == 3
