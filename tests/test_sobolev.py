import numpy as np
import pytest

from sorf.errors import ConfigError, SpectrumOverlapError
from sorf.pencil import INFINITY, is_infinite_pole
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import (
    DiscreteSobolevSpec,
    GegenbauerSobolevConfig,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_pole_ladder,
    gegenbauer_rule,
)
from sorf.updating import solve_updating


def test_config_validation():
    with pytest.raises(ConfigError):
        GegenbauerSobolevConfig(mu=-1.0, lam=1.0, omega=1.1, N=3)
    with pytest.raises(ConfigError):
        GegenbauerSobolevConfig(mu=2.0, lam=-0.5, omega=1.1, N=3)
    with pytest.raises(ConfigError):
        GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=0.9, N=3)
    with pytest.raises(ConfigError):
        GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=0)


def test_config_owns_poles_and_node_count():
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=4)
    assert cfg.poles == tuple(gegenbauer_pole_ladder(1.1, 3))
    assert cfg.sigma == 7
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3, poles=[1.5, -2.0])
    assert cfg.poles == (1.5, -2.0)
    with pytest.raises(ConfigError, match="need N - 1 = 2 prescribed poles, got 1"):
        GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3, poles=[1.5])


def test_discretize_rejects_imported_rule_of_wrong_size():
    rule = gegenbauer_rule(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3))
    with pytest.raises(ConfigError, match="imported rule has 5 nodes, sizing requires 7"):
        discretize_gegenbauer(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=4), rule=rule)


def test_pole_ladder():
    w = 1.1
    assert gegenbauer_pole_ladder(w, 5) == [-w, w, -2 * w, 2 * w, -3 * w]
    assert gegenbauer_pole_ladder(w, 0) == []


def test_discretize_sizing_n3():
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3)
    spec = discretize_gegenbauer(cfg)
    assert spec.sigma == 5
    assert spec.m == 10
    assert all(s == 1 for s in spec.orders)
    assert all(al == (1.0,) for al in spec.alphas)  # sqrt(lambda) = 1


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_discretize_sizing_sweep(N):
    # adding one function costs two nodes: m = 2 + (N-1)*4
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=N)
    spec = discretize_gegenbauer(cfg)
    assert spec.m == 2 + (N - 1) * 4


def test_discretize_rejects_zero_lambda():
    with pytest.raises(ConfigError):
        cfg = GegenbauerSobolevConfig(mu=2.0, lam=0.0, omega=1.1, N=3)
        discretize_gegenbauer(cfg)


def test_spec_validation():
    with pytest.raises(ConfigError):
        DiscreteSobolevSpec(nodes=(0.1, 0.1), orders=(0, 0), alphas=((), ()), weights=(1, 1))
    with pytest.raises(ConfigError):
        DiscreteSobolevSpec(nodes=(0.1,), orders=(1,), alphas=((0.0,),), weights=(1,))
    with pytest.raises(ConfigError):
        DiscreteSobolevSpec(nodes=(0.1,), orders=(1,), alphas=((),), weights=(1,))


@pytest.mark.parametrize(
    "fields",
    [
        {"nodes": (0.1, 0.2), "orders": (0,), "alphas": ((),), "weights": (1,)},
        {"nodes": (0.1,), "orders": (-1,), "alphas": ((),), "weights": (1,)},
        {"nodes": (0.1,), "orders": (0,), "alphas": ((),), "weights": (0,)},
    ],
    ids=["unequal-lengths", "negative-order", "zero-weight"],
)
def test_spec_refuses_malformed_fields(fields):
    with pytest.raises(ConfigError):
        DiscreteSobolevSpec(**fields)


def test_build_jordan_single_node():
    spec = DiscreteSobolevSpec(nodes=(2.0,), orders=(0,), alphas=((),), weights=(3.0,))
    sys = build_jordan(spec)
    assert sys.J == pytest.approx(np.array([[2.0]]))
    assert sys.w == pytest.approx(np.array([3.0]))


def test_build_jordan_gegenbauer_block_pattern():
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=4.0, omega=1.1, N=2)
    spec = discretize_gegenbauer(cfg)
    sys = build_jordan(spec)
    m = spec.m
    for j, (z, wj) in enumerate(zip(spec.nodes, spec.weights)):
        r = 2 * j
        assert sys.J[r, r] == z and sys.J[r + 1, r + 1] == z
        assert sys.J[r, r + 1] == pytest.approx(2.0)  # sqrt(lambda)
        assert sys.w[r] == 0.0
        assert sys.w[r + 1] == wj
    # everything else zero
    mask = np.ones((m, m), dtype=bool)
    for r in range(0, m, 2):
        mask[r, r] = mask[r + 1, r + 1] = mask[r, r + 1] = False
    assert np.all(sys.J[mask] == 0.0)


def test_build_jordan_superdiagonal_order():
    # block carries (alpha_s, ..., alpha_1) down the superdiagonal
    spec = DiscreteSobolevSpec(nodes=(0.5,), orders=(2,), alphas=((0.25, 4.0),), weights=(1.0,))
    sys = build_jordan(spec)
    assert sys.J[0, 1] == 4.0  # alpha_2 first
    assert sys.J[1, 2] == 0.25  # alpha_1 last
    assert sys.w[2] == 1.0


def test_jordan_spectrum_is_node_multiset():
    spec = DiscreteSobolevSpec(
        nodes=(-0.3, 0.6), orders=(1, 1), alphas=((1.0,), (1.0,)), weights=(1.0, 2.0)
    )
    sys = build_jordan(spec)
    # characteristic polynomial check on the 4x4 instance
    char = np.poly(sys.J)
    expect = np.poly(np.array([-0.3, -0.3, 0.6, 0.6]))
    assert char == pytest.approx(expect, abs=1e-12)


def test_round_trip_spec_to_jordan():
    spec = DiscreteSobolevSpec(
        nodes=(0.2, -0.7, 0.9),
        orders=(2, 0, 1),
        alphas=((0.5, 1.5), (), (2.0,)),
        weights=(1.0, 0.4, 0.8),
    )
    sys = build_jordan(spec)
    row = 0
    for z, s, al, wj in zip(spec.nodes, spec.orders, spec.alphas, spec.weights):
        for i in range(s + 1):
            assert sys.J[row + i, row + i] == z
        for i in range(s):
            assert sys.J[row + i, row + i + 1] == al[s - 1 - i]
        assert sys.w[row + s] == wj
        for i in range(s):
            assert sys.w[row + i] == 0.0
        row += s + 1


def test_default_pole_list_prefix_then_infinity():
    poles = default_pole_list([-1.1, 1.1], 10)
    assert poles[0] == -1.1 and poles[1] == 1.1
    assert len(poles) == 9
    assert all(is_infinite_pole(p) for p in poles[2:])


def test_default_pole_list_empty_prefix():
    poles = default_pole_list([], 4)
    assert all(is_infinite_pole(p) for p in poles)


def test_every_route_rejects_a_pole_on_a_node():
    # 2.5e-14 from the node 0.25: within the one NODE_GAP rule of all three routes
    spec = DiscreteSobolevSpec(
        nodes=(-0.5, 0.25, 0.75), orders=(1, 0, 1), alphas=((0.7,), (), (1.3,)), weights=(1.0, 0.8, 0.6)
    )
    poles = default_pole_list([0.25 * (1 + 1e-13)], spec.m)
    messages = set()
    for solve in (solve_updating, solve_via_sop, lambda sp, ps: rational_arnoldi(build_jordan(sp), ps)):
        with pytest.raises(SpectrumOverlapError) as info:
            solve(spec, poles)
        messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_default_pole_list_explicit_free_poles():
    poles = default_pole_list([-1.1], 4, free=[2.0, INFINITY])
    assert poles == [-1.1, 2.0, INFINITY]
    with pytest.raises(ConfigError):
        default_pole_list([-1.1], 4, free=[2.0])


def test_default_pole_list_too_many_poles():
    with pytest.raises(ConfigError):
        default_pole_list([2.0, 3.0, 4.0], 3)
