import numpy as np
import pytest

from conftest import ROUTES

from sorf.errors import ConfigError, SpectrumOverlapError
from sorf.pencil import INFINITY, is_infinite_pole
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import (
    DiscreteSobolevSpec,
    GegenbauerSobolevConfig,
    JordanSystem,
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


TWO_NODES = {"nodes": (-0.3, 0.4), "orders": (1, 0), "alphas": ((0.8,), ()), "weights": (1.2, 0.7)}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "field, value",
    [
        ("nodes", (np.nan, 0.4)), ("nodes", (-0.3, np.inf)), ("nodes", (complex(-0.3, np.nan), 0.4)),
        ("alphas", ((np.nan,), ())), ("alphas", ((-np.inf,), ())),
        ("weights", (1.2, np.nan)), ("weights", (np.inf, 0.7)), ("weights", (1.2, complex(0.7, np.inf))),
    ],
    ids=["nan-node", "infinite-node", "complex-nan-node", "nan-scaling", "infinite-scaling",
         "nan-weight", "infinite-weight", "complex-infinite-weight"],
)
def test_every_route_refuses_a_non_finite_spec_field(route, field, value):
    # refused in the spec, before the node-gap test and before any route runs
    with pytest.raises(ConfigError, match="^nodes, derivative scalings and weight amplitudes must be finite$"):
        ROUTES[route](DiscreteSobolevSpec(**{**TWO_NODES, field: value}), [1.5, INFINITY])
    ROUTES[route](DiscreteSobolevSpec(**TWO_NODES), [1.5, INFINITY])


def test_one_node_spec_is_accepted_and_coinciding_nodes_are_refused():
    spec = DiscreteSobolevSpec(nodes=(0.3,), orders=(2,), alphas=((0.5, 2.0),), weights=(1.5,))
    assert spec.sigma == 1 and spec.m == 3
    for nodes in [(0.1, 0.1), (0.1, 0.5, 0.1 + 1e-13), (0.2j, 0.2j)]:
        with pytest.raises(ConfigError, match="^nodes must be pairwise distinct$"):
            DiscreteSobolevSpec(nodes=nodes, orders=(0,) * len(nodes), alphas=((),) * len(nodes), weights=(1,) * len(nodes))


def test_build_jordan_single_node():
    spec = DiscreteSobolevSpec(nodes=(2.0,), orders=(0,), alphas=((),), weights=(3.0,))
    sys = build_jordan(spec)
    assert sys.J == pytest.approx(np.array([[2.0]]))
    assert sys.w == pytest.approx(np.array([3.0]))


def _off_band(J, i, j, value):
    J = J.copy()
    J[i, j] = value
    return J


def test_jordan_system_refuses_what_is_not_square_upper_bidiagonal_with_a_matching_w():
    # the routes read J's two diagonals (Krylov's shifted solves, E_r) or all of J
    # (polynomial steps), so an entry off the band would score a pencil of another J
    sys = build_jordan(discretize_gegenbauer(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=3)))
    J, w = sys.J, sys.w
    bad = [
        (_off_band(J, 0, 3, 0.7), w),
        (_off_band(J, 2, 1, 0.7), w),
        (np.zeros((3, 4)), np.ones(5)),
        (np.eye(3), np.ones(4)),
        (np.eye(3), np.ones((3, 1))),
        (np.ones(3), np.ones(3)),
    ]
    for Jb, wb in bad:
        with pytest.raises(ConfigError, match="^J must be a square upper bidiagonal matrix and w a vector of its size$"):
            JordanSystem(Jb, wb)
    assert JordanSystem(J, w).m == 10


def test_jordan_system_refuses_non_finite_entries():
    # a system built by hand bypasses the spec's checks: on three nodes the
    # routes would end in an untyped ValueError (sop) or a breakdown that
    # names the wrong cause (Krylov)
    sys = build_jordan(discretize_gegenbauer(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=2)))
    J, w = sys.J, sys.w
    nan_diagonal, nan_weight, inf_superdiagonal = J.copy(), w.copy(), J.copy()
    nan_diagonal[1, 1] = np.nan
    nan_weight[2] = np.nan
    inf_superdiagonal[0, 1] = np.inf
    for Jb, wb in ((nan_diagonal, w), (J, nan_weight), (inf_superdiagonal, w)):
        with pytest.raises(ConfigError, match="^J and w must be finite$"):
            JordanSystem(Jb, wb)


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
    for solve in (
        solve_updating,
        lambda sp, ps: solve_via_sop(build_jordan(sp), ps),
        lambda sp, ps: rational_arnoldi(build_jordan(sp), ps),
    ):
        with pytest.raises(SpectrumOverlapError) as info:
            solve(spec, poles)
        messages.add(str(info.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("psi", [INFINITY, -INFINITY, complex(0.0, np.inf), complex(np.inf, np.nan)])
def test_only_an_infinite_part_makes_a_pole_infinite(psi):
    assert is_infinite_pole(psi)


@pytest.mark.parametrize("psi", [np.nan, complex(np.nan, 0.0), complex(1.5, np.nan), 0.0, 1e308, 2j])
def test_a_nan_or_finite_pole_is_not_infinite(psi):
    assert not is_infinite_pole(psi)


def test_default_pole_list_passes_a_nan_through():
    poles = default_pole_list([np.nan], 4)
    assert np.isnan(poles[0]) and poles[1:] == [INFINITY, INFINITY]
    poles = default_pole_list([], 4, free=[2.0, complex(np.nan, 1.0), np.inf])
    assert poles[0] == 2.0 and np.isnan(poles[1]) and poles[2] == INFINITY


NAN_POLE_SPEC = discretize_gegenbauer(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=3))


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "make_poles",
    [
        lambda m: [np.nan, *[INFINITY] * (m - 2)],
        lambda m: [-1.5, 1.5, complex(2.0, np.nan), *[INFINITY] * (m - 4)],
        lambda m: default_pole_list([np.nan, 1.5], m),
        lambda m: default_pole_list([-1.5, 1.5], m, free=[*[INFINITY] * (m - 4), complex(np.nan, np.nan)]),
    ],
    ids=["direct-first", "direct-complex", "default-list-prescribed", "default-list-free"],
)
def test_every_route_refuses_a_nan_pole(route, make_poles):
    # a NaN is not the point at infinity: every route refuses it on entry
    with pytest.raises(ConfigError, match=r"^pole psi_\d+ = .* is NaN$"):
        ROUTES[route](NAN_POLE_SPEC, make_poles(NAN_POLE_SPEC.m))


def test_default_pole_list_explicit_free_poles():
    poles = default_pole_list([-1.1], 4, free=[2.0, INFINITY])
    assert poles == [-1.1, 2.0, INFINITY]
    with pytest.raises(ConfigError):
        default_pole_list([-1.1], 4, free=[2.0])


def test_default_pole_list_too_many_poles():
    with pytest.raises(ConfigError):
        default_pole_list([2.0, 3.0, 4.0], 3)
