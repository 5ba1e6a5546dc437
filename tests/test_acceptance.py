"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a PASS/FAIL line in the terminal summary (see conftest).
"""

import time

import numpy as np

from conftest import assert_iep_invariants, integrate, kernel_stack, on_stack, random_pole_list, random_spec, rotation_matrix

from sorf.evaluation import (
    continuous_moment_matrix,
    discrete_moment_matrix,
    evaluate_solution,
    metric_orthonormality,
    metric_poles,
    metric_recurrence,
    table_agreement,
)
from sorf.pencil import is_infinite_pole, pencil_scale, pole_at
from sorf.quadrature import clenshaw_curtis, gauss_gegenbauer, rational_gauss
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import (
    DiscreteSobolevSpec,
    GegenbauerSobolevConfig,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_pole_ladder,
)
from sorf.updating import (
    embed,
    expected_elimination_count,
    install_poles,
    op1_eliminate,
    op2_add_pole,
    op3_swap_adjacent,
    restore_hessenberg,
    single_block_solution,
    solve_updating,
    weight_rotation,
)


def reference_problem(N=3, omega=1.1):
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=omega, N=N)
    spec = discretize_gegenbauer(cfg)
    xi = gegenbauer_pole_ladder(omega, N - 1)
    poles = default_pole_list(xi, spec.m)
    return cfg, spec, build_jordan(spec), xi, poles


def test_criterion_1_degree_of_exactness():
    """mu=2, lambda=1, omega=1.1, N=3: sigma=5, m=10; recurrence, pole
    and orthonormality errors at 1e-12; discrete moment matrix at 1e-10;
    continuous moment matrix identity only on the leading 3x3 block."""
    t0 = time.perf_counter()
    cfg, spec, system, xi, poles = reference_problem(N=3)
    assert spec.sigma == 5 and spec.m == 10
    sol = solve_updating(spec, poles)
    assert metric_recurrence(system, sol) <= 1e-12
    assert metric_poles(sol, poles) <= 1e-12
    assert metric_orthonormality(sol) <= 1e-12
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=1)
    Md = discrete_moment_matrix(spec, table)
    assert np.max(np.abs(Md - np.eye(10))) <= 1e-10
    Mc = continuous_moment_matrix(sol.H, sol.K, sol.wnorm, cfg.mu, cfg.lam, n=10)
    D = np.abs(Mc - np.eye(10))
    assert np.max(D[:3, :3]) <= 1e-10
    outside = D.copy()
    outside[:3, :3] = 0.0
    assert np.max(outside) > 1e-3
    assert time.perf_counter() - t0 < 5.0


def test_criterion_2_sweep_all_methods():
    """N = 2..8, all three methods: E_r <= 1e-13, E_p <= 1e-12,
    E_Q <= 1e-13, continuous orthonormality of the leading N-1 functions
    <= 1e-10; under a minute in total."""
    t0 = time.perf_counter()
    for N in range(2, 9):
        cfg, spec, system, xi, poles = reference_problem(N=N)
        assert spec.m == 2 + (N - 1) * 4
        sols = {
            "updating": solve_updating(spec, poles),
            "sop": solve_via_sop(system, xi),
            "krylov": rational_arnoldi(system, poles),
        }
        for name, sol in sols.items():
            assert metric_recurrence(system, sol) <= 1e-13, (N, name)
            assert metric_poles(sol, poles) <= 1e-12, (N, name)
            assert metric_orthonormality(sol) <= 1e-13, (N, name)
            Mc = continuous_moment_matrix(
                sol.H, sol.K, sol.wnorm, cfg.mu, cfg.lam, n=max(N - 1, 1)
            )
            assert np.linalg.norm(Mc - np.eye(Mc.shape[0]), 2) <= 1e-10, (N, name)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_oracle_equivalence():
    """Ten randomized discrete specs: the three solvers' function tables
    agree up to per-function unimodular factors at 1e-10 and every solution
    passes the invariant suite."""
    rng = np.random.default_rng(411)
    for trial in range(10):
        spec = random_spec(rng, sigma=int(rng.integers(1, 8)), max_order=2)
        m = spec.m
        n_xi = int(rng.integers(0, min(3, m - 1) + 1))
        poles, xi = random_pole_list(rng, m, n_xi)
        system = build_jordan(spec)
        sols = {
            "updating": solve_updating(spec, poles),
            "sop": solve_via_sop(system, xi),
            "krylov": rational_arnoldi(system, poles),
        }
        for name, sol in sols.items():
            assert_iep_invariants(system, sol, poles)
        pts = np.array(spec.nodes)
        tables = {
            name: evaluate_solution(sol, pts, max_deriv=max(spec.orders))
            for name, sol in sols.items()
        }
        assert table_agreement(tables["updating"], tables["krylov"]) <= 1e-10, trial
        assert table_agreement(tables["updating"], tables["sop"]) <= 1e-10, trial
        assert table_agreement(tables["sop"], tables["krylov"]) <= 1e-10, trial


def test_criterion_4a_elimination_preserves_pivot_ratio():
    """Operation 1 on 100 random kernels, each placed at rows (1, 2) and
    columns (0, 2) of a 3x3 pencil: pivot ratio preserved to 1e-12."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        delta = complex(rng.normal(), rng.normal())
        beta = 0.0 if trial % 10 == 0 else complex(rng.normal(), rng.normal())
        if max(abs(delta), abs(beta)) < 0.1:
            delta += 1.0
        A = np.array(
            [[delta, 0.0], [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())]]
        )
        B = np.array(
            [[beta, 0.0], [complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())]]
        )
        left, right = on_stack(op1_eliminate, kernel_stack(A), kernel_stack(B), None, 2, 0)
        GL, GR = rotation_matrix(left, 0, 1, 2), rotation_matrix(right, 0, 1, 2)
        A2 = GL @ A @ GR
        B2 = GL @ B @ GR
        scale = max(np.linalg.norm(A), np.linalg.norm(B))
        assert abs(A2[1, 0]) <= 1e-12 * scale
        assert abs(B2[1, 0]) <= 1e-12 * scale
        if beta == 0.0:
            assert abs(B2[0, 0]) <= 1e-12 * scale
        else:
            assert abs(A2[0, 0] / B2[0, 0] - delta / beta) <= 1e-12 * abs(delta / beta)


def test_criterion_4b_swap_exchanges_exactly_two():
    """Operation 3 on 100 random unreduced pencils: the chosen pair swaps,
    every other pole stays put (1e-12 relative)."""
    rng = np.random.default_rng(43)
    for trial in range(100):
        m = int(rng.integers(4, 9))
        spec = random_spec(rng, sigma=m, max_order=0)
        poles, _ = random_pole_list(rng, m, int(rng.integers(0, m - 1)))
        sol = solve_updating(spec, poles)
        H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
        before = [pole_at(H, K, k) for k in range(m - 1)]
        c = int(rng.integers(0, m - 2))
        on_stack(op3_swap_adjacent, H, K, Q, c)
        after = [pole_at(H, K, k) for k in range(m - 1)]
        expect = list(before)
        expect[c], expect[c + 1] = expect[c + 1], expect[c]
        for a, b in zip(expect, after):
            if is_infinite_pole(a):
                assert is_infinite_pole(b)
            else:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), trial


def test_criterion_4c_elimination_count():
    """Restoration cost on 20 random block sequences with generic (finite)
    poles: the count of eliminations per appended block is exactly
    (m - s - 2)(s + 1) + s(s + 1)/2, the column sweep's position count,
    with the one-dimensional leading part needing none."""
    rng = np.random.default_rng(44)
    for trial in range(20):
        spec = random_spec(rng, sigma=int(rng.integers(2, 6)), max_order=2)
        sol = None
        for j in range(spec.sigma):
            s = spec.orders[j]
            blk = single_block_solution(spec.nodes[j], spec.alphas[j], spec.weights[j])
            if sol is None:
                sol = blk
                new_poles = [complex(rng.uniform(1.05, 3.0)) for _ in range(s)]
                first = 0
            else:
                emb = embed(sol, blk)
                weight_rotation(emb, sol.wnorm, spec.weights[j], sol.m)
                targets = restore_hessenberg(emb.H, emb.K, emb.Q, s)
                assert len(targets) == expected_elimination_count(emb.m, s), (trial, j)
                sol = emb
                new_poles = [complex(rng.uniform(1.05, 3.0)) for _ in range(s + 1)]
                first = emb.m - s - 2
            install_poles(sol, new_poles, first)


def test_criterion_4d_pole_placement_by_add_and_swap():
    """Operation 2 followed by repeated swaps lands the pole at the
    prescribed position to 1e-12."""
    rng = np.random.default_rng(45)
    for trial in range(20):
        m = int(rng.integers(5, 10))
        spec = random_spec(rng, sigma=m, max_order=0)
        poles, _ = random_pole_list(rng, m, 2)
        sol = solve_updating(spec, poles)
        H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
        psi = complex(rng.uniform(1.1, 2.5) * (1 if rng.random() < 0.5 else -1))
        target = int(rng.integers(2, m - 1))
        on_stack(op2_add_pole, H, K, None, psi, pencil_scale(H, K))
        for c in range(m - 3, target - 1, -1):
            on_stack(op3_swap_adjacent, H, K, Q, c)
        assert abs(pole_at(H, K, target) - psi) <= 1e-12 * abs(psi)


def test_criterion_5_quadrature_suite():
    """Rational Gauss rule with doubled poles at +-1.1: 20 random members of
    the exactness class agree with the reference integrator to 1e-10;
    Gauss rules for the (1-t^2)^2 weight have mass 16/15 to 1e-13."""
    rng = np.random.default_rng(46)
    sigma = 5
    poles = [x for x in (-1.1, 1.1) for _ in range(4)]
    rule = rational_gauss(2.0, poles, sigma)
    cc = clenshaw_curtis(500)
    for _ in range(20):
        g = np.polynomial.Polynomial(rng.normal(size=2 * sigma))
        f = lambda t: g(t) / (t**2 - 1.21) ** 4
        ref = integrate(cc, lambda t: f(t) * (1 - t**2) ** 2)
        assert abs(integrate(rule, f) - ref) <= 1e-10 * abs(ref)
    for n in range(1, 31):
        assert abs(gauss_gegenbauer(2.0, n).weights.sum() - 16.0 / 15.0) <= 1e-13


def test_criterion_6_derivatives_vs_finite_differences():
    """Derivative columns match central finite differences of the value
    columns (step 1e-5) to 1e-7 x local scale at 10 random points, for
    pencils up to m=20."""
    rng = np.random.default_rng(47)
    h = 1e-5
    cases = []
    for N in (3, 5):
        _, spec, system, xi, poles = reference_problem(N=N)
        cases.append(solve_updating(spec, poles))
    big = DiscreteSobolevSpec(
        nodes=tuple(np.linspace(-0.85, 0.85, 8)),
        orders=(2, 1, 2, 1, 2, 1, 2, 1),
        alphas=((1.0, 0.7), (0.9,), (1.1, 1.3), (0.8,), (0.6, 1.2), (1.4,), (1.0, 0.9), (1.1,)),
        weights=tuple(rng.uniform(0.4, 1.6, size=8)),
    )
    assert big.m == 20
    big_poles, _ = random_pole_list(rng, 20, 3)
    cases.append(solve_updating(big, big_poles))
    for sol in cases:
        pts = rng.uniform(-0.9, 0.9, size=10)
        table = evaluate_solution(sol, pts, max_deriv=1)
        plus = evaluate_solution(sol, pts + h)
        minus = evaluate_solution(sol, pts - h)
        fd = (plus.values[:, 0, :] - minus.values[:, 0, :]) / (2 * h)
        ana = table.values[:, 1, :]
        # local scale: size of each function's derivative over the sample
        col_scale = np.maximum(
            1.0, np.maximum(np.max(np.abs(ana), axis=1), np.max(np.abs(fd), axis=1))
        )
        assert np.max(np.max(np.abs(fd - ana), axis=1) / col_scale) <= 1e-7
