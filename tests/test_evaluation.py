import math

import numpy as np
import pytest

from conftest import ROUTES, random_pole_list, random_spec

from sorf import evaluation
from sorf.driver import _gegenbauer_config, _solve_and_score, parse_config, run_solve
from sorf.errors import AccuracyError, PoleCollisionError
from sorf.evaluation import (
    CC_ORDER,
    SorfTable,
    _gram,
    _norm2,
    continuous_moment_matrix,
    discrete_moment_matrix,
    evaluate_solution,
    evaluate_solutions,
    evaluate_sorfs,
    metric_orthonormality,
    metric_poles,
    metric_recurrence,
    metric_sobolev,
    table_agreement,
)
from sorf.pencil import INFINITY, is_infinite_pole
from sorf.quadrature import clenshaw_curtis, gauss_gegenbauer
from sorf.reference import rational_arnoldi, solve_via_sop
from sorf.sobolev import (
    DiscreteSobolevSpec,
    GegenbauerSobolevConfig,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    gegenbauer_pole_ladder,
)
from sorf.updating import IEPSolution, solve_updating

CONJUGATE_POLES = {"N": 6, "mu": 1.0, "omega": 1.5, "poles": [[1.6, 0.4], [1.6, -0.4], [-2.0, 0.3], [-2.0, -0.3], [3.0, 0]]}


def gegenbauer_solution(N=3, lam=1.0):
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=lam, omega=1.1, N=N)
    spec = discretize_gegenbauer(cfg)
    xi = gegenbauer_pole_ladder(1.1, N - 1)
    poles = default_pole_list(xi, spec.m)
    return cfg, spec, poles, solve_updating(spec, poles)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_first_function_is_constant(rng):
    spec = random_spec(rng, sigma=3, max_order=1)
    poles, _ = random_pole_list(rng, spec.m)
    sol = solve_updating(spec, poles)
    pts = np.linspace(-0.8, 0.8, 5)
    table = evaluate_solution(sol, pts, max_deriv=2)
    assert table.values[0, 0, :] == pytest.approx(np.full(5, 1.0 / sol.wnorm))
    assert np.all(table.values[0, 1:, :] == 0.0)


def test_single_node_spec_table_trivial():
    spec = DiscreteSobolevSpec(nodes=(0.2,), orders=(0,), alphas=((),), weights=(1.5,))
    sol = solve_updating(spec, [])
    table = evaluate_solution(sol, [0.0, 0.5], max_deriv=1)
    assert table.values.shape == (1, 2, 2)
    assert table.values[0, 0, :] == pytest.approx(np.full(2, 1.0 / 1.5))


def test_evaluation_refuses_points_at_poles():
    _, spec, poles, sol = gegenbauer_solution()
    with pytest.raises(PoleCollisionError):
        evaluate_solution(sol, [-1.1], max_deriv=0)


def test_pole_collision_names_the_lowest_function_and_its_first_point():
    # poles of r_1, r_2, r_3 at 2.0, 0.5 and 0.1: r_1 is clean, r_2 meets
    # points 1 and 3 (one ulp apart, so the message shows which), and r_3
    # meets point 0, which comes earlier in the points but later in the columns
    H = np.triu(np.full((4, 4), 0.25)) + np.diag([2.0, 0.5, 0.1], -1)
    K = np.triu(np.full((4, 4), 0.5)) + np.diag([1.0, 1.0, 1.0], -1)
    pts = np.array([0.1, 0.5, 0.3, np.nextafter(0.5, 1.0)])
    with pytest.raises(PoleCollisionError, match=r"^evaluation point 0\.5 collides with a pole of r_2$"):
        evaluate_sorfs(H, K, 1.0, pts, max_deriv=1)
    with pytest.raises(PoleCollisionError, match=r"point 0\.1 collides with a pole of r_3$"):
        evaluate_sorfs(H, K, 1.0, pts[[0, 2]], max_deriv=1)
    assert evaluate_sorfs(H[:2, :2], K[:2, :2], 1.0, pts).values.shape == (2, 1, 4)


def evaluate_by_column_and_order(H, K, wnorm, pts, max_deriv, nfun):
    """The recurrence one column and one derivative order at a time, with
    the pole test inside the column loop: the reference for evaluate_sorfs."""
    vals = np.zeros((nfun, max_deriv + 1, pts.size), np.result_type(pts, H, K))
    vals[0, 0, :] = 1.0 / wnorm
    for j in range(1, nfun):
        hcol = H[:j, j - 1]
        kcol = K[:j, j - 1]
        tk = pts * K[j, j - 1]
        denom = tk - H[j, j - 1]
        bad = np.abs(denom) <= 1e-13 * (np.abs(tk) + abs(H[j, j - 1]))
        if np.any(bad):
            raise PoleCollisionError(f"evaluation point {pts[bad][0]} collides with a pole of r_{j}")
        for d in range(max_deriv + 1):
            kv = kcol @ vals[:j, d, :]
            rhs = hcol @ vals[:j, d, :] - pts * kv
            if d > 0:
                rhs -= d * kv_prev
                rhs -= d * K[j, j - 1] * vals[j, d - 1, :]
            vals[j, d, :] = rhs / denom
            kv_prev = kv
    return vals


@pytest.mark.parametrize("route", ["updating", "krylov"])
@pytest.mark.parametrize(
    "N, xi, phase, bound",
    [
        (6, None, 1.0, 1e-13),
        (6, [1.6 + 0.4j, 1.6 - 0.4j, -2.0 + 0.3j, -2.0 - 0.3j, 3.0], 1.0, 1e-13),
        (6, None, np.exp(0.3j), 1e-13),
        (12, None, 1.0, 1e-12),
    ],
    ids=["real-m22", "conjugate-poles-m22", "complex-weights-m22", "real-m46"],
)
def test_one_product_per_column_matches_the_column_and_order_recurrence(route, N, xi, phase, bound):
    cfg = GegenbauerSobolevConfig(mu=1.0, lam=1.0, omega=1.5, N=N)
    spec = discretize_gegenbauer(cfg)
    spec = DiscreteSobolevSpec(spec.nodes, spec.orders, spec.alphas, tuple(w * phase for w in spec.weights))
    poles = default_pole_list(xi or gegenbauer_pole_ladder(1.5, N - 1), spec.m)
    sol = solve_updating(spec, poles) if route == "updating" else rational_arnoldi(build_jordan(spec), poles)
    pts = np.concatenate((np.array(spec.nodes), np.linspace(-0.95, 0.95, 7)))
    m = sol.m
    for max_deriv in range(4):
        for nfun in (1, 2, m // 2, m):
            got = evaluate_sorfs(sol.H[:nfun, :nfun], sol.K[:nfun, :nfun], sol.wnorm, pts, max_deriv).values
            ref = evaluate_by_column_and_order(sol.H, sol.K, sol.wnorm, pts, max_deriv, nfun)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            scale = np.abs(ref).reshape(nfun, -1).max(axis=1)
            err = np.abs(got - ref).reshape(nfun, -1).max(axis=1)
            assert np.all(err <= bound * scale), (max_deriv, nfun, float(np.max(err / scale)))


def evaluate_by_order(H, K, wnorm, pts, max_deriv, nfun):
    """One pass of the right-hand side per derivative order, after the same
    product of the stacked H and K columns: the bitwise reference for
    evaluate_sorfs, which forms every order's right-hand side at once."""
    n = nfun - 1
    ksub = np.diagonal(K, -1)[:n, None]
    denom = pts * ksub - np.diagonal(H, -1)[:n, None]
    HK = np.stack((H[:n, :n], K[:n, :n]))
    vals = np.zeros((nfun, max_deriv + 1, pts.size), np.result_type(pts, H, K))
    vals[0, 0, :] = 1.0 / wnorm
    for j in range(1, nfun):
        hv, kv = (HK[:, :j, j - 1] @ vals[:j].reshape(j, -1)).reshape(2, max_deriv + 1, -1)
        for d in range(max_deriv + 1):
            rhs = hv[d] - pts * kv[d]
            if d > 0:
                rhs -= d * kv[d - 1]
                rhs -= d * ksub[j - 1] * vals[j, d - 1]
            vals[j, d] = rhs / denom[j - 1]
    return vals


@pytest.mark.parametrize("route", ["updating", "krylov"])
@pytest.mark.parametrize(
    "N, xi, phase",
    [
        (6, None, 1.0),
        (6, [1.6 + 0.4j, 1.6 - 0.4j, -2.0 + 0.3j, -2.0 - 0.3j, 3.0], 1.0),
        (6, None, np.exp(0.3j)),
        (12, None, 1.0),
    ],
    ids=["real-m22", "conjugate-poles-m22", "complex-weights-m22", "real-m46"],
)
@pytest.mark.parametrize("shift", [0.0, 0.05j], ids=["real-points", "complex-points"])
def test_fused_derivative_orders_are_bitwise_the_loop_over_orders(route, N, xi, phase, shift):
    cfg = GegenbauerSobolevConfig(mu=1.0, lam=1.0, omega=1.5, N=N)
    spec = discretize_gegenbauer(cfg)
    spec = DiscreteSobolevSpec(spec.nodes, spec.orders, spec.alphas, tuple(w * phase for w in spec.weights))
    poles = default_pole_list(xi or gegenbauer_pole_ladder(1.5, N - 1), spec.m)
    sol = solve_updating(spec, poles) if route == "updating" else rational_arnoldi(build_jordan(spec), poles)
    pts = np.concatenate((np.array(spec.nodes), np.linspace(-0.95, 0.95, 7))) + shift
    for max_deriv in range(4):
        for nfun in (1, 2, sol.m // 2, sol.m):
            got = evaluate_sorfs(sol.H[:nfun, :nfun], sol.K[:nfun, :nfun], sol.wnorm, pts, max_deriv).values
            ref = evaluate_by_order(sol.H, sol.K, sol.wnorm, pts, max_deriv, nfun)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (max_deriv, nfun)


# a general spec with derivative orders 2, 0, 1 and 2 (m = 9), real or
# complex, with finite, complex and infinite poles on the complex one
GENERAL_SPECS = {
    "real": (
        DiscreteSobolevSpec(
            nodes=(-0.6, -0.1, 0.3, 0.7),
            orders=(2, 0, 1, 2),
            alphas=((0.8, 1.3), (), (1.1,), (0.9, 0.6)),
            weights=(1.0, 0.7, 1.2, 0.5),
        ),
        [2.0, -1.7, INFINITY, 3.1, *[INFINITY] * 4],
    ),
    "complex": (
        DiscreteSobolevSpec(
            nodes=(-0.6, -0.1, 0.3, 0.7),
            orders=(2, 0, 1, 2),
            alphas=((0.8 + 0.2j, 1.3), (), (1.1,), (0.9, 0.6 - 0.1j)),
            weights=(1.0 + 0.5j, 0.7, 1.2 - 0.3j, 0.5),
        ),
        [2.0 + 1.0j, -1.7, INFINITY, 3.1 - 0.4j, *[INFINITY] * 4],
    ),
}


@pytest.mark.parametrize("data", GENERAL_SPECS)
@pytest.mark.parametrize("shift", [0.0, 0.05j], ids=["real-points", "complex-points"])
def test_each_pencil_of_a_stack_gets_the_table_it_gets_alone(data, shift):
    spec, poles = GENERAL_SPECS[data]
    sols = [route(spec, poles) for route in ROUTES.values()]
    pts = np.concatenate((np.array(spec.nodes), np.linspace(-0.9, 0.9, 5))) + shift
    m = sols[0].m
    for B in (1, 3):
        H, K, wnorms = np.stack([s.H for s in sols[:B]]), np.stack([s.K for s in sols[:B]]), [s.wnorm for s in sols[:B]]
        for max_deriv in (0, 1, 2):
            for nfun in (2, m // 2, m):
                stacked = evaluate_sorfs(H[:, :nfun, :nfun], K[:, :nfun, :nfun], wnorms, pts, max_deriv)
                assert stacked.values.shape == (B, nfun, max_deriv + 1, pts.size)
                assert (stacked.nfun, stacked.max_deriv) == (nfun, max_deriv)
                for sol, values in zip(sols, stacked.values):
                    H1, K1 = sol.H[:nfun, :nfun], sol.K[:nfun, :nfun]
                    alone = evaluate_sorfs(H1, K1, sol.wnorm, pts, max_deriv).values
                    assert values.dtype == alone.dtype and values.tobytes() == alone.tobytes(), (B, max_deriv, nfun)
        for sol, table in zip(sols, evaluate_solutions(sols[:B], pts, max_deriv=2)):
            alone = evaluate_solution(sol, pts, max_deriv=2)
            assert table.values.tobytes() == alone.values.tobytes()



@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("data", GENERAL_SPECS)
@pytest.mark.parametrize("shift", [0.0, 0.05j], ids=["real-points", "complex-points"])
def test_the_leading_subpencil_tabulates_the_leading_functions_bit_for_bit(route, data, shift):
    # r_0 .. r_{n-1} depend on the first n columns of the pencil alone: the
    # table of the leading n x n subpencil (views, not copies) is bitwise the
    # first n functions of the full pencil's table
    spec, poles = GENERAL_SPECS[data]
    sol = ROUTES[route](spec, poles)
    pts = np.concatenate((np.array(spec.nodes), np.linspace(-0.9, 0.9, 5))) + shift
    m = sol.m
    for max_deriv in (0, 1, 2):
        full = evaluate_sorfs(sol.H, sol.K, sol.wnorm, pts, max_deriv).values
        for n in (1, 2, m // 2, m):
            leading = evaluate_sorfs(sol.H[:n, :n], sol.K[:n, :n], sol.wnorm, pts, max_deriv).values
            assert leading.dtype == full.dtype and leading.shape == (n, max_deriv + 1, pts.size)
            assert leading.tobytes() == full[:n].tobytes(), (max_deriv, n)

def collision_pencil(hsub):
    """A 4 x 4 pencil whose r_{j+1} has its pole at hsub[j] (K's subdiagonal is 1)."""
    H = np.triu(np.full((4, 4), 0.25)) + np.diag(hsub, -1)
    K = np.triu(np.full((4, 4), 0.5)) + np.diag([1.0, 1.0, 1.0], -1)
    return H, K


def test_a_collision_in_a_stack_names_the_first_colliding_pencils_point_and_function():
    # pencil 0 collides nowhere, pencil 1 at 0.5 with r_2, pencil 2 at 0.3
    # with r_1: a lower function, but in a later pencil
    pts = np.array([0.1, 0.5, 0.3, 0.9])
    pencils = [collision_pencil([5.0, 6.0, 7.0]), collision_pencil([2.0, 0.5, 0.1]), collision_pencil([0.3, 6.0, 7.0])]
    for order in ([0, 1, 2], [0, 2, 1]):
        H, K = (np.stack([pencils[i][part] for i in order]) for part in (0, 1))
        with pytest.raises(PoleCollisionError) as alone:
            evaluate_sorfs(*pencils[order[1]], 1.0, pts, max_deriv=1)
        with pytest.raises(PoleCollisionError) as stacked:
            evaluate_sorfs(H, K, [1.0, 1.0, 1.0], pts, max_deriv=1)
        assert str(stacked.value) == str(alone.value)
    assert str(stacked.value) == "evaluation point 0.3 collides with a pole of r_1"


def polynomial_gram_schmidt_oracle(spec, poles):
    """Orthonormalize the nested rational basis t^k / prod(t - psi_j)
    under the discrete Sobolev inner product, by dense Gram-Schmidt on
    values and first derivatives at the nodes (orders s_j <= 1)."""
    assert max(spec.orders) <= 1
    m = spec.m
    nodes = np.array([z.real for z in spec.nodes])
    Poly = np.polynomial.Polynomial

    def basis_tables():
        vals = np.zeros((m, 2, spec.sigma), dtype=complex)
        denom = Poly([1.0])
        for k in range(m):
            if k > 0 and not np.isinf(np.real(poles[k - 1])) and np.isfinite(complex(poles[k - 1])):
                denom = denom * Poly([-complex(poles[k - 1]).real, 1.0])
            num = Poly([0.0] * k + [1.0])
            dnum = num.deriv()
            dden = denom.deriv()
            q = denom(nodes)
            vals[k, 0, :] = num(nodes) / q
            vals[k, 1, :] = (dnum(nodes) * q - num(nodes) * dden(nodes)) / q**2
        return vals

    g = basis_tables()

    def inner(u, v):
        total = 0.0 + 0.0j
        for j, (s, al, wj) in enumerate(zip(spec.orders, spec.alphas, spec.weights)):
            total += abs(wj) ** 2 * u[0, j] * np.conj(v[0, j])
            if s >= 1:
                total += abs(wj) ** 2 * abs(al[0]) ** 2 * u[1, j] * np.conj(v[1, j])
        return total

    basis = []
    for k in range(m):
        v = g[k].copy()
        for b in basis:
            v -= inner(v, b) * b
        for b in basis:
            v -= inner(v, b) * b
        nrm = np.sqrt(inner(v, v).real)
        basis.append(v / nrm)
    return np.array(basis)


def test_small_pencil_matches_gram_schmidt_oracle(rng):
    # m = 4: two s=1 nodes, all-finite poles
    spec = DiscreteSobolevSpec(
        nodes=(-0.35, 0.55), orders=(1, 1), alphas=((0.8,), (1.2,)), weights=(0.9, 1.4)
    )
    poles = [-1.6, 1.9, -2.3]
    sol = solve_updating(spec, poles)
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=1)
    oracle_vals = polynomial_gram_schmidt_oracle(spec, poles)
    oracle = SorfTable(oracle_vals, np.array(spec.nodes))
    assert table_agreement(table, oracle) <= 1e-10


def test_small_pencil_matches_oracle_with_infinite_pole():
    spec = DiscreteSobolevSpec(
        nodes=(-0.2, 0.4), orders=(1, 1), alphas=((1.0,), (1.0,)), weights=(1.0, 1.0)
    )
    poles = [-1.4, INFINITY, 2.2]
    sol = solve_updating(spec, poles)
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=1)
    oracle_vals = polynomial_gram_schmidt_oracle(spec, poles)
    oracle = SorfTable(oracle_vals, np.array(spec.nodes))
    assert table_agreement(table, oracle) <= 1e-10


def test_derivatives_match_central_finite_differences(rng):
    # criterion: |analytic - FD| <= 1e-7 * scale at 10 random points, m <= 20
    for N in (3, 5):
        _, spec, poles, sol = gegenbauer_solution(N)
        pts = rng.uniform(-0.9, 0.9, size=10)
        h = 1e-5
        table = evaluate_solution(sol, pts, max_deriv=2)
        plus = evaluate_solution(sol, pts + h, max_deriv=1)
        minus = evaluate_solution(sol, pts - h, max_deriv=1)
        for d in (1, 2):
            fd = (plus.values[:, d - 1, :] - minus.values[:, d - 1, :]) / (2 * h)
            ana = table.values[:, d, :]
            scale = np.maximum(1.0, np.maximum(np.abs(ana), np.abs(fd)))
            assert np.max(np.abs(fd - ana) / scale) <= 1e-7


# ---------------------------------------------------------------------------
# moment matrices
# ---------------------------------------------------------------------------


def test_discrete_moment_matrix_is_identity_for_solution(rng):
    _, spec, poles, sol = gegenbauer_solution()
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=1)
    Md = discrete_moment_matrix(spec, table)
    assert np.linalg.norm(Md - np.eye(10), 2) <= 1e-11


def test_discrete_moment_matrix_single_function():
    spec = DiscreteSobolevSpec(nodes=(0.1,), orders=(0,), alphas=((),), weights=(2.0,))
    sol = solve_updating(spec, [])
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=0)
    Md = discrete_moment_matrix(spec, table)
    assert Md == pytest.approx(np.eye(1), abs=1e-14)


def test_discrete_moment_matrix_identity_all_solvers_up_to_m20(rng):
    # well-conditioned specs up to m = 20; heavy second-order blocks push the
    # evaluation conditioning of the moment matrix beyond this bound
    from sorf.reference import rational_arnoldi, solve_via_sop

    cases = []
    for N in (3, 5):
        _, spec, poles, _ = gegenbauer_solution(N)
        cases.append((spec, poles))
    for _ in range(3):
        spec = random_spec(rng, sigma=int(rng.integers(2, 7)), max_order=1)
        poles, _ = random_pole_list(rng, spec.m, 2)
        cases.append((spec, poles))
    for spec, poles in cases:
        sys = build_jordan(spec)
        for sol in (
            solve_updating(spec, poles),
            solve_via_sop(sys, poles),
            rational_arnoldi(sys, poles),
        ):
            table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=max(spec.orders))
            Md = discrete_moment_matrix(spec, table)
            assert np.linalg.norm(Md - np.eye(spec.m), 2) <= 1e-10


def test_discrete_moment_matrix_matches_termwise_inner_product(rng):
    # the defining sum of the discrete Sobolev inner product, one term per
    # (node, derivative order), on a random table with more derivative rows
    # than the spec uses (those rows carry no weight)
    spec = random_spec(rng, sigma=5, max_order=3, complex_alphas=True)
    nfun, nd = 4, max(spec.orders) + 2
    shape = (nfun, nd, spec.sigma)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    expected = np.zeros((nfun, nfun), dtype=complex)
    for j, (s, al, wj) in enumerate(zip(spec.orders, spec.alphas, spec.weights)):
        for i in range(s + 1):
            c = abs(wj) ** 2 * abs(np.prod(al[:i]) / math.factorial(i)) ** 2
            for k in range(nfun):
                for l in range(nfun):
                    expected[k, l] += c * vals[k, i, j] * np.conj(vals[l, i, j])
    got = discrete_moment_matrix(spec, SorfTable(vals, np.array(spec.nodes)))
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_discrete_moment_matrix_hermitian(rng):
    spec = random_spec(rng, sigma=4, max_order=2)
    poles, _ = random_pole_list(rng, spec.m)
    sol = solve_updating(spec, poles)
    table = evaluate_solution(sol, np.array(spec.nodes), max_deriv=max(spec.orders))
    Md = discrete_moment_matrix(spec, table)
    assert np.linalg.norm(Md - Md.conj().T) <= 1e-13 * np.linalg.norm(Md)


def test_continuous_moment_matrix_legendre_case():
    # lambda = 0, mu = 0, no poles: plain Legendre orthonormality
    rule = gauss_gegenbauer(0.0, 2)
    spec = DiscreteSobolevSpec(
        nodes=tuple(rule.nodes),
        orders=(0, 0),
        alphas=((), ()),
        weights=tuple(np.sqrt(rule.weights)),
    )
    sol = solve_updating(spec, [INFINITY])
    Mc = continuous_moment_matrix(sol.H, sol.K, sol.wnorm, mu=0.0, lam=0.0, n=2)
    assert np.linalg.norm(Mc - np.eye(2), 2) <= 1e-12


def test_continuous_moment_matrix_leading_block_and_tail():
    _, spec, poles, sol = gegenbauer_solution()
    Mc = continuous_moment_matrix(sol.H, sol.K, sol.wnorm, mu=2.0, lam=1.0, n=10)
    D = np.abs(Mc - np.eye(10))
    assert np.max(D[:3, :3]) <= 1e-11
    outside = D.copy()
    outside[:3, :3] = 0.0
    assert np.max(outside) >= 1e-3


def continuous_on_two_tables(H, K, wnorm, mu, lam, n):
    """The continuous moment matrix on the 800-point rule, from a table of
    its own: the reference for the matrix on the nested 801-point rule."""
    rule = clenshaw_curtis(2 * CC_ORDER)
    table = evaluate_sorfs(H[:n, :n], K[:n, :n], wnorm, rule.nodes, max_deriv=1)
    wq = rule.weights * (1.0 - rule.nodes**2) ** mu
    return _gram(table.values, np.stack((wq, lam * wq)))


@pytest.mark.parametrize(
    "doc",
    [{"N": 12, "mu": 2.0, "omega": 1.5}, CONJUGATE_POLES],
    ids=["m46", "conjugate_poles"],
)
def test_nested_rule_matrix_matches_the_two_table_matrix_on_every_route(doc):
    cfg = parse_config({**doc, "method": "all"})
    gcfg = _gegenbauer_config(cfg, cfg["N"])
    for method, sol, _, _, _ in _solve_and_score(cfg, cfg["N"]):
        for n in (cfg["N"] - 1, sol.m):
            Mc = continuous_moment_matrix(sol.H, sol.K, sol.wnorm, gcfg.mu, gcfg.lam, n)
            ref = continuous_on_two_tables(sol.H, sol.K, sol.wnorm, gcfg.mu, gcfg.lam, n)
            assert np.max(np.abs(Mc - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref))), (method, n)


@pytest.mark.parametrize(
    "mu, message",
    [
        (-0.5, r"^mu < 0: \(1-t\^2\)\^mu is infinite at the Clenshaw-Curtis nodes t = \+-1$"),
        (0.3, r"^continuous moment matrix failed the doubled-order self-check$"),
    ],
)
def test_continuous_moment_matrix_failures_keep_their_type_and_message(mu, message):
    with pytest.raises(AccuracyError, match=message):
        run_solve({"mu": mu, "N": 4})


@pytest.mark.parametrize("mu", [-0.5, 0.3], ids=["mu-below-zero", "doubled-order"])
def test_a_refused_continuous_matrix_stops_before_any_node_table(monkeypatch, mu):
    # the first route's continuous matrix refuses these configs before any
    # table at the spec's nodes is formed: mu < 0 before any table at all,
    # the doubled-order check after its own table on 801 points
    points = []
    evaluate = evaluation.evaluate_sorfs

    def counting(H, K, wnorm, pts, *args, **kwargs):
        points.append(np.size(pts))
        return evaluate(H, K, wnorm, pts, *args, **kwargs)

    monkeypatch.setattr(evaluation, "evaluate_sorfs", counting)
    with pytest.raises(AccuracyError, match="^mu < 0: " if mu < 0 else "doubled-order self-check$"):
        run_solve({"mu": mu, "N": 4, "method": "all"})
    assert points == ([] if mu < 0 else [2 * CC_ORDER + 1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metric_recurrence_zero_for_exact_solution():
    spec = DiscreteSobolevSpec(nodes=(0.5,), orders=(1,), alphas=((1.0,),), weights=(1.0,))
    sol = solve_updating(spec, [INFINITY])
    assert metric_recurrence(build_jordan(spec), sol) <= 1e-14


def test_metric_recurrence_perturbation_scaling(rng):
    _, spec, poles, sol = gegenbauer_solution()
    sys = build_jordan(spec)
    eps = 1e-8
    sol.H[3, 4] += eps
    got = metric_recurrence(sys, sol)
    scale = np.linalg.norm(sys.J @ sol.Q @ sol.K, 2)
    assert got == pytest.approx(eps / scale, rel=0.5)


def test_metric_poles_exact_and_perturbed(rng):
    _, spec, poles, sol = gegenbauer_solution()
    assert metric_poles(sol, poles) <= 1e-13
    H = sol.H.copy()
    H[1, 0] *= 1 + 1e-6
    from sorf.updating import IEPSolution

    bad = IEPSolution(np.stack((H, sol.K.copy(), sol.Q.T)), sol.wnorm)
    assert metric_poles(bad, poles) == pytest.approx(1e-6, rel=1e-3)


def metric_poles_by_loop(sol, poles):
    """E_p one pole at a time, a branch and an early return for each kind of
    pole: the bitwise reference for metric_poles."""
    H, K = sol.H, sol.K
    worst = 0.0
    for k, psi in enumerate(poles):
        h = H[k + 1, k]
        kk = K[k + 1, k]
        if is_infinite_pole(psi):
            if h == 0.0:
                return np.inf
            err = abs(kk / h)
        elif psi == 0.0:
            if kk == 0.0:
                return np.inf
            err = abs(h / kk)
        else:
            if kk == 0.0:
                return np.inf
            err = abs(h / kk - complex(psi)) / abs(complex(psi))
        worst = max(worst, float(err))
    return worst


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize(
    "xi, phase",
    [(None, 1.0), (None, np.exp(0.3j)), ([1.6 + 0.4j, 1.6 - 0.4j, -2.0 + 0.3j, -2.0 - 0.3j, 3.0], 1.0)],
    ids=["real", "complex-weights", "conjugate-poles"],
)
def test_pole_metric_is_bitwise_the_loop_over_poles(route, xi, phase):
    cfg = GegenbauerSobolevConfig(mu=1.0, lam=1.0, omega=1.5, N=6)
    spec = discretize_gegenbauer(cfg)
    spec = DiscreteSobolevSpec(spec.nodes, spec.orders, spec.alphas, tuple(w * phase for w in spec.weights))
    poles = default_pole_list(xi or gegenbauer_pole_ladder(1.5, 5), spec.m)
    sol = ROUTES[route](spec, poles)
    n = len(poles)
    # the free poles sit on exactly zero K subdiagonals: scored as finite or
    # zero poles there, they divide by zero
    on_free = [*poles[:5], 1.5, *poles[6:]]
    scored = [poles, poles[:5], [], [0.0] * 5, [INFINITY] * n, on_free, [0.0, *poles[1:5], 0.0, *poles[6:]]]
    # every kind of pole against ratios that miss it: a zero, an infinite, a
    # real and a complex pole, and a large and a tiny one
    rotating = [0.0, INFINITY, -1.5, 1.6 - 0.4j, 1e300, -1e-300]
    scored += [[rotating[(k + shift) % 6] for k in range(5)] for shift in range(6)]
    for psis in scored:
        got, ref = metric_poles(sol, psis), metric_poles_by_loop(sol, psis)
        assert type(got) is float and np.array_equal(got, ref, equal_nan=False), (psis, got, ref)
    assert metric_poles(sol, poles[:5]) <= 1e-13
    assert metric_poles(sol, on_free) == math.inf
    assert metric_poles(sol, []) == 0.0
    # an infinite pole on an exactly zero H subdiagonal
    H = sol.H.copy()
    H[3, 2] = 0.0
    reduced = IEPSolution(np.stack((H, sol.K, sol.Q.T)), sol.wnorm)
    assert metric_poles(reduced, [1.5, 2.0, INFINITY]) == metric_poles_by_loop(reduced, [1.5, 2.0, INFINITY]) == math.inf


def test_metric_orthonormality_scaled_column():
    _, spec, poles, sol = gegenbauer_solution()
    assert metric_orthonormality(sol) <= 1e-14
    Q = sol.Q.copy()
    Q[:, 4] *= 1 + 1e-6
    from sorf.updating import IEPSolution

    bad = IEPSolution(np.stack((sol.H, sol.K, Q.T)), sol.wnorm)
    assert metric_orthonormality(bad) == pytest.approx(2e-6, rel=1e-2)


def test_metric_sobolev_values():
    assert metric_sobolev(np.eye(3)) == 0.0
    assert metric_sobolev(np.diag([1.0, 1.0, 2.0])) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "xi, phase, j_dtype, dtype",
    [
        ([-1.5, 1.5], 1.0, np.float64, np.float64),
        ([1.5 + 0.5j, 1.5 - 0.5j], 1.0, np.float64, np.complex128),
        ([-1.5, 1.5], np.exp(0.3j), np.complex128, np.complex128),
    ],
    ids=["real", "conjugate_poles", "complex_weights"],
)
def test_dtype_follows_the_data_on_every_route(xi, phase, j_dtype, dtype):
    spec = discretize_gegenbauer(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=3))
    spec = DiscreteSobolevSpec(spec.nodes, spec.orders, spec.alphas, tuple(w * phase for w in spec.weights))
    poles = default_pole_list(xi, spec.m)
    system = build_jordan(spec)
    assert system.J.dtype == system.w.dtype == j_dtype
    for sol in (solve_updating(spec, poles), solve_via_sop(system, poles), rational_arnoldi(system, poles)):
        assert sol.H.dtype == sol.K.dtype == sol.Q.dtype == dtype
        assert evaluate_solution(sol, np.array(spec.nodes), max_deriv=1).values.dtype == dtype
        assert metric_recurrence(system, sol) <= 1e-12
        assert metric_poles(sol, poles) <= 1e-12


def _svd_norm2(A):
    return np.linalg.svd(A, compute_uv=False)[0]


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
@pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 6, 46, 198])
def test_norm2_matches_the_svd(n, dtype, hermitian, scale):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    if dtype is np.complex128:
        A = A + 1j * rng.standard_normal((n, n))
    if hermitian:
        A = A + A.conj().T
    # scale * A is rounded, so the reference is the SVD of that same matrix
    # (LAPACK rescales entries this small or large before its SVD)
    got, ref = _norm2(scale * A), _svd_norm2(scale * A)
    assert np.isfinite(ref) and ref > 0.0
    assert abs(got - ref) <= 1e-13 * ref


def test_norm2_of_zero_and_non_finite_matrices():
    assert _norm2(np.zeros((3, 3))) == 0.0
    assert _norm2(np.zeros((2, 2), complex)) == 0.0
    assert _norm2(np.array([[1.0, np.inf], [0.0, 1.0]])) == np.inf
    assert np.isnan(_norm2(np.array([[1.0, np.nan], [0.0, 1.0]])))


@pytest.mark.parametrize(
    "doc",
    [{"N": 12, "mu": 2.0, "omega": 1.5}, CONJUGATE_POLES],
    ids=["m46", "conjugate_poles"],
)
def test_metrics_match_an_svd_reference_on_every_route(doc):
    cfg = parse_config({**doc, "method": "all"})
    gcfg = _gegenbauer_config(cfg, cfg["N"])
    spec = discretize_gegenbauer(gcfg)
    J = build_jordan(spec).J
    methods = []
    for method, sol, metrics, table, _ in _solve_and_score(cfg, cfg["N"]):
        methods.append(method)
        Q, H, K = sol.Q, sol.H, sol.K
        # the products metric_recurrence forms, in its order, so that only the norm differs
        JQ = np.diagonal(J)[:, None] * Q
        JQ[:-1] += np.diagonal(J, 1)[:, None] * Q[1:]
        JQK, QH = JQ @ K, Q @ H
        Md = discrete_moment_matrix(spec, table)
        Mc = continuous_moment_matrix(H, K, sol.wnorm, gcfg.mu, gcfg.lam, cfg["N"] - 1)
        ref = {
            "E_r": _svd_norm2(JQK - QH) / max(_svd_norm2(JQK), _svd_norm2(QH)),
            "E_Q": _svd_norm2(Q.conj().T @ Q - np.eye(sol.m)),
            "E_S_discrete": _svd_norm2(Md - np.eye(sol.m)),
            "E_S_continuous_leading": _svd_norm2(Mc - np.eye(cfg["N"] - 1)),
        }
        for key, value in ref.items():
            assert abs(metrics[key] - value) <= 1e-13 * value, (method, key)
    assert methods == ["updating", "sop", "krylov"]
    assert sol.m == 4 * cfg["N"] - 2


def test_complex_poles_score_through_the_complex_gram_norm():
    report = run_solve({"N": 3, "method": "all", "poles": [[2, 0.5], [2, -0.5]]})
    for r in report["reports"]:
        assert np.any(np.array(r["H"])[..., 1] != 0.0), r["method"]
        assert r["metrics"]["E_r"] <= 1e-12, r["method"]
        assert r["metrics"]["E_Q"] <= 1e-12, r["method"]


def test_table_agreement_detects_mismatch(rng):
    _, spec, poles, sol = gegenbauer_solution()
    pts = np.linspace(-0.5, 0.5, 4)
    t1 = evaluate_solution(sol, pts, max_deriv=1)
    vals = t1.values.astype(complex)  # the real table takes a complex factor
    vals[3] *= np.exp(0.7j)  # unimodular factor: still agrees
    t2 = SorfTable(vals, pts)
    assert table_agreement(t1, t2) <= 1e-12
    vals2 = t1.values.copy()
    vals2[3] *= 1.01  # genuine scale change: disagrees
    t3 = SorfTable(vals2, pts)
    assert table_agreement(t1, t3) >= 1e-3


# both subdiagonal entries exactly zero: no pole is realized at position 0
REDUCED = IEPSolution(np.stack((np.eye(2, dtype=complex), np.eye(2, dtype=complex), np.eye(2, dtype=complex).T)), 1.0)
ONES = SorfTable(np.ones((1, 1, 2), dtype=complex), np.zeros(2))
TWO_NODES = DiscreteSobolevSpec(nodes=(-0.5, 0.5), orders=(1, 0), alphas=((1.0,), ()), weights=(1.0, 1.0))


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda: metric_poles(REDUCED, [1.5]), math.inf),
        (lambda: metric_poles(REDUCED, [0.0]), math.inf),
        (lambda: metric_poles(REDUCED, [INFINITY]), math.inf),
        (lambda: table_agreement(ONES, SorfTable(np.zeros((1, 1, 2), dtype=complex), np.zeros(2))), math.inf),
        (lambda: table_agreement(ONES, SorfTable(np.ones((2, 1, 2), dtype=complex), np.zeros(2))), ValueError),
        (lambda: evaluate_sorfs(np.zeros((0, 0)), np.zeros((0, 0)), 1.0, [0.0]), ValueError),
        (lambda: evaluate_sorfs(REDUCED.H, REDUCED.K, 1.0, [0.0], max_deriv=-1), ValueError),
        (lambda: evaluate_sorfs(REDUCED.H, REDUCED.K, 1.0, [[0.0], [0.5]]), ValueError),
        (lambda: discrete_moment_matrix(TWO_NODES, SorfTable(np.ones((1, 2, 3)), np.zeros(3))), ValueError),
        (lambda: discrete_moment_matrix(TWO_NODES, ONES), ValueError),
    ],
    ids=[
        "finite-pole-on-zero-subdiagonal", "zero-pole-on-zero-subdiagonal", "infinite-pole-on-zero-subdiagonal",
        "zero-anchor", "mismatched-tables", "no-functions", "negative-max-deriv",
        "two-dimensional-points", "table-of-wrong-size",
        "table-without-derivatives",
    ],
)
def test_degenerate_inputs_score_inf_or_are_refused(call, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call()
    else:
        assert call() == outcome
