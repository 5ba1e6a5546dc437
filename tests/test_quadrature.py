import itertools
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import integrate

import sorf.quadrature
from sorf.driver import run_solve
from sorf.errors import ConfigError, IllPosedMeasureError, NumericalError, PositivityError
from sorf.pencil import scalar
from sorf.quadrature import (
    QuadratureRule,
    clenshaw_curtis,
    gauss_gegenbauer,
    gegenbauer_coefficients,
    golub_welsch,
    rational_gauss,
    stieltjes_modified,
)
from sorf.sobolev import GegenbauerSobolevConfig, gegenbauer_rule

GEGENBAUER_MASS_MU2 = 16.0 / 15.0  # int (1-t^2)^2 dt on [-1, 1]


# ---------------------------------------------------------------------------
# Clenshaw-Curtis
# ---------------------------------------------------------------------------


def test_cc_integrates_constant():
    rule = clenshaw_curtis(8)
    assert integrate(rule, lambda t: np.ones_like(t)) == pytest.approx(2.0, abs=1e-14)


def test_cc_integrates_t_squared():
    for n in (3, 5, 12):
        rule = clenshaw_curtis(n)
        assert integrate(rule, lambda t: t**2) == pytest.approx(2.0 / 3.0, abs=1e-14)


def test_cc_polynomial_exactness_degree():
    # n nodes integrate monomials up to degree n-1 exactly
    for n in (4, 7, 10):
        rule = clenshaw_curtis(n)
        for k in range(n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert integrate(rule, lambda t: t**k) == pytest.approx(exact, abs=1e-13)


def test_cc_self_convergence_on_rational_integrand():
    f = lambda t: (1 - t**2) ** 2 / (t**2 - 1.21) ** 2
    a = integrate(clenshaw_curtis(200), f)
    b = integrate(clenshaw_curtis(400), f)
    assert abs(a - b) <= 1e-12 * abs(b)


def test_cc_nodes_increasing_weights_positive():
    rule = clenshaw_curtis(33)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)


def test_cc_requires_two_nodes():
    with pytest.raises(ConfigError):
        clenshaw_curtis(1)


def test_cc_rule_is_cached_and_read_only():
    rule = clenshaw_curtis(17)
    assert clenshaw_curtis(17) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0
    # a refused size is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ConfigError):
            clenshaw_curtis(1)


@pytest.mark.parametrize("coarse", [2, 17, 401])
def test_cc_rule_on_2n_intervals_nests_the_rule_on_n(coarse):
    # theta = pi k / n and pi (2k) / (2n) differ by exact powers of two, so
    # the shared nodes are the same doubles
    fine = clenshaw_curtis(2 * coarse - 1)
    assert clenshaw_curtis(coarse).nodes.tobytes() == fine.nodes[::2].tobytes()


def clenshaw_curtis_by_parity(n):
    """Trefethen's clencurt with one branch per parity of N = n - 1, the
    cos(N theta) term of an even N outside the loop: the bitwise reference
    for clenshaw_curtis."""
    N = n - 1
    theta = np.pi * np.arange(n) / N
    x = np.cos(theta)
    w = np.zeros(n)
    v = np.ones(N - 1)
    interior = theta[1:N]
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2.0 * k * interior) / (4.0 * k * k - 1)
        v -= np.cos(N * interior) / (N * N - 1)
    else:
        w[0] = w[N] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * interior) / (4.0 * k * k - 1)
    w[1:N] = 2.0 * v / N
    return x[::-1], w[::-1]


def test_cc_one_loop_is_bitwise_the_rule_by_parity():
    # the uncached builder, so the rules the other tests share stay cached
    for n in range(2, 1001):
        rule = clenshaw_curtis.__wrapped__(n)
        x, w = clenshaw_curtis_by_parity(n)
        assert rule.nodes.tobytes() == x.tobytes() and rule.weights.tobytes() == w.tobytes(), n


# ---------------------------------------------------------------------------
# Gauss-Gegenbauer
# ---------------------------------------------------------------------------


def test_gegenbauer_weight_sum_mu2():
    for n in range(1, 31):
        rule = gauss_gegenbauer(2.0, n)
        assert abs(rule.weights.sum() - GEGENBAUER_MASS_MU2) <= 1e-13


def test_gegenbauer_mu0_two_nodes_is_gauss_legendre():
    rule = gauss_gegenbauer(0.0, 2)
    assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-14)
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_gegenbauer_against_clenshaw_curtis_reference():
    # frozen oracle value: int t^4 (1-t^2)^2 dt computed with clenshaw_curtis(400)
    rule = gauss_gegenbauer(2.0, 8)
    ref = integrate(clenshaw_curtis(400), lambda t: t**4 * (1 - t**2) ** 2)
    assert integrate(rule, lambda t: t**4) == pytest.approx(ref, rel=1e-12)


def test_gegenbauer_node_symmetry():
    rule = gauss_gegenbauer(2.0, 9)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 64, 65, 248, 249, 792])
@pytest.mark.parametrize("mu", [-0.9, 0.0, 2.37])
def test_gegenbauer_rule_is_exactly_symmetric(mu, n):
    # the negative half mirrors the positive one bit for bit, the nodes
    # ascend, and an odd rule's middle node is +0.0
    rule = gauss_gegenbauer.__wrapped__(mu, n)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0.0)
    if n % 2:
        middle = rule.nodes[n // 2]
        assert middle == 0.0 and not np.signbit(middle)


def mp_gegenbauer_half(mu, n, dps=40):
    """The nonnegative nodes of the n-node Gauss rule for (1-t^2)^mu, their
    weights and the mass, in mpmath at `dps` digits: one Newton step on the
    monic recurrence from Golub-Welsch's double nodes (it squares their
    error), then each weight the Christoffel number 1 / sum_k P_k(x)^2 / ||P_k||^2."""
    import mpmath

    start = golub_welsch(*gegenbauer_coefficients(mu, n))[0][n // 2 :]
    with mpmath.workdps(dps):
        m = mpmath.mpf(mu)
        beta = [mpmath.beta(mpmath.mpf(0.5), m + 1), 1 / (3 + 2 * m)]
        beta += [k * (k + 2 * m) / ((2 * k + 2 * m + 1) * (2 * k + 2 * m - 1)) for k in range(2, n)]
        inv_norms = [1 / beta[0]]  # 1 / ||P_k||^2 = 1 / (beta_0 ... beta_k)
        for b in beta[1:]:
            inv_norms.append(inv_norms[-1] / b)
        nodes, weights = [], []
        for x in map(mpmath.mpf, np.abs(start)):
            p_prev, p, d_prev, d = 0, 1, 0, 0
            for k in range(n):  # P_k+1 and its derivative
                p_prev, p, d_prev, d = p, x * p - beta[k] * p_prev, d, p + x * d - beta[k] * d_prev
            x -= p / d
            p_prev, p, s = 0, 1, inv_norms[0]
            for k in range(1, n):
                p_prev, p = p, x * p - beta[k - 1] * p_prev
                s += p * p * inv_norms[k]
            nodes.append(x)
            weights.append(1 / s)
        return nodes, weights, beta[0]


# One bound per quantity over all 30 cases below, from the largest value
# measured: node error 7.2e-16 (absolute), weight error 2.2e-10 (relative,
# on the smallest end weights at mu = 5, n = 248, where Golub-Welsch on the
# full order reads 2.6e-9) and the weights' sum 1.3e-15 from the exact mass
# (relative).
GEGENBAUER_RULE_BOUNDS = {"node": 1e-15, "weight": 5e-10, "mass": 2e-15}


@pytest.mark.parametrize("n", [1, 2, 9, 64, 65, 248])
@pytest.mark.parametrize("mu", [-0.9, -0.5, 0.0, 2.37, 5.0])
def test_gegenbauer_rule_matches_the_multiprecision_rule(mu, n):
    mpmath = pytest.importorskip("mpmath")
    rule = gauss_gegenbauer.__wrapped__(mu, n)
    nodes, weights, mass = mp_gegenbauer_half(mu, n)
    half = slice(n // 2, None)
    node_error = max(abs(a - b) for a, b in zip(rule.nodes[half], nodes))
    weight_error = max(abs(a - b) / b for a, b in zip(rule.weights[half], weights))
    mass_error = abs(mpmath.fsum(map(mpmath.mpf, rule.weights)) - mass) / mass
    assert node_error <= GEGENBAUER_RULE_BOUNDS["node"]
    assert weight_error <= GEGENBAUER_RULE_BOUNDS["weight"]
    assert mass_error <= GEGENBAUER_RULE_BOUNDS["mass"]


def test_gegenbauer_exactness_degree(rng):
    n = 6
    rule = gauss_gegenbauer(1.5, n)
    cc = clenshaw_curtis(600)
    for _ in range(10):
        coeff = rng.normal(size=2 * n)  # degree 2n-1
        p = np.polynomial.Polynomial(coeff)
        ref = integrate(cc, lambda t: p(t) * (1 - t**2) ** 1.5)
        assert integrate(rule, p) == pytest.approx(ref, rel=1e-11, abs=1e-13)


@pytest.mark.parametrize("mu", [-0.5, 0.0, 2.5, 100.0, 500.0])
def test_gegenbauer_mass_matches_power_of_two_formula(mu):
    # the direct formula 2^(2mu+1) B(mu+1, mu+1), valid while 2^(2mu+1) is finite
    direct = 2.0 ** (2 * mu + 1) * math.exp(2 * math.lgamma(mu + 1) - math.lgamma(2 * mu + 2))
    assert gegenbauer_coefficients(mu, 1)[1][0] == pytest.approx(direct, rel=1e-13)


def test_gegenbauer_mass_beyond_power_of_two_range():
    # 2^(2mu+1) overflows from mu = 511.5 on; the mass itself tends to sqrt(pi/mu)
    for mu in (512.0, 600.0, 1e6):
        assert gegenbauer_coefficients(mu, 1)[1][0] == pytest.approx(math.sqrt(math.pi / mu), rel=1e-3)
    with pytest.raises(NumericalError):
        gegenbauer_coefficients(1e308, 1)


@pytest.mark.parametrize("mu, rel", [(600.0, 5e-13), (1e4, 1e-15), (1e6, 1e-15), (1e15, 1e-15)])
def test_gegenbauer_mass_matches_mpmath_for_large_mu(mu, rel):
    # int (1-t^2)^mu dt = B(1/2, mu+1); a difference of lgammas cancels here
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = float(mpmath.beta(mpmath.mpf("0.5"), mpmath.mpf(mu) + 1))
    assert gegenbauer_coefficients(mu, 1)[1][0] == pytest.approx(exact, rel=rel)


@pytest.mark.parametrize("mu", [1e100, 1e300])
def test_gegenbauer_mass_for_huge_mu(mu):
    # the mass is sqrt(pi/mu) (1 + O(1/mu))
    assert gegenbauer_coefficients(mu, 1)[1][0] == pytest.approx(math.sqrt(math.pi / mu), rel=1e-15)


def test_gauss_gegenbauer_weights_sum_to_the_mass_for_large_mu():
    assert gauss_gegenbauer(1e15, 8).weights.sum() == pytest.approx(math.sqrt(math.pi / 1e15), rel=1e-13)


def test_gauss_gegenbauer_refuses_norms_that_underflow():
    # beta_k ~ k / (2 mu) is 0 once (2k + 2mu)^2 overflows
    with pytest.raises(PositivityError):
        gauss_gegenbauer(1e300, 4)


@pytest.mark.parametrize("beta", [[1.0, 0.0], [1.0, np.nan], [-1.0, 0.5], [np.nan, 0.5]])
def test_golub_welsch_refuses_nonpositive_or_nan_norms(beta):
    with pytest.raises(PositivityError):
        golub_welsch(np.zeros(2), np.array(beta))


def test_gegenbauer_rejects_bad_mu():
    with pytest.raises(ConfigError):
        gauss_gegenbauer(-1.0, 4)
    with pytest.raises(ConfigError):
        gauss_gegenbauer(-1.5, 4)


def test_gauss_gegenbauer_rule_is_cached_and_read_only():
    rule = gauss_gegenbauer(2, 64)
    assert gauss_gegenbauer(2.0, 64) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0
    # a refused argument is not cached: it raises on every call
    for _ in range(2):
        with pytest.raises(ConfigError):
            gauss_gegenbauer(2.0, 0)
        with pytest.raises(ConfigError):
            gauss_gegenbauer(-1.0, 4)
        with pytest.raises(PositivityError):
            gauss_gegenbauer(1e300, 4)


def test_krylov_solves_build_the_base_rule_once(monkeypatch):
    sizes = []

    def counting(d, e, *args, **kwargs):
        sizes.append(len(d))
        return eigh_tridiagonal(d, e, *args, **kwargs)

    gauss_gegenbauer.cache_clear()
    monkeypatch.setattr(sorf.quadrature, "eigh_tridiagonal", counting)
    for omega in (1.5, 1.7):
        run_solve({"mu": 2, "omega": omega, "N": 4, "method": "krylov"})
    # one 64-point base rule shared by both solves, built from its order-32
    # half, and one 7-point rule each
    assert sorted(sizes) == [7, 7, 32]


# ---------------------------------------------------------------------------
# Stieltjes on the pole-modified measure
# ---------------------------------------------------------------------------


def test_stieltjes_empty_pole_list_recovers_base_measure():
    base = gauss_gegenbauer(2.0, 64)
    coeffs = stieltjes_modified(base, [], 6)
    ref = gegenbauer_coefficients(2.0, 6)
    assert coeffs[0] == pytest.approx(ref[0], abs=1e-14)
    assert coeffs[1] == pytest.approx(ref[1], rel=1e-13)


def test_stieltjes_modified_weights_positive_for_symmetric_poles():
    base = gauss_gegenbauer(2.0, 32)
    prods = (base.nodes**2 - 1.21) ** 2
    assert np.all(prods > 0)  # (t^2 - w^2)^2 > 0 on [-1, 1]


def test_stieltjes_beta0_equals_direct_summation():
    base = gauss_gegenbauer(2.0, 48)
    poles = [-1.1, 1.1, -1.1, 1.1]
    coeffs = stieltjes_modified(base, poles, 5)
    direct = 0.0
    for z, w in zip(base.nodes, base.weights):
        prod = 1.0
        for xi in poles:
            prod *= (z - xi) ** 2
        direct += w / prod
    assert coeffs[1][0] == pytest.approx(direct, rel=1e-14)


def test_stieltjes_pole_inside_support_raises():
    base = gauss_gegenbauer(2.0, 32)
    with pytest.raises(IllPosedMeasureError):
        stieltjes_modified(base, [0.5], 4)


@pytest.mark.parametrize("pole", [1e154, 1e200, 1e308])
def test_stieltjes_refuses_overflowing_pole_factors(pole):
    # squared pole factors overflow to complex infinity; their square is NaN
    with pytest.raises(PositivityError):
        stieltjes_modified(gauss_gegenbauer(2.0, 64), [-pole, pole], 3)


def test_stieltjes_rejects_more_coefficients_than_nodes():
    base = gauss_gegenbauer(2.0, 8)
    with pytest.raises(ConfigError):
        stieltjes_modified(base, [], 9)


# ---------------------------------------------------------------------------
# Rational Gauss
# ---------------------------------------------------------------------------


def full_pole_list(omega=1.1, repeats=4):
    return [x for x in (-omega, omega) for _ in range(repeats)]


def test_rational_gauss_no_poles_degenerates_to_gegenbauer():
    a = rational_gauss(2.0, [], 5)
    b = gauss_gegenbauer(2.0, 5)
    assert a.nodes == pytest.approx(b.nodes, abs=1e-13)
    assert a.weights == pytest.approx(b.weights, rel=1e-13)


def test_rational_gauss_is_bitwise_the_same_on_a_cold_and_a_warm_cache():
    gauss_gegenbauer.cache_clear()
    cold = rational_gauss(2.0, full_pole_list(), 5)
    warm = rational_gauss(2.0, full_pole_list(), 5)
    assert gauss_gegenbauer.cache_info().hits >= 1
    assert np.array_equal(cold.nodes, warm.nodes)
    assert np.array_equal(cold.weights, warm.weights)


def test_rational_gauss_sizing_five_nodes():
    rule = rational_gauss(2.0, full_pole_list(), 5)
    assert rule.n == 5


def test_rational_gauss_against_clenshaw_curtis():
    rule = rational_gauss(2.0, full_pole_list(), 5)
    f = lambda t: 1.0 / (t**2 - 1.21)
    ref = integrate(clenshaw_curtis(400), lambda t: f(t) * (1 - t**2) ** 2)
    assert integrate(rule, f) == pytest.approx(ref, rel=1e-11)


def test_rational_gauss_exactness_class(rng):
    # 20 random members g / prod(t - xi) of the exactness class, deg g <= 2*sigma-1
    sigma = 5
    poles = full_pole_list()
    rule = rational_gauss(2.0, poles, sigma)
    cc = clenshaw_curtis(500)
    for _ in range(20):
        g = np.polynomial.Polynomial(rng.normal(size=2 * sigma))
        denom = lambda t: (t**2 - 1.21) ** 4
        f = lambda t: g(t) / denom(t)
        ref = integrate(cc, lambda t: f(t) * (1 - t**2) ** 2)
        assert abs(integrate(rule, f) - ref) <= 1e-10 * abs(ref)


def test_rational_gauss_node_symmetry_for_symmetric_poles():
    rule = rational_gauss(2.0, full_pole_list(), 7)
    assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12


def test_rational_gauss_rejects_odd_multiplicities():
    with pytest.raises(PositivityError):
        rational_gauss(2.0, [-1.1, -1.1, 1.1], 3)


def test_rational_gauss_refuses_a_complex_pole_without_its_conjugate():
    # the squared factors (t - 2 - i)^2 are complex on [-1, 1]
    with pytest.raises(PositivityError, match="does not define a real modified measure"):
        rational_gauss(2.0, [2 + 1j] * 4, 3)


def test_rational_gauss_rejects_pole_in_support():
    with pytest.raises(IllPosedMeasureError):
        rational_gauss(2.0, [0.3, 0.3], 3)


@pytest.mark.parametrize("pole", [np.inf, complex(np.nan, 0.0)])
def test_rational_gauss_rejects_nonfinite_poles(pole):
    # a pole at infinity adds no factor to the rule: it is not a pole of the
    # exactness class, and it must not reach the modified measure
    with pytest.raises(ConfigError, match="finite"):
        rational_gauss(2.0, [pole] * 4, 3)


def test_rule_validation_negative_weight():
    with pytest.raises(PositivityError):
        QuadratureRule(np.array([0.0, 0.5]), np.array([1.0, -0.1]))


def test_rule_validation_coincident_nodes():
    with pytest.raises(PositivityError, match=r"^quadrature nodes closer than 1e-12$"):
        QuadratureRule(np.array([0.5, 0.5 + 1e-14]), np.array([1.0, 1.0]))
    with pytest.raises(PositivityError, match=r"^quadrature nodes closer than 1e-12$"):
        QuadratureRule(np.array([0.9, -0.2, 0.9]), np.array([1.0, 1.0, 1.0]))


def test_one_node_rule_is_accepted():
    rule = QuadratureRule(np.array([0.25]), np.array([2.0]))
    assert rule.n == 1 and rule.nodes.tolist() == [0.25]


@pytest.mark.parametrize(
    "recurrence",
    [
        # nonzero shifts: a one-sided pole list tilts the modified measure
        lambda: stieltjes_modified(gauss_gegenbauer(2.0, 64), [1.3, 1.3, 2.9, 2.9], 12),
        lambda: gegenbauer_coefficients(-0.5, 40),
    ],
    ids=["one-sided-poles", "gegenbauer-mu-minus-half"],
)
def test_golub_welsch_nodes_ascend_in_lapack_order(recurrence):
    # golub_welsch returns eigh_tridiagonal's eigenvalue order without sorting
    alpha, beta = recurrence()
    nodes, weights = golub_welsch(alpha, beta)
    assert np.all(np.diff(nodes) > 0.0)
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(beta[0], rel=1e-13)


def test_golub_welsch_single_node():
    coeffs = gegenbauer_coefficients(2.0, 1)
    nodes, weights = golub_welsch(*coeffs)
    assert nodes == pytest.approx([0.0], abs=1e-15)
    assert weights == pytest.approx([GEGENBAUER_MASS_MU2], rel=1e-14)


@pytest.mark.parametrize(
    "nodes, weights",
    [([0.0, 0.5], [1.0]), ([], []), ([0.0, np.nan], [1.0, 1.0]), ([0.0, 0.5], [1.0, np.inf])],
    ids=["mismatched-shapes", "empty", "nan-node", "infinite-weight"],
)
def test_rule_validation_refuses_malformed_arrays(nodes, weights):
    with pytest.raises(PositivityError):
        QuadratureRule(nodes, weights)


def pole_factors_per_entry(points, poles):
    """prod_k (points - xi_k), one subtraction per entry of the pole list."""
    out = np.ones(len(points))
    for xi in poles:
        out = out * (points - scalar(xi))
    return out


def stieltjes_by_sum(base, finite_poles, n):
    """The discrete Stieltjes procedure with `np.sum` and `mod * x` formed in
    every step, on `pole_factors_per_entry`, and a first step that drops the
    p_{-1} term: the bitwise reference for `stieltjes_modified` (its input
    checks left out)."""
    denom = pole_factors_per_entry(base.nodes, finite_poles) ** 2
    mod = base.weights / denom.real
    x = base.nodes
    alpha = np.zeros(n)
    beta = np.zeros(n)
    beta[0] = np.sum(mod)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(beta[0]))
    for k in range(n):
        alpha[k] = np.sum(mod * x * p * p)
        if k == n - 1:
            break
        q = (x - alpha[k]) * p - (math.sqrt(beta[k]) if k > 0 else 0.0) * p_prev
        beta[k + 1] = np.sum(mod * q * q)
        p_prev, p = p, q / math.sqrt(beta[k + 1])
    return alpha, beta


def conjugate_pairs(count):
    """(a_k + b_k i, a_k - b_k i) pairs of alternating sign, a real pole last when count is odd."""
    poles = []
    for k in itertools.count(1):
        z = (-1) ** k * complex(1.1 + 0.05 * k, 0.2 + 0.01 * k)
        poles += [z, z.conjugate()] if len(poles) + 2 <= count else [z.real]
        if len(poles) >= count:
            return tuple(poles[:count])


def mixed_multiplicities(count):
    """Poles repeated next to each other and apart: 1.5, 1.5, -2, 1.5, 3, 3, 3, ..."""
    return tuple(itertools.islice(itertools.cycle([1.5, 1.5, -2.0, 1.5, 3.0, 3.0, 3.0]), count))


@pytest.mark.parametrize("N", [2, 12, 50])
@pytest.mark.parametrize("poles", [lambda n: None, conjugate_pairs, mixed_multiplicities],
                         ids=["ladder", "conjugate-pairs", "mixed-multiplicities"])
def test_rule_is_bitwise_the_one_of_per_entry_pole_factors(monkeypatch, N, poles):
    # one subtraction per run of a repeated pole, and mod * x formed once,
    # change no bit of the rule
    cfg = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=N, poles=poles(N - 1))
    rule = gegenbauer_rule(cfg)
    monkeypatch.setattr(sorf.quadrature, "_pole_factors", pole_factors_per_entry)
    monkeypatch.setattr(sorf.quadrature, "stieltjes_modified", stieltjes_by_sum)
    ref = gegenbauer_rule(cfg)
    assert rule.nodes.tobytes() == ref.nodes.tobytes()
    assert rule.weights.tobytes() == ref.weights.tobytes()


@pytest.mark.parametrize("N", [1, 2, 12, 50])
@pytest.mark.parametrize("poles", [lambda n: None, conjugate_pairs, mixed_multiplicities],
                         ids=["ladder", "conjugate-pairs", "mixed-multiplicities"])
def test_stieltjes_recurrence_is_bitwise_the_one_with_a_separate_first_step(monkeypatch, N, poles):
    # the three-term step with p_{-1} = 0 also takes the first step, and a
    # pole-free measure (N = 1) goes through the complex-measure test
    calls = []

    def checked(base, finite_poles, n):
        alpha, beta = stieltjes_modified(base, finite_poles, n)
        ref_alpha, ref_beta = stieltjes_by_sum(base, finite_poles, n)
        assert alpha.tobytes() == ref_alpha.tobytes() and beta.tobytes() == ref_beta.tobytes()
        calls.append(len(finite_poles))
        return alpha, beta

    monkeypatch.setattr(sorf.quadrature, "stieltjes_modified", checked)
    gegenbauer_rule(GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.5, N=N, poles=poles(N - 1)))
    assert calls == [2 * (N - 1)]
