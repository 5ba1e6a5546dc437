"""Quadrature rules on [-1, 1].

Three constructions feed the discretized Sobolev inner product:

* Gauss rules for the Gegenbauer weight (1-t^2)^mu, via the three-term
  recurrence of the Jacobi polynomials with alpha = beta = mu and the
  Golub-Welsch eigenvalue route (Gautschi, "Orthogonal Polynomials:
  Computation and Approximation").
* Gauss rules exact on rational function spaces with prescribed real poles
  outside [-1, 1].  These are built from the modified measure
  d(mu) / prod_k (t - xi_k)^2 by a discrete Stieltjes procedure on a large
  auxiliary Gauss-Gegenbauer rule, followed by Golub-Welsch; the weights are
  de-modified afterwards.
* Clenshaw-Curtis rules with unit weight, integrating the continuous metric,
  the tests and demo 04 (callers fold the weight function into the integrand).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, IllPosedMeasureError, NumericalError, PositivityError
from .pencil import scalar

#: minimum admissible gap between quadrature nodes
NODE_GAP = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    provenance: str = "imported"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise PositivityError("nodes and weights must be matching 1-d arrays")
        if nodes.size == 0:
            raise PositivityError("empty quadrature rule")
        if not np.all(np.isfinite(nodes)) or not np.all(np.isfinite(weights)):
            raise PositivityError("quadrature rule contains non-finite entries")
        if np.any(weights <= 0.0):
            raise PositivityError("quadrature weights must be strictly positive")
        if np.min(np.diff(np.sort(nodes)), initial=np.inf) <= NODE_GAP:
            raise PositivityError(f"quadrature nodes closer than {NODE_GAP}")

    @property
    def n(self) -> int:
        return self.nodes.size


def _gegenbauer_mass(mu: float) -> float:
    # int_{-1}^{1} (1-t^2)^mu dt = 2^(2mu+1) * B(mu+1, mu+1) = sqrt(pi) / (mu+1)_{1/2}.
    # While the beta function is a normal float the power of two scales it
    # directly; from mu ~ 504 on (2^(2mu+1) overflows at 511.5) the Pochhammer
    # form takes over, where the lgamma difference would cancel
    try:
        log_beta = 2 * math.lgamma(mu + 1) - math.lgamma(2 * mu + 2)
    except OverflowError:
        raise NumericalError(f"Gegenbauer mass for mu = {mu} is out of floating-point range") from None
    if log_beta > -700.0:
        return 2.0 ** (2 * mu + 1) * math.exp(log_beta)
    from scipy.special import poch  # loaded only for such large mu

    return math.sqrt(math.pi) / poch(mu + 1, 0.5)


def gegenbauer_coefficients(mu: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence shifts alpha_k and norms beta_k (beta_0 the total mass) of
    the weight (1-t^2)^mu on [-1, 1].

    Jacobi recurrence with alpha = beta = mu; all shifts vanish by symmetry.
    """
    if mu <= -1.0:
        raise ConfigError("Gegenbauer exponent must satisfy mu > -1")
    alpha = np.zeros(n)
    beta = np.empty(n)
    beta[0] = _gegenbauer_mass(mu)
    beta[1:2] = 1.0 / (3.0 + 2.0 * mu)  # an empty slice for n = 1
    for k in range(2, n):
        beta[k] = k * (k + 2.0 * mu) / ((2.0 * k + 2.0 * mu + 1.0) * (2.0 * k + 2.0 * mu - 1.0))
    return alpha, beta


def golub_welsch(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule from recurrence shifts alpha_k and
    norms beta_k, beta_0 carrying the total mass; the nodes are ascending,
    in the order LAPACK's tridiagonal eigensolver returns them."""
    if not np.all(beta > 0.0):  # also refuses NaN
        raise PositivityError("recurrence norms beta_k must be positive")
    nodes, vecs = eigh_tridiagonal(alpha, np.sqrt(beta[1:]))
    return nodes, beta[0] * vecs[0, :] ** 2


@functools.lru_cache(maxsize=64)
def gauss_gegenbauer(mu: float, n: int) -> QuadratureRule:
    """n-node Gauss rule for the weight (1-t^2)^mu on [-1, 1].

    Each rule is built once per (mu, n) and cached, the 64 most recently
    used kept; its nodes and weights are read-only.
    """
    if n < 1:
        raise ConfigError("a Gauss rule needs at least one node")
    rule = QuadratureRule(*golub_welsch(*gegenbauer_coefficients(mu, n)), "gegenbauer")
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=8)
def clenshaw_curtis(n: int) -> QuadratureRule:
    """n-node Clenshaw-Curtis rule on [-1, 1] with unit weight.

    Exact for polynomials of degree <= n-1.  The cosine-expansion weights
    follow Trefethen's clencurt on N = n - 1 intervals, both parities in one
    loop over k = 1 .. floor(N/2): the interior weights are
    (2/N) (1 - sum_k c_k cos(2k theta) / (4k^2 - 1)) with c_k = 2, except
    c_{N/2} = 1 (the cos(N theta) term of an even N), and the endpoint
    weights 1/(N^2 - 1) for even N, 1/N^2 for odd N.  Nodes are returned in
    increasing order.  Each rule is built once and cached; its nodes and
    weights are read-only.
    """
    if n < 2:
        raise ConfigError("Clenshaw-Curtis needs at least two nodes")
    N = n - 1
    theta = np.pi * np.arange(n) / N
    x = np.cos(theta)
    w = np.zeros(n)
    v = np.ones(N - 1)
    interior = theta[1:N]
    w[0] = w[N] = 1.0 / (N * N - 1 + N % 2)
    for k in range(1, N // 2 + 1):
        v -= (1.0 if 2 * k == N else 2.0) * np.cos(2.0 * k * interior) / (4.0 * k * k - 1)
    w[1:N] = 2.0 * v / N
    rule = QuadratureRule(x[::-1].copy(), w[::-1].copy(), "clenshaw-curtis")
    rule.nodes.flags.writeable = rule.weights.flags.writeable = False
    return rule


def _pole_factors(points: np.ndarray, poles) -> np.ndarray:
    """prod_k (points - xi_k) over the supplied pole list, elementwise, in the
    poles' type; a run of equal poles reuses one difference."""
    out = np.ones(len(points))
    for xi, run in itertools.groupby(poles):
        diff = points - scalar(xi)
        for _ in run:
            out = out * diff
    return out


def _check_poles_outside(points: np.ndarray, poles) -> None:
    lo = min(-1.0, float(np.min(points)))
    hi = max(1.0, float(np.max(points)))
    for xi in poles:
        z = complex(xi)
        if abs(z.imag) <= NODE_GAP and lo - NODE_GAP <= z.real <= hi + NODE_GAP:
            raise IllPosedMeasureError(f"pole {z} lies inside the support [{lo}, {hi}]")


def stieltjes_modified(base: QuadratureRule, finite_poles, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrence (alpha, beta) of the orthonormal polynomials of the
    pole-modified discrete measure.

    The measure is sum_j base.weights[j] / prod_k (z_j - xi_k)^2 placed at the
    base nodes; each pole in `finite_poles` contributes one squared factor.
    Uses the discrete Stieltjes procedure, stable as long as n is well below
    the number of base nodes.  Every step, the first included, is the
    three-term step q = (x - alpha_k) p_k - sqrt(beta_k) p_{k-1}, with
    p_{-1} = 0.
    """
    if n < 1:
        raise ConfigError("at least one coefficient pair must be requested")
    if n > base.n:
        raise ConfigError("cannot extract more coefficients than base nodes")
    _check_poles_outside(base.nodes, finite_poles)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives NaN or 0 weights, refused below
        denom = _pole_factors(base.nodes, finite_poles) ** 2
    if np.max(np.abs(denom.imag)) > 1e-12 * np.max(np.abs(denom)):
        raise PositivityError("pole list does not define a real modified measure")
    mod = base.weights / denom.real
    if not np.all(mod > 0.0):  # also refuses NaN
        raise PositivityError("modified measure has a nonpositive or NaN weight")
    x = base.nodes
    mod_x = mod * x
    alpha = np.zeros(n)
    beta = np.zeros(n)
    beta[0] = np.add.reduce(mod)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(beta[0]))
    for k in range(n):
        alpha[k] = np.add.reduce(mod_x * p * p)
        if k == n - 1:
            break
        q = (x - alpha[k]) * p - math.sqrt(beta[k]) * p_prev
        beta_next = np.add.reduce(mod * q * q)
        if beta_next <= 0.0:
            raise PositivityError(f"Stieltjes norm beta_{k + 1} is nonpositive")
        beta[k + 1] = beta_next
        p_prev, p = p, q / math.sqrt(beta_next)
    return alpha, beta


def rational_gauss(mu: float, finite_poles, sigma: int) -> QuadratureRule:
    """sigma-node Gauss rule exact on g(t)/prod_k(t - xi_k), deg g <= 2*sigma-1,
    against the Gegenbauer weight (1-t^2)^mu.

    `finite_poles` is the full pole list of the target exactness class
    (2*(sigma-1) entries in the standard sizing); multiplicities must be even
    so the modified measure divides by a perfect square and stays positive.
    """
    if sigma < 1:
        raise ConfigError("at least one node must be requested")
    if not np.all(np.isfinite(np.asarray(finite_poles, dtype=complex))):
        raise ConfigError("rational Gauss poles must be finite")
    base_order = max(64, 8 * sigma)
    base = gauss_gegenbauer(mu, base_order)
    # half of each pole's multiplicity, poles ordered from the end of the list
    counts = Counter(complex(xi) for xi in reversed(finite_poles))
    if any(c % 2 for c in counts.values()):
        raise PositivityError("rational Gauss poles must come in exact duplicate pairs (even multiplicity)")
    half = [xi for xi, c in counts.items() for _ in range(c // 2)]
    nodes, lam = golub_welsch(*stieltjes_modified(base, half, sigma))
    demod = _pole_factors(nodes, finite_poles)
    if np.max(np.abs(demod.imag)) > 1e-10 * np.max(np.abs(demod)):
        raise PositivityError("pole configuration produced complex quadrature weights")
    return QuadratureRule(nodes, lam * demod.real, "rational-gauss")  # refuses nonpositive weights
