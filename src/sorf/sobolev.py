"""Discretized Sobolev inner products and their matrix encoding.

A discrete Sobolev inner product on sigma nodes z_j with derivative orders
s_j, derivative scalings alpha_r^(j) and weight amplitudes w_j is

    <f, g> = sum_j sum_{i=0}^{s_j} |w_j|^2 |prod_{r<=i} alpha_r^(j) / i!|^2
             f^(i)(z_j) conj(g^(i)(z_j)).

Its matrix encoding is the block upper-bidiagonal matrix J (one Jordan-like
block of size s_j+1 per node, node on the diagonal, scalings on the
superdiagonal) together with the vector w holding w_j at the last index of
each block.  The Gegenbauer-Sobolev family discretizes the continuous inner
product

    (f, g) = int f g (1-t^2)^mu dt + lambda * int f' g' (1-t^2)^mu dt

with a rational Gauss rule whose poles form the ladder -w, w, -2w, 2w, ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpectrumOverlapError
from .pencil import INFINITY, is_infinite_pole, scalar
from .quadrature import NODE_GAP, QuadratureRule, rational_gauss


@dataclass(frozen=True)
class DiscreteSobolevSpec:
    """Nodes, derivative orders, derivative scalings and weight amplitudes.

    `alphas[j]` lists (alpha_1, ..., alpha_{s_j}) for node j; `weights[j]` is
    the amplitude w_j (the inner product uses |w_j|^2).  Scalings and weights
    must be nonzero, all three finite, and the nodes more than NODE_GAP
    apart (a single node has no gap to test); ConfigError otherwise.
    """

    nodes: tuple
    orders: tuple
    alphas: tuple
    weights: tuple

    def __post_init__(self):
        nodes = tuple(scalar(z) for z in self.nodes)
        orders = tuple(int(s) for s in self.orders)
        alphas = tuple(tuple(scalar(a) for a in al) for al in self.alphas)
        weights = tuple(scalar(w) for w in self.weights)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "weights", weights)
        sigma = len(nodes)
        if not (len(orders) == len(alphas) == len(weights) == sigma) or sigma == 0:
            raise ConfigError("nodes, orders, alphas and weights must have equal nonzero length")
        for j, (s, al) in enumerate(zip(orders, alphas)):
            if s < 0:
                raise ConfigError(f"derivative order s_{j} must be nonnegative")
            if len(al) != s:
                raise ConfigError(f"node {j} needs exactly s_j = {s} derivative scalings")
            if any(a == 0 for a in al):
                raise ConfigError(f"derivative scalings of node {j} must be nonzero")
        if any(w == 0 for w in weights):
            raise ConfigError("weight amplitudes must be nonzero")
        if not np.all(np.isfinite([*nodes, *weights, *sum(alphas, ())])):
            raise ConfigError("nodes, derivative scalings and weight amplitudes must be finite")
        z = np.array(nodes)
        if np.min(np.abs(z[:, None] - z[None, :])[~np.eye(sigma, dtype=bool)], initial=np.inf) <= NODE_GAP:
            raise ConfigError("nodes must be pairwise distinct")

    @property
    def sigma(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return sum(s + 1 for s in self.orders)


@dataclass(frozen=True)
class JordanSystem:
    """Square upper-bidiagonal matrix J and weight vector w of its size, both
    finite; ConfigError otherwise."""

    J: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        if (
            self.J.ndim != 2 or self.J.shape != self.w.shape * 2
            or np.any(np.tril(self.J, -1)) or np.any(np.triu(self.J, 2))
        ):
            raise ConfigError("J must be a square upper bidiagonal matrix and w a vector of its size")
        if not (np.all(np.isfinite(self.J)) and np.all(np.isfinite(self.w))):
            raise ConfigError("J and w must be finite")

    @property
    def m(self) -> int:
        return self.J.shape[0]


# The largest N a Gegenbauer-Sobolev problem may ask for (m = 4N - 2 = 510),
# a policy: a larger N is refused before any rule is built, since the base
# rule's eigenvector matrix grows as (8 sigma)^2 (17 GiB at N = 3000) and a
# report's matrices as m^2.
N_MAX = 128


@dataclass(frozen=True)
class GegenbauerSobolevConfig:
    """The Gegenbauer-Sobolev problem generating N functions; it owns the
    N - 1 prescribed poles (default the ladder -w, w, -2w, 2w, ...) and the
    node count sigma of the rule that discretizes it, and refuses an N
    outside 1 .. N_MAX."""

    mu: float
    lam: float
    omega: float
    N: int
    poles: tuple | None = None

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mu, self.lam, self.omega)):
            raise ConfigError("mu, lambda and omega must be finite")
        if self.mu <= -1.0:
            raise ConfigError("mu must exceed -1")
        if self.lam <= 0.0:
            raise ConfigError("lambda must be positive")
        if self.omega <= 1.0:
            raise ConfigError("omega must exceed 1")
        if self.N < 1:
            raise ConfigError("N must be at least 1")
        if self.N > N_MAX:
            raise ConfigError(f"N = {self.N} exceeds the largest size N_MAX = {N_MAX}")
        poles = tuple(gegenbauer_pole_ladder(self.omega, self.N - 1) if self.poles is None else self.poles)
        if len(poles) != self.N - 1:
            raise ConfigError(f"need N - 1 = {self.N - 1} prescribed poles, got {len(poles)}")
        object.__setattr__(self, "poles", poles)

    @property
    def sigma(self) -> int:
        """2(N-1) + 1 nodes: the exactness class of the rule carries each
        prescribed pole with multiplicity four (squared denominators of
        products of two functions, each with doubled poles)."""
        return 2 * self.N - 1


def gegenbauer_pole_ladder(omega: float, count: int) -> list[float]:
    """First `count` poles of the ladder -w, w, -2w, 2w, ..."""
    return [scalar(sign * k * omega) for k in range(1, count // 2 + 2) for sign in (-1, 1)][:count]


def gegenbauer_rule(config: GegenbauerSobolevConfig) -> QuadratureRule:
    """Rational Gauss rule discretizing the Gegenbauer-Sobolev inner product:
    config.sigma nodes, each prescribed pole with multiplicity four."""
    return rational_gauss(config.mu, [x for x in config.poles for _ in range(4)], config.sigma)


def discretize_gegenbauer(
    config: GegenbauerSobolevConfig,
    rule: QuadratureRule | None = None,
) -> DiscreteSobolevSpec:
    """Discrete Sobolev spec (s = 1 at every node) for the Gegenbauer-Sobolev
    inner product, on `gegenbauer_rule` or on an externally computed rule
    with the node count that rule would have.
    """
    if rule is None:
        rule = gegenbauer_rule(config)
    elif rule.n != config.sigma:
        raise ConfigError(f"imported rule has {rule.n} nodes, sizing requires {config.sigma}")
    sqrt_lam = math.sqrt(config.lam)
    return DiscreteSobolevSpec(
        nodes=tuple(rule.nodes),
        orders=(1,) * rule.n,
        alphas=((sqrt_lam,),) * rule.n,
        weights=tuple(math.sqrt(wj) for wj in rule.weights),
    )


def build_jordan(spec: DiscreteSobolevSpec) -> JordanSystem:
    """Assemble the block upper-bidiagonal matrix J and weight vector w.

    Block j carries z_j on its diagonal and (alpha_{s_j}, ..., alpha_1) down
    its superdiagonal; w holds w_j at the last index of block j.  Both take
    the type of the spec's scalars: real data give real J and w.
    """
    size = np.add(spec.orders, 1)
    dtype = np.asarray([*spec.nodes, *spec.weights, *sum(spec.alphas, ())]).dtype
    J, w = np.zeros((spec.m, spec.m), dtype), np.zeros(spec.m, dtype)
    np.fill_diagonal(J, np.repeat(spec.nodes, size))
    np.fill_diagonal(J[:, 1:], [a for al in spec.alphas for a in (*al[::-1], 0.0)][:-1])
    w[np.cumsum(size) - 1] = spec.weights
    return JordanSystem(J, w)


def default_pole_list(xi, m: int, free=None) -> list:
    """Pole list psi_1..psi_{m-1}: the prescribed prefix xi, then free poles.

    Free poles default to infinity, which keeps the trailing subdiagonal of K
    zero.  Every entry, prescribed or free, is normalized by one rule: an
    infinite pole becomes INFINITY, any other `scalar`'s float or complex; a
    NaN passes through, and each solver's `check_spectrum_disjoint` refuses it.
    """
    xi = list(xi)
    if len(xi) > m - 1:
        raise ConfigError(f"{len(xi)} prescribed poles exceed the m - 1 = {m - 1} available positions")
    free = [INFINITY] * (m - 1 - len(xi)) if free is None else list(free)
    if len(free) != m - 1 - len(xi):
        raise ConfigError(f"need exactly {m - 1 - len(xi)} free poles, got {len(free)}")
    return [INFINITY if is_infinite_pole(x) else scalar(x) for x in xi + free]


def check_spectrum_disjoint(poles, nodes, m: int) -> list:
    """The one pole-list contract of all three solvers, applied on entry and
    returning the poles as a list: exactly m - 1 of them (ValueError
    otherwise), and at the first offender a NaN pole raises ConfigError and
    a finite pole within NODE_GAP * max(1, |psi|) of a node raises
    SpectrumOverlapError.  An infinite pole (an infinite real or imaginary
    part, `is_infinite_pole`) passes."""
    poles = list(poles)
    if len(poles) != m - 1:
        raise ValueError(f"need m - 1 = {m - 1} poles, got {len(poles)}")
    p = np.array(poles)  # real unless a pole is complex: |x - t| is |(x + 0j) - t|, and cheaper
    finite = np.isfinite(p)
    bad = np.isnan(p) & ~np.isinf(p)  # NaN; neither NaN nor finite: an infinite pole
    if finite.any():
        q = p[finite]
        gap = np.abs(q[:, None] - np.asarray(nodes)).min(axis=1)  # to the nearest node
        bad[finite] = gap <= NODE_GAP * np.maximum(1.0, np.abs(q))
    if bad.any():
        k = int(bad.argmax())  # the first offender
        if finite[k]:
            raise SpectrumOverlapError(f"pole psi_{k + 1} = {poles[k]} coincides with a node")
        raise ConfigError(f"pole psi_{k + 1} = {poles[k]} is NaN")
    return poles
