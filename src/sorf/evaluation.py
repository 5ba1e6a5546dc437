"""Evaluation of the recurrence functions, moment matrices and error metrics.

The functions r_0, r_1, ... encoded by an unreduced Hessenberg pencil obey

    r_j(t) (t K[j+1,j] - H[j+1,j]) = sum_{i<=j} r_{i-1}(t) (H[i,j] - t K[i,j])

(1-based columns), with r_0 = 1/||w||_2.  Derivatives propagate through the
product rule, so no numerical differentiation enters the tables; finite
differences are used only by the tests.

Moment matrices collect the inner products of the computed functions.  Both
are sums sum_{d,j} c[d, j] v_dj v_dj^H over the (derivative, point) axes of a
table, v_dj = (r_k^(d)(t_j))_k, and one Gram kernel assembles them: the
discrete one with the coefficients of the spec's inner product at its nodes,
the continuous one with cached Clenshaw-Curtis weights times (1-t^2)^mu for
values and lambda times those for first derivatives (doubled-order check).
Every metric's spectral norm is `_norm2`'s top Gram eigenvalue, not an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import AccuracyError, PoleCollisionError
from .pencil import is_infinite_pole
from .quadrature import clenshaw_curtis
from .sobolev import DiscreteSobolevSpec
from .updating import IEPSolution

#: Clenshaw-Curtis order of the continuous moment matrix (checked against
#: twice this order)
CC_ORDER = 400


@dataclass(frozen=True)
class SorfTable:
    """values[k, d, j] = d-th derivative of function k at points[j]."""

    values: np.ndarray
    points: np.ndarray

    @property
    def nfun(self) -> int:
        return self.values.shape[0]

    @property
    def max_deriv(self) -> int:
        return self.values.shape[1] - 1


def evaluate_sorfs(
    H: np.ndarray,
    K: np.ndarray,
    wnorm: float,
    points,
    max_deriv: int = 0,
    nfun: int | None = None,
) -> SorfTable:
    """Evaluate functions r_0 .. r_{nfun-1} and derivatives at the points.

    Column j of the pencil yields r_j; evaluation close to a pole of the
    recurrence (vanishing denominator t K[j+1,j] - H[j+1,j]) is refused.
    The table takes the type of the points and the pencil.
    """
    m = H.shape[0]
    if nfun is None:
        nfun = m
    if not 1 <= nfun <= m:
        raise ValueError(f"nfun must lie in 1..{m}")
    pts = np.atleast_1d(np.asarray(points))
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
            if d > 0:  # product rule; kv_prev is the K-column term of order d - 1
                rhs -= d * kv_prev
                rhs -= d * K[j, j - 1] * vals[j, d - 1, :]
            vals[j, d, :] = rhs / denom
            kv_prev = kv
    return SorfTable(vals, pts)


def evaluate_solution(sol: IEPSolution, points, max_deriv: int = 0, nfun: int | None = None) -> SorfTable:
    return evaluate_sorfs(sol.H, sol.K, sol.wnorm, points, max_deriv, nfun)


def _gram(values: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """(V * c) @ V^H with V = values flattened over the (derivative, point)
    axes: sum over d, j of coeffs[d, j] v[:, d, j] conj(v[:, d, j])^T.
    Derivative rows of `values` beyond those of `coeffs` are ignored."""
    V = values[:, : coeffs.shape[0], :].reshape(values.shape[0], -1)
    return (V * coeffs.reshape(-1)) @ V.conj().T


def _derivative_coefficients(spec: DiscreteSobolevSpec) -> np.ndarray:
    """c[i, j] = |w_j|^2 |prod_{r<=i} alpha_r^(j) / i!|^2 for i <= s_j, else 0."""
    c = np.zeros((max(spec.orders) + 1, spec.sigma))
    for j, (s, al, wj) in enumerate(zip(spec.orders, spec.alphas, spec.weights)):
        c[0, j] = abs(wj) ** 2
        for i in range(1, s + 1):
            c[i, j] = c[i - 1, j] * abs(al[i - 1] / i) ** 2
    return c


def discrete_moment_matrix(spec: DiscreteSobolevSpec, table: SorfTable) -> np.ndarray:
    """Gram matrix of the tabulated functions under the discrete inner product."""
    if table.points.size != spec.sigma:
        raise ValueError("table points do not match the spec nodes")
    if table.max_deriv < max(spec.orders):
        raise ValueError("table lacks the derivative orders required by the spec")
    return _gram(table.values, _derivative_coefficients(spec))


def continuous_moment_matrix(
    H: np.ndarray,
    K: np.ndarray,
    wnorm: float,
    mu: float,
    lam: float,
    n: int,
) -> np.ndarray:
    """Gram matrix under the continuous Gegenbauer-Sobolev inner product.

    Entries are Clenshaw-Curtis integrals of order CC_ORDER (one cached
    rule per order) with the weight (1-t^2)^mu folded into the integrand,
    accepted only when doubling the order reproduces them to 1e-12
    relative.  The rule samples t = +-1, where the weight is infinite for
    mu < 0, so such a weight is refused before any evaluation.
    """
    if mu < 0.0:
        raise AccuracyError("mu < 0: (1-t^2)^mu is infinite at the Clenshaw-Curtis nodes t = +-1")

    def assemble(order: int) -> np.ndarray:
        rule = clenshaw_curtis(order)
        t = rule.nodes
        table = evaluate_sorfs(H, K, wnorm, t, max_deriv=1, nfun=n)
        wq = rule.weights * (1.0 - t**2) ** mu
        return _gram(table.values, np.stack((wq, lam * wq)))

    M1 = assemble(CC_ORDER)
    M2 = assemble(2 * CC_ORDER)
    # a NaN passes any `>` bound, so non-finite entries fail on their own
    if not (np.all(np.isfinite(M1)) and np.all(np.isfinite(M2))):
        raise AccuracyError("continuous moment matrix is not finite")
    scale = max(1.0, float(np.max(np.abs(M2))))
    if np.max(np.abs(M1 - M2)) > 1e-12 * scale:
        raise AccuracyError("continuous moment matrix failed the doubled-order self-check")
    return M2


def _norm2(A: np.ndarray) -> float:
    """||A||_2 = s sqrt(lambda_max(G)) for G = B^H B, B = A / s, s = max|A_ij|."""
    s = np.max(np.abs(A))
    if s == 0.0 or not np.isfinite(s):  # exactly 0.0 for a zero A; inf or NaN as it is
        return s
    G = (B := A / s).conj().T @ B  # |B_ij| <= 1: no square under- or overflows
    evr = get_lapack_funcs("heevr" if np.iscomplexobj(G) else "syevr", (G,))
    lam, _, _, _, info = evr(G.T, compute_v=0, range="I", il=len(G), iu=len(G), overwrite_a=1)  # G.T: F-ordered, G's eigenvalues
    if info != 0:
        raise AccuracyError(f"?syevr/?heevr did not converge on a Gram matrix (info {info})")
    return s * np.sqrt(lam[0])


def metric_recurrence(sys, sol: IEPSolution) -> float:
    """||J Q K - Q H||_2 / max(||J Q K||_2, ||Q H||_2); J Q from J's two diagonals."""
    JQ = np.diagonal(sys.J)[:, None] * sol.Q
    JQ[:-1] += np.diagonal(sys.J, 1)[:, None] * sol.Q[1:]
    JQK, QH = JQ @ sol.K, sol.Q @ sol.H
    return float(_norm2(JQK - QH) / max(_norm2(JQK), _norm2(QH)))


def metric_poles(sol: IEPSolution, poles) -> float:
    """Largest relative deviation of the pencil's subdiagonal ratios from the
    prescribed poles; infinite poles are scored by the reciprocal ratio and a
    zero pole by the absolute difference."""
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


def metric_orthonormality(sol: IEPSolution) -> float:
    """||Q^H Q - I||_2."""
    return metric_sobolev(sol.Q.conj().T @ sol.Q)


def metric_sobolev(M: np.ndarray) -> float:
    """||M - I||_2 for a moment matrix M."""
    return float(_norm2(M - np.eye(M.shape[0])))


def table_agreement(t1: SorfTable, t2: SorfTable) -> float:
    """Largest relative deviation between two tables after aligning each
    function's free unimodular factor (anchored at t1's largest value)."""
    if t1.values.shape != t2.values.shape:
        raise ValueError("tables have different shapes")
    f1 = t1.values.reshape(t1.nfun, -1)
    f2 = t2.values.reshape(t2.nfun, -1)
    idx = np.argmax(np.abs(f1), axis=1)[:, None]
    a1, a2 = np.take_along_axis(f1, idx, 1), np.take_along_axis(f2, idx, 1)
    if not a2.all():
        return np.inf
    u = a1 / a2
    u /= np.abs(u)
    return float((np.abs(f1 - u * f2).max(axis=1, keepdims=True) / np.abs(a1)).max(initial=0.0))
