"""Evaluation of the recurrence functions, moment matrices and error metrics.

The functions r_0, r_1, ... encoded by an unreduced Hessenberg pencil obey

    r_j(t) (t K[j+1,j] - H[j+1,j]) = sum_{i<=j} r_{i-1}(t) (H[i,j] - t K[i,j])

(1-based columns), with r_0 = 1/||w||_2.  Derivatives propagate through the
product rule, so no numerical differentiation enters the tables; finite
differences are used only by the tests.  A table tests every denominator
t K[j+1,j] - H[j+1,j] at once before it forms any function; column j then
forms the H- and K-combinations of r_0 .. r_{j-1}, for every derivative
order and point, in one product, and the right-hand sides of every order in
one array expression; only the product-rule term in r_j^(d-1) waits for the
loop over orders.

Moment matrices collect the inner products of the computed functions.  Both
are sums sum_{d,j} c[d, j] v_dj v_dj^H over the (derivative, point) axes of a
table, v_dj = (r_k^(d)(t_j))_k, and one Gram kernel assembles them: the
discrete one with the coefficients of the spec's inner product at its nodes,
the continuous one with cached Clenshaw-Curtis weights times (1-t^2)^mu for
values and lambda times those for first derivatives.  Its doubled-order
check reuses one table: the check rule's nodes are every other node of the
rule on twice as many intervals.
Every metric's spectral norm is `_norm2`'s top Gram eigenvalue, not an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import AccuracyError, PoleCollisionError
from .quadrature import clenshaw_curtis
from .sobolev import DiscreteSobolevSpec
from .updating import IEPSolution

#: Clenshaw-Curtis order (intervals) of the continuous moment matrix's check
#: rule; the matrix is taken on twice as many intervals, whose 2 * CC_ORDER + 1
#: nodes contain the CC_ORDER + 1 nodes of the check rule
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
    recurrence (vanishing denominator t K[j+1,j] - H[j+1,j]) is refused,
    naming the lowest such r_j and its first such point.  The table takes
    the type of the points and the pencil.
    """
    m = H.shape[0]
    if nfun is None:
        nfun = m
    if not 1 <= nfun <= m:
        raise ValueError(f"nfun must lie in 1..{m}")
    if max_deriv < 0:
        raise ValueError("max_deriv must be >= 0")
    pts = np.atleast_1d(np.asarray(points))
    if pts.ndim != 1:
        raise ValueError("points must be a scalar or a 1-D array")
    n = nfun - 1
    hsub, ksub = np.diagonal(H, -1)[:n, None], np.diagonal(K, -1)[:n, None]
    denom = (tk := pts * ksub) - hsub
    bad = np.abs(denom) <= 1e-13 * (np.abs(tk) + np.abs(hsub))
    if np.any(bad):
        j, i = np.argwhere(bad)[0]
        raise PoleCollisionError(f"evaluation point {pts[i]} collides with a pole of r_{j + 1}")
    HK = np.stack((H[:n, :n], K[:n, :n]))
    vals = np.zeros((nfun, max_deriv + 1, pts.size), np.result_type(pts, H, K))
    vals[0, 0, :] = 1.0 / wnorm
    orders = np.arange(1, max_deriv + 1, dtype=vals.dtype)[:, None]
    dk = orders * ksub[:, 0]  # d K[j+1, j]
    for j in range(1, nfun):
        hv, kv = (HK[:, :j, j - 1] @ vals[:j].reshape(j, -1)).reshape(2, max_deriv + 1, -1)
        rhs = hv - pts * kv
        rhs[1:] -= orders * kv[:-1]  # product rule, the terms in r_0 .. r_{j-1}
        row, dn = vals[j], denom[j - 1]
        np.divide(rhs[0], dn, out=row[0])
        for d in range(1, max_deriv + 1):  # product rule, the term in r_j^(d-1)
            r = rhs[d]
            r -= dk[d - 1, j - 1] * row[d - 1]
            np.divide(r, dn, out=row[d])
    return SorfTable(vals, pts)


def evaluate_solution(sol: IEPSolution, points, max_deriv: int = 0) -> SorfTable:
    return evaluate_sorfs(sol.H, sol.K, sol.wnorm, points, max_deriv)


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

    Entries are Clenshaw-Curtis integrals on 2 * CC_ORDER + 1 points (one
    cached rule per order) with the weight (1-t^2)^mu folded into the
    integrand, accepted only when the nested CC_ORDER + 1 point rule, whose
    nodes are every other one of those points, reproduces them to 1e-12
    relative; the functions are evaluated once, on the finer rule.  The rule
    samples t = +-1, where the weight is infinite for mu < 0, so such a
    weight is refused before any evaluation.
    """
    if mu < 0.0:
        raise AccuracyError("mu < 0: (1-t^2)^mu is infinite at the Clenshaw-Curtis nodes t = +-1")
    coarse, fine = clenshaw_curtis(CC_ORDER + 1), clenshaw_curtis(2 * CC_ORDER + 1)
    values = evaluate_sorfs(H, K, wnorm, fine.nodes, max_deriv=1, nfun=n).values

    def assemble(rule, vals: np.ndarray) -> np.ndarray:
        wq = rule.weights * (1.0 - rule.nodes**2) ** mu
        return _gram(vals, np.stack((wq, lam * wq)))

    M1 = assemble(coarse, values[:, :, ::2])
    M2 = assemble(fine, values)
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
    # G.T: F-ordered, G's eigenvalues
    lam, _, _, _, info = evr(G.T, compute_v=0, range="I", il=len(G), iu=len(G), overwrite_a=1)
    if info != 0:
        raise AccuracyError(f"?syevr/?heevr did not converge on a Gram matrix (info {info})")
    return s * np.sqrt(lam[0])


def metric_recurrence(sys, sol: IEPSolution) -> float:
    """E_r = ||J Q K - Q H||_2 / ||Q H||_2; J Q from J's two diagonals.

    ||J Q K||_2 and ||Q H||_2 differ by at most the numerator, so dividing by
    ||Q H||_2 in place of the larger of the two moves E_r by at most E_r
    relative, and one spectral norm is saved."""
    JQ = np.diagonal(sys.J)[:, None] * sol.Q
    JQ[:-1] += np.diagonal(sys.J, 1)[:, None] * sol.Q[1:]
    QH = sol.Q @ sol.H
    return float(_norm2(JQ @ sol.K - QH) / _norm2(QH))


def metric_poles(sol: IEPSolution, poles) -> float:
    """E_p = max_k |r_k - t_k| / s_k over the prescribed poles psi_k (0 for
    an empty list), with h_k, k_k the subdiagonal entries (k+1, k) of H, K:
    r_k = h_k / k_k, t_k = psi_k, s_k = |psi_k| at a finite nonzero pole;
    r_k = h_k / k_k, t_k = 0, s_k = 1 at a zero pole; and r_k = k_k / h_k,
    t_k = 0, s_k = 1 at an infinite one.  An exactly zero denominator
    scores inf, a ratio past the float range inf or NaN, without a
    floating-point warning."""
    psi = np.asarray(poles)
    h, k = np.diagonal(sol.H, -1)[: psi.size], np.diagonal(sol.K, -1)[: psi.size]
    infinite = np.isinf(psi)
    num, den = np.where(infinite, k, h), np.where(infinite, h, k)
    if np.any(den == 0.0):
        return np.inf
    plain = infinite | (psi == 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a ratio past the float range scores inf or NaN
        d = num / den - np.where(plain, 0.0, psi)
        # hypot, the scalar |z|: numpy's vectorized complex abs can differ in the last bit
        err = np.hypot(d.real, d.imag) / np.where(plain, 1.0, np.hypot(psi.real, psi.imag))
    return float(np.max(err, initial=0.0))


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
