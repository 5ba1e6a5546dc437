"""Independent solution routes used to cross-check the updating solver.

`rational_arnoldi` builds the orthonormal basis of the rational Krylov
subspace generated by (J, w) with the prescribed pole sequence and reads the
pencil off the recurrence, every step from the pole's homogeneous pair
(mu, nu) with one rule for finite and infinite poles; each shifted system
(J - mu I) x = q is one call of LAPACK's banded solver `?gbsv` (J upper
bidiagonal, looked up once per pencil) once `check_spectrum_disjoint` has
kept the poles off the nodes, and the basis is kept orthogonal with a second
orthogonalization pass.

`solve_via_sop` takes the recurrence matrix of the Sobolev orthogonal
polynomials from polynomial Arnoldi (all poles at infinity, K = I exactly;
no updating solve) and then installs the poles, up to the last finite one,
with the updating solver's loop `install_poles`: each is added at the bottom
and moved to its place by one LAPACK ?tgexc call, all on one copy of the
pencil.  Both routes take the caller's `JordanSystem` (J, w).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import KrylovBreakdownError
from .pencil import assert_unreduced, is_infinite_pole, pole_pair
from .sobolev import JordanSystem, check_spectrum_disjoint
from .updating import IEPSolution, install_poles
from .updating import op2_add_pole, op3_swap_adjacent, solve_updating  # noqa: F401 (traced here by name)


def _norm(v: np.ndarray) -> float:
    """`np.linalg.norm` of a contiguous vector by numpy's own formula, the
    square root of v.v (of the real and imaginary parts' sum for complex
    data), without its per-call checks."""
    if v.dtype.kind == "c":
        return math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
    return math.sqrt(v.dot(v))


def rational_arnoldi(sys: JordanSystem, poles) -> IEPSolution:
    """Full rational Krylov run producing an m-by-m pencil and basis.

    Step k takes the homogeneous pole pair (mu, nu) = pole_pair(psi_k),
    (psi_k, 1) at a finite pole and (1, 0) at infinity (Berljafa and
    Guttel's rational Arnoldi decomposition).  nu chooses two things only:
    the vector v, (J - mu I)^{-1} q_k or J q_k, and K's column, v's
    coefficients c in the basis Q[:, : k + 2] or e_k.  The rest is one path
    for every pole: the phase of q_{k+1} makes H's subdiagonal mu * beta
    real and nonnegative (phase 1 at infinity), and H's column is mu * c,
    plus e_k at a finite pole, since J Q (nu c + (1 - nu) e_k) equals
    Q (mu c + nu e_k).  Orthogonalization is classical Gram-Schmidt with
    one full reorthogonalization pass.  Q, H and K take the type of J, w and
    poles; `poles` meets the solvers' one contract, `check_spectrum_disjoint`.
    """
    J, w, m, diag = sys.J, sys.w, sys.m, sys.J.diagonal()
    poles = check_spectrum_disjoint(poles, diag, m)
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        raise KrylovBreakdownError("starting vector is zero")
    X = np.zeros((3, m, m), np.result_type(J, w, np.asarray(poles)))  # the returned stack (H, K, Q^T)
    H, K, Q = X[0], X[1], np.zeros_like(X[2])
    Q[:, 0] = w / wnorm
    upper = np.concatenate(([0.0], J.diagonal(1)))  # band row 0: the superdiagonal after a leading 0
    gbsv = get_lapack_funcs("gbsv", (J, Q))
    for k in range(m - 1):
        mu, nu = pole_pair(poles[k])  # nu chooses the solve and K's column; the rest is one path
        if nu:
            _, _, v, info = gbsv(0, 1, np.array((upper, diag - mu)), Q[:, k], overwrite_ab=True)
            if info != 0 or not np.isfinite(v).all():
                raise KrylovBreakdownError(f"shifted system at step {k + 1} is singular or not finite")
        else:
            v = J @ Q[:, k]
        vnorm0 = _norm(v)
        basis = Q[:, : k + 1]
        coeff = (v.conj() @ basis).conj()
        v = v - basis @ coeff
        extra = (v.conj() @ basis).conj()
        v = v - basis @ extra
        coeff += extra
        beta = _norm(v)
        if beta <= 1e-13 * vnorm0:
            raise KrylovBreakdownError(f"rational Krylov space degenerated at step {k + 1}")
        sub = mu * beta  # H's subdiagonal before the phase: beta itself at infinity
        phase = sub / abs(sub) if sub != 0.0 else 1.0
        np.multiply(v / beta, phase, out=Q[:, k + 1])
        last = beta * np.conj(phase)  # the coefficient of Q[:, k + 1]
        np.multiply(mu, coeff, out=H[: k + 1, k])
        H[k + 1, k] = mu * last
        if nu:
            K[: k + 1, k], K[k + 1, k] = coeff, last
            H[k, k] += 1.0
        else:
            K[k, k] = 1.0
    K[m - 1, m - 1] = 1.0
    QH = Q.conj().T
    H[:, m - 1] = QH @ (J @ Q[:, m - 1])
    ortho = np.linalg.norm(QH @ Q - np.eye(m))
    if ortho > 1e-10:
        raise KrylovBreakdownError(f"basis lost orthogonality: {ortho:.3e}")
    assert_unreduced(H, K)
    X[2] = Q.T  # Q stays C-ordered for the Gram-Schmidt products above
    return IEPSolution(X, wnorm)


def solve_via_sop(sys: JordanSystem, poles) -> IEPSolution:
    """Polynomial-first route on the Jordan system `sys`: polynomial Arnoldi
    gives H with K = I, then the poles psi_1 .. psi_{m-1} are added and
    moved into the leading subpencil.  `poles` meets the solvers' one
    contract, `check_spectrum_disjoint`; its trailing infinite entries are
    already in place and are not installed.
    """
    m = sys.m
    xi = check_spectrum_disjoint(poles, sys.J.diagonal(), m)
    while xi and is_infinite_pole(xi[-1]):
        xi.pop()
    sol = rational_arnoldi(sys, [np.inf] * (m - 1))
    install_poles(sol, xi, 0)
    assert_unreduced(sol.H, sol.K)
    return IEPSolution(sol.X, sol.wnorm)
