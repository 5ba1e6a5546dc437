"""Independent solution routes used to cross-check the updating solver.

`rational_arnoldi` builds the orthonormal basis of the rational Krylov
subspace generated by (J, w) with the prescribed pole sequence and reads the
pencil off the recurrence; each shifted system (J - psi I) x = q is one call
of LAPACK's banded solver `?gbsv` (J upper bidiagonal, looked up once per
pencil) once `check_spectrum_disjoint` has kept the poles off the nodes, and
the basis is kept orthogonal with a second orthogonalization pass.

`solve_via_sop` takes the recurrence matrix of the Sobolev orthogonal
polynomials from polynomial Arnoldi (all poles at infinity, K = I exactly;
no updating solve) and then installs the poles, up to the last finite one,
with the updating solver's loop `install_poles`: each is added at the bottom
and moved to its place by one LAPACK ?tgexc call, all on one copy of the
pencil.  Both routes take the caller's `JordanSystem` (J, w).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from .errors import KrylovBreakdownError
from .pencil import assert_unreduced, is_infinite_pole
from .sobolev import JordanSystem, check_spectrum_disjoint
from .updating import IEPSolution, install_poles
from .updating import op2_add_pole, op3_swap_adjacent, solve_updating  # noqa: F401 (traced here by name)


def rational_arnoldi(sys: JordanSystem, poles) -> IEPSolution:
    """Full rational Krylov run producing an m-by-m pencil and basis.

    Column k of the pencil encodes the expansion of (J - psi_k I)^{-1} q_k
    (or J q_k for a polynomial step) in the basis built so far; the phase of
    each new basis vector is chosen so the H subdiagonal is nonnegative.
    Orthogonalization is classical Gram-Schmidt with one full
    reorthogonalization pass.  Q, H and K take the type of J, w and poles.
    """
    J, w = sys.J, sys.w
    m = J.shape[0]
    poles = list(poles)
    if len(poles) != m - 1:
        raise ValueError(f"need m - 1 = {m - 1} poles, got {len(poles)}")
    diag = J.diagonal()
    check_spectrum_disjoint(poles, diag)
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        raise KrylovBreakdownError("starting vector is zero")
    X = np.zeros((3, m, m), np.result_type(J, w, np.asarray(poles)))  # the returned stack (H, K, Q^T)
    H, K, Q = X[0], X[1], np.zeros_like(X[2])
    Q[:, 0] = w / wnorm
    upper = np.concatenate(([0.0], J.diagonal(1)))  # band row 0: the superdiagonal after a leading 0
    gbsv = get_lapack_funcs("gbsv", (J, Q))
    for k in range(m - 1):
        psi = poles[k]
        infinite = is_infinite_pole(psi)
        if infinite:
            v = J @ Q[:, k]
        else:
            _, _, v, info = gbsv(0, 1, np.array((upper, diag - psi)), Q[:, k], overwrite_ab=True)
            if info != 0 or not np.isfinite(v).all():
                raise KrylovBreakdownError(f"shifted system at step {k + 1} is singular or not finite")
        vnorm0 = np.linalg.norm(v)
        basis = Q[:, : k + 1]
        coeff = (v.conj() @ basis).conj()
        v = v - basis @ coeff
        extra = (v.conj() @ basis).conj()
        v = v - basis @ extra
        coeff += extra
        beta = float(np.linalg.norm(v))
        if beta <= 1e-13 * vnorm0:
            raise KrylovBreakdownError(f"rational Krylov space degenerated at step {k + 1}")
        q_next = v / beta
        if infinite:
            K[k, k] = 1.0
            H[: k + 1, k] = coeff
            H[k + 1, k] = beta
        else:
            sub = psi * beta
            phase = sub / abs(sub) if sub != 0.0 else 1.0
            q_next = q_next * phase
            beta_eff = beta * np.conj(phase)
            K[: k + 1, k] = coeff
            K[k + 1, k] = beta_eff
            H[: k + 1, k] = psi * coeff
            H[k, k] += 1.0
            H[k + 1, k] = psi * beta_eff
        Q[:, k + 1] = q_next
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
    gives H with K = I, then the poles psi_1, psi_2, ... are added and
    moved into the leading subpencil.

    `poles` may stop short of m - 1 entries; the positions after it keep
    their infinite poles, and so do trailing infinite entries, which are
    already in place and are not installed.
    """
    m = sys.m
    xi = list(poles)
    if len(xi) > m - 1:
        raise ValueError("more prescribed poles than pencil positions")
    check_spectrum_disjoint(xi, sys.J.diagonal())
    while xi and is_infinite_pole(xi[-1]):
        xi.pop()
    sol = rational_arnoldi(sys, [np.inf] * (m - 1))
    install_poles(sol, xi, 0)
    assert_unreduced(sol.H, sol.K)
    return IEPSolution(sol.X, sol.wnorm)
