"""Independent solution routes used to cross-check the updating solver.

`rational_arnoldi` builds the orthonormal basis of the rational Krylov
subspace generated by (J, w) with the prescribed pole sequence and reads the
pencil off the recurrence; shifted systems with the bidiagonal J are solved
by back substitution and the basis is kept orthogonal with a second
orthogonalization pass.

`solve_via_sop` first produces the recurrence matrix of the Sobolev
orthogonal polynomial sequence (all poles at infinity, K = I) and then
installs the poles, up to the last finite one, into the leading subpencil by
adding each one at the bottom position and swapping it upward.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from .errors import KrylovBreakdownError, SpectrumOverlapError
from .pencil import assert_unreduced, is_infinite_pole
from .sobolev import DiscreteSobolevSpec, JordanSystem, check_spectrum_disjoint
from .updating import IEPSolution, op2_add_pole, op3_swap_adjacent, solve_updating


def _solve_shifted_bidiagonal(J: np.ndarray, psi: complex, rhs: np.ndarray) -> np.ndarray:
    """Back substitution for (J - psi I) x = rhs with J upper bidiagonal."""
    n = J.shape[0]
    d = J.diagonal() - psi
    if np.min(np.abs(d)) <= 1e-14 * max(1.0, abs(psi)):
        raise SpectrumOverlapError(f"shift {psi} coincides with a node of J")
    e = J.diagonal(1)
    x = np.empty(n, dtype=complex)
    x[n - 1] = rhs[n - 1] / d[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = (rhs[i] - e[i] * x[i + 1]) / d[i]
    return x


def rational_arnoldi(sys: JordanSystem, poles) -> IEPSolution:
    """Full rational Krylov run producing an m-by-m pencil and basis.

    Column k of the pencil encodes the expansion of (J - psi_k I)^{-1} q_k
    (or J q_k for a polynomial step) in the basis built so far; the phase of
    each new basis vector is chosen so the H subdiagonal is nonnegative.
    Orthogonalization is classical Gram-Schmidt with one full
    reorthogonalization pass.
    """
    J, w = sys.J, sys.w
    m = J.shape[0]
    poles = list(poles)
    if len(poles) != m - 1:
        raise ValueError(f"need m - 1 = {m - 1} poles, got {len(poles)}")
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        raise KrylovBreakdownError("starting vector is zero")
    Q = np.zeros((m, m), dtype=complex)
    H = np.zeros((m, m), dtype=complex)
    K = np.zeros((m, m), dtype=complex)
    Q[:, 0] = w / wnorm
    for k in range(m - 1):
        psi = poles[k]
        infinite = is_infinite_pole(psi)
        v = J @ Q[:, k] if infinite else _solve_shifted_bidiagonal(J, complex(psi), Q[:, k])
        vnorm0 = np.linalg.norm(v)
        basis = Q[:, : k + 1]
        coeff = basis.conj().T @ v
        v = v - basis @ coeff
        extra = basis.conj().T @ v
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
            sub = complex(psi) * beta
            phase = sub / abs(sub) if sub != 0.0 else 1.0
            q_next = q_next * phase
            beta_eff = beta * np.conj(phase)
            K[: k + 1, k] = coeff
            K[k + 1, k] = beta_eff
            H[: k + 1, k] = complex(psi) * coeff
            H[k, k] += 1.0
            H[k + 1, k] = complex(psi) * beta_eff
        Q[:, k + 1] = q_next
    K[m - 1, m - 1] = 1.0
    H[:, m - 1] = Q.conj().T @ (J @ Q[:, m - 1])
    ortho = np.linalg.norm(Q.conj().T @ Q - np.eye(m), 2)
    if ortho > 1e-10:
        raise KrylovBreakdownError(f"basis lost orthogonality: {ortho:.3e}")
    if m > 1:
        assert_unreduced(H, K)
    return IEPSolution(H, K, Q, wnorm)


def solve_via_sop(spec: DiscreteSobolevSpec, poles) -> IEPSolution:
    """Polynomial-first route: all-infinite solve, normalize K to the
    identity, then add and swap the poles psi_1, psi_2, ... into the leading
    subpencil.

    `poles` may stop short of m - 1 entries; the positions after it keep
    their infinite poles, and so do trailing infinite entries, which are
    already in place and are not installed.
    """
    m = spec.m
    xi = list(poles)
    if len(xi) > m - 1:
        raise ValueError("more prescribed poles than pencil positions")
    check_spectrum_disjoint(xi, spec.nodes)
    while xi and is_infinite_pole(xi[-1]):
        xi.pop()
    sol = solve_updating(spec, [np.inf] * (m - 1))
    H, K, Q = sol.H.copy(), sol.K.copy(), sol.Q.copy()
    # all-infinite poles leave K upper triangular: fold it into H
    H = np.triu(solve_triangular(K.T, H.T, lower=True).T, -1)
    K = np.eye(m, dtype=complex)
    for j, pole in enumerate(xi):
        op2_add_pole(H, K, pole)
        for c in range(m - 3, j - 1, -1):
            op3_swap_adjacent(H, K, c, Q)
    if m > 1:
        assert_unreduced(H, K)
    return IEPSolution(H, K, Q, sol.wnorm)
