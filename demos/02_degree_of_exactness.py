"""Degree of exactness of the discretized inner product.

The discretization is exact only on a finite-dimensional space of rational
functions, sized so that the first N functions are orthonormal for the
continuous inner product as well.  The moment matrices make this visible:
the discrete one is the identity to machine precision everywhere, while the
continuous one is the identity only on its leading N x N block and degrades
sharply outside.
"""

import numpy as np

from sorf import (
    GegenbauerSobolevConfig,
    continuous_moment_matrix,
    default_pole_list,
    discrete_moment_matrix,
    discretize_gegenbauer,
    evaluate_solution,
    gegenbauer_pole_ladder,
    solve_updating,
)

N = 3
config = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=N)
spec = discretize_gegenbauer(config)
xi = gegenbauer_pole_ladder(config.omega, N - 1)
poles = default_pole_list(xi, spec.m, nodes=spec.nodes)
solution = solve_updating(spec, poles)

table = evaluate_solution(solution, np.array(spec.nodes), max_deriv=1)
Md = discrete_moment_matrix(spec, table)
print(f"discrete moment matrix:   max |Md - I| = {np.max(np.abs(Md - np.eye(spec.m))):.3e}")

Mc = continuous_moment_matrix(solution.H, solution.K, solution.wnorm, config.mu, config.lam, n=spec.m)
D = np.abs(Mc - np.eye(spec.m))
print(f"continuous moment matrix: max |Mc - I| on leading {N}x{N} block = {np.max(D[:N, :N]):.3e}")
outside = D.copy()
outside[:N, :N] = 0.0
print(f"                          max |Mc - I| outside the block    = {np.max(outside):.3e}")

print("\nlog10 |Mc - I| by entry (floor at -16):")
with np.errstate(divide="ignore"):
    logD = np.maximum(np.log10(D), -16.0)
for row in logD:
    print("  " + " ".join(f"{v:6.1f}" for v in row))
