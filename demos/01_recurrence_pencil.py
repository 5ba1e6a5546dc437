"""Build a recurrence pencil for Sobolev orthonormal rational functions.

The target inner product combines a function term and a derivative term
against the weight (1 - t^2)^2 on [-1, 1]:

    (f, g) = int f g (1-t^2)^2 dt + int f' g' (1-t^2)^2 dt

and the first three functions carry the prescribed poles -1.1 and 1.1.
Discretizing with a 5-node rational Gauss rule turns the construction into a
10x10 inverse eigenvalue problem whose solution pencil holds the recurrence
coefficients, with the poles encoded as subdiagonal ratios.
"""

import numpy as np

from sorf import (
    GegenbauerSobolevConfig,
    build_jordan,
    default_pole_list,
    discretize_gegenbauer,
    metric_orthonormality,
    metric_poles,
    metric_recurrence,
    solve_updating,
)

config = GegenbauerSobolevConfig(mu=2.0, lam=1.0, omega=1.1, N=3)
spec = discretize_gegenbauer(config)
print(f"quadrature nodes ({spec.sigma}):")
print(np.array([z.real for z in spec.nodes]))

system = build_jordan(spec)
print(f"\nmatrix size m = {system.m}; weight vector pattern (zeros at derivative slots):")
print(np.round(np.abs(system.w), 4))

poles = default_pole_list(config.poles, spec.m)
print(f"\nprescribed poles: {list(config.poles)}; remaining positions default to infinity")

solution = solve_updating(spec, poles)
print("\nsubdiagonal pole ratios of the computed pencil:")
for k, pole in enumerate(solution.poles()):
    print(f"  position {k + 1}: {pole}")

print("\nerror metrics:")
print(f"  recurrence residual   {metric_recurrence(system, solution):.3e}")
print(f"  pole placement        {metric_poles(solution, poles):.3e}")
print(f"  basis orthonormality  {metric_orthonormality(solution):.3e}")
