"""Rational Gauss rules: exactness on rational functions with fixed poles.

A 5-node Gauss rule for the weight (1-t^2)^2 integrates polynomials of
degree 9 exactly, but fails badly on rational integrands with poles near the
interval.  Building the rule for the pole-modified measure instead makes it
exact on the rational class g(t) / (t^2 - 1.21)^4, deg g <= 9, at the same
node count.
"""

import numpy as np

from sorf import clenshaw_curtis, gauss_gegenbauer, rational_gauss
from sorf.driver import import_quadrature, rule_document

omega = 1.1
full_poles = [x for x in (-omega, omega) for _ in range(4)]
rational_rule = rational_gauss(2.0, full_poles, 5)
plain_rule = gauss_gegenbauer(2.0, 5)
reference = clenshaw_curtis(400)

print("5-node rules for the weight (1-t^2)^2:")
print("  rational Gauss nodes:", np.round(rational_rule.nodes, 6))
print("  plain Gauss nodes:   ", np.round(plain_rule.nodes, 6))

f = lambda t: 1.0 / (t**2 - omega**2)
exact = np.sum(reference.weights * f(reference.nodes) * (1 - reference.nodes**2) ** 2)
print(f"\nintegral of (1-t^2)^2 / (t^2 - {omega**2:.2f}):")
print(f"  reference        {exact:+.15f}")
for label, rule in (("rational Gauss", rational_rule), ("plain Gauss", plain_rule)):
    got = np.sum(rule.weights * f(rule.nodes))
    print(f"  {label:15s}  {got:+.15f}   rel err {abs(got - exact) / abs(exact):.2e}")

doc = rule_document(rational_rule)
round_tripped = import_quadrature(doc)
print("\nrule document round trip is bit exact:",
      list(round_tripped.nodes) == doc["nodes"] and list(round_tripped.weights) == doc["weights"])
