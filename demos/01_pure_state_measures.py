"""Walk through the two-parameter measure on pure states.

The measure assigns eps * (1 - (sum lambda_i^q)^s) to a bipartite pure
state with Schmidt spectrum {lambda_i}. The sign factor eps keeps it
nonnegative on two exponent regimes: A (q >= 1, q*s >= 1, eps = +1) and
B (0 < q < 1, 0 < q*s < 1, eps = -1).
"""

import numpy as np

from qsconc import (
    classify,
    concurrence_pure,
    cqs_pure,
    haar_random_pure,
    max_entangled,
    normalized_cqs_pure,
    reduced_state,
    schmidt,
    unified_functional,
    PureState,
)

bell = max_entangled(2)
product = PureState((2, 2), np.array([1, 0, 0, 0], dtype=complex))
skewed = PureState((2, 2), np.sqrt([0.9, 0, 0, 0.1]).astype(complex))

print("== values across (q, s) pairs ==")
for q, s in [(2, 1), (2, 2), (3, 2), (0.5, 1), (0.5, 0.5)]:
    p = classify(q, s)
    row = [f"{cqs_pure(psi, p):.6f}" for psi in (bell, product, skewed)]
    print(f"(q={q}, s={s}, regime {p.regime.value}, eps {p.epsilon:+d}): "
          f"bell={row[0]} product={row[1]} skewed={row[2]}")

print()
print("== special cases ==")
p21 = classify(2, 1)
c = concurrence_pure(skewed)
print(f"concurrence(skewed) = {c:.6f}; C_(2,1) = C^2/2 = {c * c / 2:.6f} "
      f"= {cqs_pure(skewed, p21):.6f}")
print(f"normalized measure of a Bell pair is 1: "
      f"{normalized_cqs_pure(bell, classify(3, 2)):.6f}")

print()
print("== both reduced sides give the same value ==")
psi = haar_random_pure((3, 4), seed=42)
p = classify(2.5, 1.2)
va = unified_functional(reduced_state(psi, 0), p)
vb = unified_functional(reduced_state(psi, 1), p)
print(f"from rho_A: {va:.12f}")
print(f"from rho_B: {vb:.12f}")

print()
print("== maximally entangled states saturate the range bound ==")
for m in (2, 3, 4):
    p = classify(2, 2)
    val = unified_functional(np.full(m, 1 / m), p)
    print(f"m={m}: value {val:.9f} vs cap 1 - m^(s(1-q)) = {1 - m ** (2 * (1 - 2)):.9f}")

print()
print("== Schmidt spectra drive everything ==")
spec = schmidt(haar_random_pure((2, 3), seed=7))
print(f"random 2x3 state: spectrum {np.round(spec.values, 6)}, rank {spec.rank}")
