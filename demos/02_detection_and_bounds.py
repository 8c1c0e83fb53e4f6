"""Entanglement detection and analytic lower bounds for mixed states.

The partial-transpose and realignment trace norms both equal 1 on
separable states; a value above 1 certifies entanglement and feeds an
explicit lower bound on the measure (one bound family per regime).
"""

import numpy as np

from qsconc import (
    bound_auto,
    classify,
    cqs_pure,
    detect,
    isotropic,
    max_entangled,
    pure_state_norm,
    random_mixed,
    schmidt,
    bound_value_auto,
    werner,
)

print("== detection report for named states ==")
for label, rho in [
    ("isotropic F=0.8 d=3", isotropic(0.8, 3)),
    ("isotropic F=0.3 d=3 (separable)", isotropic(0.3, 3)),
    ("werner w=0.9 d=2", werner(0.9, 2)),
    ("werner w=0.4 d=2 (separable)", werner(0.4, 2)),
]:
    rep = detect(rho)
    print(f"{label:35s} ppt={rep.ppt_norm:.4f} realign={rep.realign_norm:.4f} "
          f"detected_by={rep.detected_by.value}")

print()
print("== regime-A bound (valid for q>=2, s>=1.1391 or s>=1, q>=2.4721) ==")
p22 = classify(2, 2)
for f in (0.5, 0.6, 0.8, 1.0):
    rep = bound_auto(isotropic(f, 3), p22)
    print(f"isotropic F={f:.2f}: norm={rep.max_norm:.4f} lower_bound={rep.lower_bound:.6f}")

print()
print("== regime-B bound (0<q<1, s<0.9066) is tight on Bell pairs ==")
p55 = classify(0.5, 0.5)
bell = max_entangled(2)
rep = bound_auto(bell.to_density(), p55)
exact = cqs_pure(bell, p55)
print(f"bound {rep.lower_bound:.9f} vs exact {exact:.9f} (2^0.25 - 1)")

print()
print("== bounds never exceed the pure-state measure ==")
worst = 0.0
for seed in range(100):
    psi_dims = [(2, 2), (2, 3), (3, 3)][seed % 3]
    from qsconc import haar_random_pure

    psi = haar_random_pure(psi_dims, seed=seed)
    spec = schmidt(psi).values
    lb = bound_value_auto(pure_state_norm(spec), min(psi_dims), p22)
    exact = cqs_pure(psi, p22)
    worst = max(worst, lb - exact)
print(f"max (bound - exact) over 100 random pure states: {worst:.2e}")

print()
print("== random mixed states: bound only fires when detection fires ==")
for seed in range(5):
    rho = random_mixed((2, 2), 2, seed=seed)
    rep = bound_auto(rho, p22)
    print(f"seed {seed}: detected_by={rep.detected_by.value:12s} "
          f"lower_bound={rep.lower_bound:.6f}")
