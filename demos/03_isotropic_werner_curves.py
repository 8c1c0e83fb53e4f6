"""Exact measure curves for isotropic and Werner states.

For both families the measure is a convex envelope: zero up to the
separability threshold, an analytic curve up to a breakpoint, then a
straight tail to the maximally entangled endpoint. This script prints
the piecewise data, compares the default, published (inflection)
envelope with the true convex envelope (tangent), which is the exact
measure, reproduces the published comparison curves, and writes a sweep
CSV through the CLI's closed-form command.
"""

import os
import tempfile

from qsconc import (
    cqs_isotropic,
    cqs_werner,
    isotropic_envelope,
    isotropic_curve,
    isotropic_extremum_oracle,
    reference_c3t_werner,
    reference_q_concurrence_isotropic,
    werner_envelope,
    werner_curve,
)
from qsconc.cli import main as qsconc_cli

print("== piecewise structure ==")
for label, env in [
    ("isotropic d=3 (q,s)=(2,2)", isotropic_envelope(2, 2, 3)),
    ("isotropic d=2 (q,s)=(2,2)", isotropic_envelope(2, 2, 2)),
    ("werner      (q,s)=(3,2)", werner_envelope(3, 2)),
]:
    print(f"{label}: zero below {env.sep_threshold:.4f}, analytic to "
          f"{env.breakpoint:.4f}, then {env.slope:.4f}*x {env.intercept:+.4f}")

print()
print("== default (inflection) vs true convex envelope (tangent) ==")
infl = isotropic_envelope(2, 2, 3)
tang = isotropic_envelope(2, 2, 3, method="tangent")
print(f"tangency point {tang.breakpoint:.4f} sits below the inflection "
      f"point {infl.breakpoint:.4f}; on the tail the tangent envelope is lower:")
for f in (0.75, 0.85, 0.95):
    print(f"  F={f:.2f}: inflection {infl(f):.6f}, tangent {tang(f):.6f}, "
          f"raw curve {isotropic_curve(f, 2, 2, 3):.6f}")

print()
print("== brute-force check of the extremal Schmidt profile ==")
for f in (0.5, 0.7, 0.9):
    ext = isotropic_extremum_oracle(f, 2, 2, 3)
    print(f"F={f:.2f}: minimizer n={ext.n}, m={ext.m_count}, value {ext.value:.9f} "
          f"(curve {isotropic_curve(f, 2, 2, 3):.9f})")

print()
print("== comparison with published single-exponent curves ==")
for f in (0.5, 0.7, 0.9, 1.0):
    print(f"F={f:.2f}: published envelope C_(2,2) = {cqs_isotropic(f, 2, 2, 3):.6f} >= "
          f"C_2 = {reference_q_concurrence_isotropic(f):.6f}")


def crossover() -> float:
    lo, hi = 0.94, 0.995
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cqs_werner(mid, 3, 2) > reference_c3t_werner(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


print(f"werner: C_(3,2) dominates C_3^t up to w = {crossover():.4f}, then dips below")

print()
print("== CSV export through the CLI's closed-form command ==")
argv = ["closed-form", "isotropic", "--q", "2", "--s", "2", "--d", "3",
        "--sweep", "0.34:1.0:0.02"]
with tempfile.TemporaryDirectory(prefix="qsconc-demo-") as tmp:
    path = os.path.join(tmp, "isotropic_d3_22.csv")
    if qsconc_cli([*argv, "--out", path]) != 0:
        raise SystemExit("closed-form sweep failed")
    with open(path) as fh:
        rows = sum(1 for line in fh) - 2  # less the '#' comment and the header
    print(f"wrote {path} with {rows} rows, removed on exit "
          f"(or run: qsconc {' '.join(argv)})")
