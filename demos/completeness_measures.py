#!/usr/bin/env python3
"""Resolution of identity: the radial measures and their moment relations.

A family of coherent states resolves the identity iff the radial measure
reproduces the full ladder of moments.  The classical measure is
2 I_nu(2 rho) K_nu(2 rho); its q-deformation replaces both factors by
q-series.  Neither is taken on faith here: both are pushed through adaptive
Gauss-Legendre panels against the package's own normalization series.
"""

import numpy as np

from bgstates import QParam, classical_measure, measure, moment_check, q_measure

print("== classical measure ==")
print("g(rho^2) at nu=1 near rho=0 (I_1 K_1 product tends to 1/2 * 2):",
      f"{classical_measure(1e-6, 1):.6f}")

for k in (0.5, 1.0, 1.5):
    report = moment_check(5, k, "classical")
    print(f"k={k}: moments n=0..5 vs n! Gamma(n+2k), "
          f"max rel err {report.max_rel_err:.2e} "
          f"(R={report.upper_cutoff}, {report.node_count} nodes, "
          f"tail bound residual {report.tail_bound_residual:.1e})")

print()
print("== q-deformed measure ==")
for q in (0.95, 0.9):
    for k in (1.0, 1.5):
        report = moment_check(3, k, QParam(q))
        print(f"q={q}, k={k}: moments vs [n]_q! [n+2k-1]_q!, "
              f"max rel err {report.max_rel_err:.2e} (R={report.upper_cutoff:.0f})")
        for rec in report.records:
            print(f"    n={rec.n}: lhs={rec.lhs:.10g}  rhs={rec.rhs:.10g}  "
                  f"rel={rec.rel_err:.2e}")

print()
print("== pointwise classical limit of the q-measure ==")
grid = np.linspace(0.2, 5.0, 7)
for d in (2, 3, 4):
    q = 1 - 10.0 ** -d
    worst = max(abs(q_measure(float(r), 1, q) - classical_measure(float(r), 1))
                / classical_measure(float(r), 1) for r in grid)
    print(f"q = 1-1e-{d}: max relative deviation from 2 I_1 K_1 on [0.2,5] "
          f"= {worst:.3e}")

print()
print("== the printed log coefficient would not integrate ==")
measure.LOG_TERM_OFFSET = -3      # the printed form; -1 is the pinned value
report = moment_check(1, 1.0, QParam(0.9))
measure.LOG_TERM_OFFSET = -1
print("with (2l+nu-3) ln(q)/2 instead of (2l+nu-1) ln(q)/2 the moment")
print(f"relations fail catastrophically: rel errs = "
      f"{[f'{r.rel_err:.1e}' for r in report.records]}")
print("(the difference is a multiple of (I_nu^{(q)})^2, whose moments diverge)")
