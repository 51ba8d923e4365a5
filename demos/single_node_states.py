#!/usr/bin/env python3
"""Single-node Barut-Girardello coherent states, three ways.

Walks through the basic construction: a K- eigenstate on the truncated
su(1,1) carrier space, first classical, then q-deformed, comparing the
coefficient-recurrence route with the operator-exponential route and
checking the eigenvalue equation by direct application of K-.
"""

import numpy as np

from bgstates import (CLASSICAL, QParam, apply_ladder, bessel_i_q,
                      build_by_operator_series, build_f_coherent, build_q_coherent)

alpha, k, N = 1.0, 1.0, 50

print("== classical state, alpha=1, k=1 ==")
classical = build_f_coherent(alpha, k, CLASSICAL, N)
print("first coefficients:", np.round(classical.coeffs[:6].real, 6))
print("normalization series sum:", classical.norm_before_truncation)
print("I_1(2) closed form:      ", bessel_i_q(1, 2.0, CLASSICAL))

residual = np.linalg.norm(apply_ladder("K-", classical).coeffs - alpha * classical.coeffs)
print(f"eigenvalue residual ||K- psi - alpha psi|| = {residual:.3e}")

print()
print("== q-deformed state, q=0.9 ==")
q = QParam(0.9)
state_q = build_q_coherent(alpha, k, q, N)
state_f = build_f_coherent(alpha, k, q, N)
print("q-ratio vs deformation-map construction, max deviation:",
      f"{np.max(np.abs(state_q.coeffs - state_f.coeffs)):.3e}")

series = build_by_operator_series(alpha, k, q, N)
print("operator-exponential construction,     max deviation:",
      f"{np.max(np.abs(series.coeffs - state_q.coeffs)):.3e}")

res_q = np.linalg.norm(apply_ladder("K-", state_q).coeffs - alpha * state_q.coeffs)
print(f"eigenvalue residual = {res_q:.3e}")

print()
print("== classical limit ==")
for d in (2, 4, 6):
    qv = 1 - 10.0 ** -d
    s = build_q_coherent(alpha, k, QParam(qv), N)
    fid = abs(np.vdot(classical.coeffs, s.coeffs))
    print(f"q = 1-1e-{d}: fidelity with classical state = {fid:.10f}")

print()
print("== a custom deformation map ==")
s = build_f_coherent(0.8, 1.5, lambda x: 1.0 + 0.5 / (1.0 + x), N)
res_c = np.linalg.norm(apply_ladder("K-", s).coeffs - 0.8 * s.coeffs) / 0.8
print(f"f(x) = 1 + 0.5/(1+x): eigenvalue residual = {res_c:.3e}")
