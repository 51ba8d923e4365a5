#!/usr/bin/env python3
"""Three independent routes to the bipartite recurrence coefficients.

Given the first row g_{0,m} = d_m, the recurrence
eta q^n g_{n,m+1} + xi q^{-m} g_{n+1,m} = g_{n,m} determines everything.
The solver propagates rows; the ansatz evaluates a q-binomial-weighted sum
over the boundary; geometric boundaries also have the closed form
q^{nm} delta^m xi^{-n} (delta eta; q^2)_n, the one states are built from.
Each route returns the whole (N1+1) x (N2+1) block.  Any implementation bug
breaks the triangle, which is why all three coexist.
"""

import numpy as np

from bgstates import (BipartiteParams, QParam, crossing_transform, g_ansatz_block,
                      g_closed_block, solve_g_recurrence)

params = BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7))
delta = 0.9     # a scalar boundary is the geometric row d_m = delta^m

g = solve_g_recurrence(delta, params, 12, 12)
worst_ansatz = np.max(np.abs(g_ansatz_block(delta, params, 12, 12) - g) / np.abs(g))
worst_closed = np.max(np.abs(g_closed_block(delta, params, 12, 12) - g) / np.abs(g))

print("geometric boundary d_m = 0.9^m, q = 0.7, indices <= 12:")
print(f"  recurrence vs q-binomial ansatz : max rel dev {worst_ansatz:.2e}")
print(f"  recurrence vs closed form       : max rel dev {worst_closed:.2e}")

print()
print("a non-geometric boundary still propagates and matches the ansatz:")
custom = [1.0 / (1.0 + 0.07 * m) for m in range(40)]     # d_0..d_39
g = solve_g_recurrence(custom, params, 10, 10)
worst = np.max(np.abs(g_ansatz_block(custom, params, 10, 10) - g) / np.abs(g))
print(f"  d_m = 1/(1+0.07m): max rel dev {worst:.2e}")

print()
print("sample of the q^{nm} structure that forbids factorization (|g|):")
with np.printoptions(precision=4, suppress=False, linewidth=100):
    print(np.abs(g[:5, :5]))

print()
print("crossing symmetry: solutions at (xi, eta, q) transpose to solutions")
print("at (eta, xi, 1/q), which is how q > 1 is reached:")
pc = BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1.25))
g_hat = solve_g_recurrence(delta, crossing_transform(pc), 11, 11).T
q, xi, eta = 1.25, pc.xi, pc.eta
worst = max(abs(eta * q ** n * g_hat[n, m + 1] + xi * q ** -m * g_hat[n + 1, m]
                - g_hat[n, m]) / abs(g_hat[n, m])
            for n in range(11) for m in range(11))
print(f"  original recurrence at q=1.25 satisfied to {worst:.2e}")
