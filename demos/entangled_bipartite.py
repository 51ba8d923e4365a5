#!/usr/bin/env python3
"""The entangled bipartite state and how entanglement switches off at q = 1.

The q-coproduct Delta(K-) = q^{K0} (x) K- + K- (x) q^{-K0} is not symmetric
under swapping the nodes, and its eigenstate picks up a q^{n1 n2} factor that
no outer product can produce.  This script builds the state across q, tracks
the Schmidt spectrum, and shows the q > 1 route through crossing symmetry.
"""

import numpy as np

from bgstates import (BipartiteParams, QParam, build_q_bipartite, classical_bipartite,
                      crossing_transform, eigen_residual, fidelity, norm_series,
                      schmidt_entropy, solve_g_recurrence)

a1, a2, k1, k2, N = 0.3, 0.5, 1.0, 1.0, 50
boundary = 1.0      # delta: the geometric boundary row d_m = delta^m

print("== classical benchmark (factorized) ==")
classical = classical_bipartite(a1, a2, k1, k2, N, N)
spec = schmidt_entropy(classical)
print(f"residual {eigen_residual(classical):.2e}, entropy {spec.entropy:.2e}, "
      f"rank {spec.rank_eps}")

print()
print("== q = 0.9 entangled state ==")
params = BipartiteParams(a1, a2, k1, k2, QParam(0.9))
M = build_q_bipartite(params, boundary, N, N)
spec = schmidt_entropy(M)
print(f"interior residual {eigen_residual(M):.2e}")
print("leading singular values:", np.round(spec.singular_values[:4], 8))
print(f"entanglement entropy {spec.entropy:.6e}, eps-rank {spec.rank_eps}")

ns = norm_series(params, 1.0)
print(f"norm by single-index series  : {ns:.12f}")
g = solve_g_recurrence(boundary, params, 60, 60)
from bgstates.bipartite import _single_node_prefactors
p1 = _single_node_prefactors(a1, k1, params.q, 60)
p2 = _single_node_prefactors(a2, k2, params.q, 60)
direct = float(np.sum(np.abs(p1[:, None] * p2[None, :] * g) ** 2))
print(f"norm by direct double sum    : {direct:.12f}")

print()
print("== entanglement vs q ==")
print(f"{'q':>8} {'entropy':>12} {'sigma_2':>12} {'fidelity':>12}")
for q in (0.999, 0.99, 0.95, 0.9, 0.8, 0.6):
    params = BipartiteParams(a1, a2, k1, k2, QParam(q))
    Mq = build_q_bipartite(params, boundary, N, N)
    s = schmidt_entropy(Mq)
    print(f"{q:8.3f} {s.entropy:12.3e} {s.singular_values[1]:12.3e} "
          f"{fidelity(classical, Mq):12.8f}")

print()
print("== boundary families collapse to one classical limit ==")
qv = 1 - 1e-6
for s_exp in (0, 1, 2):
    params = BipartiteParams(a1, a2, k1, k2, QParam(qv))
    Mq = build_q_bipartite(params, qv ** s_exp, N, N)
    print(f"delta = q^{s_exp}: fidelity with classical = {fidelity(classical, Mq):.10f}")

print()
print("== q > 1 via crossing symmetry ==")
params = BipartiteParams(a1, a2, k1, k2, QParam(1.25))
print(f"q=1.25 maps to q={crossing_transform(params).q.value:.3f} with the nodes swapped")
M = build_q_bipartite(params, boundary, 45, 45)
print(f"q=1.25 state: residual {eigen_residual(M):.2e}, "
      f"entropy {schmidt_entropy(M).entropy:.3e}")
