"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch) and
asserts its stated tolerance and runtime budget.  Tolerances are pinned here,
not configurable.
"""

import math
import time

import numpy as np

from bgstates import bipartite as bp
from bgstates import costate as cs
from bgstates import measure as me
from bgstates import repalg as ra
from bgstates.qspecial import CLASSICAL, QParam, bessel_i_q, q_binomial


def _report(num, title, ok, detail, elapsed, budget):
    line = (f"[acceptance] criterion {num:2d} ({title}): "
            f"{'PASS' if ok else 'FAIL'} — {detail}; {elapsed:.2f}s (budget {budget:.0f}s)")
    print(line)
    assert ok, line


def _single_state(q_label, alpha, k, n=50):
    if q_label == "classical":
        return cs.build_f_coherent(alpha, k, CLASSICAL, n)
    return cs.build_q_coherent(alpha, k, QParam(q_label), n)


def _km_residual(state):
    lowered = ra.apply_ladder("K-", state).coeffs
    return float(np.linalg.norm(lowered - state.alpha * state.coeffs)) / abs(state.alpha)


# 12 tuples spanning q in {0.5, 0.7, 0.9, classical} x k in {1/2, 1, 3/2},
# |alpha| <= 1.5
GRID = [
    (0.5, 0.5, 0.8), (0.5, 1.0, 1.5), (0.5, 1.5, 0.6 + 0.5j),
    (0.7, 0.5, 1.2), (0.7, 1.0, 0.3 - 0.9j), (0.7, 1.5, 1.4),
    (0.9, 0.5, 0.9j), (0.9, 1.0, 1.1), (0.9, 1.5, 0.7 + 0.7j),
    ("classical", 0.5, 1.5), ("classical", 1.0, 0.8 + 0.4j), ("classical", 1.5, 1.3),
]


def test_criterion_1_single_node_eigenvector():
    t0 = time.time()
    worst = 0.0
    for q_label, k, alpha in GRID:
        worst = max(worst, _km_residual(_single_state(q_label, alpha, k)))
    elapsed = time.time() - t0
    _report(1, "single-node eigenvector law", worst <= 1e-9 and elapsed < 1.0,
            f"max residual {worst:.2e} (tol 1e-9) over 12 tuples", elapsed, 1)


def test_criterion_2_operator_series_crosscheck():
    t0 = time.time()
    worst = 0.0
    for q_label, k, alpha in GRID:
        dmap = CLASSICAL if q_label == "classical" else QParam(q_label)
        a = cs.build_by_operator_series(alpha, k, dmap, 50)
        b = cs.build_f_coherent(alpha, k, dmap, 50)
        worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    elapsed = time.time() - t0
    _report(2, "operator-series vs recurrence", worst <= 1e-10 and elapsed < 1.0,
            f"max componentwise deviation {worst:.2e} (tol 1e-10)", elapsed, 1)


def test_criterion_3_g_oracle_triangle():
    t0 = time.time()
    worst = 0.0
    for q in (0.5, 0.7, 0.9):
        for delta in (0.9, 1.0, 1.1):
            params = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
            g = bp.solve_g_recurrence(delta, params, 14, 14)
            ansatz = bp.g_ansatz_block(delta, params, 14, 14)
            closed = bp.g_closed_block(delta, params, 14, 14)
            for n in range(15):
                for m in range(15):
                    ref = abs(g[n, m])
                    worst = max(worst, abs(ansatz[n, m] - g[n, m]) / ref,
                                abs(closed[n, m] - g[n, m]) / ref)
    elapsed = time.time() - t0
    _report(3, "g oracle triangle", worst <= 1e-11 and elapsed < 1.0,
            f"max relative spread {worst:.2e} (tol 1e-11)", elapsed, 1)


def test_criterion_4_h_table():
    t0 = time.time()
    worst = 0.0
    for q in (0.5, 0.9):
        table = {(0, 0): 1.0}
        for n in range(20):
            table[(n + 1, 0)] = 1.0
            for kk in range(1, n + 1):
                table[(n + 1, kk)] = (table[(n, kk)]
                                      + q ** (2 * (n - kk + 1)) * table[(n, kk - 1)])
            table[(n + 1, n + 1)] = 1.0
        for (n, kk), val in table.items():
            worst = max(worst, abs(q_binomial(n, kk, q * q) - val) / val)
    elapsed = time.time() - t0
    _report(4, "h-table equals Gaussian binomial", worst <= 1e-13 and elapsed < 1.0,
            f"max relative deviation {worst:.2e} (tol 1e-13), n <= 20", elapsed, 1)


def test_criterion_5_bipartite_eigenvector():
    t0 = time.time()
    params = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.9))
    M = bp.build_q_bipartite(params, 1.0, 50, 50)
    interior, _ = bp.eigen_residual_parts(M)
    elapsed = time.time() - t0
    _report(5, "bipartite eigenvector law", interior <= 1e-8 and elapsed < 2.0,
            f"interior coproduct residual {interior:.2e} (tol 1e-8)", elapsed, 2)


def test_criterion_6_norm_identity():
    t0 = time.time()
    worst = 0.0
    for q in (0.5, 0.7, 0.9):
        for delta in (0.9, 1.0, 1.1):
            for k2 in (1.0, 1.5):
                params = bp.BipartiteParams(0.3, 0.5, 1.0, k2, QParam(q))
                g = bp.solve_g_recurrence(delta, params, 60, 60)
                p1 = bp._single_node_prefactors(0.3, 1.0, params.q, 60)
                p2 = bp._single_node_prefactors(0.5, k2, params.q, 60)
                direct = float(np.sum(np.abs(p1[:, None] * p2[None, :] * g) ** 2))
                series = bp.norm_series(params, delta)
                worst = max(worst, abs(series - direct) / direct)
    # q -> 1: the norm reduces to the classical product N1 N2
    a1, a2 = 0.3, 0.5
    params = bp.BipartiteParams(a1, a2, 1.0, 1.0, QParam(1 - 1e-6))
    norm = 1.0 / math.sqrt(bp.norm_series(params, 1.0))
    n1 = a1 ** 0.5 / math.sqrt(bessel_i_q(1, 2 * a1, CLASSICAL))
    n2 = a2 ** 0.5 / math.sqrt(bessel_i_q(1, 2 * a2, CLASSICAL))
    classical_dev = abs(norm - n1 * n2) / (n1 * n2)
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and classical_dev <= 1e-4 and elapsed < 2.0
    _report(6, "norm series identity", ok,
            f"max series-vs-double-sum {worst:.2e} (tol 1e-8), "
            f"classical-limit dev {classical_dev:.2e} (tol 1e-4)", elapsed, 2)


def test_criterion_7_entanglement_dichotomy():
    t0 = time.time()
    boundary1 = 1.0
    # q -> 1 path: entropy vanishes
    params_near1 = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1 - 1e-6))
    ent_near1 = bp.schmidt_entropy(
        bp.build_q_bipartite(params_near1, boundary1, 50, 50)).entropy
    classical = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 50, 50)
    ent_classical = bp.schmidt_entropy(classical).entropy
    # entangled branch: second singular value above threshold for q <= 0.95
    min_sigma2 = math.inf
    for q in (0.5, 0.7, 0.9, 0.95):
        params = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
        spec = bp.schmidt_entropy(bp.build_q_bipartite(params, boundary1, 50, 50))
        min_sigma2 = min(min_sigma2, spec.singular_values[1])
    # unique classical limit across three boundary families delta = q^s
    min_fid = math.inf
    qv = 1 - 1e-6
    for s in (0, 1, 2):
        params = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(qv))
        M = bp.build_q_bipartite(params, qv ** s, 50, 50)
        min_fid = min(min_fid, bp.fidelity(classical, M))
    elapsed = time.time() - t0
    ok = (ent_near1 <= 1e-6 and ent_classical <= 1e-6 and min_sigma2 > 1e-6
          and min_fid >= 1 - 1e-4 and elapsed < 5.0)
    _report(7, "entanglement dichotomy", ok,
            f"entropy(q->1) {ent_near1:.2e} (tol 1e-6), min sigma2 {min_sigma2:.2e} "
            f"(> 1e-6), min fidelity {1 - min_fid:.2e} below 1 (tol 1e-4)", elapsed, 5)


def test_criterion_8_classical_moments():
    t0 = time.time()
    worst = 0.0
    for k in (0.5, 1.0, 1.5):
        report = me.moment_check(5, k, "classical")
        worst = max(worst, report.max_rel_err)
    elapsed = time.time() - t0
    _report(8, "classical completeness moments", worst <= 1e-5 and elapsed < 10.0,
            f"max relative error {worst:.2e} (tol 1e-5), n <= 5, k in {{1/2,1,3/2}}",
            elapsed, 10)


def test_criterion_9_q_moments():
    t0 = time.time()
    worst = 0.0
    for q in (0.9, 0.95):
        for k in (1.0, 1.5):
            report = me.moment_check(3, k, QParam(q))
            worst = max(worst, report.max_rel_err)
    # pointwise q -> 1 convergence of g_q to 2 I_nu K_nu on [0.2, 5]
    grid = np.linspace(0.2, 5.0, 9)
    errs = []
    for d in (2, 3, 4):
        qv = 1 - 10.0 ** -d
        errs.append(max(abs(me.q_measure(float(r), 1, qv)
                            - me.classical_measure(float(r), 1))
                        / abs(me.classical_measure(float(r), 1)) for r in grid))
    monotone = errs[0] > errs[1] > errs[2]
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and monotone and elapsed < 60.0
    _report(9, "q-measure moments", ok,
            f"max relative error {worst:.2e} (tol 1e-3); pointwise q->1 errors "
            f"{errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}", elapsed, 60)


def test_criterion_10_crossing_symmetry():
    t0 = time.time()
    params = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1.25))
    g_hat = bp.solve_g_recurrence(1.0, bp.crossing_transform(params), 11, 11).T
    q, xi, eta = 1.25, params.xi, params.eta
    worst = 0.0
    for n in range(11):
        for m in range(11):
            lhs = eta * q ** n * g_hat[n, m + 1] + xi * q ** -m * g_hat[n + 1, m]
            worst = max(worst, abs(lhs - g_hat[n, m]) / abs(g_hat[n, m]))
    elapsed = time.time() - t0
    _report(10, "crossing symmetry at q=1.25", worst <= 1e-10 and elapsed < 1.0,
            f"max recurrence violation {worst:.2e} (tol 1e-10), indices <= 10",
            elapsed, 1)
