"""Bipartite entangled-state tests: recurrence solvers and their oracles,
state assembly, norms, crossing symmetry, and Schmidt analysis."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgstates import bipartite as bp
from bgstates import costate as cs
from bgstates import qspecial
from bgstates.errors import (DomainError, SeriesConvergenceError, ShapeError,
                             TruncationError)
from bgstates.qspecial import CLASSICAL, QParam, bessel_i_q, q_binomial, q_factorial, q_number

P9 = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.9))
GEOM1 = 1.0


def recurrence_max_rel(g, params):
    """Max relative violation of eta q^n g_{n,m+1} + xi q^{-m} g_{n+1,m} = g_{n,m}."""
    q = params.q.value
    xi, eta = params.xi, params.eta
    worst = 0.0
    n1, n2 = g.shape[0] - 1, g.shape[1] - 1
    for n in range(n1):
        for m in range(n2):
            lhs = eta * q ** n * g[n, m + 1] + xi * q ** -m * g[n + 1, m]
            worst = max(worst, abs(lhs - g[n, m]) / max(abs(g[n, m]), 1e-300))
    return worst


class TestBoundary:
    P7 = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7))

    def test_geometric_rows(self):
        g = bp.solve_g_recurrence(0.9, self.P7, 0, 4)
        assert np.allclose(g[0], 0.9 ** np.arange(5))

    def test_custom_too_short(self):
        # a 1 x 2 block needs d_0..d_3
        with pytest.raises(DomainError, match="supplies d_0..d_2 but index 3"):
            bp.solve_g_recurrence([1.0, 0.9, 0.8], self.P7, 1, 2)

    def test_custom_empty(self):
        for route in (bp.solve_g_recurrence, bp.g_ansatz_block):
            with pytest.raises(DomainError, match="^custom boundary needs at least d_0$"):
                route([], self.P7, 0, 0)


class TestParams:
    def test_alpha_sum_stored(self):
        assert P9.alpha == 0.3 + 0.5

    def test_xi_eta_values(self):
        q = 0.9
        assert P9.xi == pytest.approx((0.3 / 0.8) * q ** -1.0, rel=1e-15)
        assert P9.eta == pytest.approx((0.5 / 0.8) * q ** 1.0, rel=1e-15)

    def test_degenerate_alpha_rejected(self):
        with pytest.raises(DomainError):
            bp.BipartiteParams(0.5, -0.5, 1.0, 1.0, QParam(0.9))

    def test_classical_tag_allows_any_alpha(self):
        p = bp.BipartiteParams(0.5, -0.5, 1.0, 1.0, CLASSICAL)
        with pytest.raises(DomainError):
            _ = p.xi


class TestClassicalBipartite:
    def test_rank_one(self):
        M = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 40, 40)
        sv = np.linalg.svd(M.coeffs, compute_uv=False)
        assert sv[1] < 1e-12

    def test_eigen_residual(self):
        M = bp.classical_bipartite(0.3, 0.5, 1.0, 1.5, 45, 45)
        assert bp.eigen_residual(M) <= 1e-9

    def test_norm_before_truncation_is_the_profile_block_sum(self):
        M = bp.classical_bipartite(0.3, 0.5, 1.0, 1.5, 40, 40)
        block = np.outer(cs.single_node_profile(0.3, 1.0, CLASSICAL, 40),
                         cs.single_node_profile(0.5, 1.5, CLASSICAL, 40))
        assert M.norm_before_truncation == pytest.approx(
            float(np.sum(np.abs(block) ** 2)), rel=1e-13)

    def test_alpha1_zero_factor(self):
        M = bp.classical_bipartite(0.0, 0.6, 1.0, 1.0, 30, 30)
        v2 = cs.build_f_coherent(0.6, 1.0, CLASSICAL, 30).coeffs
        assert np.allclose(M.coeffs[0, :], v2, atol=1e-14)
        assert np.all(M.coeffs[1:, :] == 0)

    def test_classical_recurrence(self):
        M = bp.classical_bipartite(0.4, 0.3, 1.0, 1.5, 35, 35)
        c = M.coeffs
        alpha = 0.7
        for n1 in range(10):
            for n2 in range(10):
                lhs = (math.sqrt((n1 + 1) * (n1 + 2.0)) * c[n1 + 1, n2]
                       + math.sqrt((n2 + 1) * (n2 + 3.0)) * c[n1, n2 + 1])
                assert lhs == pytest.approx(alpha * c[n1, n2], rel=1e-10)


class TestGRecurrence:
    def test_first_row_verbatim(self):
        b = [1.0, 0.95, 0.9, 0.86, 0.81, 0.78, 0.74, 0.71, 0.68, 0.65, 0.62]
        g = bp.solve_g_recurrence(b, bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7)),
                                  5, 5)
        assert np.allclose(g[0], b[:6])

    def test_q_to_one_limit(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1 - 1e-8))
        g = bp.solve_g_recurrence(GEOM1, p, 6, 6)
        assert np.max(np.abs(g - 1.0)) <= 1e-6
        # deviation from 1 scales linearly in (1-q)
        p7 = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1 - 1e-7))
        g7 = bp.solve_g_recurrence(GEOM1, p7, 6, 6)
        ratio = np.max(np.abs(g7 - 1.0)) / np.max(np.abs(g - 1.0))
        assert ratio == pytest.approx(10.0, rel=1e-2)

    def test_xi_zero_rejected(self):
        p = bp.BipartiteParams(0.0, 0.5, 1.0, 1.0, QParam(0.7))
        with pytest.raises(DomainError):
            bp.solve_g_recurrence(GEOM1, p, 4, 4)

    def test_solution_satisfies_recurrence(self):
        p = bp.BipartiteParams(0.4 + 0.1j, 0.2, 1.0, 1.5, QParam(0.6))
        g = bp.solve_g_recurrence(0.95, p, 12, 12)
        assert recurrence_max_rel(g, p) < 1e-12


class TestGAnsatz:
    def test_n0_is_boundary(self):
        b = 0.9
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7))
        block = bp.g_ansatz_block(b, p, 0, 4)
        for m in range(5):
            assert block[0, m] == pytest.approx(0.9 ** m, rel=1e-14)

    def test_n1_two_terms(self):
        # g_{1,0} = xi^{-1} (d_0 - eta d_1)
        b = [1.0, 0.9, 0.8]
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7))
        want = (1.0 - p.eta * 0.9) / p.xi
        assert bp.g_ansatz_block(b, p, 1, 0)[1, 0] == pytest.approx(want, rel=1e-14)

    def test_matches_recurrence_custom_boundary(self):
        vals = [1.0 / (1.0 + 0.05 * m) for m in range(30)]
        b = vals
        p = bp.BipartiteParams(0.25, 0.45, 1.0, 0.5, QParam(0.7))
        g = bp.solve_g_recurrence(b, p, 12, 12)
        block = bp.g_ansatz_block(b, p, 12, 12)
        for n in range(0, 13, 3):
            for m in range(0, 13, 3):
                assert block[n, m] == pytest.approx(g[n, m], rel=1e-11)


def ansatz_by_the_formula(n, m, boundary, p):
    """The ansatz sum of g_ansatz_block at (n, m) written out term by term,
    one q_binomial per term."""
    q, xi, eta = p.q.value, p.xi, p.eta
    d = bp._first_row(boundary, m + n)
    total = 0.0 + 0j
    for j in range(n + 1):
        total += ((-1) ** j * eta ** j * q ** (j * (j - 1))
                  * d[m + j] * q_binomial(n, j, q * q))
    return q ** (n * m) * xi ** -n * total


class TestGAnsatzBlock:
    """The block forms each q-binomial row once; every entry must be the
    per-term formula's, bit for bit."""

    CASES = {
        "delta": (0.9, bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.7))),
        "delta-half-integer-k": (1.1, bp.BipartiteParams(0.6, 0.2, 1.5, 0.5, QParam(0.55))),
        "custom": ([1.0 / (1.0 + 0.05 * m) for m in range(40)],
                   bp.BipartiteParams(0.25, 0.45, 1.0, 0.5, QParam(0.7))),
        "complex-alpha": (0.95, bp.BipartiteParams(0.4 + 0.3j, -0.1 + 0.2j, 0.75, 2.0,
                                                   QParam(0.83))),
        "complex-custom": ([complex(1.0, 0.1 * m) / (1 + m) for m in range(30)],
                           bp.BipartiteParams(0.5 - 0.2j, 0.3, 1.0, 1.25, QParam(0.9))),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("n1, n2", [(0, 0), (0, 5), (5, 0), (14, 14), (9, 13)])
    def test_block_is_the_per_cell_sum_bit_for_bit(self, case, n1, n2):
        b, p = self.CASES[case]
        block = bp.g_ansatz_block(b, p, n1, n2)
        assert block.shape == (n1 + 1, n2 + 1)
        for n in range(n1 + 1):
            for m in range(n2 + 1):
                cell = np.complex128(ansatz_by_the_formula(n, m, b, p)).tobytes()
                assert block[n, m].tobytes() == cell

    def test_invalid_inputs_are_named(self):
        b, p = self.CASES["custom"]
        with pytest.raises(DomainError, match="supplies d_0..d_39 but index 40"):
            bp.g_ansatz_block(b, p, 20, 20)
        with pytest.raises(DomainError, match="0 < q < 1"):
            bp.g_ansatz_block(0.9, bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1.2)), 2, 2)
        with pytest.raises(DomainError, match="N1, N2 >= 0"):
            bp.g_ansatz_block(b, p, -1, 3)


class TestGClosedGeometric:
    def test_n0(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.6))
        block = bp.g_closed_block(0.95, p, 0, 5)
        assert block.shape == (1, 6)
        for m in range(6):
            assert block[0, m] == pytest.approx(0.95 ** m, rel=1e-14)

    def test_matches_ansatz(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(0.6))
        b = 0.95
        closed = bp.g_closed_block(0.95, p, 12, 12)
        ansatz = bp.g_ansatz_block(b, p, 12, 12)
        for n in range(0, 13, 4):
            for m in range(0, 13, 4):
                assert closed[n, m] == pytest.approx(ansatz[n, m], rel=1e-11)

    def test_pochhammer_zero(self):
        # delta*eta = q^{-2} makes (delta eta; q^2)_n vanish for n >= 2
        q = 0.5
        alpha1, alpha2 = -0.7, 0.8
        p = bp.BipartiteParams(alpha1, alpha2, 1.0, 1.0, QParam(q))
        assert p.eta * 1.0 == pytest.approx(q ** -2, rel=1e-12)
        block = bp.g_closed_block(1.0, p, 5, 1)
        for n in (2, 3, 5):
            assert abs(block[n, 1]) < 1e-12

    def test_invalid_inputs_are_named(self):
        with pytest.raises(DomainError, match="0 < q < 1"):
            bp.g_closed_block(0.9, bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1.2)), 2, 2)
        with pytest.raises(DomainError, match="N1, N2 >= 0"):
            bp.g_closed_block(0.9, P9, 3, -1)
        with pytest.raises(DomainError, match="xi = 0"):
            bp.g_closed_block(0.9, bp.BipartiteParams(0.0, 0.5, 1.0, 1.0, QParam(0.7)), 2, 2)


class TestOracleTriangle:
    @pytest.mark.parametrize("q", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("delta", [0.9, 1.0, 1.1])
    def test_three_routes_agree(self, q, delta):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
        b = delta
        g = bp.solve_g_recurrence(b, p, 14, 14)
        ansatz = bp.g_ansatz_block(b, p, 14, 14)
        closed = bp.g_closed_block(delta, p, 14, 14)
        for n in range(15):
            for m in range(15):
                ref = g[n, m]
                assert ansatz[n, m] == pytest.approx(ref, rel=1e-11)
                assert closed[n, m] == pytest.approx(ref, rel=1e-11)

    @given(q=st.floats(0.4, 0.95), delta=st.floats(0.8, 1.2),
           a1r=st.floats(0.1, 1.0), a1i=st.floats(-0.5, 0.5),
           a2r=st.floats(0.1, 1.0), k1=st.sampled_from([0.5, 1.0, 1.5]),
           k2=st.sampled_from([0.5, 1.0, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree_random(self, q, delta, a1r, a1i, a2r, k1, k2):
        p = bp.BipartiteParams(complex(a1r, a1i), a2r, k1, k2, QParam(q))
        b = delta
        g = bp.solve_g_recurrence(b, p, 8, 8)
        ansatz = bp.g_ansatz_block(b, p, 8, 8)
        closed = bp.g_closed_block(delta, p, 8, 8)
        for n in (0, 3, 8):
            for m in (0, 4, 8):
                ref = g[n, m]
                assert ansatz[n, m] == pytest.approx(ref, rel=1e-10)
                assert closed[n, m] == pytest.approx(ref, rel=1e-10)


class TestHTable:
    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_recurrence_equals_gaussian_binomial(self, q):
        # h_{n+1,k} = h_{n,k} + q^{2(n-k+1)} h_{n,k-1}, h_{n,0} = h_{n,n} = 1
        table = {(0, 0): 1.0}
        for n in range(20):
            table[(n + 1, 0)] = 1.0
            for kk in range(1, n + 1):
                table[(n + 1, kk)] = table[(n, kk)] + q ** (2 * (n - kk + 1)) * table[(n, kk - 1)]
            table[(n + 1, n + 1)] = 1.0
        for (n, kk), val in table.items():
            assert q_binomial(n, kk, q * q) == pytest.approx(val, rel=1e-13)


class TestBuildQBipartite:
    def test_eigen_residual(self):
        M = bp.build_q_bipartite(P9, GEOM1, 50, 50)
        interior, edge = bp.eigen_residual_parts(M)
        assert interior <= 1e-8
        assert edge < 1e-6

    def test_full_recurrence_on_coefficients(self):
        # q^{-n2-k2} sqrt([n1+1][n1+2k1]) c_{n1+1,n2}
        #   + q^{n1+k1} sqrt([n2+1][n2+2k2]) c_{n1,n2+1} = alpha c_{n1,n2}
        M = bp.build_q_bipartite(P9, GEOM1, 40, 40)
        c = M.coeffs
        q = QParam(0.9)
        qv, k1, k2 = 0.9, 1.0, 1.0
        alpha = P9.alpha
        for n1 in range(12):
            for n2 in range(12):
                lhs = (qv ** (-n2 - k2)
                       * math.sqrt(q_number(n1 + 1, q) * q_number(n1 + 2 * k1, q))
                       * c[n1 + 1, n2]
                       + qv ** (n1 + k1)
                       * math.sqrt(q_number(n2 + 1, q) * q_number(n2 + 2 * k2, q))
                       * c[n1, n2 + 1])
                assert lhs == pytest.approx(alpha * c[n1, n2], rel=1e-10)

    def test_q_to_one_equals_classical(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1 - 1e-8))
        M = bp.build_q_bipartite(p, GEOM1, 45, 45)
        C = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 45, 45)
        mask = np.abs(C.coeffs) > 1e-30
        rel = np.abs(M.coeffs - C.coeffs)[mask] / np.abs(C.coeffs)[mask]
        assert np.max(rel) <= 1e-5

    def test_entangled_at_q09(self):
        M = bp.build_q_bipartite(P9, GEOM1, 50, 50)
        spec = bp.schmidt_entropy(M)
        assert spec.singular_values[1] > 1e-6
        assert spec.entropy > 0

    def test_custom_boundary_equals_geometric(self):
        delta = 0.93
        custom = [delta ** m for m in range(120)]
        a = bp.build_q_bipartite(P9, delta, 40, 40)
        b = bp.build_q_bipartite(P9, custom, 40, 40)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_truncation_guard(self):
        with pytest.raises(TruncationError):
            bp.build_q_bipartite(P9, GEOM1, 4, 4)

    def test_classical_tag_rejected(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, CLASSICAL)
        with pytest.raises(DomainError):
            bp.build_q_bipartite(p, GEOM1, 20, 20)

    def test_alpha1_zero_rejected_with_diagnostic(self):
        p = bp.BipartiteParams(0.0, 0.5, 1.0, 1.0, QParam(0.9))
        with pytest.raises(DomainError, match="alpha1 = 0"):
            bp.build_q_bipartite(p, GEOM1, 20, 20)
        with pytest.raises(DomainError):
            bp.solve_g_recurrence(GEOM1, p, 4, 4)
        # q > 1 with alpha1 = 0 crosses to a solvable configuration
        pc = bp.BipartiteParams(0.0, 0.5, 1.0, 1.0, QParam(1.25))
        M = bp.build_q_bipartite(pc, GEOM1, 40, 40)
        assert bp.eigen_residual(M) <= 1e-8
        # and there alpha2 is the node that propagates
        pc = bp.BipartiteParams(0.5, 0.0, 1.0, 1.0, QParam(1.25))
        with pytest.raises(DomainError, match="^alpha2 = 0 makes xi = 0"):
            bp.build_q_bipartite(pc, GEOM1, 20, 20)

    @pytest.mark.parametrize("q", [0.9, 1.25])
    def test_zero_boundary_row_named(self, q):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
        with pytest.raises(DomainError, match="^state vanished: the boundary row"):
            bp.build_q_bipartite(p, [0.0] * 41, 20, 20)

    def test_boundary_family_unique_classical_limit(self):
        # d_m = delta^m with delta = q^s all collapse to the same classical state
        C = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 50, 50)
        q = 1 - 1e-6
        for s in (0, 1, 2):
            p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
            M = bp.build_q_bipartite(p, q ** s, 50, 50)
            assert bp.fidelity(C, M) >= 1 - 1e-4

    def test_non_geometric_family_same_classical_limit(self):
        # any boundary with d_m -> 1 as q -> 1 lands on the same classical state
        C = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 50, 50)
        q = 1 - 1e-6
        d = [1.0 + (1.0 - q) * m / (1.0 + m) for m in range(140)]
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
        M = bp.build_q_bipartite(p, d, 50, 50)
        assert bp.fidelity(C, M) >= 1 - 1e-4

    @pytest.mark.parametrize("q", [QParam(0.9), QParam(1 / 0.9)])
    def test_non_integer_k_assembles_without_q_gamma(self, q, monkeypatch):
        # the c_0 = 1 profiles need no [2k-1]_q! at any k
        def boom(*args, **kwargs):
            raise AssertionError("q_gamma called during assembly")
        monkeypatch.setattr(qspecial, "q_gamma", boom)
        p = bp.BipartiteParams(0.3, 0.5, 0.75, 1.0, q)
        M = bp.build_q_bipartite(p, GEOM1, 40, 40)
        assert bp.eigen_residual(M) <= 1e-8

    def test_complex_alphas_residual(self):
        p = bp.BipartiteParams(0.3 + 0.2j, 0.4 - 0.1j, 1.0, 1.5, QParam(0.8))
        M = bp.build_q_bipartite(p, 0.95, 45, 45)
        assert bp.eigen_residual(M) <= 1e-8
        assert bp.schmidt_entropy(M).entropy > 0


class TestNormSeries:
    @pytest.mark.parametrize("q", [0.5, 0.8])
    @pytest.mark.parametrize("delta", [0.9, 1.0])
    def test_against_double_sum(self, q, delta):
        p = bp.BipartiteParams(0.4, 0.4, 1.0, 1.0, QParam(q))
        b = delta
        g = bp.solve_g_recurrence(b, p, 60, 60)
        p1 = bp._single_node_prefactors(0.4, 1.0, p.q, 60)
        p2 = bp._single_node_prefactors(0.4, 1.0, p.q, 60)
        direct = float(np.sum(np.abs(p1[:, None] * p2[None, :] * g) ** 2))
        assert bp.norm_series(p, delta) == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("k2", [1.0, 1.5])
    @pytest.mark.parametrize("q", [0.5, 0.8])
    @pytest.mark.parametrize("delta", [0.9, 1.0])
    def test_against_norm_before_truncation(self, q, delta, k2):
        # the assembled c_0 = 1 block sum, rescaled to the ansatz scale
        p = bp.BipartiteParams(0.4, 0.4, 1.0, k2, QParam(q))
        M = bp.build_q_bipartite(p, delta, 60, 60)
        scale = q_factorial(1, p.q) * q_factorial(2 * k2 - 1, p.q)
        assert M.norm_before_truncation / scale == pytest.approx(
            bp.norm_series(p, delta), rel=1e-12)

    def test_norm_before_truncation_through_crossing(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.5, QParam(1.25))
        M = bp.build_q_bipartite(p, 0.9, 60, 60)
        t = bp.crossing_transform(p)
        scale = q_factorial(2 * t.k1 - 1, t.q) * q_factorial(2 * t.k2 - 1, t.q)
        assert M.norm_before_truncation / scale == pytest.approx(
            bp.norm_series(t, 0.9), rel=1e-12)

    @pytest.mark.parametrize("k2", [0.75, 1.25])
    @pytest.mark.parametrize("q", [0.6, 0.9])
    def test_non_integer_order_against_double_sum(self, q, k2):
        # a non-integer k2 gives a real q-Bessel order 2 k2 - 1
        p = bp.BipartiteParams(0.3, 0.5, 1.0, k2, QParam(q))
        M = bp.build_q_bipartite(p, 0.9, 60, 60)
        double_sum = M.norm_before_truncation / (q_factorial(1, p.q)
                                                 * q_factorial(2 * k2 - 1, p.q))
        assert bp.norm_series(p, 0.9) == pytest.approx(double_sum, rel=1e-10)

    @pytest.mark.parametrize("k1", [0.75, 1.25])
    def test_non_integer_order_through_crossing(self, k1):
        # for q > 1 the mirror swaps the nodes: the user's k1 becomes the
        # mirror's q-Bessel order
        p = bp.BipartiteParams(0.5, 0.3, k1, 1.0, QParam(1.1))
        M = bp.build_q_bipartite(p, 0.9, 60, 60)
        t = bp.crossing_transform(p)
        double_sum = M.norm_before_truncation / (q_factorial(2 * t.k1 - 1, t.q)
                                                 * q_factorial(2 * t.k2 - 1, t.q))
        assert bp.norm_series(t, 0.9) == pytest.approx(double_sum, rel=1e-10)

    def test_q_to_one_matches_classical_product(self):
        # N -> N1 N2 with N_i = |alpha_i|^{k_i - 1/2} / sqrt(I_{2k_i-1}(2|alpha_i|))
        a1, a2, k1, k2 = 0.3, 0.5, 1.0, 1.0
        p = bp.BipartiteParams(a1, a2, k1, k2, QParam(1 - 1e-6))
        norm = 1.0 / math.sqrt(bp.norm_series(p, 1.0))
        n1 = a1 ** (k1 - 0.5) / math.sqrt(bessel_i_q(int(2 * k1 - 1), 2 * a1, CLASSICAL))
        n2 = a2 ** (k2 - 0.5) / math.sqrt(bessel_i_q(int(2 * k2 - 1), 2 * a2, CLASSICAL))
        assert norm == pytest.approx(n1 * n2, rel=1e-4)

    def test_alpha2_zero_reduces_to_single_node(self):
        # only the n2 = 0 column survives; the node-1 state carries the
        # spectator-dressed eigenvalue alpha1 q^{k2}
        q = QParam(0.8)
        p = bp.BipartiteParams(0.6, 0.0, 1.0, 1.5, q)
        got = bp.norm_series(p, 1.23)
        dressed = 0.6 * 0.8 ** 1.5
        s = cs.build_q_coherent(dressed, 1.0, q, 60)
        assert got == pytest.approx(s.norm_before_truncation / q_number(2, q), rel=1e-10)

    def test_nonconvergence_budget(self, monkeypatch):
        monkeypatch.setattr(qspecial, "MAX_TERMS", 2)
        with pytest.raises(SeriesConvergenceError):
            bp.norm_series(P9, 1.0)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9, 0.99])
    def test_positive_and_finite_across_q(self, q):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(q))
        for delta in (0.9, 1.0, 1.1):
            val = bp.norm_series(p, delta)
            assert np.isfinite(val) and val > 0


class TestCrossing:
    PC = bp.BipartiteParams(0.3, 0.5, 1.0, 1.5, QParam(1.25))

    def test_involution(self):
        # 1/(1/q) rounds back to the same double at these q
        for p in (self.PC, bp.BipartiteParams(0.3, 0.5, 1.0, 1.5, QParam(0.7))):
            assert bp.crossing_transform(bp.crossing_transform(p)) == p

    def test_transformed_solution_satisfies_original(self):
        t = bp.crossing_transform(self.PC)
        g_hat = bp.solve_g_recurrence(GEOM1, t, 11, 11).T
        assert recurrence_max_rel(g_hat, self.PC) <= 1e-10

    def test_q_above_one_state(self):
        M = bp.build_q_bipartite(self.PC, GEOM1, 45, 45)
        assert bp.eigen_residual(M) <= 1e-8
        assert bp.schmidt_entropy(M).entropy > 0

    def test_near_one_is_index_swap(self):
        p = bp.BipartiteParams(0.3, 0.5, 1.0, 1.0, QParam(1 + 1e-9))
        t = bp.crossing_transform(p)
        assert t.alpha1 == 0.5 and t.alpha2 == 0.3
        assert t.q.value == pytest.approx(1.0, abs=1e-8)


class TestSchmidt:
    def test_outer_product(self):
        M = bp.classical_bipartite(0.4, 0.7, 1.0, 1.0, 35, 35)
        spec = bp.schmidt_entropy(M)
        assert spec.entropy == pytest.approx(0.0, abs=1e-12)
        assert spec.rank_eps == 1

    def test_bell_like(self):
        c = np.zeros((4, 4))
        c[0, 0] = c[1, 1] = 1 / math.sqrt(2)
        params = bp.BipartiteParams(0.1, 0.1, 1.0, 1.0, CLASSICAL)
        M = bp.BipartiteMatrix(coeffs=c, params=params, normalized=True)
        spec = bp.schmidt_entropy(M)
        assert spec.entropy == pytest.approx(math.log(2), rel=1e-12)
        assert spec.rank_eps == 2

    @pytest.mark.parametrize("make", [
        lambda: bp.build_q_bipartite(P9, GEOM1, 50, 50),
        lambda: bp.build_q_bipartite(bp.BipartiteParams(0.5, 0.3, 1.5, 0.75, QParam(0.6)),
                                     0.8, 50, 30),
        lambda: bp.build_q_bipartite(bp.BipartiteParams(0.3, 0.5, 1.0, 2.0,
                                                        QParam(1.25)),
                                     GEOM1, 50, 50),
        lambda: bp.classical_bipartite(0.4, 0.7, 1.0, 1.5, 35, 35),
    ], ids=["q", "rectangular", "crossing", "classical"])
    def test_real_block_takes_the_real_svd(self, make, monkeypatch):
        M = make()
        assert not np.asarray(M.coeffs).imag.any()
        # the complex SVD of the same block is the reference
        ref = np.linalg.svd(np.asarray(M.coeffs, dtype=complex), compute_uv=False)
        ref_sq = ref ** 2
        ref_sq = ref_sq[ref_sq > 0]
        ref_entropy = float(-np.sum(ref_sq * np.log(ref_sq)))
        seen = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.dtype) or svd(a, **kw))
        spec = bp.schmidt_entropy(M)
        assert seen == [np.float64]
        assert np.max(np.abs(np.array(spec.singular_values) - ref)) <= 1e-15 * ref[0]
        assert abs(spec.entropy - ref_entropy) <= 1e-14

    def test_complex_block_keeps_the_complex_svd(self, monkeypatch):
        M = bp.build_q_bipartite(bp.BipartiteParams(0.3 + 0.2j, 0.5, 1.0, 1.0, QParam(0.9)),
                                 GEOM1, 50, 50)
        seen = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a.dtype) or svd(a, **kw))
        bp.schmidt_entropy(M)
        assert seen == [np.complex128]

    @staticmethod
    def mp_spectrum(a1, a2, k1, k2, delta, q, N):
        """(entropy, sigma_2) of the normalized (N+1) x (N+1) geometric-boundary
        block at 60 digits: the Gram matrix's eigenvalues are the s_i^2."""
        with mpmath.workdps(60):
            q, a1, a2 = mpmath.mpf(q), mpmath.mpf(a1), mpmath.mpf(a2)
            alpha = a1 + a2
            xi, eta = a1 / alpha * q ** -k2, a2 / alpha * q ** k1

            def qn(x):
                return (q ** x - q ** -x) / (q - 1 / q)

            def profile(a, k):
                p = [mpmath.mpf(1)]
                for n in range(1, N + 1):
                    p.append(p[-1] * a / mpmath.sqrt(qn(n) * qn(n + 2 * k - 1)))
                return p

            p1, p2 = profile(a1, k1), profile(a2, k2)
            poch = [mpmath.mpf(1)]
            for n in range(N):
                poch.append(poch[-1] * (1 - delta * eta * q ** (2 * n)))
            c = mpmath.matrix(N + 1, N + 1)
            for n in range(N + 1):
                for m in range(N + 1):
                    c[n, m] = p1[n] * p2[m] * q ** (n * m) * delta ** m * xi ** -n * poch[n]
            ev = sorted(mpmath.eigsy(c.T * c, eigvals_only=True), reverse=True)
            s_sq = [e / sum(ev) for e in ev if e > 0]
            return float(-sum(x * mpmath.log(x) for x in s_sq)), float(mpmath.sqrt(s_sq[1]))

    @pytest.mark.parametrize("q", [0.9999, 0.999, 0.99])
    def test_near_product_against_mpmath(self, q):
        # as q -> 1 the state nears a product; the entropy summed as
        # -s_1^2 ln s_1^2 - ... was 3e-8 off at q = 0.9999
        M = bp.build_q_bipartite(bp.BipartiteParams(0.9, 0.5, 1.0, 1.5, QParam(q)),
                                 1.0, 30, 30)
        spec = bp.schmidt_entropy(M)
        entropy, sigma2 = self.mp_spectrum(0.9, 0.5, 1.0, 1.5, 1, q, 30)
        assert spec.entropy == pytest.approx(entropy, rel=1e-10, abs=0)
        assert spec.singular_values[1] == pytest.approx(sigma2, rel=1e-10, abs=0)

    def test_product_entropy_is_not_negative(self):
        # s_1^2 rounds above 1 on this product state
        M = bp.classical_bipartite(1.1581, 1.7994, 0.5, 0.5, 50, 50)
        assert 0.0 <= bp.schmidt_entropy(M).entropy <= 1e-15

    def test_unnormalized_rejected(self):
        params = bp.BipartiteParams(0.1, 0.1, 1.0, 1.0, CLASSICAL)
        M = bp.BipartiteMatrix(coeffs=np.ones((3, 3)), params=params, normalized=False)
        with pytest.raises(DomainError):
            bp.schmidt_entropy(M)


class TestEigenResidual:
    def test_vacuum_zero(self):
        M = bp.classical_bipartite(0.0, 0.0, 1.0, 1.0, 10, 10)
        assert bp.eigen_residual(M) == 0.0

    def test_perturbation_sensitivity(self):
        M = bp.build_q_bipartite(P9, GEOM1, 40, 40)
        rng = np.random.default_rng(3)
        noise = rng.standard_normal(M.coeffs.shape)
        noisy = M.coeffs + 0.01 * noise / np.linalg.norm(noise)
        noisy /= np.linalg.norm(noisy)
        M2 = bp.BipartiteMatrix(coeffs=noisy, params=M.params, normalized=True)
        assert bp.eigen_residual(M2) > 1e-3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_block_residual_is_finite(self):
        # at N = 800, q^{-K0} times the q-number matrix elements overflows far
        # past the state's support; formed there, inf * 0 made the residual NaN
        params = bp.BipartiteParams(1.8913, 1.5146, 1.0, 2.0, QParam(0.58453))
        M = bp.build_q_bipartite(params, 0.5919, 800, 800)
        interior, edge = bp.eigen_residual_parts(M)
        assert interior < 1e-12
        assert edge == 0.0

    def test_alpha_zero_nonvacuum_rejected(self):
        params = bp.BipartiteParams(0.0, 0.0, 1.0, 1.0, CLASSICAL)
        M = bp.BipartiteMatrix(coeffs=np.eye(4) / 2.0, params=params, normalized=True)
        with pytest.raises(DomainError):
            bp.eigen_residual(M)


def test_fidelity_shape_guard():
    a = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 20, 20)
    b = bp.classical_bipartite(0.3, 0.5, 1.0, 1.0, 21, 21)
    with pytest.raises(ShapeError):
        bp.fidelity(a, b)
