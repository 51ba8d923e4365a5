"""Single-node coherent-state construction tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgstates import costate as cs
from bgstates import repalg as ra
from bgstates.errors import DomainError, TruncationError
from bgstates.qspecial import CLASSICAL, QParam, bessel_i_q


def km_residual(state):
    lowered = ra.apply_ladder("K-", state).coeffs
    if state.alpha == 0:
        return float(np.linalg.norm(lowered))
    return float(np.linalg.norm(lowered - state.alpha * state.coeffs)) / abs(state.alpha)


def scalar_profile(alpha, k, f, N):
    """alpha^n / (e[1] ... e[n]) one level at a time: the reference for
    single_node_profile."""
    e = ra.lowering_elements(f, k, N + 1)
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0
    for n in range(N):
        c[n + 1] = alpha / e[n + 1] * c[n]
    return c


class TestSingleNodeProfile:
    @pytest.mark.parametrize("f", [CLASSICAL, QParam(0.83), QParam.for_crossing(1 / 0.83),
                                   lambda x: 1.0 + 1.0 / x],
                             ids=["classical", "q", "q>1", "custom"])
    @pytest.mark.parametrize("alpha", [0.8, -0.8, -0.0, 0.5 + 0.3j, -0.7 - 1.1j,
                                       complex(-0.0, 0.4), complex(0.6, -0.0), 2.5j])
    def test_is_the_scalar_recurrence_bit_for_bit(self, f, alpha):
        for k in (0.5, 0.75, 1.5):
            for N in (1, 2, 50):
                got = cs.single_node_profile(alpha, k, f, N)
                assert got.tobytes() == scalar_profile(alpha, k, f, N).tobytes()


class TestBuildFCoherent:
    def test_vacuum(self):
        s = cs.build_f_coherent(0.0, 1.0, CLASSICAL, 10)
        assert s.coeffs[0] == 1.0
        assert np.all(s.coeffs[1:] == 0)

    def test_classical_alpha1_k1_profile(self):
        # c_n proportional to 1/sqrt(n!(n+1)!) and the normalization series
        # sums to I_1(2)
        s = cs.build_f_coherent(1.0, 1.0, CLASSICAL, 40)
        ref = np.array([1.0 / math.sqrt(math.factorial(n) * math.factorial(n + 1))
                        for n in range(41)])
        ref /= np.linalg.norm(ref)
        assert np.allclose(s.coeffs.real, ref, rtol=1e-13, atol=1e-15)
        assert s.norm_before_truncation == pytest.approx(
            bessel_i_q(1, 2.0, CLASSICAL), rel=1e-12)

    def test_eigen_residual_q_map(self):
        s = cs.build_f_coherent(0.8, 1.0, QParam(0.9), 50)
        assert km_residual(s) <= 1e-10

    def test_eigen_residual_custom_map(self):
        s = cs.build_f_coherent(0.9 + 0.2j, 1.5, lambda x: 1.0 + 0.3 / x, 50)
        assert km_residual(s) <= 1e-10

    def test_coefficient_ratio_invariant(self):
        # c_{n+1}/c_n = alpha / (f(n+k+1) sqrt((n+1)(n+2k)))
        alpha, k = 0.7 + 0.4j, 1.5
        q = QParam(0.8)
        s = cs.build_f_coherent(alpha, k, q, 30)
        for n in range(25):
            expect = alpha / (ra.map_value(q, n + 1 + k, k) * math.sqrt((n + 1) * (n + 2 * k)))
            assert s.coeffs[n + 1] / s.coeffs[n] == pytest.approx(expect, rel=1e-12)

    def test_normalized(self):
        for alpha in (0.5, 1.5, 1.2j):
            s = cs.build_f_coherent(alpha, 0.5, CLASSICAL, 50)
            assert abs(np.linalg.norm(s.coeffs) - 1.0) <= 1e-10

    def test_truncation_insufficient(self):
        with pytest.raises(TruncationError):
            cs.build_f_coherent(2.0, 1.0, CLASSICAL, 3)

    def test_monotone_truncation(self):
        a, k = 1.1, 1.0
        small = cs.build_f_coherent(a, k, CLASSICAL, 30)
        big = cs.build_f_coherent(a, k, CLASSICAL, 45)
        head = big.coeffs[:31]
        head = head / np.linalg.norm(head)
        assert np.max(np.abs(head - small.coeffs)) < 1e-12

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            cs.build_f_coherent(0.5, 0.3, CLASSICAL, 10)
        with pytest.raises(DomainError):
            cs.build_f_coherent(0.5, 1.0, CLASSICAL, 0)


class TestBuildQCoherent:
    def test_matches_f_construction(self):
        q = QParam(0.7)
        sq = cs.build_q_coherent(0.5, 1.0, q, 40)
        sf = cs.build_f_coherent(0.5, 1.0, q, 40)
        assert np.max(np.abs(sq.coeffs - sf.coeffs)) <= 1e-12

    def test_classical_limit_fidelity(self):
        scl = cs.build_f_coherent(1.0, 1.0, CLASSICAL, 50)
        sq = cs.build_q_coherent(1.0, 1.0, QParam(1 - 1e-6), 50)
        assert abs(np.vdot(scl.coeffs, sq.coeffs)) >= 1 - 1e-4

    def test_vacuum(self):
        s = cs.build_q_coherent(0.0, 1.5, QParam(0.5), 8)
        assert s.coeffs[0] == 1.0 and np.all(s.coeffs[1:] == 0)

    def test_classical_tag_delegates(self):
        s = cs.build_q_coherent(0.8, 1.0, CLASSICAL, 40)
        ref = cs.build_f_coherent(0.8, 1.0, CLASSICAL, 40)
        assert np.array_equal(s.coeffs, ref.coeffs)

    def test_eigenvalue_property(self):
        s = cs.build_q_coherent(1.2, 0.5, QParam(0.9), 60)
        assert km_residual(s) <= 1e-9


class TestOperatorSeries:
    def test_vacuum(self):
        s = cs.build_by_operator_series(0.0, 1.0, CLASSICAL, 10)
        assert s.coeffs[0] == 1.0 and np.all(s.coeffs[1:] == 0)

    def test_classical_agreement(self):
        a = cs.build_by_operator_series(1.0, 1.0, CLASSICAL, 30)
        b = cs.build_f_coherent(1.0, 1.0, CLASSICAL, 30)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10

    def test_q_map_complex_alpha(self):
        for f in (QParam(0.8), lambda x: 1.0 + 0.3 / x):
            a = cs.build_by_operator_series(0.6j, 1.5, f, 40)
            b = cs.build_f_coherent(0.6j, 1.5, f, 40)
            assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-10


class TestPhaseCovariance:
    @given(st.floats(-math.pi, math.pi))
    @settings(max_examples=25, deadline=None)
    def test_phase_rotation(self, theta):
        base = cs.build_f_coherent(0.9, 1.0, CLASSICAL, 40)
        rot = cs.build_f_coherent(0.9 * np.exp(1j * theta), 1.0, CLASSICAL, 40)
        n = np.arange(41)
        assert np.max(np.abs(rot.coeffs - base.coeffs * np.exp(1j * n * theta))) <= 1e-13


class TestNormalizationSeries:
    def test_brute_force_classical(self):
        rho, k = 1.3, 1.5
        brute = math.fsum(rho ** (2 * n) / (math.factorial(n) * math.gamma(n + 2 * k))
                          for n in range(80))
        got = float(cs.normalization_series(rho, k, CLASSICAL))
        assert got == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("k", [1.0, 1.5])
    def test_brute_force_q(self, k):
        # definitional sum rho^{2n} / (([f(n+k)]!)^2 n! Gamma(n+2k))
        rho = 0.9
        for f in (QParam(0.8), lambda x: 1.0 + 0.3 / x):
            brute = 0.0
            f_fact = 1.0
            for n in range(60):
                brute += rho ** (2 * n) / (f_fact ** 2 * math.factorial(n)
                                           * math.gamma(n + 2 * k))
                f_fact *= ra.map_value(f, n + 1 + k, k)
            got = float(cs.normalization_series(rho, k, f))
            assert got == pytest.approx(brute, rel=1e-13)

    def test_vectorised(self):
        rhos = np.array([0.0, 0.5, 2.0])
        vals = cs.normalization_series(rhos, 1.0, CLASSICAL)
        assert vals[0] == pytest.approx(1.0)
        for r, v in zip(rhos[1:], vals[1:]):
            assert float(cs.normalization_series(float(r), 1.0, CLASSICAL)) == \
                pytest.approx(float(v), rel=1e-15)
