"""Tests for the q-special-function layer.

Expected values marked "# oracle:" were computed from the independent route
named next to them (direct evaluation, recurrence iteration, quadrature of an
integral representation) and then frozen.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bgstates import qspecial as qs
from bgstates.errors import DomainError, PoleError, SeriesConvergenceError


class TestQNumber:
    def test_zero_and_one(self):
        for q in (0.3, 0.6, 0.9):
            assert qs.q_number(0, q) == 0.0
            assert qs.q_number(1, q) == pytest.approx(1.0, rel=1e-15)

    def test_direct_value(self):
        # oracle: q + 1/q at q=0.5
        assert qs.q_number(2, 0.5) == pytest.approx(2.5, rel=1e-15)

    @given(st.floats(-5, 5), st.sampled_from([0.3, 0.6, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_odd(self, x, q):
        assert qs.q_number(x, q) == pytest.approx(qs.q_number(x, 1.0 / q), rel=1e-12, abs=1e-12)
        assert qs.q_number(-x, q) == pytest.approx(-qs.q_number(x, q), rel=1e-12, abs=1e-12)

    def test_overflow_is_named(self):
        with pytest.raises(DomainError, match=r"\[10000\]_q"):
            qs.q_number(10000, 0.9)
        with pytest.raises(DomainError, match=r"\[-800\]_q"):
            qs.q_number(-800, 0.3)

    def test_classical_tag(self):
        assert qs.q_number(3.7, qs.CLASSICAL) == 3.7

    def test_qparam_validation(self):
        with pytest.raises(DomainError, match=r"QParam\.classical\(\) for q = 1"):
            qs.QParam(1.0)
        for bad in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                qs.QParam(bad)
        assert qs.QParam(1.3).value == 1.3


class TestQFactorial:
    def test_empty_product(self):
        assert qs.q_factorial(0, 0.77) == 1.0

    def test_small_values(self):
        # oracle: [1][2] = 1 * 2.5, then * [3]_{0.5} = 5.25 (direct evaluation)
        assert qs.q_factorial(2, 0.5) == pytest.approx(2.5, rel=1e-15)
        assert qs.q_factorial(3, 0.5) == pytest.approx(13.125, rel=1e-15)

    def test_classical(self):
        assert qs.q_factorial(6, qs.CLASSICAL) == 720.0

    @pytest.mark.parametrize("q", [0.5, 0.9, qs.CLASSICAL])
    def test_non_integer_order_is_the_continuation(self, q):
        assert qs.q_factorial(0.5, q) == qs.q_factorial_cont(0.5, q)


class TestQFactorialCont:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_integer_agreement(self, q):
        for n in range(21):
            assert qs.q_factorial_cont(n, q) == pytest.approx(
                qs.q_factorial(n, q), rel=1e-11)

    def test_specific(self):
        assert qs.q_factorial_cont(0, 0.9) == pytest.approx(1.0, rel=1e-12)
        assert qs.q_factorial_cont(4, 0.9) == pytest.approx(qs.q_factorial(4, 0.9), rel=1e-12)
        assert qs.q_factorial_cont(2, 0.5) == pytest.approx(2.5, rel=1e-12)

    def test_classical_tag_is_gamma(self):
        assert qs.q_factorial_cont(3.5, qs.CLASSICAL) == pytest.approx(math.gamma(4.5))

    @pytest.mark.parametrize("z", [-0.5, 0.25, 0.5, 1.7, 4.3, 9.9])
    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_functional_equation_off_integers(self, z, q):
        # the continuation satisfies [z]! = [z]_q [z-1]! exactly, which pins
        # it beyond the integer-agreement oracle
        lhs = qs.q_factorial_cont(z + 1.0, q)
        rhs = qs.q_number(z + 1.0, q) * qs.q_factorial_cont(z, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestQPochhammer:
    def test_empty(self):
        assert qs.q_pochhammer(123.4, 0.5, 0) == 1.0

    def test_finite(self):
        # oracle: (1-0.5)(1-0.25)
        assert qs.q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375, rel=1e-15)

    def test_vanishing_first_factor(self):
        for q in (0.2, 0.8):
            assert qs.q_pochhammer(1.0, q, 3) == 0.0

    def test_infinite_product_euler(self):
        # oracle: Euler function phi(0.5) by brute-force partial product (200 factors)
        brute = 1.0
        for j in range(200):
            brute *= 1.0 - 0.5 * 0.5 ** j
        assert qs.q_pochhammer(0.5, 0.5) == pytest.approx(brute, rel=1e-14)

    def test_infinite_needs_q_below_one(self):
        with pytest.raises(DomainError):
            qs.q_pochhammer(0.5, 1.5, None)

    @pytest.mark.parametrize("n", range(13))
    @pytest.mark.parametrize("q", [0.5, 0.8])
    def test_signed_qbinomial_sum(self, n, q):
        # (x; Q)_n = sum_j (-1)^j Q^{j(j-1)/2} [n,j]_Q x^j with Q = q^2
        Q = q * q
        x = 0.37
        total = 0.0
        for j in range(n + 1):
            total += (-1) ** j * Q ** (j * (j - 1) / 2.0) * qs.q_binomial(n, j, Q) * x ** j
        assert qs.q_pochhammer(x, Q, n) == pytest.approx(total, rel=1e-12)


class TestQBinomial:
    def test_edges(self):
        for n in range(6):
            assert qs.q_binomial(n, 0, 0.3) == 1.0
            assert qs.q_binomial(n, n, 0.3) == 1.0
        assert qs.q_binomial(4, -1, 0.3) == 0.0
        assert qs.q_binomial(4, 5, 0.3) == 0.0

    def test_direct(self):
        # oracle: 1 + base at base = 0.25
        assert qs.q_binomial(2, 1, 0.25) == pytest.approx(1.25, rel=1e-15)

    def test_classical_limit(self):
        assert qs.q_binomial(4, 2, 1.0) == 6.0
        assert qs.q_binomial(10, 4, 1.0 - 1e-9) == pytest.approx(210.0, rel=1e-6)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_pascal_recurrence(self, q):
        # h_{n+1,k} = h_{n,k} + q^{2(n-k+1)} h_{n,k-1} with h = binom in base q^2
        b = q * q
        for n in range(20):
            for k in range(1, n + 1):
                lhs = qs.q_binomial(n + 1, k, b)
                rhs = qs.q_binomial(n, k, b) + q ** (2 * (n - k + 1)) * qs.q_binomial(n, k - 1, b)
                assert lhs == pytest.approx(rhs, rel=1e-13)


class TestQGamma:
    def test_z1(self):
        for q in (0.3, 0.5, 0.9):
            assert qs.q_gamma(1.0, q) == pytest.approx(1.0, rel=1e-14)

    def test_z2_telescoping(self):
        assert qs.q_gamma(2.0, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_recurrence_oracle(self):
        # oracle: Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z) iterated from Gamma_q(1)=1
        q = 0.9
        ref = 1.0
        for j in range(1, 6):
            ref *= (1.0 - q ** j) / (1.0 - q)
        assert qs.q_gamma(6.0, q) == pytest.approx(ref, rel=1e-13)

    def test_pole(self):
        with pytest.raises(PoleError):
            qs.q_gamma(0.0, 0.5)
        with pytest.raises(PoleError):
            qs.q_gamma(-2.0, 0.7)

    @pytest.mark.parametrize("z", [-0.5, -1.5, -2.3])
    def test_negative_noninteger_by_recurrence(self, z):
        # continue downward with Gamma_q(z+1) = (1-q^z)/(1-q) Gamma_q(z)
        q = 0.6
        ref = qs.q_gamma(z + 3.0, q)
        for j in (z + 2.0, z + 1.0, z):
            ref = ref * (1.0 - q) / (1.0 - q ** j)
        assert qs.q_gamma(z, q) == pytest.approx(ref, rel=1e-12)


class TestQDigamma:
    def test_finite_difference_oracle(self):
        h = 1e-5
        fd = (math.log(qs.q_gamma(2 + h, 0.8)) - math.log(qs.q_gamma(2 - h, 0.8))) / (2 * h)
        assert qs.q_digamma(2.0, 0.8) == pytest.approx(fd, abs=1e-6)

    def test_classical_limit(self):
        # psi(1) = -EulerGamma in the q -> 1 limit
        assert qs.q_digamma(1.0, 0.999) == pytest.approx(-0.5772156649, abs=2e-2)

    def test_monotone(self):
        assert qs.q_digamma(3.0, 0.9) > qs.q_digamma(1.0, 0.9)

    def test_domain(self):
        with pytest.raises(DomainError):
            qs.q_digamma(0.0, 0.9)


class TestBesselI:
    def test_trivial_zeros(self):
        assert qs.bessel_i_q(0, 0.0, qs.CLASSICAL) == 1.0
        assert qs.bessel_i_q(2, 0.0, qs.CLASSICAL) == 0.0
        assert qs.bessel_i_q(0, 0.0, 0.5) == 1.0
        assert qs.bessel_i_q(3, 0.0, 0.5) == 0.0

    def test_classical_value(self):
        # oracle: direct series summation of I_1(2) = sum 1/(n! (n+1)!) = 1.5906368546...
        assert qs.bessel_i_q(1, 2.0, qs.CLASSICAL) == pytest.approx(1.5906368546373288, rel=1e-13)

    def test_against_scipy(self):
        import scipy.special as sp
        for m in (0, 1, 3):
            for tz in (0.3, 2.0, 11.0, 30.0):
                assert qs.bessel_i_q(m, tz, qs.CLASSICAL) == pytest.approx(
                    float(sp.iv(m, tz)), rel=1e-13)

    def test_q_series_brute_force(self):
        # oracle: 60-term brute-force sum with explicit q-factorials
        q, m, z = 0.9, 1, 1.0
        brute = math.fsum(
            z ** (m + 2 * n) / (qs.q_factorial(n, q) * qs.q_factorial(m + n, q))
            for n in range(60))
        assert qs.bessel_i_q(m, 2 * z, q) == pytest.approx(brute, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            qs.bessel_i_q(0, -1.0, qs.CLASSICAL)


class TestBesselK:
    def test_leading_small_rho(self):
        # first sum's l=0 term is (1/2) rho^{-1} for nu=1
        rho = 1e-6
        assert qs.bessel_k(1, 2 * rho) == pytest.approx(0.5 / rho, rel=1e-5)

    def test_quadrature_oracle(self):
        # oracle: K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt at x = 2
        for nu in (0, 1, 2):
            ref, err = quad(lambda t: math.exp(-2.0 * math.cosh(t)) * math.cosh(nu * t),
                            0, 30, limit=400, epsabs=1e-14, epsrel=1e-13)
            assert err < 1e-10
            assert qs.bessel_k(nu, 2.0) == pytest.approx(ref, rel=1e-11)

    def test_frozen_value(self):
        # oracle: quadrature of the integral representation, frozen
        assert qs.bessel_k(0, 2.0) == pytest.approx(0.11389387274953344, rel=1e-12)

    def test_against_scipy_range(self):
        import scipy.special as sp
        for nu in (0, 1, 2, 4):
            for tz in (0.1, 1.0, 6.0, 20.0):
                assert qs.bessel_k(nu, tz) == pytest.approx(float(sp.kv(nu, tz)), rel=1e-11)

    def test_cancellation_floor_raises(self):
        with pytest.raises(SeriesConvergenceError):
            qs.bessel_k(2, 60.0)

    @pytest.mark.parametrize("nu", [4, 5, 7])
    @pytest.mark.parametrize("two_rho", [20.0, 26.0, 30.0, 33.0])
    def test_error_within_reported_noise(self, nu, two_rho):
        # oracle: mpmath at 40 digits.  The finite part's coefficients
        # (nu-l-1)!/(2 l!) must not be rounded to doubles: from nu = 4 on that
        # rounding survives the e^{4 rho} cancellation and exceeds the noise
        value, noise = qs._bessel_k_dd(nu, two_rho)
        with mpmath.workdps(40):
            ref = mpmath.besselk(nu, two_rho)
        got = mpmath.mpf(float(value[0])) + mpmath.mpf(float(value[1]))
        assert abs(float(got - ref)) <= float(noise)

    def test_rounded_coefficients_do_not_pass_the_floor(self):
        # the true value is 9.43e-17, below what the series can resolve here
        with pytest.raises(SeriesConvergenceError):
            qs.bessel_k(7, 36.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            qs.bessel_k(1, 0.0)
        with pytest.raises(DomainError):
            qs.bessel_k(-1, 2.0)


class TestClassicalLimits:
    """All q-functions approach their classical counterparts monotonically as
    q -> 1^- (sampled at q = 1 - 10^{-d}, d = 2..5)."""

    QS = [1.0 - 10.0 ** -d for d in range(2, 6)]

    def _assert_monotone_approach(self, values, target):
        errs = [abs(v - target) for v in values]
        assert all(e1 >= e2 * 0.999999 for e1, e2 in zip(errs, errs[1:])), (errs, target)
        assert errs[-1] < 1e-4 * max(1.0, abs(target))

    def test_q_number(self):
        self._assert_monotone_approach([qs.q_number(3.3, q) for q in self.QS], 3.3)

    def test_q_factorial(self):
        self._assert_monotone_approach([qs.q_factorial(5, q) for q in self.QS], 120.0)

    def test_q_gamma(self):
        self._assert_monotone_approach([qs.q_gamma(3.5, q) for q in self.QS], math.gamma(3.5))

    def test_q_digamma(self):
        from scipy.special import digamma
        self._assert_monotone_approach([qs.q_digamma(2.5, q) for q in self.QS],
                                       float(digamma(2.5)))

    def test_bessel_i(self):
        target = qs.bessel_i_q(1, 2.0, qs.CLASSICAL)
        self._assert_monotone_approach([qs.bessel_i_q(1, 2.0, q) for q in self.QS], target)

    def test_q_binomial(self):
        self._assert_monotone_approach(
            [qs.q_binomial(6, 3, q * q) for q in self.QS], 20.0)

    def test_q_factorial_cont(self):
        self._assert_monotone_approach(
            [qs.q_factorial_cont(3.5, q) for q in self.QS[:3]], math.gamma(4.5))

    def test_q_pochhammer(self):
        self._assert_monotone_approach(
            [qs.q_pochhammer(0.4, q, 5) for q in self.QS], (1 - 0.4) ** 5)


def test_series_control_max_terms_signal(monkeypatch):
    monkeypatch.setattr(qs, "MAX_TERMS", 3)
    with pytest.raises(SeriesConvergenceError):
        qs.q_pochhammer(0.9, 0.99, None)


class TestNoiseBudget:
    @pytest.mark.parametrize("nu,two_rho", [(5, 33.0), (7, 33.5)])
    def test_bessel_k_refuses_percent_level_noise(self, nu, two_rho):
        # these carry a roundoff floor of 2.0 % and 2.7 % of the value and
        # are 0.15 % off mpmath: far past the budget
        with pytest.raises(SeriesConvergenceError):
            qs.bessel_k(nu, two_rho)

    @pytest.mark.parametrize("nu", [0, 1, 4, 8])
    @pytest.mark.parametrize("two_rho", [0.5, 6.0, 20.0])
    def test_accepted_range_is_far_inside_the_budget(self, nu, two_rho):
        value, noise = qs._bessel_k_dd(nu, two_rho)
        assert float(noise) <= 0.01 * qs.NOISE_BUDGET * abs(float(value[0]))
        assert qs.bessel_k(nu, two_rho) == float(value[0] + value[1])


class TestBesselIRealOrder:
    @pytest.mark.parametrize("m", [0.5, 1.5, 2.25])
    def test_real_order_is_the_defining_sum(self, m):
        q = 0.85
        z = 0.7
        want = math.fsum(z ** (m + 2 * n) / (qs.q_factorial(n, q) * qs.q_factorial(m + n, q))
                         for n in range(60))
        assert qs.bessel_i_q(m, 2 * z, qs.QParam(q)) == pytest.approx(want, rel=1e-12)

    def test_integer_valued_float_order_takes_the_integer_path(self):
        z = np.linspace(0.1, 3.0, 7)
        a = qs._bessel_i_series(2, z, qs.QParam(0.9))
        b = qs._bessel_i_series(2.0, z, qs.QParam(0.9))
        assert np.array_equal(a, b)

    def test_classical_order_stays_integer(self):
        with pytest.raises(DomainError):
            qs.bessel_i_q(0.5, 1.0, qs.CLASSICAL)
        with pytest.raises(DomainError):
            qs.bessel_i_q(-0.5, 1.0, qs.QParam(0.9))
