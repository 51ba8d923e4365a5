"""Completeness-measure and moment-relation tests."""

import math

import numpy as np
import pytest

from bgstates import measure as me
from bgstates import qspecial as qs
from bgstates.errors import DomainError
from bgstates.qspecial import CLASSICAL, DEFAULT_CONTROL, QParam


class TestClassicalMeasure:
    def test_small_rho_limit_nu1(self):
        # I_1(2r) ~ r and K_1(2r) ~ 1/(2r) give g -> 1
        assert me.classical_measure(1e-5, 1) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_product_definition(self, nu):
        got = me.classical_measure(1.0, nu)
        want = 2.0 * qs.bessel_i_q(nu, 2.0, CLASSICAL) * qs.bessel_k(nu, 2.0)
        assert got == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("nu", [0, 1, 2])
    def test_positive_on_grid(self, nu):
        for rho in np.linspace(0.05, 10.0, 40):
            assert me.classical_measure(float(rho), nu) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            me.classical_measure(0.0, 1)


class TestQMeasure:
    def test_nu0_runs(self):
        # first finite sum is empty at nu = 0
        val = me.q_measure(0.7, 0, 0.9)
        assert np.isfinite(val)

    def test_pointwise_classical_limit_monotone(self):
        grid = np.linspace(0.2, 5.0, 9)
        prev = None
        for d in (2, 3, 4):
            q = 1.0 - 10.0 ** -d
            errs = [abs(me.q_measure(float(r), 1, q) - me.classical_measure(float(r), 1))
                    / abs(me.classical_measure(float(r), 1)) for r in grid]
            worst = max(errs)
            if prev is not None:
                assert worst < prev
            prev = worst
        assert prev < 1e-5

    def test_positive_on_moderate_grid(self):
        for rho in np.linspace(0.1, 4.0, 12):
            assert me.q_measure(float(rho), 1, 0.9) > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            me.q_measure(-1.0, 1, 0.9)
        with pytest.raises(DomainError):
            me.q_measure(1.0, 1, 1.2)
        with pytest.raises(DomainError):
            me.q_measure(1.0, 1, CLASSICAL)


class TestClassicalMoments:
    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
    def test_reproduces_factorial_gamma(self, k):
        report = me.moment_check(5, k, "classical")
        for rec in report.records:
            assert rec.rhs == pytest.approx(
                math.factorial(rec.n) * math.gamma(rec.n + 2 * k), rel=1e-15)
            assert rec.rel_err <= 1e-5
        assert report.tail_bound_residual < 1e-9

    def test_specific_values(self):
        report = me.moment_check(3, 1.0, "classical")
        assert report.records[0].lhs == pytest.approx(1.0, abs=1e-6)
        assert report.records[3].lhs == pytest.approx(144.0, rel=1e-5)

    @pytest.mark.parametrize("k", [2.5, 3.0])
    def test_high_order_accuracy(self, k):
        # nu = 4, 5: with K_nu's finite-part coefficients rounded to doubles
        # these moments are off by ~1e-7; carried in dd, by ~1e-13
        assert me.moment_check(3, k, "classical").max_rel_err <= 1e-9

    def test_metadata_present(self):
        report = me.moment_check(1, 1.0, "classical")
        assert report.upper_cutoff > report.lower_cutoff > 0
        assert report.node_count > 100
        assert report.mode == "classical"


class TestQMoments:
    @pytest.mark.parametrize("q", [0.9, 0.95])
    @pytest.mark.parametrize("k", [1.0, 1.5])
    def test_reproduces_q_factorials(self, q, k):
        qp = QParam(q)
        report = me.moment_check(3, k, qp)
        for rec in report.records:
            want = qs.q_factorial(rec.n, qp) * qs.q_factorial(int(rec.n + 2 * k - 1), qp)
            assert rec.rhs == pytest.approx(want, rel=1e-15)
            assert rec.rel_err <= 1e-3

    def test_moment_zero_spec_example(self):
        report = me.moment_check(0, 1.0, QParam(0.95))
        assert report.records[0].lhs == pytest.approx(1.0, rel=1e-3)

    @pytest.mark.parametrize("k", [2.0, 2.5])
    def test_higher_bargmann_index(self, k):
        # nu = 3, 4 exercise the general finite-sum/log-series structure
        assert me.moment_check(3, k, "classical").max_rel_err <= 1e-5
        assert me.moment_check(2, k, QParam(0.95)).max_rel_err <= 1e-3

    def test_printed_log_coefficient_fails(self):
        # the alternative (2l+nu-3) printed form adds a multiple of
        # (I_nu^{(q)})^2 to the measure, whose moments diverge
        report = me.moment_check(1, 1.0, QParam(0.9), log_term_offset=-3)
        assert report.max_rel_err > 1.0

    def test_float_mode_accepted(self):
        report = me.moment_check(0, 1.0, 0.9)
        assert report.q == 0.9
        assert report.records[0].rel_err < 1e-3

    def test_small_q_degrades_gracefully_and_flags(self):
        # the measure resolves the identity only on its decaying window,
        # which narrows as q drops; the quadrature stops at the dip instead
        # of integrating into the growing oscillation, and the reported tail
        # estimate exposes the loss of accuracy
        rep08 = me.moment_check(3, 1.0, QParam(0.8))
        assert rep08.max_rel_err < 5e-3
        rep07 = me.moment_check(3, 1.0, QParam(0.7))
        # accuracy is gone at q = 0.7, and the report says so itself
        assert rep07.tail_estimate > 0.1 * max(abs(r.rhs) for r in rep07.records)


class TestValidation:
    def test_nmax_range(self):
        with pytest.raises(DomainError):
            me.moment_check(9, 1.0, "classical")
        with pytest.raises(DomainError):
            me.moment_check(-1, 1.0, "classical")

    def test_non_integer_nu_rejected(self):
        with pytest.raises(DomainError):
            me.moment_check(2, 0.75, "classical")

    def test_quadrature_spec_validation(self):
        with pytest.raises(DomainError):
            me.QuadratureSpec(lower=0.0)
        with pytest.raises(DomainError):
            me.QuadratureSpec(nodes_per_panel=1)

    def test_explicit_upper_cutoff(self):
        report = me.moment_check(0, 1.0, QParam(0.9),
                                 quad=me.QuadratureSpec(upper=14.0))
        assert report.upper_cutoff == 14.0
        assert report.records[0].rel_err < 1e-3


def _per_panel_q_moments(n_max, k, qp):
    """The adaptive q-mode quadrature with one integrand call per panel: the
    reference the batched loop in moment_check must reproduce exactly."""
    nu = int(2 * k - 1)
    quad = me.QuadratureSpec()
    x, w = me._gl_grid(me._panel_edges(quad.lower, 6.0, quad.panel_width),
                       quad.nodes_per_panel)
    base, noise = me._base_integrand_q(x, k, nu, qp, -1, DEFAULT_CONTROL)
    lhs = np.array([float(np.dot(w, base * x ** (2 * n))) for n in range(n_max + 1)])
    noise_tally = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
    node_count = len(x)
    tail_estimate = math.inf
    r, quiet, prev_contrib = 6.0, 0, math.inf
    while r < 40.0:
        x, w = me._gl_grid(np.array([r, r + 2.0]), quad.nodes_per_panel)
        base, noise = me._base_integrand_q(x, k, nu, qp, -1, DEFAULT_CONTROL)
        node_count += len(x)
        contrib = float(np.dot(w, base * x ** (2 * n_max)))
        panel_noise = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
        if abs(contrib) <= panel_noise:
            tail_estimate = abs(contrib) + panel_noise
            break
        if abs(contrib) > abs(prev_contrib):
            tail_estimate = abs(contrib) + abs(prev_contrib)
            break
        for n in range(n_max + 1):
            lhs[n] += float(np.dot(w, base * x ** (2 * n)))
        noise_tally += panel_noise
        prev_contrib = contrib
        r += 2.0
        if abs(contrib) < 1e-7 * abs(lhs[n_max]):
            quiet += 1
            if quiet >= 2:
                tail_estimate = 2.0 * abs(contrib)
                break
        else:
            quiet = 0
    return lhs, r, node_count, tail_estimate, noise_tally / abs(lhs[n_max])


class TestBatchedPanels:
    """The adaptive q-mode loop evaluates several panels per integrand call;
    per-panel stopping of the bracket's log series keeps every result bit for
    bit what one call per panel gives."""

    @pytest.mark.parametrize("q", [0.7, 0.95, 0.999])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    @pytest.mark.parametrize("start", [6.0, 22.0])   # the loop's first two batches
    def test_bracket_rows_match_per_panel_calls(self, start, nu, q):
        x, _ = me._gl_grid(np.arange(start, start + 17.0, 2.0), 16)
        panels = x.reshape(8, 16)
        batch, noise = me._q_bracket_dd(panels, nu, q, -1, DEFAULT_CONTROL)
        for j, row in enumerate(panels):
            one, one_noise = me._q_bracket_dd(row, nu, q, -1, DEFAULT_CONTROL)
            assert np.array_equal(batch[0][j], one[0])
            assert np.array_equal(batch[1][j], one[1])
            assert np.array_equal(noise[j], one_noise)

    def test_fixed_cutoff_grid_is_one_group(self):
        # with an explicit upper cutoff no adaptive loop runs: the whole
        # [lower, 14] grid is one integrand call, and its bracket one group
        quad = me.QuadratureSpec(upper=14.0)
        qp = QParam(0.9)
        x, w = me._gl_grid(me._panel_edges(quad.lower, 14.0, quad.panel_width),
                           quad.nodes_per_panel)
        flat, flat_noise = me._q_bracket_dd(x, 1, 0.9, -1, DEFAULT_CONTROL)
        row, row_noise = me._q_bracket_dd(x[None, :], 1, 0.9, -1, DEFAULT_CONTROL)
        assert np.array_equal(flat[0], row[0][0]) and np.array_equal(flat[1], row[1][0])
        assert np.array_equal(flat_noise, row_noise[0])
        base, _ = me._base_integrand_q(x, 1.0, 1, qp, -1, DEFAULT_CONTROL)
        report = me.moment_check(2, 1.0, qp, quad=quad)
        assert report.node_count == len(x)
        assert report.tail_estimate == 0.0
        for rec in report.records:
            assert rec.lhs == float(np.dot(w, base * x ** (2 * rec.n)))

    @pytest.mark.parametrize("k,q", [(1.0, 0.5), (1.0, 0.95), (0.5, 0.999),
                                     (2.0, 0.87403), (1.0, 0.82014)])
    def test_moment_check_matches_per_panel_loop(self, k, q):
        # covers the dip (q = 0.5, 0.82), the quiet stop (0.95, 0.999) and a
        # second batch (cutoff 22 at q = 0.874)
        lhs, upper, node_count, tail_estimate, residual = _per_panel_q_moments(
            3, k, QParam(q))
        report = me.moment_check(3, k, QParam(q))
        assert [rec.lhs for rec in report.records] == list(lhs)
        assert report.upper_cutoff == upper
        assert report.node_count == node_count
        assert report.tail_estimate == tail_estimate
        assert report.tail_bound_residual == residual
