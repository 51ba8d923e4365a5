"""Completeness-measure and moment-relation tests."""

import math

import numpy as np
import pytest

from bgstates import _dd
from bgstates import costate as cs
from bgstates import measure as me
from bgstates import qspecial as qs
from bgstates.errors import DomainError, SeriesConvergenceError
from bgstates.qspecial import CLASSICAL, QParam


class TestClassicalMeasure:
    def test_small_rho_limit_nu1(self):
        # I_1(2r) ~ r and K_1(2r) ~ 1/(2r) give g -> 1
        assert me.classical_measure(1e-5, 1) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("nu", [0, 1])
    def test_product_definition(self, nu):
        got = me.classical_measure(1.0, nu)
        want = 2.0 * qs.bessel_i_q(nu, 2.0, CLASSICAL) * me.bessel_k(nu, 2.0)
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

    def test_noise_past_the_budget_raises(self):
        # at rho = 13 the bracket's roundoff floor is 1.1e-9 of the value
        assert me.q_measure(12.0, 1, 0.9) > 0
        with pytest.raises(SeriesConvergenceError):
            me.q_measure(13.0, 1, 0.9)

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

    def test_printed_log_coefficient_fails(self, monkeypatch):
        # the alternative (2l+nu-3) printed form adds a multiple of
        # (I_nu^{(q)})^2 to the measure, whose moments diverge
        monkeypatch.setattr(me, "LOG_TERM_OFFSET", -3)
        report = me.moment_check(1, 1.0, QParam(0.9))
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

    @pytest.mark.parametrize("mode", ["classical", QParam(0.5), QParam(0.9)])
    @pytest.mark.parametrize("k", [0.0, -0.5, -1.0])
    def test_below_bargmann_bound_rejected(self, k, mode):
        # nu = 2k - 1 < 0 has no measure here; without the check q = 0.9 at
        # k = 0 never ends and q = 0.5 at k = -1 fails inside the log series
        with pytest.raises(DomainError, match=r"k >= 1/2"):
            me.moment_check(1, k, mode)

    @pytest.mark.parametrize("mode", ["classical", QParam(0.5), QParam(0.9)])
    @pytest.mark.parametrize("k", [20.0, 1000.0, 1e10])
    def test_absurd_k_rejected_before_any_work(self, k, mode, monkeypatch):
        # rho^-nu at rho = _LOWER leaves double range once nu = 2k-1 >= 39;
        # unchecked, q = 0.5 at k = 1e10 asks for a 149 GiB q-number table
        def no_work(*args, **kwargs):
            raise AssertionError("work started before k was checked")

        monkeypatch.setattr(me, "_log_series_dd", no_work)
        monkeypatch.setattr(me, "_gl_grid", no_work)
        with pytest.raises(DomainError, match=r"requires k <= 19\.5, .* got k="):
            me.moment_check(3, k, mode)

    @pytest.mark.parametrize("mode", ["classical", QParam(0.9)], ids=["classical", "0.9"])
    @pytest.mark.parametrize("k", [17.5, 19.5])
    def test_overflowing_integrand_is_named(self, k, mode):
        # the integrand leaves double range near the lower cutoff: a named
        # failure, not NaN moments and RuntimeWarnings
        nu = int(2 * k - 1)
        with pytest.raises(SeriesConvergenceError,
                           match=rf"moment integrand \(nu={nu}: not finite at rho=1\.0053e-08\)"):
            me.moment_check(3, k, mode)

    @pytest.mark.parametrize("mode", [QParam(1.2), 1.2])
    def test_q_above_one_is_named(self, mode):
        with pytest.raises(DomainError, match="moment_check"):
            me.moment_check(3, 1.0, mode)

    @pytest.mark.parametrize("mode", ["quantum", None])
    def test_bad_mode_is_named(self, mode):
        with pytest.raises(DomainError, match="mode must be"):
            me.moment_check(1, 1.0, mode)


def _per_panel_q_moments(n_max, k, qp):
    """The adaptive q-mode quadrature with one integrand call per panel: the
    reference the batched loop in moment_check must reproduce exactly."""
    nu = int(2 * k - 1)
    x, w = me._gl_grid(me._panel_edges(6.0))
    base, noise = me._base_integrand_q(x, nu, qp)
    lhs = np.array([float(np.dot(w, base * x ** (2 * n))) for n in range(n_max + 1)])
    noise_tally = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
    node_count = len(x)
    tail_estimate = math.inf
    r, quiet, prev_contrib, fallen = 6.0, 0, math.inf, False
    peak = n_max + nu / 2.0 + 0.25
    while r < 40.0:
        x, w = me._gl_grid(np.array([r, r + 2.0]))
        base, noise = me._base_integrand_q(x, nu, qp)
        node_count += len(x)
        contrib = float(np.dot(w, base * x ** (2 * n_max)))
        panel_noise = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
        if abs(contrib) <= panel_noise:
            tail_estimate = abs(contrib) + panel_noise
            break
        if abs(contrib) > abs(prev_contrib) and (fallen or r >= peak):
            tail_estimate = abs(contrib) + abs(prev_contrib)
            break
        for n in range(n_max + 1):
            lhs[n] += float(np.dot(w, base * x ** (2 * n)))
        noise_tally += panel_noise
        fallen = fallen or abs(contrib) < abs(prev_contrib) < math.inf
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
    each node stops the bracket's log series on its own, so every result is
    bit for bit what one call per panel gives."""

    @pytest.mark.parametrize("q", [0.7, 0.95, 0.999])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    @pytest.mark.parametrize("start", [6.0, 22.0])   # the loop's first two batches
    def test_bracket_rows_match_per_panel_calls(self, start, nu, q):
        x, _ = me._gl_grid(np.arange(start, start + 17.0, 2.0))
        batch, noise = me._log_series_dd(x, nu, QParam(q))
        for j, row in enumerate(x.reshape(8, 16)):
            one, one_noise = me._log_series_dd(row, nu, QParam(q))
            assert np.array_equal(batch[0][16 * j:16 * (j + 1)], one[0])
            assert np.array_equal(batch[1][16 * j:16 * (j + 1)], one[1])
            assert np.array_equal(noise[16 * j:16 * (j + 1)], one_noise)

    def test_fixed_cutoff_grid_is_one_group(self):
        # each node stops on its own, whatever the shape of rho: the
        # [lower, 14] grid shaped as panel rows comes out bit for bit as the
        # flat grid
        x, _ = me._gl_grid(me._panel_edges(14.0))
        flat, flat_noise = me._log_series_dd(x, 1, QParam(0.9))
        rows, rows_noise = me._log_series_dd(x.reshape(-1, me._NODES), 1, QParam(0.9))
        assert np.array_equal(flat[0], rows[0].ravel())
        assert np.array_equal(flat[1], rows[1].ravel())
        assert np.array_equal(flat_noise, rows_noise.ravel())

    @pytest.mark.parametrize("qp", [QParam(0.9), CLASSICAL], ids=["0.9", "classical"])
    def test_empty_batch(self, qp):
        # no node to stop: the series ends at once instead of running to MAX_TERMS
        value, noise = me._log_series_dd(np.array([]), 1, qp)
        assert value[0].shape == value[1].shape == noise.shape == (0,)

    CASES = [(1.0, 0.5, 3), (1.0, 0.95, 3), (0.5, 0.999, 3), (2.0, 0.87403, 3),
             (1.0, 0.82014, 3), (0.5, 0.9999, 8)]

    @pytest.mark.parametrize("k,q,n_max", CASES, ids=[f"{k}-{q}" for k, q, _ in CASES])
    def test_moment_check_matches_per_panel_loop(self, k, q, n_max):
        # covers the dip (q = 0.5, 0.82), the quiet stop (0.95, 0.999), a
        # second batch (cutoff 22 at q = 0.874) and a rise before the first
        # fall (q = 0.9999, nmax = 8)
        lhs, upper, node_count, tail_estimate, residual = _per_panel_q_moments(
            n_max, k, QParam(q))
        report = me.moment_check(n_max, k, QParam(q))
        assert [rec.lhs for rec in report.records] == list(lhs)
        assert report.upper_cutoff == upper
        assert report.node_count == node_count
        assert report.tail_estimate == tail_estimate
        assert report.tail_bound_residual == residual

    def test_rise_before_the_first_fall_is_not_the_dip(self):
        # at q = 0.9999 the nmax = 8 integrand, close to rho^17 e^{-2 rho},
        # still rises past rho = 6: the [8, 10] panel outweighs [6, 8] before
        # any panel has fallen and before the peak, so that rise is no dip
        report = me.moment_check(8, 0.5, QParam(0.9999))
        assert report.upper_cutoff > 8.0
        assert report.max_rel_err < 0.05


class TestRaggedGroups:
    """The adaptive q-mode loop evaluates the [lower, 6] grid and the first
    batch of outer panels in one bracket call; since each node stops on its
    own, each panel and the grid come out bit for bit as a call with them
    alone."""

    @staticmethod
    def _grid_and_panels():
        grid, _ = me._gl_grid(me._panel_edges(6.0))
        panels, _ = me._gl_grid(np.arange(6.0, 23.0, 2.0))
        return grid, panels.reshape(8, me._NODES)

    @pytest.mark.parametrize("q", [0.83, 0.9, 0.96])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_ragged_call_matches_per_group_calls(self, nu, q):
        grid, panels = self._grid_and_panels()
        assert len(grid) == 592
        flat = np.concatenate([grid, panels.ravel()])
        value, noise = me._log_series_dd(flat, nu, QParam(q))
        groups = [grid, *panels]
        bounds = np.cumsum([0] + [len(g) for g in groups])
        for group, lo, hi in zip(groups, bounds[:-1], bounds[1:]):
            one, one_noise = me._log_series_dd(group, nu, QParam(q))
            assert np.array_equal(value[0][lo:hi], one[0])
            assert np.array_equal(value[1][lo:hi], one[1])
            assert np.array_equal(noise[lo:hi], one_noise)

    @pytest.mark.parametrize("qp", [QParam(0.83), QParam(0.96), CLASSICAL],
                             ids=["0.83", "0.96", "classical"])
    def test_any_batch_gives_the_same_bits(self, qp):
        # the first integrand call's 720 nodes come out bit for bit as the
        # same nodes reversed and split into even and odd halves, as each
        # 16-node panel alone, and as each node of the [4, 4.5] panel alone
        # (a node there stops its series well before the batch's last node)
        grid, panels = self._grid_and_panels()
        flat = np.concatenate([grid, panels.ravel()])
        value, noise = me._log_series_dd(flat, 0, qp)
        parts = [slice(None, None, -2), slice(-2, None, -2),
                 *(slice(lo, lo + me._NODES) for lo in range(0, len(flat), me._NODES)),
                 *(slice(i, i + 1) for i in np.flatnonzero((flat > 4.0) & (flat < 4.5)))]
        for part in parts:
            alone, alone_noise = me._log_series_dd(flat[part], 0, qp)
            assert np.array_equal(value[0][part], alone[0])
            assert np.array_equal(value[1][part], alone[1])
            assert np.array_equal(noise[part], alone_noise)

    @pytest.mark.parametrize("k,q,sizes", [(1.0, 0.95, [720]), (2.0, 0.87403, [720, 128])])
    def test_integrand_calls(self, monkeypatch, k, q, sizes):
        # the grid and the first batch of panels share one call; a later
        # batch is evaluated only once the loop reaches it
        calls = []
        integrand = me._base_integrand_q

        def counted(rho, nu, qp):
            calls.append(len(rho))
            return integrand(rho, nu, qp)

        monkeypatch.setattr(me, "_base_integrand_q", counted)
        me.moment_check(3, k, QParam(q))
        assert calls == sizes


class TestIntegrandIdentity:
    """The integrands are 2 rho g N^2 with the Bessel factor of g cancelled
    against the normalization sum: rho^{nu+1} times the bracket (q) and
    4 rho^{nu+1} K_nu (classical).  Checked against the public measures and
    costate.normalization_series."""

    RHO = np.array([0.1, 1.0, 3.0, 6.0])

    @pytest.mark.parametrize("q", [0.83, 0.95])
    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_q_integrand(self, nu, q):
        qp, k = QParam(q), (nu + 1) / 2.0
        base, _ = me._base_integrand_q(self.RHO, nu, qp)
        norm = cs.normalization_series(self.RHO, k, qp)
        scale = qs.q_factorial(nu, qp) / math.gamma(2 * k)
        for rho, got, s in zip(self.RHO, base, norm):
            want = 2 * rho * me.q_measure(rho, nu, q) * scale / s
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_classical_integrand(self, nu):
        k = (nu + 1) / 2.0
        base, _ = me._base_integrand_q(self.RHO, nu, CLASSICAL)
        norm = cs.normalization_series(self.RHO, k, CLASSICAL)
        for rho, got, s in zip(self.RHO, base, norm):
            want = 2 * rho * me.classical_measure(rho, nu) / s
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("nu", [0, 1, 3])
    def test_classical_integrand_is_4_rho_k(self, nu):
        # the bracket at the classical tag is exactly 4 K_nu(2 rho)
        x, _ = me._gl_grid(me._panel_edges(12.0))
        base, noise = me._base_integrand_q(x, nu, CLASSICAL)
        bracket, bracket_noise = me._log_series_dd(x, nu, CLASSICAL)
        scale = x ** (nu + 1)
        assert np.array_equal(base, scale * _dd.to_float(bracket))
        assert np.array_equal(noise, scale * bracket_noise)
        for i in range(0, np.searchsorted(x, 10.0), 25):    # bessel_k's range, 2 rho <= 20
            assert base[i] == 4.0 * scale[i] * me.bessel_k(nu, 2.0 * x[i])


def _scalar_qnum_table(q, count):
    """The q-number table as the scalar loop forms it, one m at a time."""
    q_dd = _dd.dd(q)
    denom = _dd.sub(q_dd, _dd.recip(q_dd))
    out = [_dd.dd(0.0), _dd.dd(1.0)]
    for m in range(2, count):
        num = _dd.sub(_dd.pow_int(q_dd, m), _dd.pow_int(q_dd, -m))
        out.append(_dd.div(num, denom))
    return out


def _scalar_psi_extension(psi1, q, count):
    """psi_{q^2}(m), m = 1..count, from psi_{q^2}(1) by the scalar recurrence."""
    big_q = _dd.sqr(_dd.dd(q))
    ln_big_q = _dd.log(big_q)
    out, qm = [psi1], big_q
    while len(out) < count:
        step = _dd.div(_dd.mul(ln_big_q, qm), _dd.sub(_dd.dd(1.0), qm))
        out.append(_dd.sub(out[-1], step))
        qm = _dd.mul(qm, big_q)
    return out


class TestVectorisedTables:
    """The q-number and psi_{q^2} tables extend in array passes with the
    operations of the scalar loops, staged or in one go."""

    @pytest.fixture(autouse=True)
    def _fresh_tables(self):
        me._QNUM_CACHE.clear()
        me._PSI_CACHE.clear()
        yield
        me._QNUM_CACHE.clear()
        me._PSI_CACHE.clear()

    @pytest.mark.parametrize("q", [0.5, 0.83, 0.96, 0.999])
    @pytest.mark.parametrize("stages", [(300,), (70, 300)])
    def test_qnum_table_matches_scalar_loop(self, stages, q):
        for count in stages:
            table = me._qnum_dd_table(q, count)
        assert table == _scalar_qnum_table(q, 300)

    @pytest.mark.parametrize("q", [0.5, 0.83, 0.96, 0.999])
    @pytest.mark.parametrize("stages", [(300,), (70, 300)])
    def test_psi_table_matches_scalar_recurrence(self, stages, q):
        psi1 = me._psi_q2_table(q, 1)[0]
        for count in stages:
            table = me._psi_q2_table(q, count)
        assert table == _scalar_psi_extension(psi1, q, 300)

    @pytest.mark.parametrize("q", [0.5, 0.83, 0.95, 0.999])
    def test_psi_table_matches_q_digamma(self, q):
        # independent oracle: qspecial.q_digamma sums the series of every
        # psi_{q^2}(m) afresh in float blocks, where the table sums psi(1)
        # in dd and steps by the recurrence
        table = me._psi_q2_table(q, 80)
        for m, (hi, lo) in enumerate(table, start=1):
            assert hi + lo == pytest.approx(qs.q_digamma(m, q * q), rel=1e-13)


class TestOutOfDoubleRange:
    """A log series or a table that leaves double range is named, with no
    RuntimeWarning on the way (the suite turns them into errors)."""

    @pytest.mark.parametrize("nu", [34, 35, 36, 37, 38])
    def test_overflowing_bessel_k_is_named(self, nu):
        # the value is not finite, which is not a cancellation floor
        with pytest.raises(SeriesConvergenceError,
                           match=r"bessel_k \(not finite at 2rho=2e-08\)"):
            me.bessel_k(nu, 2e-8)

    @pytest.mark.parametrize("nu", [34, 38])
    def test_overflowing_q_measure_is_named(self, nu):
        with pytest.raises(SeriesConvergenceError,
                           match=r"q_measure \(not finite at rho=1e-08, q=0\.9\)"):
            me.q_measure(1e-8, nu, 0.9)

    @pytest.mark.parametrize("q,m", [(1e-10, 31), (1e-300, 2), (5e-324, 2)])
    def test_qnum_table_names_q(self, q, m):
        with pytest.raises(DomainError, match=rf"q-number \[{m}\]_q .* at q={q}$"):
            me._qnum_dd_table(q, 66)

    @pytest.mark.parametrize("q", [1e-160, 1e-300])
    def test_psi_table_names_q(self, q):
        with pytest.raises(DomainError, match=rf"psi_\{{q\^2\}} table .* at q={q}$"):
            me._psi_q2_table(q, 4)

    def test_psi_sum_stops_on_an_underflowed_term(self, monkeypatch):
        # at Q = q^2 = 4e-297 the stop 1e-36 |s| underflows to 0 and so does
        # the term Q^2: the sum of psi_Q(1) ends there instead of at MAX_TERMS
        monkeypatch.setattr(qs, "MAX_TERMS", 64)
        table = me._psi_q2_table(6.2e-149, 70)
        assert all(np.isfinite(entry).all() for entry in table)

    @pytest.mark.parametrize("qp", [QParam(0.9), CLASSICAL], ids=["0.9", "classical"])
    def test_nan_node_ends_its_series(self, qp, monkeypatch):
        # a NaN term meets no roundoff test: the stop is written so that it
        # ends its node's series at once instead of running to MAX_TERMS
        monkeypatch.setattr(qs, "MAX_TERMS", 64)
        with np.errstate(invalid="ignore"):    # dd's exp casts the NaN node's exponent
            value, noise = me._log_series_dd(np.array([np.nan, 1.0]), 1, qp)
        alone, alone_noise = me._log_series_dd(np.array([1.0]), 1, qp)
        assert np.isnan(value[0][0]) and np.isnan(noise[0])
        assert (value[0][1], value[1][1], noise[1]) == (alone[0][0], alone[1][0], alone_noise[0])
