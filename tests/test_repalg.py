"""Representation, deformation-map, and coproduct action tests.

The kron-built tensor operators serve as an independent oracle for
apply_coproduct: Delta(K-) = q^{K0} (x) K- + K- (x) q^{-K0} assembled
literally from single-node matrices must agree with the index implementation.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from bgstates import repalg as ra
from bgstates.bipartite import (BipartiteMatrix, BipartiteParams, build_q_bipartite,
                                classical_bipartite)
from bgstates.costate import LadderState, build_by_operator_series, build_f_coherent
from bgstates.errors import DomainError
from bgstates.qspecial import CLASSICAL, QParam, q_number


def unit_state(n, N, k, f=CLASSICAL):
    c = np.zeros(N + 1, dtype=complex)
    c[n] = 1.0
    return LadderState(coeffs=c, k=k, alpha=0.0, deformation=f,
                       norm_before_truncation=1.0)


def block(c, k1=1.0, k2=1.0, q=CLASSICAL):
    """A coefficient block carrying the k1, k2 and q its coproduct reads."""
    return BipartiteMatrix(coeffs=c, params=BipartiteParams(1, 1, k1, k2, q))


def unit_matrix(n1, n2, N1, N2, **params):
    c = np.zeros((N1 + 1, N2 + 1), dtype=complex)
    c[n1, n2] = 1.0
    return block(c, **params)


def ladder_matrices(f, k, N):
    """Dense K0, K+, K- on |0..N, k>, built from lowering_elements."""
    e = ra.lowering_elements(f, k, N + 1)
    km = np.diag(e[1:], 1)
    return np.diag(np.arange(N + 1) + k), km.T, km


class TestMapValue:
    def test_classical_is_one(self):
        assert ra.map_value(CLASSICAL, 3.7, 1.0) == 1.0

    def test_q_map_value(self):
        # f(j+k)^2 = [j][j+2k-1] / (j(j+2k-1))
        q = QParam(0.8)
        j, k = 3, 1.0
        expect = np.sqrt(q_number(j, q) * q_number(j + 2 * k - 1, q)
                         / (j * (j + 2 * k - 1)))
        assert ra.map_value(q, j + k, k) == pytest.approx(expect, rel=1e-15)

    def test_custom_positivity_enforced(self):
        with pytest.raises(DomainError, match="strictly positive"):
            ra.map_value(lambda x: x - 2.0, 1.5, 0.5)

    def test_not_a_deformation(self):
        for f in (0.8, "q", None):
            with pytest.raises(DomainError, match="QParam or a callable"):
                ra.map_value(f, 2.0, 1.0)
            with pytest.raises(DomainError, match="QParam or a callable"):
                ra.lowering_elements(f, 1.0, 5)


class TestBargmann:
    def test_bound(self):
        assert ra.check_bargmann(0.5) == 0.5
        with pytest.raises(DomainError):
            ra.check_bargmann(0.49)
        with pytest.raises(DomainError):
            ra.check_bargmann(-1.0)


def scalar_lowering_elements(f, k, count):
    """One q_number pair (or map value) per level: the reference for the
    array tables of lowering_elements."""
    e = np.zeros(count)
    for n in range(1, count):
        if isinstance(f, QParam) and not f.is_classical:
            e[n] = np.sqrt(q_number(n, f) * q_number(n + 2 * k - 1, f))
        else:
            e[n] = ra.map_value(f, n + k, k) * np.sqrt(n * (n + 2 * k - 1))
    return e


def table_or_error(build, f, k, count):
    try:
        return build(f, k, count).tobytes()
    except DomainError as exc:
        return str(exc)


class TestLoweringElements:
    # integer and half-integer k share q-numbers between the two factors of a
    # level; q > 1 and counts about the overflow cap (where q**-n leaves
    # double range) and past a chunk are inputs too
    @pytest.mark.parametrize("q", [0.5, 0.83, 0.97, 1 / 0.83, 1.25, 2.0])
    @pytest.mark.parametrize("k", [0.5, 0.7, 0.75, 1, 1.5, 2, 2.5, 3, 30])
    def test_q_table_is_the_scalar_loop_bit_for_bit(self, q, k):
        cap = int(ra._LOG_DBL_MAX / abs(np.log(q))) + 2
        for count in (0, 1, 2, 52, 400, ra._TABLE_CHUNK + 60, cap - 1, cap, cap + 1):
            got = table_or_error(ra.lowering_elements, QParam(q), k, count)
            assert got == table_or_error(scalar_lowering_elements, QParam(q), k, count)
        # a shorter table is a prefix of a longer one, bit for bit
        full = ra.lowering_elements(QParam(q), k, 402)
        for count in (0, 1, 2, 51, 52, 401):
            assert ra.lowering_elements(QParam(q), k, count).tobytes() == full[:count].tobytes()

    @pytest.mark.parametrize("k", [0.5, 0.75, 1, 1.5, 2])
    def test_classical_table_is_the_scalar_loop_bit_for_bit(self, k):
        for count in (0, 1, 2, 52, 400):
            got = ra.lowering_elements(CLASSICAL, k, count)
            assert got.tobytes() == scalar_lowering_elements(CLASSICAL, k, count).tobytes()

    def test_product_past_double_range_is_inf_silently(self):
        # at q = 0.5 each [x]_q stays finite up to x ~ 1024, but the product
        # [n][n+1] leaves double range near n = 512; no warning, no raise
        got = ra.lowering_elements(QParam(0.5), 1.0, 600)
        assert got.tobytes() == scalar_lowering_elements(QParam(0.5), 1.0, 600).tobytes()
        assert np.isinf(got[-1]) and np.all(np.isfinite(got[:500]))

    @pytest.mark.parametrize("q, k", [(0.9, 1.0), (0.5, 0.75), (0.97, 2.5), (1 / 0.9, 2.0),
                                      (0.99, 1.5)])
    def test_overflow_names_the_first_q_number(self, q, k):
        with pytest.raises(DomainError) as want:
            scalar_lowering_elements(QParam(q), k, 100_000)
        assert "]_q overflows double range at q=" in str(want.value)
        # an absurd count raises the same error without allocating its table:
        # the table stops where q**-n leaves double range (n ~ 70_600 at
        # q = 0.99) and is built a chunk at a time, well under a MB (one
        # comprehension over those levels would take about 5 MB)
        for count in (100_000, 10 ** 15):
            tracemalloc.start()
            try:
                with pytest.raises(DomainError) as got:
                    ra.lowering_elements(QParam(q), k, count)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(got.value) == str(want.value)
            assert peak < 2_000_000


class TestApplyLadder:
    def test_k0_eigenvalue(self):
        v = unit_state(3, 10, 1.0)
        out = ra.apply_ladder("K0", v)
        assert np.allclose(out.coeffs, 4.0 * v.coeffs)

    def test_lowest_weight_annihilated(self):
        v = unit_state(0, 8, 1.5)
        assert np.all(ra.apply_ladder("K-", v).coeffs == 0)

    def test_classical_commutator_value(self):
        # (K-K+ - K+K-) |2, k=1> = 2 (n+k) |2, k=1> = 6
        v = unit_state(2, 10, 1.0)
        upd = ra.apply_ladder("K-", ra.apply_ladder("K+", v)).coeffs
        dnu = ra.apply_ladder("K+", ra.apply_ladder("K-", v)).coeffs
        assert np.allclose(upd - dnu, 6.0 * v.coeffs, atol=1e-13)

    def test_truncation_loss_flagged(self):
        N, k = 5, 1.0
        v = unit_state(N, N, k)
        out = ra.apply_ladder("K+", v)
        assert np.all(out.coeffs == 0)
        assert out.truncation_loss == pytest.approx((N + 1) * (N + 2 * k), rel=1e-15)

    def test_unknown_generator(self):
        with pytest.raises(DomainError, match="K0, K\\+ or K-"):
            ra.apply_ladder("K", unit_state(0, 5, 1.0))
        with pytest.raises(DomainError, match="K0, K\\+ or K-"):
            ra.apply_coproduct("Kz", unit_matrix(0, 0, 3, 3))


class TestStoredTables:
    """A built state carries the lowering tables it was formed from; the
    actions read them, and give the bits a fresh table gives."""

    @pytest.mark.parametrize("f", [CLASSICAL, QParam(0.8), lambda x: 1.0 + 1.0 / x],
                             ids=["classical", "q", "callable"])
    @pytest.mark.parametrize("build", [build_f_coherent, build_by_operator_series])
    def test_ladder(self, f, build):
        state = build(0.7 - 0.2j, 1.5, f, 30)
        assert len(state.ladder) == 32
        bare = dataclasses.replace(state, ladder=None)
        for which in ("K-", "K+"):
            got, want = ra.apply_ladder(which, state), ra.apply_ladder(which, bare)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.truncation_loss == want.truncation_loss

    @pytest.mark.parametrize("M", [
        build_q_bipartite(BipartiteParams(0.6, 0.3 + 0.1j, 1.0, 0.75, QParam(0.8)), 0.9, 40, 30),
        build_q_bipartite(BipartiteParams(0.6, 0.3, 1.5, 1.0, QParam(0.7)), 0.9, 200, 200),
        build_q_bipartite(BipartiteParams(0.3, 0.6, 1.0, 1.0, QParam(1.25)), 1.0, 30, 30),
        classical_bipartite(0.4, 0.5, 1.0, 2.5, 30, 35),
    ], ids=["q", "q-trailing-zeros", "crossing", "classical"])
    def test_coproduct(self, M):
        bare = dataclasses.replace(M, ladders=None)
        for which in ("K-", "K+"):
            got, want = ra.apply_coproduct(which, M), ra.apply_coproduct(which, bare)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.truncation_loss == want.truncation_loss

    def test_tables_at_the_state_q_only(self):
        # the crossing mirror's tables are at 1/q, so a q > 1 state has none
        M = build_q_bipartite(BipartiteParams(0.3, 0.6, 1.0, 1.0, QParam(1.25)), 1.0, 10, 10)
        assert M.ladders is None
        M = build_q_bipartite(BipartiteParams(0.6, 0.3, 1.0, 2.0, QParam(0.8)), 1.0, 10, 12)
        assert [len(e) for e in M.ladders] == [11, 13]


MAPS = [
    CLASSICAL,
    QParam(0.5),
    QParam(0.9),
    lambda x: 1.0 + 1.0 / (1.0 + x * x),
]


class TestMatrixProperties:
    @pytest.mark.parametrize("dmap", MAPS, ids=[f"dmap{i}" for i in range(len(MAPS))])
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.5, 5.0])
    def test_hermiticity(self, dmap, k):
        # column n of each matrix is the action on |n, k>
        N = 40
        kp, km = (np.column_stack([ra.apply_ladder(which, unit_state(n, N, k, dmap)).coeffs
                                   for n in range(N + 1)]) for which in ("K+", "K-"))
        assert np.array_equal(kp, km.T)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5])
    def test_q_commutator(self, q, k):
        # [K-, K+] = [2 K0]_q on interior levels
        N = 12
        qp = QParam(q)
        _, kp, km = ladder_matrices(qp, k, N)
        comm = km @ kp - kp @ km
        for n in range(N - 1):
            expect = q_number(2 * (n + k), qp)
            assert comm[n, n] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 3.0])
    def test_casimir(self, k):
        N = 15
        k0, kp, km = ladder_matrices(CLASSICAL, k, N)
        cas = k0 @ k0 - k0 - kp @ km
        for n in range(N - 1):
            assert cas[n, n] == pytest.approx(k * (k - 1), rel=1e-12, abs=1e-12)


class TestCoproduct:
    def test_k0_primitive(self):
        for q in (CLASSICAL, QParam(0.7)):
            M = unit_matrix(2, 3, 6, 6, k1=1.0, k2=0.5, q=q)
            out = ra.apply_coproduct("K0", M)
            assert out.coeffs[2, 3] == pytest.approx(2 + 1.0 + 3 + 0.5, rel=1e-15)

    def test_classical_lowering_example(self):
        # unit (1,0), k1=k2=1/2: matrix element sqrt(n(n+2k-1)) = sqrt(1*1) = 1
        M = unit_matrix(1, 0, 5, 5, k1=0.5, k2=0.5)
        out = ra.apply_coproduct("K-", M).coeffs
        expect = np.zeros((6, 6), dtype=complex)
        expect[0, 0] = 1.0
        assert np.allclose(out, expect, atol=1e-15)

    def test_q_lowering_spectator_weight(self):
        # unit (0,1), k1=k2=1/2, q=0.5: Delta(K-) = q^{K0} (x) K- + K- (x) q^{-K0}
        # ==> (0,0) receives q^{n1+k1} sqrt([1][1]) = q^{1/2}
        q = 0.5
        M = unit_matrix(0, 1, 4, 4, k1=0.5, k2=0.5, q=QParam(q))
        out = ra.apply_coproduct("K-", M).coeffs
        assert out[0, 0] == pytest.approx(q ** 0.5, rel=1e-15)
        assert np.count_nonzero(out) == 1

    @pytest.mark.parametrize("which", ["K-", "K+"])
    def test_against_kron_oracle(self, which):
        # literal tensor assembly of Eq-style Delta from single-node matrices
        rng = np.random.default_rng(11)
        N1, N2, k1, k2, q = 7, 6, 1.0, 1.5, 0.7
        qp = QParam(q)
        pick = ("K0", "K+", "K-").index(which)
        low1 = ladder_matrices(qp, k1, N1)[pick]
        low2 = ladder_matrices(qp, k2, N2)[pick]
        w1 = np.diag(q ** (np.arange(N1 + 1) + k1))
        w2 = np.diag(q ** -(np.arange(N2 + 1) + k2))
        big = np.kron(w1, low2) + np.kron(low1, w2)
        C = rng.standard_normal((N1 + 1, N2 + 1)) + 1j * rng.standard_normal((N1 + 1, N2 + 1))
        got = ra.apply_coproduct(which, block(C, k1, k2, qp)).coeffs
        want = (big @ C.reshape(-1)).reshape(N1 + 1, N2 + 1)
        if which == "K+":
            # the kron product keeps raises out of the top inside the block
            # boundary; compare interior only
            assert np.allclose(got[1:, 1:], want[1:, 1:], atol=1e-13)
        else:
            assert np.allclose(got, want, atol=1e-13)

    def test_homomorphism_commutator(self):
        # [Delta(K-), Delta(K+)] = [2 Delta(K0)]_q on interior entries
        rng = np.random.default_rng(5)
        N, k1, k2, q = 14, 0.5, 1.0, 0.6
        qp = QParam(q)
        C = rng.standard_normal((N + 1, N + 1)) + 1j * rng.standard_normal((N + 1, N + 1))
        M = block(C, k1, k2, qp)
        upd = ra.apply_coproduct("K-", ra.apply_coproduct("K+", M)).coeffs
        dnu = ra.apply_coproduct("K+", ra.apply_coproduct("K-", M)).coeffs
        comm = upd - dnu
        n1 = np.arange(N + 1) + k1
        n2 = np.arange(N + 1) + k2
        tot = n1[:, None] + n2[None, :]
        want = np.vectorize(lambda x: q_number(2 * x, qp))(tot) * C
        interior = np.s_[:N - 1, :N - 1]
        scale = np.max(np.abs(want[interior]))
        assert np.max(np.abs((comm - want)[interior])) < 1e-10 * scale

    def test_classical_limit_of_q_mode(self):
        rng = np.random.default_rng(17)
        N = 10
        C = rng.standard_normal((N + 1, N + 1)) + 0j
        got = ra.apply_coproduct("K-", block(C, q=QParam(1 - 1e-6))).coeffs
        want = ra.apply_coproduct("K-", block(C)).coeffs
        assert np.max(np.abs(got - want)) < 1e-4 * np.max(np.abs(want))

    def test_raising_loss_reported(self):
        out = ra.apply_coproduct("K+", unit_matrix(3, 2, 3, 4))
        # raising node 1 out of the top: weight e1[4]^2 = 4*(4+1) = 20
        assert out.truncation_loss == pytest.approx(4 * 5, rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_trailing_rows_match_the_untrimmed_block(self):
        # K+ is formed on the rows up to one past the last nonzero one: the
        # raise off that row lands in the block, not in truncation_loss, and
        # the result is the whole-block formula's
        rng = np.random.default_rng(23)
        C = np.zeros((12, 10), dtype=complex)
        C[:6] = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        for q in (CLASSICAL, QParam(0.7)):
            M = block(C, 1.0, 1.5, q)
            out = ra.apply_coproduct("K+", M)
            e1, e2, w1, w2 = ra._coproduct_arrays(M, 12, 10, raises=True)
            want = np.zeros_like(C)
            want[1:, :] += w2[None, :] * e1[1:12, None] * C[:-1, :]
            want[:, 1:] += w1[:, None] * e2[None, 1:10] * C[:, :-1]
            loss = float(np.sum(np.abs(w1 * e2[10] * C[:, 9]) ** 2))
            assert np.array_equal(out.coeffs, want)
            assert not out.coeffs[7:].any() and out.coeffs[6].all()
            # the same terms, summed over 7 rows instead of 12
            assert out.truncation_loss == pytest.approx(loss, rel=1e-15)
