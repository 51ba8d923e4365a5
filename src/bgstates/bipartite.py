"""Entangled bipartite Barut-Girardello coherent states for su_q(1,1).

The two-node K- eigenstate problem reduces, after factoring out the
single-node coefficient profile, to the double-indexed recurrence

    eta q^n g_{n,m+1} + xi q^{-m} g_{n+1,m} = g_{n,m},
    xi = (alpha1/alpha) q^{-k2},   eta = (alpha2/alpha) q^{k1},

solved three independent ways, each a block function of (boundary, params,
N1, N2): row propagation from the boundary row d_m, the q-binomial-weighted
finite sum, and the geometric-boundary closed form q^{nm} delta^m xi^{-n}
(delta*eta; q^2)_n, which the tests triangulate.  The closed form is the g
that scalar-delta states are assembled from, and ``g-oracle``'s
``rel_closed`` checks that same block.
The assembled coefficient matrix

    c_{n1,n2} = alpha1^{n1} alpha2^{n2}
                / sqrt([n1]![n2]![n1+2k1-1]![n2+2k2-1]!)  *  g_{n1,n2}

is an eigen-matrix of the q-coproduct lowering operator with eigenvalue
alpha = alpha1 + alpha2 and its q^{n1 n2} content is what forbids
factorization for q != 1.  A q > 1 state takes g from the crossing
substitution (swap the nodes, invert q, transpose) and its profiles at q.

A boundary row is a plain value: a real scalar delta is the geometric row
d_m = delta^m, a sequence is d_0..d_M itself.

Deformed states are assembled, in real arithmetic for real alphas, as
stacks c[block, n1, n2] (a sweep along q, :func:`sweep_q`) that the measures
act on as c[..., :, :]: the tables, profiles and g of a stack are each
formed in one pass, one state is the stack of one, and each block has the
bits it has alone.  The Schmidt SVD takes each block on its own support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .costate import _profile_with_table, build_f_coherent, single_node_profile
from .errors import DomainError, ShapeError, TruncationError
from . import qspecial
from .qspecial import (CLASSICAL, QParam, _bessel_i_series, _sum_series, q_factorial,
                       q_number, q_binomial)
from .repalg import _blocks, _reach, apply_coproduct, check_bargmann

__all__ = [
    "BipartiteParams",
    "BipartiteMatrix",
    "classical_bipartite",
    "solve_g_recurrence",
    "g_ansatz_block",
    "g_closed_block",
    "build_q_bipartite",
    "norm_series",
    "crossing_transform",
    "schmidt_entropy",
    "eigen_residual",
    "eigen_residual_parts",
    "fidelity",
    "SchmidtSpectrum",
    "SweepRow",
    "sweep_q",
]

# edge-mass threshold certifying the double-series truncation
TAIL_MASS_LIMIT = 1e-12
# q steps of a sweep assembled and measured as one stack of states: four
# N = 50 blocks keep a sweep's peak memory below an N = 50 pair's
SWEEP_CHUNK = 4
# entries of a unit-norm state below this take no part in its Schmidt SVD
SVD_FLOOR = 2.0 ** -64


def _first_row(boundary, m_max: int) -> np.ndarray:
    """d_0..d_{m_max} of a boundary: a real scalar delta gives delta^m, and a
    sequence must supply d_0..d_M with M >= m_max (the ansatz sum at (n, m)
    reaches d_{m+n}).  All admissible families encode d_m -> 1 as q -> 1."""
    if np.ndim(boundary) == 0:
        return float(boundary) ** np.arange(m_max + 1, dtype=float) + 0j
    if len(boundary) == 0:
        raise DomainError("custom boundary needs at least d_0")
    if len(boundary) <= m_max:
        raise DomainError(
            f"custom boundary supplies d_0..d_{len(boundary) - 1} but "
            f"index {m_max} is required")
    return np.asarray(boundary[:m_max + 1], dtype=complex)


@dataclass(frozen=True)
class BipartiteParams:
    """Node parameters (alpha_i, k_i) with the deformation QParam.

    alpha = alpha1 + alpha2 is the coproduct eigenvalue; it must be nonzero
    for any deformed construction since xi and eta divide by it.
    """

    alpha1: complex
    alpha2: complex
    k1: float
    k2: float
    q: QParam

    def __post_init__(self):
        check_bargmann(self.k1)
        check_bargmann(self.k2)
        if not isinstance(self.q, QParam):
            raise DomainError("q must be a QParam (use QParam.classical() for q=1)")
        if not self.q.is_classical and self.alpha == 0:
            raise DomainError("alpha1 + alpha2 = 0 leaves xi and eta undefined "
                              "for the deformed construction")

    @property
    def alpha(self) -> complex:
        return self.alpha1 + self.alpha2

    @property
    def xi(self) -> complex:
        self._require_deformed("xi")
        return self.alpha1 / self.alpha * self.q.value ** -self.k2

    @property
    def eta(self) -> complex:
        self._require_deformed("eta")
        return self.alpha2 / self.alpha * self.q.value ** self.k1

    def _require_deformed(self, what: str):
        if self.q.is_classical:
            raise DomainError(f"{what} is defined only for a deformed q")


@dataclass(frozen=True)
class BipartiteMatrix:
    """Coefficient matrix c_{n1,n2} over |n1,k1> (x) |n2,k2> with metadata;
    ``norm_before_truncation`` is sum |c|^2 before normalization, both node
    profiles in the c_0 = 1 scale of :func:`costate.single_node_profile`
    (0 for a matrix not built by this module).  ``ladders`` are the lowering
    tables (e1, e2) of the two nodes at ``params``, levels 0..N1 and 0..N2
    at least, that the coefficients were formed from;
    :func:`repalg.apply_coproduct` reads them instead of building them again
    (None for a matrix not built by this module).

    A stack of states over one pair of nodes has coefficients c[block, n1,
    n2], ``params`` a tuple (one per block), ladders over [block, level] and
    ``norm_before_truncation`` an array; the measures give one result per
    block, the one it gives alone."""

    coeffs: np.ndarray
    params: BipartiteParams
    normalized: bool = False
    truncation_loss: float = 0.0
    norm_before_truncation: float | np.ndarray = 0.0
    ladders: tuple | None = field(default=None, repr=False, compare=False)


class SchmidtSpectrum(NamedTuple):
    singular_values: list
    entropy: float
    rank_eps: int


SweepRow = NamedTuple("SweepRow", [(name, float) for name in (
    "q", "delta", "entropy", "sigma2", "fidelity_classical", "residual_interior")])


def classical_bipartite(alpha1: complex, alpha2: complex, k1: float, k2: float,
                        N1: int, N2: int) -> BipartiteMatrix:
    """Factorized classical eigenstate: the outer product of two single-node
    states with eigenvalues alpha1 and alpha2."""
    s1 = build_f_coherent(alpha1, k1, CLASSICAL, N1)
    s2 = build_f_coherent(alpha2, k2, CLASSICAL, N2)
    params = BipartiteParams(complex(alpha1), complex(alpha2), k1, k2, CLASSICAL)
    return BipartiteMatrix(coeffs=np.outer(s1.coeffs, s2.coeffs), params=params,
                           normalized=True, norm_before_truncation=(
                               s1.norm_before_truncation * s2.norm_before_truncation),
                           ladders=(s1.ladder, s2.ladder))


def _g_block_setup(params: BipartiteParams, N1: int, N2: int, where: str):
    """q, xi and eta of an (N1+1) x (N2+1) g block, after checking that
    N1, N2 >= 0, 0 < q < 1 and xi != 0."""
    if N1 < 0 or N2 < 0:
        raise DomainError(f"{where} requires N1, N2 >= 0, got {N1}, {N2}")
    q = qspecial._series_value(params.q, where=where)
    if params.xi == 0:
        raise DomainError("xi = 0 (alpha1 = 0): the recurrence cannot be propagated")
    return q, params.xi, params.eta


def solve_g_recurrence(boundary, params: BipartiteParams,
                       N1: int, N2: int) -> np.ndarray:
    """Propagate g row by row from the boundary row (delta or d_0..d_M):

        g_{n+1,m} = (g_{n,m} - eta q^n g_{n,m+1}) q^m / xi.

    Returns the (N1+1) x (N2+1) block; the boundary must cover m <= N1+N2.
    """
    q, xi, eta = _g_block_setup(params, N1, N2, "solve_g_recurrence")
    width = N1 + N2 + 1
    row = _first_row(boundary, N1 + N2)
    out = np.zeros((N1 + 1, N2 + 1), dtype=complex)
    out[0] = row[:N2 + 1]
    qm = q ** np.arange(width, dtype=float)
    for n in range(N1):
        nxt = (row[:-1] - eta * q ** n * row[1:]) * qm[:width - n - 1] / xi
        out[n + 1] = nxt[:N2 + 1]
        row = nxt
    return out


def g_ansatz_block(boundary, params: BipartiteParams, N1: int, N2: int) -> np.ndarray:
    """The finite q-binomial sum

        g_{n,m} = q^{nm} xi^{-n} sum_{k=0}^{n} (-1)^k eta^k q^{k(k-1)}
                  d_{m+k} [n,k]_{q^2}

    over the (N1+1) x (N2+1) block, each row [n, 0..n]_{q^2} of the
    q-binomial triangle formed once; the boundary (delta or d_0..d_M) must
    cover m <= N1+N2."""
    q, xi, eta = _g_block_setup(params, N1, N2, "g_ansatz_block")
    d = _first_row(boundary, N1 + N2)
    base = q * q
    # the factor (-1)^j eta^j q^{j(j-1)} of term j, the same in every cell
    w = [(-1) ** j * eta ** j * q ** (j * (j - 1)) for j in range(N1 + 1)]
    out = np.empty((N1 + 1, N2 + 1), dtype=complex)
    for n in range(N1 + 1):
        binomials = [q_binomial(n, j, base) for j in range(n + 1)]
        for m in range(N2 + 1):
            total = 0.0 + 0j
            for j, binomial in enumerate(binomials):
                total += w[j] * d[m + j] * binomial
            out[n, m] = q ** (n * m) * xi ** -n * total
    return out


def g_closed_block(delta, params, N1: int, N2: int) -> np.ndarray:
    """The geometric-boundary closed form

        g_{n,m} = q^{nm} delta^m xi^{-n} (delta eta; q^2)_n

    over the (N1+1) x (N2+1) block: the g that :func:`build_q_bipartite`
    assembles a scalar-delta state from.  Real alphas (floats) give a real
    block.  Sequences of deltas and params (a chunk) give g[block, n, m],
    each block the bits of its call alone."""
    chunk = not isinstance(params, BipartiteParams)
    deltas, params = ([float(d) for d in delta], params) if chunk else ([float(delta)], [params])
    q, xi, eta = zip(*(_g_block_setup(p, N1, N2, "g_closed_block") for p in params))
    # row-scaled: poch[b, n] = (delta eta; q^2)_n, its factors from Python
    # float powers (numpy's round differently)
    poch = np.cumprod([[1.0] + [1.0 - d * e * b ** (2 * n) for n in range(N1)]
                       for d, e, b in zip(deltas, eta, q)], axis=-1)
    # a power q^{nm} below 2^-1076 rounds to zero, and forming it is slow
    # subnormal arithmetic: such powers are left zero
    nm = np.outer(np.arange(N1 + 1.0), np.arange(N2 + 1.0))
    powers = np.power(np.array(q)[:, None, None], nm, out=np.zeros((len(q),) + nm.shape),
                      where=nm <= np.array([1076 / -math.log2(b) for b in q])[:, None, None])
    g = (poch[:, :, None] * np.array(xi)[:, None, None] ** -np.arange(N1 + 1)[:, None]
         * np.array(deltas)[:, None, None] ** np.arange(N2 + 1) * powers)
    return g if chunk else g[0]


def _single_node_prefactors(alpha: complex, k: float, q: QParam, N: int) -> np.ndarray:
    """p[n] = alpha^n / sqrt([n]_q! [n+2k-1]_q!): the single-node profile in
    the ansatz scale, in which double sums of |c|^2 equal the norm series."""
    return (single_node_profile(alpha, k, q, N)
            / math.sqrt(q_factorial(2 * k - 1, q)))


def _edge_tail_estimate(c_sq: np.ndarray) -> np.ndarray:
    """Dropped-mass bounds from row/column ratio tests on |c|^2, per block
    of c_sq[..., :, :].

    For each edge line the decay ratio of the last two entries bounds the
    geometric tail beyond the truncation; ratios >= 1 make the bound infinite.
    """
    mass, prev = (np.stack([np.sum(c_sq[..., i, :], axis=-1), np.sum(c_sq[..., :, i], axis=-1)])
                  for i in (-1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(prev > 0, mass / prev, math.inf)
        tail = np.where(mass == 0.0, 0.0, np.where(r >= 1.0, math.inf, mass * r / (1.0 - r)))
    return tail[0] + tail[1]


def _assemble(params: list, boundaries: list, N1: int, N2: int) -> BipartiteMatrix:
    """The normalized deformed states of a batch of configurations over one
    pair of nodes, all on one side of q = 1, as a stack (see
    :class:`BipartiteMatrix`): per state, g (the closed form for a scalar
    boundary), both profiles from the state's lowering tables, c and its
    checks.  Raises the error of the first state that fails one."""
    a1, a2 = complex(params[0].alpha1), complex(params[0].alpha2)
    real = not (a1.imag or a2.imag)
    if real:                            # real nodes take real arithmetic
        params = [BipartiteParams(a1.real, a2.real, p.k1, p.k2, p.q) for p in params]
    # the recurrence propagates from node 1 of the configuration it solves:
    # node 2 of a q > 1 state, whose g is its crossing mirror's transposed
    crossed = params[0].q.value > 1.0
    node = "alpha2" if crossed else "alpha1"
    g_params, n1, n2 = ([crossing_transform(p) for p in params], N2, N1) if crossed \
        else (params, N1, N2)
    if g_params[0].alpha1 == 0:
        raise DomainError(f"{node} = 0 makes xi = 0 and the boundary-row "
                          "propagation undefined; the state degenerates to "
                          "vacuum (x) single-node")
    # an overflow here (xi^{-n} included, formed as 1/xi^n and so as 1/0 once
    # xi^n underflows) is caught and named by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = (g_closed_block(boundaries, g_params, n1, n2) if np.ndim(boundaries[0]) == 0 else
             np.array([solve_g_recurrence(*a, n1, n2) for a in zip(boundaries, g_params)]))
        profiles, tables = zip(*(_profile_with_table(alpha, k, [p.q for p in params], n, n + 1)
                                 for alpha, k, n in ((params[0].alpha1, params[0].k1, N1),
                                                     (params[0].alpha2, params[0].k2, N2))))
        # a real node's profiles have zero imaginary parts, and their real
        # parts are the real arithmetic's bits
        p1, p2 = (p.real if real else p for p in profiles)
        if crossed:
            g = np.ascontiguousarray(g.swapaxes(1, 2))
        c = p1[:, :, None] * p2[:, None, :] * g
        finite = np.isfinite(c).all(axis=(-2, -1))
        c_sq = np.abs(c) ** 2
        total = np.sum(c_sq, axis=(-2, -1))
        tail = _edge_tail_estimate(c_sq)
    for b in range(len(c)):
        if not finite[b]:
            raise DomainError(f"coefficient assembly overflowed; |alpha/{node}| is "
                              "too large for this truncation (xi^{-n} exceeds "
                              "double range before the factorial decay sets in)")
        if total[b] == 0.0:
            raise DomainError("state vanished: the boundary row d_0..d_M makes every "
                              "|c|^2 zero")
        if not tail[b] <= TAIL_MASS_LIMIT * total[b]:
            raise TruncationError(
                f"truncation insufficient: edge-ratio tail estimate {tail[b]:.3e} "
                f"exceeds {TAIL_MASS_LIMIT:.0e} of the total; increase N1/N2")
    c /= np.sqrt(total)[:, None, None]
    return BipartiteMatrix(coeffs=c, params=tuple(params), normalized=True,
                           norm_before_truncation=total, ladders=tables)


def build_q_bipartite(params: BipartiteParams, boundary,
                      N1: int, N2: int) -> BipartiteMatrix:
    """Assemble and normalize the q-deformed bipartite eigenstate.

    A scalar boundary delta takes g from :func:`g_closed_block`; a sequence
    d_0..d_M propagates the recurrence.  For q > 1, g is solved on the
    crossing mirror, truncated at (N2, N1), and transposed.  Both profiles
    and their lowering tables are formed at the state's own q.  Real alphas
    give a real block.  This is the batch of one of a sweep along q
    (:func:`sweep_q`), and gives the same bits as a step of one.
    """
    if params.q.is_classical:
        raise DomainError("use classical_bipartite for the undeformed case")
    M = _assemble([params], [boundary], N1, N2)
    return BipartiteMatrix(coeffs=M.coeffs[0], params=M.params[0], normalized=True,
                           norm_before_truncation=float(M.norm_before_truncation[0]),
                           ladders=tuple(e[0] for e in M.ladders))


def norm_series(params: BipartiteParams, delta: float) -> float:
    """The squared inverse norm of the unnormalized geometric-boundary state
    as a single-index series:

        N^{-2} = |delta alpha2|^{1-2k2} sum_n q^n I^{(q)}_{2k2-1}(2 q^n |delta alpha2|)
                 |alpha|^{2n} |(delta eta; q^2)_n|^2 / ([n]! [n+2k1-1]!).

    Agrees with the direct double sum of |c|^2 over the truncated block, for
    real k1, k2 >= 1/2 alike (the q-Bessel order 2k2-1 need not be an integer).
    """
    q = qspecial._series_value(params.q, where="norm_series")
    qp = params.q
    k1, k2 = params.k1, params.k2
    nu2 = 2 * k2 - 1
    z2 = abs(delta * params.alpha2)
    alpha_sq = abs(params.alpha) ** 2
    eta = params.eta

    def terms():
        # ratio-managed pieces: w_n = |alpha|^{2n}/([n]![n+2k1-1]!), poch_n = (delta eta; q^2)_n
        w = 1.0 / q_factorial(2 * k1 - 1, qp)
        poch = 1.0 + 0j
        for n in itertools.count():
            if z2 == 0.0:
                # alpha2 = 0 limit: z^{-nu} I^{(q)}_nu(2 q^n z) -> q^{n nu} / [nu]_q!
                bessel_part = q ** (n * nu2) / q_factorial(nu2, qp)
            else:
                bessel_part = z2 ** -nu2 * float(_bessel_i_series(nu2, q ** n * z2, qp))
            yield q ** n * bessel_part * abs(poch) ** 2 * w
            poch *= 1.0 - delta * eta * q ** (2 * n)
            w *= alpha_sq / (q_number(n + 1, qp) * q_number(n + 2 * k1, qp))

    return _sum_series(terms(), "norm series", f"max_terms={qspecial.MAX_TERMS}")


def crossing_transform(params: BipartiteParams) -> BipartiteParams:
    """The crossing mirror of a deformed configuration: the two nodes swapped
    and q inverted.

    The recurrence's crossing symmetry says a solution at (xi, eta, q) can be
    read off a solution at (eta, xi, 1/q) with the indices transposed; in the
    (alpha_i, k_i) parametrization that is exactly swapping the two nodes and
    inverting q, so the g of a q > 1 state is its q < 1 mirror's transposed.
    Applying the transform twice is the identity, up to the rounding of
    1/(1/q) (exact at q = 1.25, one ulp off at q = 0.9).
    """
    params._require_deformed("crossing_transform")
    return BipartiteParams(alpha1=params.alpha2, alpha2=params.alpha1,
                           k1=params.k2, k2=params.k1, q=QParam(1.0 / params.q.value))


def schmidt_entropy(M: BipartiteMatrix) -> SchmidtSpectrum:
    """Singular values, entanglement entropy -sum s^2 ln s^2, and eps-rank;
    s_1^2 ln s_1^2 is taken as (1 - lam) log1p(-lam), lam = sum_{i>=2} s_i^2,
    which keeps lam's digits as q -> 1 and every term >= 0.  For a stack of
    states each is an array over the blocks.  Entries of the unit-norm state
    below SVD_FLOOR are dropped and each block's SVD taken on its own leading
    support, its singular values padded with zeros: the dropped part has
    Frobenius norm <= 2^10 SVD_FLOOR = 2^-54 in a block of <= 2^20 entries, so
    (Weyl) no singular value moves by more than that, half an ulp of 1, which
    is below LAPACK's own error bound of about eps ||c||."""
    if not M.normalized:
        raise DomainError("schmidt_entropy requires a normalized state")
    c = np.asarray(M.coeffs)
    # a block with no imaginary part (real alphas) takes the real SVD, about
    # twice as fast; its singular values differ from the complex one's at
    # rounding level
    c = c if np.iscomplexobj(c) and c.imag.any() else c.real
    c = np.where(np.abs(c) >= SVD_FLOOR, c, 0.0)
    sv = np.zeros(c.shape[:-2] + (min(c.shape[-2:]),))
    for s, block, r, k in zip(sv.reshape(-1, sv.shape[-1]), c.reshape(-1, *c.shape[-2:]),
                              *(np.ravel(_reach(c.any(axis), 0)) for axis in (-1, -2))):
        s[:min(r, k)] = np.linalg.svd(block[:r, :k], compute_uv=False)
    s_sq = sv ** 2
    if np.any(np.abs(np.sum(s_sq, axis=-1) - 1.0) > 1e-9):
        raise DomainError("coefficient matrix is not normalized to 1e-9")
    rest = s_sq[..., 1:]
    lam = np.sum(rest, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):     # 0 ln 0 is taken as 0
        entropy = -(1.0 - lam) * np.log1p(-lam) - np.sum(
            np.where(rest > 0, rest * np.log(rest), 0.0), axis=-1)
    rank = np.sum(sv > 1e-10, axis=-1)
    if c.ndim == 2:
        return SchmidtSpectrum(singular_values=sv.tolist(), entropy=float(entropy),
                               rank_eps=int(rank))
    return SchmidtSpectrum(singular_values=sv, entropy=entropy, rank_eps=rank)


def _norms(a: np.ndarray):
    """np.linalg.norm of each block a[..., :, :], a float for one block."""
    return float(np.linalg.norm(a)) if a.ndim == 2 else np.array([np.linalg.norm(b) for b in a])


def eigen_residual_parts(M: BipartiteMatrix):
    """(interior, edge) relative eigen-residuals of Delta(K-), per block for
    a stack of states.

    The top row/column of the output reference coefficients beyond the
    truncation, so they are excluded from the interior figure and reported
    separately.
    """
    if not M.normalized:
        raise DomainError("eigen_residual requires a normalized state")
    alpha = _blocks(M)[0].alpha
    c = np.asarray(M.coeffs)
    out = apply_coproduct("K-", M).coeffs
    if alpha == 0:
        if np.any(np.sum(np.abs(c) ** 2, axis=(-2, -1)) - np.abs(c[..., 0, 0]) ** 2 > 1e-20):
            raise DomainError("alpha = 0 residual is defined only for the vacuum state")
        norm = _norms(out)
        return norm, norm
    diff = out - alpha * c
    edge_sq = (np.sum(np.abs(diff) ** 2, axis=(-2, -1))
               - np.sum(np.abs(diff[..., :-1, :-1]) ** 2, axis=(-2, -1)))
    edge = np.sqrt(np.maximum(edge_sq, 0.0)) / abs(alpha)
    return _norms(diff[..., :-1, :-1]) / abs(alpha), float(edge) if diff.ndim == 2 else edge


def eigen_residual(M: BipartiteMatrix) -> float:
    """Interior relative residual ||Delta(K-) M - alpha M|| / |alpha|, per
    block for a stack of states."""
    return eigen_residual_parts(M)[0]


def fidelity(A: BipartiteMatrix, B: BipartiteMatrix) -> float:
    """|<A|B>| for two normalized states on identical truncations; per block
    of B for a stack of states."""
    ca, cb = np.asarray(A.coeffs), np.asarray(B.coeffs)
    if ca.shape != cb.shape[-2:]:
        raise ShapeError(f"shape mismatch {ca.shape} vs {cb.shape}")
    if cb.ndim == 2:
        return float(abs(np.vdot(ca, cb)))
    return np.array([abs(np.vdot(ca, block)) for block in cb])


def sweep_q(a1: complex, a2: complex, k1: float, k2: float, qs, boundary, N: int) -> list:
    """The entropy, sigma_2, overlap with :func:`classical_bipartite` and
    interior eigen-residual of the deformed state of nodes (a1, k1), (a2, k2)
    on an N x N truncation at each q of ``qs`` (0 < q < 1), with delta =
    ``boundary(q)``.  The steps are measured as stacks of SWEEP_CHUNK states,
    each row the bits of its state alone; the first failing step raises what
    it raises alone."""
    for q in qs:
        if not 0.0 < q < 1.0:
            raise DomainError(f"sweep_q requires 0 < q < 1, got {q!r}")
    classical = classical_bipartite(a1, a2, k1, k2, N, N)

    def rows(qs):
        params = [BipartiteParams(a1, a2, k1, k2, QParam(q)) for q in qs]
        deltas = [boundary(q) for q in qs]
        M = _assemble(params, deltas, N, N)
        spec = schmidt_entropy(M)
        values = (spec.entropy, spec.singular_values[:, 1], fidelity(classical, M),
                  eigen_residual(M))
        return [SweepRow(*row) for row in zip(qs, deltas, *(v.tolist() for v in values))]

    out = []
    for start in range(0, len(qs), SWEEP_CHUNK):
        chunk = qs[start:start + SWEEP_CHUNK]
        try:
            out += rows(chunk)
        except (DomainError, TruncationError, ArithmeticError):
            # the error of the chunk's first failing step, as it raises alone
            for q in chunk:
                rows([q])
            raise
    return out
