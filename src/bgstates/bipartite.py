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
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .costate import _profile_with_table, build_f_coherent, single_node_profile
from .errors import DomainError, ShapeError, TruncationError
from . import qspecial
from .qspecial import (CLASSICAL, QParam, _bessel_i_series, _sum_series, q_factorial,
                       q_number, q_binomial)
from .repalg import apply_coproduct, check_bargmann

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
]

# edge-mass threshold certifying the double-series truncation
TAIL_MASS_LIMIT = 1e-12


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
    (None for a matrix not built by this module)."""

    coeffs: np.ndarray
    params: BipartiteParams
    normalized: bool = False
    truncation_loss: float = 0.0
    norm_before_truncation: float = 0.0
    ladders: tuple | None = field(default=None, repr=False, compare=False)


class SchmidtSpectrum(NamedTuple):
    singular_values: list
    entropy: float
    rank_eps: int


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


def g_closed_block(delta: float, params: BipartiteParams, N1: int, N2: int) -> np.ndarray:
    """The geometric-boundary closed form

        g_{n,m} = q^{nm} delta^m xi^{-n} (delta eta; q^2)_n

    over the (N1+1) x (N2+1) block: the g that :func:`build_q_bipartite`
    assembles a scalar-delta state from."""
    q, xi, eta = _g_block_setup(params, N1, N2, "g_closed_block")
    delta = float(delta)
    # row-scaled: poch[n] = (delta eta; q^2)_n
    de = delta * eta
    poch = np.array(list(itertools.accumulate(
        (1.0 - de * q ** (2 * n) for n in range(N1)), operator.mul, initial=1 + 0j)))
    return (poch[:, None] * np.asarray(xi) ** -np.arange(N1 + 1)[:, None]
            * delta ** np.arange(N2 + 1)[None, :]
            * q ** np.outer(np.arange(N1 + 1), np.arange(N2 + 1)))


def _single_node_prefactors(alpha: complex, k: float, q: QParam, N: int) -> np.ndarray:
    """p[n] = alpha^n / sqrt([n]_q! [n+2k-1]_q!): the single-node profile in
    the ansatz scale, in which double sums of |c|^2 equal the norm series."""
    return (single_node_profile(alpha, k, q, N)
            / math.sqrt(q_factorial(2 * k - 1, q)))


def _edge_tail_estimate(c_sq: np.ndarray) -> float:
    """Dropped-mass bound from row/column ratio tests on |c|^2.

    For each edge line the decay ratio of the last two entries bounds the
    geometric tail beyond the truncation; ratios >= 1 make the bound infinite.
    """
    tail = 0.0
    for line_prev, line_last in ((c_sq[-2, :], c_sq[-1, :]), (c_sq[:, -2], c_sq[:, -1])):
        mass = float(np.sum(line_last))
        prev = float(np.sum(line_prev))
        if mass == 0.0:
            continue
        r = mass / prev if prev > 0 else math.inf
        if r >= 1.0:
            return math.inf
        tail += mass * r / (1.0 - r)
    return tail


def build_q_bipartite(params: BipartiteParams, boundary,
                      N1: int, N2: int) -> BipartiteMatrix:
    """Assemble and normalize the q-deformed bipartite eigenstate.

    A scalar boundary delta takes g from :func:`g_closed_block`; a sequence
    d_0..d_M propagates the recurrence.  For q > 1, g is solved on the
    crossing mirror, truncated at (N2, N1), and transposed.  Both profiles
    and their lowering tables are formed at the state's own q.
    """
    if params.q.is_classical:
        raise DomainError("use classical_bipartite for the undeformed case")
    # the recurrence propagates from node 1 of the configuration it solves:
    # node 2 of a q > 1 state, whose g is its crossing mirror's transposed
    crossed = params.q.value > 1.0
    g_params, n1, n2, node = ((crossing_transform(params), N2, N1, "alpha2") if crossed
                              else (params, N1, N2, "alpha1"))
    if g_params.alpha1 == 0:
        raise DomainError(f"{node} = 0 makes xi = 0 and the boundary-row "
                          "propagation undefined; the state degenerates to "
                          "vacuum (x) single-node")
    q = params.q
    # an overflow here is caught and named by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        route = g_closed_block if np.ndim(boundary) == 0 else solve_g_recurrence
        g = route(boundary, g_params, n1, n2)
        p1, e1 = _profile_with_table(params.alpha1, params.k1, q, N1, N1 + 1)
        p2, e2 = _profile_with_table(params.alpha2, params.k2, q, N2, N2 + 1)
        c = np.ascontiguousarray(p1[:, None] * p2[None, :] * (g.T if crossed else g))
    if not np.all(np.isfinite(c.view(float))):
        raise DomainError(f"coefficient assembly overflowed; |alpha/{node}| is "
                          "too large for this truncation (xi^{-n} exceeds "
                          "double range before the factorial decay sets in)")
    c_sq = np.abs(c) ** 2
    total = float(np.sum(c_sq))
    if total == 0.0:
        raise DomainError("state vanished: the boundary row d_0..d_M makes every "
                          "|c|^2 zero")
    tail = _edge_tail_estimate(c_sq)
    if not tail <= TAIL_MASS_LIMIT * total:
        raise TruncationError(
            f"truncation insufficient: edge-ratio tail estimate {tail:.3e} "
            f"exceeds {TAIL_MASS_LIMIT:.0e} of the total; increase N1/N2")
    return BipartiteMatrix(coeffs=c / math.sqrt(total), params=params,
                           normalized=True,
                           norm_before_truncation=total, ladders=(e1, e2))


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
    which keeps lam's digits as q -> 1 and every term >= 0."""
    if not M.normalized:
        raise DomainError("schmidt_entropy requires a normalized state")
    c = np.asarray(M.coeffs)
    # a block with no imaginary part (real alphas) takes the real SVD, about
    # twice as fast; its singular values differ from the complex one's at
    # rounding level
    sv = np.linalg.svd(c if c.imag.any() else c.real, compute_uv=False)
    s_sq = sv ** 2
    if abs(float(np.sum(s_sq)) - 1.0) > 1e-9:
        raise DomainError("coefficient matrix is not normalized to 1e-9")
    rest = s_sq[1:][s_sq[1:] > 0]
    lam = float(np.sum(rest))
    entropy = -(1.0 - lam) * math.log1p(-lam) - float(np.sum(rest * np.log(rest)))
    return SchmidtSpectrum(singular_values=sv.tolist(), entropy=entropy,
                           rank_eps=int(np.sum(sv > 1e-10)))


def eigen_residual_parts(M: BipartiteMatrix):
    """(interior, edge) relative eigen-residuals of Delta(K-).

    The top row/column of the output reference coefficients beyond the
    truncation, so they are excluded from the interior figure and reported
    separately.
    """
    if not M.normalized:
        raise DomainError("eigen_residual requires a normalized state")
    alpha = M.params.alpha
    c = np.asarray(M.coeffs)
    out = apply_coproduct("K-", M).coeffs
    if alpha == 0:
        if np.sum(np.abs(c) ** 2) - abs(c[0, 0]) ** 2 > 1e-20:
            raise DomainError("alpha = 0 residual is defined only for the vacuum state")
        norm = float(np.linalg.norm(out))
        return norm, norm
    diff = out - alpha * c
    interior = float(np.linalg.norm(diff[:-1, :-1])) / abs(alpha)
    edge_sq = float(np.sum(np.abs(diff) ** 2) - np.sum(np.abs(diff[:-1, :-1]) ** 2))
    return interior, math.sqrt(max(edge_sq, 0.0)) / abs(alpha)


def eigen_residual(M: BipartiteMatrix) -> float:
    """Interior relative residual ||Delta(K-) M - alpha M|| / |alpha|."""
    return eigen_residual_parts(M)[0]


def fidelity(A: BipartiteMatrix, B: BipartiteMatrix) -> float:
    """|<A|B>| for two normalized states on identical truncations."""
    ca, cb = np.asarray(A.coeffs), np.asarray(B.coeffs)
    if ca.shape != cb.shape:
        raise ShapeError(f"shape mismatch {ca.shape} vs {cb.shape}")
    return float(abs(np.vdot(ca, cb)))
