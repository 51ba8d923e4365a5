"""Entangled bipartite Barut-Girardello coherent states for su_q(1,1).

The two-node K- eigenstate problem reduces, after factoring out the
single-node coefficient profile, to the double-indexed recurrence

    eta q^n g_{n,m+1} + xi q^{-m} g_{n+1,m} = g_{n,m},
    xi = (alpha1/alpha) q^{-k2},   eta = (alpha2/alpha) q^{k1},

solved three independent ways (row propagation from the boundary row d_m,
the q-binomial-weighted finite sum, and the geometric-boundary closed form
q^{nm} delta^m xi^{-n} (delta*eta; q^2)_n), which the tests triangulate.
The assembled coefficient matrix

    c_{n1,n2} = alpha1^{n1} alpha2^{n2}
                / sqrt([n1]![n2]![n1+2k1-1]![n2+2k2-1]!)  *  g_{n1,n2}

is an eigen-matrix of the q-coproduct lowering operator with eigenvalue
alpha = alpha1 + alpha2 and its q^{n1 n2} content is what forbids
factorization for q != 1.  q > 1 is reached exclusively through the crossing
substitution (swap the nodes, invert q, transpose).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .costate import build_f_coherent, single_node_profile
from .errors import DomainError, ShapeError, TruncationError
from . import qspecial
from .qspecial import (CLASSICAL, QParam, _bessel_i_series, _sum_series, q_factorial,
                       q_number, q_binomial, q_pochhammer)
from .repalg import apply_coproduct, check_bargmann

__all__ = [
    "BoundarySequence",
    "BipartiteParams",
    "BipartiteMatrix",
    "classical_bipartite",
    "solve_g_recurrence",
    "g_ansatz_eval",
    "g_closed_geometric",
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


@dataclass(frozen=True)
class BoundarySequence:
    """First-row data g_{0,m} = d_m of the bipartite recurrence.

    Geometric boundaries d_m = delta^m generate any index on demand; custom
    boundaries must supply d_0..d_M with M covering n+m for every requested
    (n, m) (the ansatz sum reaches d_{m+n}).  All admissible families encode
    d_m -> 1 as q -> 1.
    """

    kind: str
    delta: Optional[float] = None
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("geometric", "custom"):
            raise DomainError(f"boundary kind must be geometric or custom, got {self.kind!r}")
        if self.kind == "geometric" and self.delta is None:
            raise DomainError("geometric boundary needs delta")
        if self.kind == "custom" and not self.values:
            raise DomainError("custom boundary needs at least d_0")

    @classmethod
    def geometric(cls, delta: float) -> "BoundarySequence":
        return cls("geometric", delta=float(delta))

    @classmethod
    def custom(cls, values) -> "BoundarySequence":
        return cls("custom", values=tuple(complex(v) for v in values))

    def first_row(self, m_max: int) -> np.ndarray:
        """d_0..d_{m_max}; raises if a custom list is too short."""
        if self.kind == "geometric":
            return self.delta ** np.arange(m_max + 1, dtype=float) + 0j
        if len(self.values) <= m_max:
            raise DomainError(
                f"custom boundary supplies d_0..d_{len(self.values) - 1} but "
                f"index {m_max} is required")
        return np.asarray(self.values[:m_max + 1], dtype=complex)


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

    def swapped_inverse_q(self) -> "BipartiteParams":
        self._require_deformed("swapped_inverse_q")
        qinv = 1.0 / self.q.value
        new_q = QParam(qinv) if qinv < 1.0 else QParam.for_crossing(qinv)
        return BipartiteParams(alpha1=self.alpha2, alpha2=self.alpha1,
                               k1=self.k2, k2=self.k1, q=new_q)


@dataclass(frozen=True)
class BipartiteMatrix:
    """Coefficient matrix c_{n1,n2} over |n1,k1> (x) |n2,k2> with metadata;
    ``norm_before_truncation`` is sum |c|^2 before normalization, both node
    profiles in the c_0 = 1 scale of :func:`costate.single_node_profile`
    (0 for a matrix not built by this module)."""

    coeffs: np.ndarray
    params: BipartiteParams
    boundary: Optional[BoundarySequence] = None
    normalized: bool = False
    truncation_loss: float = 0.0
    norm_before_truncation: float = 0.0


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
                               s1.norm_before_truncation * s2.norm_before_truncation))


def solve_g_recurrence(boundary: BoundarySequence, params: BipartiteParams,
                       N1: int, N2: int) -> np.ndarray:
    """Propagate g row by row from the boundary row:

        g_{n+1,m} = (g_{n,m} - eta q^n g_{n,m+1}) q^m / xi.

    Returns the (N1+1) x (N2+1) block; the boundary must cover m <= N1+N2.
    """
    q = qspecial._series_value(params.q, where="solve_g_recurrence")
    xi, eta = params.xi, params.eta
    if xi == 0:
        raise DomainError("xi = 0 (alpha1 = 0): the recurrence cannot be propagated")
    width = N1 + N2 + 1
    row = boundary.first_row(N1 + N2).astype(complex)
    out = np.zeros((N1 + 1, N2 + 1), dtype=complex)
    out[0] = row[:N2 + 1]
    qm = q ** np.arange(width, dtype=float)
    for n in range(N1):
        nxt = (row[:-1] - eta * q ** n * row[1:]) * qm[:width - n - 1] / xi
        out[n + 1] = nxt[:N2 + 1]
        row = nxt
    return out


def g_ansatz_eval(n: int, m: int, boundary: BoundarySequence,
                  params: BipartiteParams) -> complex:
    """The finite q-binomial sum

        g_{n,m} = q^{nm} xi^{-n} sum_{k=0}^{n} (-1)^k eta^k q^{k(k-1)}
                  d_{m+k} [n,k]_{q^2};

    boundary must cover index m+n."""
    q = qspecial._series_value(params.q, where="g_ansatz_eval")
    xi, eta = params.xi, params.eta
    d = boundary.first_row(m + n)
    base = q * q
    total = 0.0 + 0j
    for j in range(n + 1):
        total += ((-1) ** j * eta ** j * q ** (j * (j - 1))
                  * d[m + j] * q_binomial(n, j, base))
    return q ** (n * m) * xi ** -n * total


def g_closed_geometric(n: int, m: int, delta: float,
                       params: BipartiteParams) -> complex:
    """Geometric-boundary closed form g_{n,m} = q^{nm} delta^m xi^{-n} (delta eta; q^2)_n."""
    q = qspecial._series_value(params.q, where="g_closed_geometric")
    xi, eta = params.xi, params.eta
    if xi == 0:
        raise DomainError("xi = 0 (alpha1 = 0)")
    return (q ** (n * m) * delta ** m * xi ** -n
            * q_pochhammer(delta * eta, q * q, n))


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


def build_q_bipartite(params: BipartiteParams, boundary: BoundarySequence,
                      N1: int, N2: int) -> BipartiteMatrix:
    """Assemble and normalize the q-deformed bipartite eigenstate.

    Geometric boundaries use the closed-form g; custom boundaries propagate
    the recurrence.  q > 1 parameters are routed through the crossing
    substitution and the solution transposed back.
    """
    if params.q.is_classical:
        raise DomainError("use classical_bipartite for the undeformed case")
    if params.q.value > 1.0:
        tparams, tboundary = crossing_transform(params, boundary)
        mirror = build_q_bipartite(tparams, tboundary, N2, N1)
        return BipartiteMatrix(coeffs=mirror.coeffs.T.copy(), params=params,
                               boundary=boundary, normalized=True,
                               truncation_loss=mirror.truncation_loss,
                               norm_before_truncation=mirror.norm_before_truncation)
    if params.alpha1 == 0:
        raise DomainError("alpha1 = 0 makes xi = 0 and the boundary-row "
                          "propagation undefined; the state degenerates to "
                          "vacuum (x) single-node")
    q = params.q
    # an overflow here is caught and named by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        if boundary.kind == "geometric":
            qv = q.value
            # row-scaled closed form: poch[n] = (delta eta; q^2)_n
            de = boundary.delta * params.eta
            poch = np.array(list(itertools.accumulate(
                (1.0 - de * qv ** (2 * n) for n in range(N1)), operator.mul, initial=1 + 0j)))
            g = (poch[:, None] * np.asarray(params.xi) ** -np.arange(N1 + 1)[:, None]
                 * boundary.delta ** np.arange(N2 + 1)[None, :]
                 * qv ** np.outer(np.arange(N1 + 1), np.arange(N2 + 1)))
        else:
            g = solve_g_recurrence(boundary, params, N1, N2)
        p1 = single_node_profile(params.alpha1, params.k1, q, N1)
        p2 = single_node_profile(params.alpha2, params.k2, q, N2)
        c = p1[:, None] * p2[None, :] * g
    if not np.all(np.isfinite(c.view(float))):
        raise DomainError("coefficient assembly overflowed; |alpha/alpha1| is "
                          "too large for this truncation (xi^{-n} exceeds "
                          "double range before the factorial decay sets in)")
    c_sq = np.abs(c) ** 2
    total = float(np.sum(c_sq))
    if total == 0.0:
        raise DomainError("state vanished: alpha1 = alpha2 = 0 is not a coherent state")
    tail = _edge_tail_estimate(c_sq)
    if not tail <= TAIL_MASS_LIMIT * total:
        raise TruncationError(
            f"truncation insufficient: edge-ratio tail estimate {tail:.3e} "
            f"exceeds {TAIL_MASS_LIMIT:.0e} of the total; increase N1/N2")
    return BipartiteMatrix(coeffs=c / math.sqrt(total), params=params,
                           boundary=boundary, normalized=True,
                           norm_before_truncation=total)


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


def crossing_transform(params: BipartiteParams, boundary: BoundarySequence):
    """Map a q > 1 configuration to the equivalent q < 1 one.

    The recurrence's crossing symmetry says a solution at (xi, eta, q) can be
    read off a solution at (eta, xi, 1/q) with the indices transposed; in the
    (alpha_i, k_i) parametrization that is exactly swapping the two nodes and
    inverting q.  Applying the transform twice is the identity.
    """
    if params.q.is_classical or not params.q.value > 1.0:
        raise DomainError("crossing_transform expects q > 1; "
                          "use the direct construction for 0 < q < 1")
    return params.swapped_inverse_q(), boundary


def schmidt_entropy(M: BipartiteMatrix) -> SchmidtSpectrum:
    """Singular values, entanglement entropy -sum s^2 ln s^2, and eps-rank."""
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
    nonzero = s_sq[s_sq > 0]
    entropy = float(-np.sum(nonzero * np.log(nonzero)))
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
