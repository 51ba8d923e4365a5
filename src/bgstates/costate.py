"""Single-node Barut-Girardello coherent states.

A state |alpha, k>_f is the K- eigenstate with eigenvalue alpha, expanded
over the truncated carrier basis.  Two constructions are provided and
cross-checked in the tests: the coefficient recurrence of
:func:`single_node_profile`, which the bipartite states share,

    c_{n+1} = alpha / (f(n+k+1) sqrt((n+1)(n+2k))) * c_n,

and the operator exponential

    c_0 exp(alpha f(K0)^{-2} K+ (K0+k)^{-1}) |0,k>.

Normalization is the direct partial sum of the coefficient series; for a
QParam deformation the Bessel closed forms |alpha|^{2k-1} / I_{2k-1} and
its q-analog are evaluated as well and must agree, which turns the
normalization constant into a test surface rather than a trusted input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, TruncationError
from .qspecial import QParam, _sum_series, q_number
from .repalg import check_bargmann, lowering_elements, map_value

__all__ = [
    "LadderState",
    "single_node_profile",
    "build_f_coherent",
    "build_q_coherent",
    "build_by_operator_series",
    "normalization_series",
    "TAIL_MASS_LIMIT",
]

# dropped tail mass must stay below this fraction of the total
TAIL_MASS_LIMIT = 1e-14


@dataclass(frozen=True)
class LadderState:
    """Truncated coefficient vector over |n,k>, n = 0..N.

    ``norm_before_truncation`` is the partial sum of |c_n|^2 in the raw
    c_0 = 1 scale, i.e. the normalization series of the construction;
    ``truncation_loss`` is the squared weight most recently dropped past the
    top level (zero for freshly built states).  ``ladder`` is the lowering
    table e[0..N+1] of (k, deformation) the state was built from, which
    :func:`repalg.apply_ladder` reads instead of building it again (None for
    a state not built by this module).
    """

    coeffs: np.ndarray
    k: float
    alpha: complex
    deformation: QParam | Callable[[float], float]
    norm_before_truncation: float
    truncation_loss: float = 0.0
    ladder: np.ndarray | None = field(default=None, repr=False, compare=False)


def normalization_series(rho, k: float, f):
    """The normalization sum  S(rho^2) = sum_n rho^{2n} / (([f(n+k)]!)^2 n! Gamma(n+2k)).

    This is N_f^{-2} up to convergence of the infinite sum.  Vectorised over
    rho >= 0.
    """
    k = check_bargmann(k)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("normalization_series requires rho >= 0")
    rho2 = rho * rho
    terms = itertools.accumulate(
        itertools.count(), lambda term, n: term * rho2 / (
            (n + 1) * (n + 2 * k) * map_value(f, n + 1 + k, k) ** 2),
        initial=np.full_like(rho, 1.0 / math.gamma(2 * k)))
    return _sum_series(terms, "normalization series", f"k={k}")


def _check_tail(coeffs: np.ndarray, alpha: complex, e_next: float, total: float):
    """Ratio-test bound on the dropped tail mass: with r = |alpha|/e[N+1] the
    dropped sum is below |c_N|^2 r^2/(1-r^2) provided the ratios keep
    shrinking (they do for the classical and q maps)."""
    if alpha == 0:
        return 0.0
    r = abs(alpha) / e_next
    tail = math.inf if r >= 1.0 else abs(coeffs[-1]) ** 2 * r * r / (1.0 - r * r)
    if not tail <= TAIL_MASS_LIMIT * total:
        raise TruncationError(
            f"truncation insufficient: estimated tail mass {tail:.3e} exceeds "
            f"{TAIL_MASS_LIMIT:.0e} of the total {total:.3e}; increase N")
    return tail


def _finish(raw: np.ndarray, k, alpha, deformation, e: np.ndarray) -> LadderState:
    total = float(math.fsum(np.abs(raw) ** 2))
    _check_tail(raw, alpha, e[len(raw)], total)
    return LadderState(
        coeffs=raw / math.sqrt(total),
        k=float(k),
        alpha=complex(alpha),
        deformation=deformation,
        norm_before_truncation=total,
        ladder=e,
    )


def _crosscheck_bessel_norm(state: LadderState):
    """Normalization redundancy: partial sum vs the Bessel closed form
    [nu]! rho^{-nu} I_nu(2 rho) = sum_n rho^{2n} [nu]! / ([n]! [n+nu]!),
    nu = 2k - 1, summed from its leading term 1.  That form needs no integer
    nu, and the symmetric q-numbers make it the same at q and 1/q."""
    f = state.deformation
    if state.alpha == 0 or not isinstance(f, QParam):
        return
    rho2, nu = abs(state.alpha) ** 2, 2 * state.k - 1
    closed = _sum_series(itertools.accumulate(
        itertools.count(1), lambda term, n: term * rho2 / (
            q_number(n, f) * q_number(n + nu, f)), initial=1.0),
        "Bessel closed form of the norm", f"k={state.k}")
    if not abs(closed - state.norm_before_truncation) <= 1e-8 * closed:
        raise ArithmeticError(
            "normalization series and Bessel closed form disagree: "
            f"{state.norm_before_truncation!r} vs {closed!r}")


def _profile_with_table(alpha: complex, k: float, f, N: int, count: int):
    """:func:`single_node_profile` together with the lowering table of levels
    0..count-1 (count > N) it is formed from; for a chunk of deformations (see
    :func:`repalg.lowering_elements`) both are rows over [block, level]."""
    k = check_bargmann(k)
    if N < 1:
        raise DomainError(f"truncation N must be >= 1, got {N}")
    e = lowering_elements(f, k, count)
    # alpha/e[n] as Python divides a complex by a float: each part of alpha,
    # as below, over e[n] (numpy's complex array division rounds differently)
    parts = ((alpha.real + alpha.imag * 0.0, alpha.imag - alpha.real * 0.0)
             if isinstance(alpha, complex) else (alpha, 0.0))
    ratios = np.ones(e.shape[:-1] + (N + 1,), dtype=complex)
    ratios.real[..., 1:], ratios.imag[..., 1:] = (part / e[..., 1:N + 1] for part in parts)
    return np.cumprod(ratios, axis=-1), e


def single_node_profile(alpha: complex, k: float, f, N: int) -> np.ndarray:
    """The unnormalized profile c[n] = alpha^n / (e[1] ... e[n]), n = 0..N, in
    the c_0 = 1 scale, with e from :func:`repalg.lowering_elements`."""
    return _profile_with_table(alpha, k, f, N, N + 1)[0]


def build_f_coherent(alpha: complex, k: float, f, N: int) -> LadderState:
    """K- eigenstate for the deformation f (a QParam or a callable of the K0
    eigenvalue, see :func:`repalg.map_value`), by the coefficient recurrence.

    Raises DomainError, naming alpha and N, where the profile's squared norm
    leaves double range, and TruncationError unless the estimated dropped
    tail mass is below TAIL_MASS_LIMIT of the total.
    """
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is named below
        c, e = _profile_with_table(alpha, k, f, N, N + 2)
        squared_norm = np.sum(np.abs(c) ** 2)
    if not np.isfinite(squared_norm):
        raise DomainError(f"the profile's squared norm leaves double range at alpha={alpha}, N={N}")
    state = _finish(c, k, alpha, f, e)
    _crosscheck_bessel_norm(state)
    return state


def build_q_coherent(alpha: complex, k: float, q, N: int) -> LadderState:
    """q-deformed state with c_n proportional to alpha^n / sqrt([n]_q! [n+2k-1]_q!).

    This is :func:`build_f_coherent` with the Curtright-Zachos map, whose
    ratios are sqrt([n]_q [n+2k-1]_q); a classical tag gives the classical
    state.
    """
    return build_f_coherent(alpha, k, q if isinstance(q, QParam) else QParam(q), N)


def build_by_operator_series(alpha: complex, k: float, f, N: int) -> LadderState:
    """The operator-exponential construction

        c_0 exp(alpha f(K0)^{-2} K+ (K0+k)^{-1}) |0,k>,

    truncated at order N; each application of the operator raises exactly one
    level, so order N is exact within the truncation.  Cross-validates the
    hypergeometric form of the state against the recurrence construction.
    """
    k = check_bargmann(k)
    if N < 1:
        raise DomainError("truncation N must be >= 1")
    e = lowering_elements(f, k, N + 2)
    levels = np.arange(N + 1, dtype=float)
    inv_k0_plus_k = 1.0 / (levels + 2 * k)          # (K0 + k)^{-1} on |n>
    f_sq = np.ones(N + 1)
    for n in range(1, N + 1):
        f_sq[n] = map_value(f, n + k, k) ** 2        # f(K0)^2 at level n

    def apply_a(vec):
        # (K0+k)^{-1}, then deformed K+, then f(K0)^{-2} at the raised level
        tmp = vec * inv_k0_plus_k
        out = np.zeros_like(vec)
        out[1:] = e[1:N + 1] * tmp[:-1]
        out[1:] /= f_sq[1:]
        return out

    term = np.zeros(N + 1, dtype=complex)
    term[0] = 1.0
    total = term.copy()
    for j in range(1, N + 1):
        term = (alpha / j) * apply_a(term)
        total += term
    return _finish(total, k, alpha, f, e)
