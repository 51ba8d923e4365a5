"""Completeness measures and numerical verification of the moment relations.

The resolution of identity for the single-node states holds iff the radial
measure g(rho^2) reproduces every moment

    2 int_0^inf drho rho^{2n+1} g(rho^2) N(rho^2)^2  =  n! Gamma(n+2k)

classically, and [n]_q! [n+2k-1]_q! for the q-deformed states.  The q-measure
is

    g_q(rho^2) = 1/2 I_nu^{(q)}(2 rho) * [ first sum  +  log series ],

with nu = 2k-1, and classically g = 2 I_nu(2 rho) K_nu(2 rho).  In the
convention of these targets N(rho^2)^{-2} = rho^{-nu} I_nu^{(q)}(2 rho)
(Barut-Girardello), so the Bessel factor of g cancels against N^2 and the
integrand is exactly rho^{nu+1} times the bracket, 4 rho^{nu+1} K_nu(2 rho)
classically; the tests check this against q_measure, classical_measure and
costate.normalization_series.

The bracket is evaluated verbatim except for one pinned coefficient: the
log series carries a linear-in-l term (2l + nu + c) ln(q)/2 whose
moment-consistent value is c = -1 (the default here).  c = -3 also appears
in print; with that choice the measure differs by a multiple of
(I_nu^{(q)})^2, whose moments diverge, and the identity fails at O(1) - the
regression tests pin this down numerically.

Everything cancels by roughly exp(4 rho) at large rho, so the bracket is
carried in compensated double-double arithmetic with an explicit roundoff
floor.  The q-mode quadrature cutoff R grows panel by panel until the
estimated tail or the noise floor stops it; the classical grid ends at
R = 12 and the tail beyond it is restored from the standard large-argument
form of K_nu (the first omitted correction is reported as
``tail_bound_residual``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _dd, qspecial
from .errors import DomainError, SeriesConvergenceError
from .qspecial import (CLASSICAL, NOISE_BUDGET, QParam, _bessel_i_series, _bessel_k_dd,
                       _log_series_dd, bessel_k, q_factorial)
from .repalg import check_bargmann

__all__ = [
    "MomentRecord",
    "MomentReport",
    "classical_measure",
    "q_measure",
    "moment_check",
]


def classical_measure(rho: float, nu: int) -> float:
    """g(rho^2) = 2 I_nu(2 rho) K_nu(2 rho), both factors by series."""
    if not rho > 0:
        raise DomainError("classical_measure requires rho > 0")
    i_val = float(_bessel_i_series(nu, rho, CLASSICAL))
    return 2.0 * i_val * bessel_k(nu, 2.0 * rho)


# --------------------------------------------------------------------------
# q-measure bracket in double-double arithmetic
# --------------------------------------------------------------------------

_PSI_CACHE: dict = {}     # q -> list of dd psi_{q^2}(m), m = 1..len
_QNUM_CACHE: dict = {}    # q -> (dd q, dd q - 1/q, list of dd [m]_q, m = 0..len-1)
_CACHE_LOCK = threading.Lock()  # table extension is append-based, guard it


def _psi_q2_table(q: float, count: int):
    """dd values of psi_{q^2}(m) for m = 1..count, extended on demand.

    psi_Q(1) is summed once (vectorised dd blocks); successive integer
    arguments follow from psi_Q(z+1) = psi_Q(z) - ln(Q) Q^z/(1-Q^z).  An
    extension forms its steps ln(Q) Q^m/(1-Q^m) in one array pass; the Q^m
    chain and the running subtraction stay scalar.
    """
    with _CACHE_LOCK:
        table = _PSI_CACHE.get(q)
        if table is None:
            q_dd = _dd.dd(q)
            big_q = _dd.sqr(q_dd)
            ln_big_q = _dd.log(big_q)
            s = _dd.dd(0.0)
            # Q^n falls below e^-90 (past the 1e-36 stop) within 90/|ln Q| terms
            block = min(8192, 1 << max(0, math.ceil(math.log2(90.0 / abs(ln_big_q[0])))))
            n0 = 1
            converged = False
            while n0 < qspecial.MAX_TERMS:
                n = np.arange(n0, n0 + block, dtype=float)
                p = _dd.exp(_dd.mul_d(ln_big_q, n))          # Q^n
                terms = _dd.div(p, _dd.sub(_dd.dd(np.ones_like(n)), p))
                s = _dd.add(s, _dd.sum_pairwise(terms[0], terms[1]))
                if terms[0][-1] < 1e-36 * abs(s[0]):
                    converged = True
                    break
                n0 += block
            if not converged:
                raise SeriesConvergenceError("psi_{q^2}(1)", f"q={q}")
            psi1 = _dd.add(_dd.neg(_dd.log(_dd.sub(_dd.dd(1.0), big_q))),
                           _dd.mul(ln_big_q, s))
            table = {"psi": [psi1], "lnQ": ln_big_q, "Q": big_q,
                     "Qpow": big_q}  # Qpow tracks Q^m for the recurrence, m = 1
            _PSI_CACHE[q] = table
        psi = table["psi"]
        if len(psi) < count:
            powers = []                                       # Q^m, m = len(psi)..
            qm = table["Qpow"]
            for _ in range(count - len(psi)):
                powers.append(qm)
                qm = _dd.mul(qm, table["Q"])
            table["Qpow"] = qm
            qm = (np.array([p[0] for p in powers]), np.array([p[1] for p in powers]))
            steps = _dd.div(_dd.mul(table["lnQ"], qm), _dd.sub(_dd.dd(1.0), qm))
            for step in zip(steps[0].tolist(), steps[1].tolist()):
                psi.append(_dd.sub(psi[-1], step))
        return psi


def _qnum_dd_table(q: float, count: int):
    """dd values of the symmetric q-numbers [m]_q, m = 0..count-1, extended
    on demand in one array pass with the operations of the scalar formula
    (q^m - 1/q^m) / (q - 1/q)."""
    with _CACHE_LOCK:
        entry = _QNUM_CACHE.get(q)
        if entry is None:
            q_dd = _dd.dd(q)
            entry = (q_dd, _dd.sub(q_dd, _dd.recip(q_dd)), [_dd.dd(0.0), _dd.dd(1.0)])
            _QNUM_CACHE[q] = entry
        q_dd, denom, lst = entry
        if len(lst) < count:
            power = _dd.pow_ints(q_dd, np.arange(len(lst), count))
            num = _dd.sub(power, _dd.recip(power))
            hi, lo = _dd.div(num, denom)
            lst.extend(zip(hi.tolist(), lo.tolist()))
        return lst


def _q_bracket_dd(rho, nu: int, q: float, log_term_offset: int, sizes=None):
    """The bracketed factor of the q-measure, vectorised over rho, in dd.

    Returns (value_dd, noise_floor), both shaped like rho: the shared
    ascending log series (:func:`qspecial._log_series_dd`) with q-numbers,
    psi_{q^2} and

        C1 = (q^2-1)/(q ln q),   C2 = (1-q^2)^2 / (q^2 (ln q)^2),

    so that it reduces to 4 K_nu(2 rho) as q -> 1.  Each stopping group
    (``sizes`` of the flattened rho; without it the whole rho) stops its log
    series on its own and comes out bit for bit as a call with that group
    alone.
    """
    q_dd = _dd.dd(q)
    lnq = _dd.log(q_dd)
    q_sq = _dd.sqr(q_dd)
    one = _dd.dd(1.0)
    c1 = _dd.div(_dd.sub(q_sq, one), _dd.mul(q_dd, lnq))
    c2 = _dd.div(_dd.sqr(_dd.sub(one, q_sq)), _dd.mul(q_sq, _dd.sqr(lnq)))

    def tables(count):
        return _qnum_dd_table(q, count), _psi_q2_table(q, count)

    return _log_series_dd(rho, nu, tables, c1, c2, lnq, log_term_offset, sizes)


def q_measure(rho: float, nu: int, q, log_term_offset: int = -1) -> float:
    """The q-deformed completeness measure g_q(rho^2), rho > 0, 0 < q < 1.

    ``log_term_offset`` is the constant c in the (2l + nu + c) ln(q)/2 term
    of the log series; the default c = -1 is the value under which the
    moment relations hold (c = -3 makes them diverge; kept available for the
    regression tests).  Raises :class:`SeriesConvergenceError` where the
    roundoff floor exceeds NOISE_BUDGET of the value.
    """
    if not rho > 0:
        raise DomainError("q_measure requires rho > 0")
    if nu < 0 or nu != int(nu):
        raise DomainError("q_measure requires nonnegative integer nu = 2k-1")
    qv = qspecial._series_value(q, where="q_measure")
    bracket, noise = _q_bracket_dd(rho, int(nu), qv, log_term_offset)
    i_val = float(_bessel_i_series(int(nu), rho, QParam(qv)))
    out = 0.5 * i_val * float(_dd.to_float(bracket))
    if not float(noise) * 0.5 * i_val < NOISE_BUDGET * max(abs(out), 1e-300):
        raise SeriesConvergenceError("q_measure",
                                     f"cancellation floor at rho={rho}, q={qv}")
    return out


# --------------------------------------------------------------------------
# moment quadrature
# --------------------------------------------------------------------------

# panel layout of the moment quadratures: panels geometric from _LOWER up to
# 1 (resolving the integrable rho -> 0 behavior) and _PANEL_WIDTH wide
# beyond, each with the _NODES-point Gauss-Legendre rule _rule()
_LOWER = 1e-8
_PANEL_WIDTH = 0.5
_NODES = 16
# outer panels of the adaptive q-mode cutoff evaluated per integrand call
_PANEL_BATCH = 8


@dataclass(frozen=True)
class MomentRecord:
    n: int
    lhs: float
    rhs: float
    rel_err: float


@dataclass(frozen=True)
class MomentReport:
    """Per-n moment comparisons plus the quadrature metadata of the run."""

    mode: str
    k: float
    q: Optional[float]
    records: list
    lower_cutoff: float
    upper_cutoff: float
    node_count: int
    tail_estimate: float
    tail_bound_residual: float

    @property
    def max_rel_err(self) -> float:
        return max(r.rel_err for r in self.records)


def _panel_edges(upper: float) -> np.ndarray:
    edges = [_LOWER]
    x = _LOWER
    while x < min(1.0, upper):
        x = min(x * 2.0, min(1.0, upper))
        edges.append(x)
    while edges[-1] < upper - 1e-12:
        edges.append(min(edges[-1] + _PANEL_WIDTH, upper))
    return np.asarray(edges)


@functools.cache
def _rule():
    """The _NODES-point Gauss-Legendre rule on [-1, 1], built on first use:
    importing numpy.polynomial costs every other command memory and time."""
    return np.polynomial.legendre.leggauss(_NODES)


def _gl_grid(edges: np.ndarray):
    """Gauss-Legendre nodes and weights on the panels between the edges."""
    x0, w0 = _rule()
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    x = ((b - a) * x0[None, :] / 2.0 + (a + b) / 2.0).ravel()
    w = ((b - a) * w0[None, :] / 2.0).ravel()
    return x, w


def _q_panels(integrand):
    """Yield (x, w, base, noise) for the [_LOWER, 6] grid, then for each
    2-wide panel from 6 up to 40, in order.

    ``integrand(x, sizes)`` gives (base, noise) on the flat nodes ``x``, one
    stopping group per entry of ``sizes``.  The adaptive loop always reaches
    the first _PANEL_BATCH panels, so they share one call with the grid; each
    later batch is evaluated only once the caller asks for its first panel.
    """
    x, w = _gl_grid(np.arange(6.0, 41.0, 2.0))
    blocks = [_gl_grid(_panel_edges(6.0)),
              *zip(x.reshape(-1, _NODES), w.reshape(-1, _NODES))]
    bounds = [0, *range(1 + _PANEL_BATCH, len(blocks), _PANEL_BATCH), len(blocks)]
    for lo, hi in zip(bounds, bounds[1:]):
        batch = blocks[lo:hi]
        sizes = [len(bx) for bx, _ in batch]
        base, noise = integrand(np.concatenate([bx for bx, _ in batch]), sizes)
        cuts = np.cumsum(sizes)[:-1]
        yield from ((bx, bw, b, nz) for (bx, bw), b, nz
                    in zip(batch, np.split(base, cuts), np.split(noise, cuts)))


def _k_asymptotic(nu: int, two_rho: np.ndarray, terms: int = 6):
    """Large-argument form of K_nu with `terms` inverse-power corrections;
    also returns the magnitude of the first omitted term."""
    mu = 4.0 * nu * nu
    series = np.ones_like(two_rho)
    a = np.ones_like(two_rho)
    for j in range(1, terms):
        a = a * (mu - (2 * j - 1) ** 2) / (j * 8.0 * two_rho)
        series += a
    a_next = np.abs(a * (mu - (2 * terms - 1) ** 2) / (terms * 8.0 * two_rho))
    pref = np.sqrt(np.pi / (2.0 * two_rho)) * np.exp(-two_rho)
    return pref * series, pref * a_next


def _base_integrand_classical(rho: np.ndarray, nu: int):
    """2 rho g(rho^2) N(rho^2)^2 = 4 rho^{nu+1} K_nu(2 rho) on the grid, with
    its noise floor."""
    k_dd, k_noise = _bessel_k_dd(nu, 2.0 * rho)
    scale = 4.0 * rho ** (nu + 1)
    return scale * _dd.to_float(k_dd), scale * k_noise


def _base_integrand_q(rho: np.ndarray, nu: int, qp: QParam, log_term_offset: int,
                      sizes=None):
    """2 rho g_q(rho^2) N(rho^2)^2 = rho^{nu+1} times the bracket on the grid,
    with its noise floor; ``sizes`` are the bracket's stopping groups (see
    :func:`qspecial._log_series_dd`)."""
    bracket, noise = _q_bracket_dd(rho, nu, qp.value, log_term_offset, sizes)
    scale = rho ** (nu + 1)
    return scale * _dd.to_float(bracket), scale * noise


def moment_check(n_max: int, k: float, mode, log_term_offset: int = -1) -> MomentReport:
    """Verify the completeness moment relations for n = 0..n_max.

    ``mode`` is the string "classical" or a deformed QParam (or plain float
    q).  The classical grid ends at rho = 12 and the tail past it is restored
    analytically; the q-mode cutoff grows past rho = 6 until the tail or the
    noise floor stops it.  Returns a MomentReport with per-n relative errors
    and the quadrature metadata; nothing is asserted here, callers decide
    what tolerance to demand.
    """
    k = check_bargmann(k)
    if n_max < 0 or n_max > 8:
        raise DomainError("moment_check supports 0 <= n_max <= 8")
    nu_f = 2.0 * k - 1.0
    if not float(nu_f).is_integer():
        raise DomainError("moment_check requires integer nu = 2k-1 "
                          "(Bessel orders of the measures)")
    nu = int(nu_f)
    classical = (mode == "classical") or (isinstance(mode, QParam) and mode.is_classical)
    powers = np.arange(n_max + 1)

    if classical:
        upper = 12.0
        x, w = _gl_grid(_panel_edges(upper))
        base, noise = _base_integrand_classical(x, nu)
        lhs = np.array([float(np.dot(w, base * x ** (2 * n))) for n in powers])
        # restore the tail with the large-argument K form on [R, R+40]
        tail_edges = np.arange(upper, upper + 40.0 + 1e-9, 2.0)
        tx, tw = _gl_grid(tail_edges)
        k_asym, k_resid = _k_asymptotic(nu, 2.0 * tx)
        scale = 4.0 * tx ** (nu + 1)
        tails = np.array([float(np.dot(tw, scale * k_asym * tx ** (2 * n))) for n in powers])
        resids = np.array([float(np.dot(tw, scale * k_resid * tx ** (2 * n))) for n in powers])
        lhs = lhs + tails
        tail_estimate = float(np.max(tails))
        tail_bound_residual = float(np.max(resids / np.abs(lhs)))
        node_count = len(x) + len(tx)
        rhs = np.array([math.factorial(n) * math.gamma(n + 2 * k) for n in powers])
    else:
        qp = QParam(qspecial._series_value(mode, where="moment_check"))
        # grow the cutoff past rho = 6 until the n_max panel contribution is
        # negligible or the compensated-arithmetic noise floor is reached
        panels = _q_panels(lambda x, sizes: _base_integrand_q(x, nu, qp, log_term_offset,
                                                              sizes))
        x, w, base, noise = next(panels)
        lhs = np.array([float(np.dot(w, base * x ** (2 * n))) for n in powers])
        noise_tally = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
        node_count = len(x)
        tail_estimate = math.inf
        r, quiet, fallen, prev_contrib = 6.0, 0, False, math.inf
        # the classical n_max integrand (rho^{2 n_max + nu + 1/2} e^{-2 rho} at
        # large rho) peaks here: a rise that starts before the peak and before
        # any fall is that peak, not the dip
        peak = n_max + nu / 2.0 + 0.25
        for x, w, base, noise in panels:
            node_count += len(x)
            contrib = float(np.dot(w, base * x ** (2 * n_max)))
            panel_noise = float(np.dot(np.abs(w), noise * x ** (2 * n_max)))
            if abs(contrib) <= panel_noise:
                # noise floor: integrating further adds nothing credible
                tail_estimate = abs(contrib) + panel_noise
                break
            if abs(contrib) > abs(prev_contrib) and (fallen or r >= peak):
                # the residue-series measure resolves the identity only
                # asymptotically: past its decaying window the bracket
                # turns oscillatory with a growing envelope (early for
                # small q).  Stop at the dip and report it as the tail.
                tail_estimate = abs(contrib) + abs(prev_contrib)
                break
            for n in powers:
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
        upper = r
        tail_bound_residual = noise_tally / max(abs(lhs[n_max]), 1e-300)
        rhs = np.array([q_factorial(int(n), qp) * q_factorial(int(n) + nu, qp)
                        for n in powers])

    records = [MomentRecord(int(n), float(lhs[n]), float(rhs[n]),
                            float(abs(lhs[n] - rhs[n]) / abs(rhs[n])))
               for n in powers]
    return MomentReport(mode="classical" if classical else "q", k=float(k),
                        q=None if classical else qp.value,
                        records=records, lower_cutoff=_LOWER,
                        upper_cutoff=float(upper), node_count=int(node_count),
                        tail_estimate=float(tail_estimate),
                        tail_bound_residual=float(tail_bound_residual))
