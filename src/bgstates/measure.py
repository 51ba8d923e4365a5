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
integrand is exactly rho^{nu+1} times the bracket, whose value at the
classical tag is 4 K_nu(2 rho); the tests check this against q_measure,
classical_measure and costate.normalization_series.

The bracket is evaluated verbatim except for one pinned coefficient: the
log series carries a linear-in-l term (2l + nu + c) ln(q)/2 whose
moment-consistent value is c = -1 (pinned as LOG_TERM_OFFSET).  c = -3
also appears in print; with that choice the measure differs by a multiple of
(I_nu^{(q)})^2, whose moments diverge, and the identity fails at O(1) - the
regression tests pin this down numerically.

Everything cancels by roughly exp(4 rho) at large rho, so the bracket is
carried in compensated double-double arithmetic with an explicit roundoff
floor, by one evaluator that reads its tables and constants from the
deformation alone (:func:`_log_series_dd`); :func:`bessel_k` is a quarter of
it at the classical tag.  The q-mode quadrature cutoff R grows panel by
panel until the estimated tail or the noise floor stops it; the classical
grid ends at R = 12 and the tail beyond it is restored from the standard
large-argument form of K_nu (the first omitted correction is reported as
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
from .qspecial import CLASSICAL, QParam, _bessel_i_series, q_factorial
from .repalg import check_bargmann

__all__ = [
    "MomentRecord",
    "MomentReport",
    "bessel_k",
    "classical_measure",
    "q_measure",
    "moment_check",
    "NOISE_BUDGET",
]

# largest relative roundoff floor a cancelling dd series result may carry
# (bessel_k, q_measure); past it they raise instead of returning the value
NOISE_BUDGET = 1e-10


def classical_measure(rho: float, nu: int) -> float:
    """g(rho^2) = 2 I_nu(2 rho) K_nu(2 rho), both factors by series."""
    if not rho > 0:
        raise DomainError("classical_measure requires rho > 0")
    i_val = float(_bessel_i_series(nu, rho, CLASSICAL))
    return 2.0 * i_val * bessel_k(nu, 2.0 * rho)


# --------------------------------------------------------------------------
# q-measure bracket in double-double arithmetic
# --------------------------------------------------------------------------

# the c of the log series' (2l + nu + c) ln(q)/2 term, read at call time:
# -1 is the moment-consistent value (see the module docstring)
LOG_TERM_OFFSET = -1

_PSI_CACHE: dict = {}     # q -> list of dd psi_{q^2}(m), m = 1..len
_QNUM_CACHE: dict = {}    # q -> (dd q, dd q - 1/q, list of dd [m]_q, m = 0..len-1)
_CACHE_LOCK = threading.Lock()  # table extension is append-based, guard it


def _psi_q2_table(q: float, count: int):
    """dd values of psi_{q^2}(m) for m = 1..count, extended on demand.

    psi_Q(1) is summed once (vectorised dd blocks); successive integer
    arguments follow from psi_Q(z+1) = psi_Q(z) - ln(Q) Q^z/(1-Q^z).  An
    extension forms its steps ln(Q) Q^m/(1-Q^m) in one array pass; the Q^m
    chain and the running subtraction stay scalar.  Raises
    :class:`DomainError` naming q where ln Q leaves double range.
    """
    with _CACHE_LOCK:
        table = _PSI_CACHE.get(q)
        if table is None:
            q_dd = _dd.dd(q)
            big_q = _dd.sqr(q_dd)
            with np.errstate(over="ignore", invalid="ignore"):
                ln_big_q = _dd.log(big_q) if big_q[0] > 0.0 else (math.nan, 0.0)
            if not np.isfinite(ln_big_q).all():
                raise DomainError(f"ln q^2 of the psi_{{q^2}} table leaves double range at q={q}")
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
                if not terms[0][-1] > 1e-36 * abs(s[0]):      # an underflowed Q^n stops too
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
    (q^m - 1/q^m) / (q - 1/q).  Raises :class:`DomainError` naming q where
    an entry leaves double range."""
    with _CACHE_LOCK:
        entry = _QNUM_CACHE.get(q)
        if entry is None:
            q_dd = _dd.dd(q)
            entry = (q_dd, _dd.sub(q_dd, _dd.recip(q_dd)), [_dd.dd(0.0), _dd.dd(1.0)])
            _QNUM_CACHE[q] = entry
        q_dd, denom, lst = entry
        if len(lst) < count:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                power = _dd.pow_ints(q_dd, np.arange(len(lst), count))
                num = _dd.sub(power, _dd.recip(power))
                hi, lo = _dd.div(num, denom)
            bad = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
            if bad.size:
                raise DomainError(f"q-number [{len(lst) + bad[0]}]_q = (q^m - q^-m)/(q - 1/q) "
                                  f"leaves double range at q={q}")
            lst.extend(zip(hi.tolist(), lo.tolist()))
        return lst


@functools.lru_cache(maxsize=None)
def _integer_tables(count: int):
    """dd integers m, m = 0..count-1, and psi(m) = H_{m-1} - EulerGamma,
    m = 1..count: the q -> 1 limits of the q-number and psi_{q^2} tables."""
    psi = [_dd.neg(_dd.EULER_GAMMA)]
    for m in range(1, count):
        psi.append(_dd.add(psi[-1], _dd.div_d(_dd.dd(1.0), float(m))))
    return [_dd.dd(float(m)) for m in range(count)], psi


def _log_series_dd(rho, nu: int, qp: QParam):
    """The bracketed factor of the q-measure at ``qp``, vectorised over
    rho > 0, in dd: the ascending log series

        C1 sum_{l<nu} (-1)^l [nu-l-1]!/[l]! rho^{2l-nu}
        + (-1)^{nu+1} C2 [ (ln rho) S_A - S_B ],

        S_A = sum_l T_l,         S_B = sum_l T_l W_l,
        T_l = rho^{2l+nu} / ([l]! [l+nu]!),
        W_l = psi(l+1)/2 + psi(l+nu+1)/2 - (2l + nu + LOG_TERM_OFFSET) ln(q)/2,

    with q-numbers, psi = psi_{q^2} and

        C1 = (q^2-1)/(q ln q),   C2 = (1-q^2)^2 / (q^2 (ln q)^2),

    so that it reduces to 4 K_nu(2 rho) as q -> 1.  At the classical tag it
    is that limit, with integers, the digamma function, C1 = 2, C2 = 4 and
    ln q = 0: exactly 4 K_nu(2 rho) (:func:`bessel_k`), since a power of two
    scales dd exactly.  There each term is divided by the double l(l+nu),
    exact for integers, instead of by the dd product [l][l+nu].

    Returns ``(value_dd, noise)``, both shaped like rho, where ``noise`` is
    the estimated absolute roundoff floor (largest uncancelled operand times
    dd ulp).  Each node stops its own log series, at the first l > 4 where
    its term meets the roundoff test (a NaN term ends it), so a node comes
    out bit for bit the same in any batch of nodes.  The finite part's
    coefficients stay in dd: rounded to doubles, their error outlives the
    e^{4 rho} cancellation from nu = 4 on.
    """
    if qp.is_classical:
        tables, c1, c2, lnq = _integer_tables, _dd.dd(2.0), _dd.dd(4.0), _dd.dd(0.0)
    else:
        q = qp.value
        q_dd = _dd.dd(q)
        lnq = _dd.log(q_dd)
        q_sq = _dd.sqr(q_dd)
        one = _dd.dd(1.0)
        c1 = _dd.div(_dd.sub(q_sq, one), _dd.mul(q_dd, lnq))
        c2 = _dd.div(_dd.sqr(_dd.sub(one, q_sq)), _dd.mul(q_sq, _dd.sqr(lnq)))

        def tables(count):
            return _qnum_dd_table(q, count), _psi_q2_table(q, count)

    rho = np.asarray(rho, dtype=float)
    shape = rho.shape
    rho = rho.ravel()
    rho_dd = (rho, np.zeros_like(rho))

    psi_needed = 64
    qnum, psi = tables(psi_needed + nu + 2)
    # c1 * finite alternating sum
    total = _dd.dd(np.zeros_like(rho))
    if nu > 0:
        qfact = [_dd.dd(1.0)]
        for m in range(1, nu):
            qfact.append(_dd.mul(qfact[-1], qnum[m]))
        t = _dd.pow_int(rho_dd, -nu)
        rho2 = _dd.sqr(rho_dd)
        for l in range(nu):
            coeff = _dd.mul_d(_dd.div(qfact[nu - l - 1], qfact[l]), float((-1) ** l))
            total = _dd.add(total, _dd.mul(t, _dd.mul(c1, coeff)))
            t = _dd.mul(t, rho2)

    # log series
    sign = float((-1) ** (nu + 1))
    lnrho = _dd.log(rho_dd)
    fact_nu = _dd.dd(1.0)
    for m in range(1, nu + 1):
        fact_nu = _dd.mul(fact_nu, qnum[m])
    # the working arrays (suffix _w) hold the nodes still summing, `where`
    # their positions; a node that stops moves its sums into s_a, s_b,
    # max_opmag and leaves them
    s_a = (np.empty_like(rho), np.empty_like(rho))
    s_b = (np.empty_like(rho), np.empty_like(rho))
    max_opmag = np.empty_like(rho)
    where = np.arange(rho.size)
    t = _dd.div(_dd.pow_int(rho_dd, nu), fact_nu)
    rho2 = _dd.sqr(rho_dd)
    lnrho_w = np.abs(lnrho[0])
    s_a_w = _dd.dd(np.zeros_like(rho))
    s_b_w = _dd.dd(np.zeros_like(rho))
    max_w = np.zeros_like(rho)
    l = 0
    while where.size:
        if l + nu + 2 > psi_needed:
            psi_needed *= 2
            qnum, psi = tables(psi_needed + nu + 2)
        w = _dd.mul_d(_dd.add(psi[l], psi[l + nu]), 0.5)   # psi(l+1), psi(l+nu+1)
        w = _dd.sub(w, _dd.mul_d(lnq, (2 * l + nu + LOG_TERM_OFFSET) / 2.0))
        s_a_w = _dd.add(s_a_w, t)
        s_b_w = _dd.add(s_b_w, _dd.mul(t, w))
        wmag = lnrho_w + abs(_dd.to_float(w)) + 1.0
        np.maximum(max_w, np.abs(t[0]) * wmag, out=max_w)
        l += 1
        if l >= qspecial.MAX_TERMS:
            raise SeriesConvergenceError("ascending log series", f"nu={nu}")
        if qp.is_classical:
            t = _dd.div_d(_dd.mul(t, rho2), float(l * (l + nu)))
        else:
            t = _dd.div(_dd.mul(t, rho2), _dd.mul(qnum[l], qnum[l + nu]))
        if l > 4:
            leaving = ~(t[0] * wmag > 1e-34 * max_w)
            if leaving.any():
                finished = where[leaving]
                s_a[0][finished], s_a[1][finished] = s_a_w[0][leaving], s_a_w[1][leaving]
                s_b[0][finished], s_b[1][finished] = s_b_w[0][leaving], s_b_w[1][leaving]
                max_opmag[finished] = max_w[leaving]
                keep = ~leaving
                where = where[keep]
                t, rho2, s_a_w, s_b_w = (tuple(part[keep] for part in v)
                                         for v in (t, rho2, s_a_w, s_b_w))
                lnrho_w, max_w = lnrho_w[keep], max_w[keep]
    log_part = _dd.sub(_dd.mul(lnrho, s_a), s_b)
    total = _dd.add(total, _dd.mul_d(_dd.mul(c2, log_part), sign))
    noise = max_opmag * abs(_dd.to_float(c2)) * 2.0 ** -98
    return (total[0].reshape(shape), total[1].reshape(shape)), noise.reshape(shape)


def bessel_k(nu: int, two_rho: float) -> float:
    """Modified Bessel function of the second kind K_nu(2 rho), rho > 0:
    1/4 of :func:`_log_series_dd` at the classical tag,

        K_nu(2r) = 1/2 sum_{l<nu} (-1)^l (nu-l-1)!/l! r^{2l-nu}
                   + (-1)^{nu+1} sum_{l>=0} [ln r - psi(l+1)/2 - psi(l+nu+1)/2]
                     r^{2l+nu} / (l! (l+nu)!).

    Raises :class:`SeriesConvergenceError` where the value leaves double
    range, and once the e^{4 rho} cancellation leaves a roundoff floor above
    NOISE_BUDGET of the value (2 rho beyond roughly 24).
    """
    if nu < 0 or nu != int(nu):
        raise DomainError(f"bessel_k requires nonnegative integer order, got {nu!r}")
    rho = np.asarray(two_rho, dtype=float) / 2.0
    if np.any(rho <= 0.0):
        raise DomainError("bessel_k requires rho > 0")
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is named below
        value, noise = _log_series_dd(rho, int(nu), CLASSICAL)
        out, noise = 0.25 * float(_dd.to_float(value)), 0.25 * float(noise)
    if not (math.isfinite(out) and math.isfinite(noise)):
        raise SeriesConvergenceError("bessel_k", f"not finite at 2rho={two_rho}")
    if not noise < NOISE_BUDGET * abs(out):
        raise SeriesConvergenceError(
            "bessel_k", f"cancellation floor reached at 2rho={two_rho} (noise {noise:.2e})")
    return out


def q_measure(rho: float, nu: int, q) -> float:
    """The q-deformed completeness measure g_q(rho^2), rho > 0, 0 < q < 1.

    The log series carries the pinned offset LOG_TERM_OFFSET.  Raises
    :class:`SeriesConvergenceError` where the value leaves double range or
    its roundoff floor exceeds NOISE_BUDGET of it.
    """
    if not rho > 0:
        raise DomainError("q_measure requires rho > 0")
    if nu < 0 or nu != int(nu):
        raise DomainError("q_measure requires nonnegative integer nu = 2k-1")
    qv = qspecial._series_value(q, where="q_measure")
    qp = QParam(qv)
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is named below
        bracket, noise = _log_series_dd(rho, int(nu), qp)
        i_val = float(_bessel_i_series(int(nu), rho, qp))
        out, noise = 0.5 * i_val * float(_dd.to_float(bracket)), float(noise) * 0.5 * i_val
    if not (math.isfinite(out) and math.isfinite(noise)):
        raise SeriesConvergenceError("q_measure", f"not finite at rho={rho}, q={qv}")
    if not noise < NOISE_BUDGET * max(abs(out), 1e-300):
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

    ``integrand(x)`` gives (base, noise) on the flat nodes ``x``.  The
    adaptive loop always reaches the first _PANEL_BATCH panels, so they share
    one call with the grid; each later batch is evaluated only once the
    caller asks for its first panel.
    """
    x, w = _gl_grid(np.arange(6.0, 41.0, 2.0))
    blocks = [_gl_grid(_panel_edges(6.0)),
              *zip(x.reshape(-1, _NODES), w.reshape(-1, _NODES))]
    bounds = [0, *range(1 + _PANEL_BATCH, len(blocks), _PANEL_BATCH), len(blocks)]
    for lo, hi in zip(bounds, bounds[1:]):
        batch = blocks[lo:hi]
        base, noise = integrand(np.concatenate([bx for bx, _ in batch]))
        cuts = np.cumsum([len(bx) for bx, _ in batch])[:-1]
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


def _base_integrand_q(rho: np.ndarray, nu: int, qp: QParam):
    """2 rho g_q(rho^2) N(rho^2)^2 = rho^{nu+1} times the bracket on the grid,
    with its noise floor; at the classical tag 2 rho g(rho^2) N(rho^2)^2 =
    4 rho^{nu+1} K_nu(2 rho)."""
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is named below
        bracket, noise = _log_series_dd(rho, nu, qp)
        scale = rho ** (nu + 1)
        base, noise = scale * _dd.to_float(bracket), scale * noise
    bad = rho[~(np.isfinite(base) & np.isfinite(noise))]
    if bad.size:
        raise SeriesConvergenceError("moment integrand", f"nu={nu}: not finite at rho={bad[0]:g}")
    return base, noise


def moment_check(n_max: int, k: float, mode) -> MomentReport:
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
    nu_max = int(math.log(np.finfo(float).max) / math.log(1.0 / _LOWER))
    if nu > nu_max:    # rejected before any work, which would need absurd memory or time
        raise DomainError(f"moment_check requires k <= {(nu_max + 1) / 2:g}, where rho^-nu at "
                          f"the lower cutoff rho = {_LOWER:g} is a double, got k={k}")
    classical = (mode == "classical") or (isinstance(mode, QParam) and mode.is_classical)
    if not classical and not isinstance(mode, (QParam, float, int)):
        raise DomainError("moment_check: mode must be \"classical\", a QParam or a "
                          f"float q, got {mode!r}")
    powers = np.arange(n_max + 1)

    if classical:
        upper = 12.0
        x, w = _gl_grid(_panel_edges(upper))
        base, noise = _base_integrand_q(x, nu, CLASSICAL)
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
        panels = _q_panels(lambda x: _base_integrand_q(x, nu, qp))
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
