"""q-special functions with pinned analytic-continuation conventions.

Everything here uses the *symmetric* q-number

    [x]_q = (q^x - q^{-x}) / (q - q^{-1}),

which reduces to x as q -> 1 and is invariant under q -> 1/q.  The symmetric
q-factorial is continued off the integers by

    [z]_q! = q^{-z(z-1)/2} * Gamma_{q^2}(z+1),

where Gamma_Q is the standard base-Q q-Gamma function; the normalization is
validated against the plain product on integers 0..20 the first time each q
is used (see :func:`q_factorial_cont`).

The modified Bessel function of the second kind is evaluated from its
ascending log-series, which cancels by ~e^{4 rho}; terms are therefore
carried in compensated double-double pairs (:mod:`._dd`).  The same
evaluator, with q-numbers and psi_{q^2} in place of integers and digamma,
gives the bracket of the q-measure (:mod:`.measure`).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import _dd
from .errors import DomainError, PoleError, SeriesConvergenceError

__all__ = [
    "QParam",
    "CLASSICAL",
    "q_number",
    "q_factorial",
    "q_factorial_cont",
    "q_pochhammer",
    "q_binomial",
    "q_gamma",
    "q_digamma",
    "bessel_i_q",
    "bessel_k",
    "NOISE_BUDGET",
]


# stopping policy of the infinite series and products, read at call time:
# terms (or factors, or tail bounds) below REL_TOL end a series, and
# MAX_TERMS bounds its length before SeriesConvergenceError is raised
REL_TOL = 1e-16
MAX_TERMS = 4_000_000


def _sum_series(terms, what: str, detail: str):
    """Sum the nonnegative ``terms`` (floats, or arrays over nodes) in order.

    Stops once two consecutive terms are at most ``REL_TOL`` times the
    partial sum on every node; raises :class:`SeriesConvergenceError` naming
    ``what`` when ``MAX_TERMS`` terms do not get there.
    """
    total = None
    below = 0
    for term in itertools.islice(terms, MAX_TERMS):
        total = term if total is None else total + term
        if np.all(term <= REL_TOL * total):
            below += 1
            if below >= 2:
                return total
        else:
            below = 0
    raise SeriesConvergenceError(what, detail)


# largest relative roundoff floor a cancelling dd series result may carry
# (bessel_k, q_measure); past it they raise instead of returning the value
NOISE_BUDGET = 1e-10


class QParam:
    """Real deformation parameter with the classical case as a distinct tag.

    ``QParam(q)`` takes any finite q > 0 other than 1.  The series evaluated
    here converge only for 0 < q < 1 and reject q > 1 by name
    (:func:`_series_value`); a q > 1 bipartite state takes its g from the
    crossing mirror at 1/q.  ``QParam.classical()`` marks the undeformed
    algebra and is never represented as a float near 1.
    """

    __slots__ = ("value", "is_classical")

    def __init__(self, value: float):
        value = float(value)
        if not 0.0 < value < math.inf or value == 1.0:
            raise DomainError(
                f"deformation parameter must be a finite q > 0 other than 1, got {value!r}; "
                "use QParam.classical() for q = 1")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "is_classical", False)

    @classmethod
    def classical(cls) -> "QParam":
        obj = object.__new__(cls)
        object.__setattr__(obj, "value", None)
        object.__setattr__(obj, "is_classical", True)
        return obj

    def __setattr__(self, *_):
        raise AttributeError("QParam is immutable")

    def __repr__(self):
        return "QParam.classical()" if self.is_classical else f"QParam({self.value})"

    def __eq__(self, other):
        if not isinstance(other, QParam):
            return NotImplemented
        return (self.is_classical, self.value) == (other.is_classical, other.value)

    def __hash__(self):
        return hash((self.is_classical, self.value))


CLASSICAL = QParam.classical()


def _series_value(q, *, where: str) -> float:
    """Extract a float q usable in series work (0 < q < 1)."""
    if isinstance(q, QParam):
        if q.is_classical:
            raise DomainError(f"{where}: classical tag has no series form; "
                              "call the classical counterpart instead")
        q = q.value
    q = float(q)
    if not 0.0 < q < 1.0:
        raise DomainError(f"{where}: series evaluation requires 0 < q < 1, got {q!r}")
    return q


def q_number(x: float, q) -> float:
    """Symmetric q-number [x]_q = (q^x - q^{-x})/(q - q^{-1}).

    Odd in x, invariant under q -> 1/q, and equal to x for the classical tag.
    """
    if isinstance(q, QParam):
        if q.is_classical:
            return float(x)
        q = q.value
    q, x = float(q), float(x)
    if q <= 0.0 or q == 1.0:
        raise DomainError(f"q_number requires q > 0, q != 1, got {q!r}")
    try:
        out = (q ** x - q ** (-x)) / (q - 1.0 / q)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"q-number [{x:g}]_q overflows double range at q={q!r}")
    return out


def q_factorial(n: float, q) -> float:
    """[n]_q! = prod_{j=1..n} [j]_q, with the empty product equal to 1; a
    non-integer order goes to :func:`q_factorial_cont`."""
    if not n >= 0:
        raise DomainError(f"q_factorial requires a nonnegative order, got {n!r}")
    if n != int(n):
        return q_factorial_cont(n, q)
    n = int(n)
    if isinstance(q, QParam) and q.is_classical:
        return float(math.factorial(n))
    out = 1.0
    for j in range(1, n + 1):
        out *= q_number(j, q)
    return out


# q values whose continuation normalization has been checked on integers
_CONT_VALIDATED: set[float] = set()


def q_factorial_cont(z: float, q) -> float:
    """Analytic continuation of the symmetric q-factorial.

    Convention: [z]_q! = q^{-z(z-1)/2} Gamma_{q^2}(z+1).  On first use with a
    given q this is checked to reproduce :func:`q_factorial` on the integers
    0..20 to 1e-11 relative, which pins the normalization.
    """
    if isinstance(q, QParam) and q.is_classical:
        return math.gamma(z + 1.0)
    qv = _series_value(q, where="q_factorial_cont")
    if z <= -1.0:
        raise DomainError(f"q_factorial_cont requires z > -1, got {z!r}")

    def cont(zz: float) -> float:
        return qv ** (-zz * (zz - 1.0) / 2.0) * q_gamma(zz + 1.0, qv * qv)

    if qv not in _CONT_VALIDATED:
        for n in range(21):
            ref = q_factorial(n, qv)
            got = cont(float(n))
            if abs(got - ref) > 1e-11 * abs(ref):
                raise ArithmeticError(
                    f"q-factorial continuation failed its integer check at n={n}, q={qv}"
                )
        _CONT_VALIDATED.add(qv)
    return cont(float(z))


def q_pochhammer(a: float, q, n=None) -> float:
    """(a; q)_n = prod_{j=1..n} (1 - a q^{j-1}); n=None or math.inf for the
    convergent infinite product (requires 0 < q < 1)."""
    if n is None or n == math.inf:
        qv = _series_value(q, where="q_pochhammer infinite product")
        out = 1.0
        factor = float(a)
        below = 0
        for _ in range(MAX_TERMS):
            out *= 1.0 - factor
            factor *= qv
            if abs(factor) < REL_TOL:
                below += 1
                if below >= 2:
                    return out
            else:
                below = 0
        raise SeriesConvergenceError("q_pochhammer infinite product",
                                     f"a={a}, q={qv}, max_terms={MAX_TERMS}")
    if n != int(n) or n < 0:
        raise DomainError(f"q_pochhammer requires nonnegative integer n, got {n!r}")
    if isinstance(q, QParam):
        if q.is_classical:
            raise DomainError("q_pochhammer: classical tag is not meaningful here")
        q = q.value
    out = 1.0
    for j in range(int(n)):
        out *= 1.0 - a * q ** j
    return out


def q_binomial(n: int, k: int, base: float) -> float:
    """Gaussian binomial coefficient in the given base.

    Returns 0 outside 0 <= k <= n; at base exactly 1 it is the ordinary
    binomial coefficient.  Computed as the factor-by-factor product
    prod_{j=1..k} (1 - base^{n-k+j})/(1 - base^j), which has no cancellation.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"q_binomial requires nonnegative integer n, got {n!r}")
    n, k = int(n), int(k)
    if k < 0 or k > n:
        return 0.0
    if base == 1.0:
        return float(math.comb(n, k))
    if base <= 0.0:
        raise DomainError(f"q_binomial requires base > 0, got {base!r}")
    lnb = math.log(base)
    out = 1.0
    for j in range(1, k + 1):
        out *= math.expm1((n - k + j) * lnb) / math.expm1(j * lnb)
    return out


def q_gamma(z: float, q) -> float:
    """Gamma_q(z) = (1-q)^{1-z} (q; q)_inf / (q^z; q)_inf for 0 < q < 1.

    The two infinite products are accumulated factor-by-factor as a single
    ratio prod_j (1-q^{1+j})/(1-q^{z+j}): separately they underflow for q
    near 1 while the ratio stays O(1).  Raises :class:`PoleError` if a
    denominator factor vanishes to machine precision (z at a nonpositive
    integer).
    """
    qv = _series_value(q, where="q_gamma")
    # pole scan: (q^z; q)_inf factors are 1 - q^{z+j}, j >= 0
    if z <= 0.0:
        j_near = round(-z)
        if abs(1.0 - qv ** (z + j_near)) < 1e-13:
            raise PoleError(f"q_gamma pole at z={z} (q={qv})")
    lnq = math.log(qv)
    log_ratio = 0.0
    sign = 1.0
    block = 8192
    j0 = 0
    while j0 < MAX_TERMS:
        jj = np.arange(j0, j0 + block, dtype=float)
        f_num = -np.expm1((1.0 + jj) * lnq)   # 1 - q^{1+j}
        f_den = -np.expm1((z + jj) * lnq)     # 1 - q^{z+j}
        if np.any(np.abs(f_den) < 1e-280):
            raise PoleError(f"q_gamma pole at z={z} (q={qv})")
        ratio = f_num / f_den
        sign *= 1.0 if (np.count_nonzero(ratio < 0) % 2 == 0) else -1.0
        log_ratio += math.fsum(np.log(np.abs(ratio)).tolist())
        j0 += block
        # |ln| of the dropped tail is below |q - q^z| q^{j0} / (1-q)
        if abs(qv - qv ** z) * math.exp(j0 * lnq) / (1.0 - qv) < REL_TOL:
            return (1.0 - qv) ** (1.0 - z) * sign * math.exp(log_ratio)
    raise SeriesConvergenceError("q_gamma product", f"z={z}, q={qv}")


def q_digamma(z: float, q) -> float:
    """psi_q(z) = d/dz ln Gamma_q(z), via the series

        psi_q(z) = -ln(1-q) + ln(q) * sum_{n>=1} q^{nz} / (1 - q^n).

    The series form avoids the cancellation a finite difference of
    ln Gamma_q would suffer.
    """
    qv = _series_value(q, where="q_digamma")
    if z <= 0.0:
        raise DomainError(f"q_digamma requires z > 0, got {z!r}")
    lnq = math.log(qv)
    total = 0.0
    block = 4096
    n0 = 1
    for _ in range(MAX_TERMS // block + 1):
        n = np.arange(n0, n0 + block, dtype=float)
        qnz = np.exp(n * (z * lnq))
        terms = qnz / (1.0 - np.exp(n * lnq))
        total += float(math.fsum(terms.tolist()))
        if terms[-1] < REL_TOL * max(abs(total), 1e-300) and \
           terms[-2] < REL_TOL * max(abs(total), 1e-300):
            return -math.log1p(-qv) + lnq * total
        n0 += block
    raise SeriesConvergenceError("q_digamma", f"z={z}, q={qv}")


# --------------------------------------------------------------------------
# modified Bessel functions
# --------------------------------------------------------------------------

def _bessel_i_series(m, z, q):
    """sum_n z^{m+2n} / ([n]! [m+n]!)  (classical factorials for the classical
    tag).  Vectorised over z (>= 0); all terms positive.  The deformed series
    takes any real order m >= 0 ([m]_q! by continuation), the classical one
    integer orders."""
    z = np.asarray(z, dtype=float)
    classical = isinstance(q, QParam) and q.is_classical
    if not classical:
        qv = _series_value(q, where="bessel_i_q")
    if not m >= 0 or (classical and m != int(m)):
        raise DomainError("bessel index must be a nonnegative "
                          f"{'integer' if classical else 'number'}, got {m!r}")
    if m == int(m):
        m = int(m)
    with np.errstate(divide="ignore"):
        first = np.where(z > 0, z ** m, 1.0 if m == 0 else 0.0) / (
            math.factorial(m) if classical else q_factorial(m, qv))
    z2 = z * z
    terms = itertools.accumulate(
        itertools.count(1), lambda term, n: term * z2 / (
            (n * (m + n)) if classical else q_number(n, qv) * q_number(m + n, qv)),
        initial=first)
    return _sum_series(terms, "bessel_i series", f"m={m}")


def bessel_i_q(m: int, two_z: float, q) -> float:
    """Modified Bessel function of the first kind, I_m(2z), or its q-deformed
    analog  I_m^{(q)}(2z) = sum_n z^{m+2n}/([n]_q! [m+n]_q!).

    Pass ``CLASSICAL`` (or any classical tag) for the undeformed series.
    """
    if two_z < 0:
        raise DomainError(f"bessel_i_q requires 2z >= 0, got {two_z!r}")
    return float(_bessel_i_series(m, two_z / 2.0, q))


def _log_series_dd(rho, nu: int, tables, c1, c2, lnq, log_term_offset: int,
                   sizes=None):
    """The ascending log series of K_nu and of the q-measure bracket, in dd.

    Vectorised over rho > 0; returns ``(value_dd, noise)``, both shaped like
    rho, where ``noise`` is the estimated absolute roundoff floor (largest
    uncancelled operand times dd ulp).  The value is

        c1 sum_{l<nu} (-1)^l [nu-l-1]!/[l]! rho^{2l-nu}
        + (-1)^{nu+1} c2 [ (ln rho) S_A - S_B ],

        S_A = sum_l T_l,         S_B = sum_l T_l W_l,
        T_l = rho^{2l+nu} / ([l]! [l+nu]!),
        W_l = psi(l+1)/2 + psi(l+nu+1)/2 - (2l + nu + log_term_offset) ln(q)/2,

    with c1, c2 and ln q given as dd constants and ``tables(count)`` returning
    dd lists of the numbers [m], m = 0..count-1, and of psi(m), m = 1..count
    (integers and the digamma function for K_nu, q-numbers and psi_{q^2} for
    the bracket).  At ln q = 0 the numbers are integers, and each term is
    divided by the double l(l+nu), exact for them, instead of by the dd
    product [l][l+nu].

    The log series stops per group of nodes.  ``sizes`` splits the flattened
    rho into consecutive groups of those sizes; without it the whole array is
    one group.  A group stops at the first l > 4 where every one of its nodes
    meets the roundoff test, so each group comes out bit for bit as it would
    from a call with that group alone.
    """
    rho = np.asarray(rho, dtype=float)
    shape = rho.shape
    sizes = np.asarray([rho.size] if sizes is None else sizes, dtype=np.intp)
    integer = lnq[0] == 0.0
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
    # the working arrays (suffix _w) hold the groups still summing, `where`
    # their nodes' positions; a group that stops moves its sums into s_a,
    # s_b, max_opmag and leaves them
    s_a = (np.empty_like(rho), np.empty_like(rho))
    s_b = (np.empty_like(rho), np.empty_like(rho))
    max_opmag = np.empty_like(rho)
    where = np.arange(rho.size)
    starts = np.cumsum(sizes) - sizes
    t = _dd.div(_dd.pow_int(rho_dd, nu), fact_nu)
    rho2 = _dd.sqr(rho_dd)
    lnrho_w = np.abs(lnrho[0])
    s_a_w = _dd.dd(np.zeros_like(rho))
    s_b_w = _dd.dd(np.zeros_like(rho))
    max_w = np.zeros_like(rho)
    l = 0
    while True:
        if l + nu + 2 > psi_needed:
            psi_needed *= 2
            qnum, psi = tables(psi_needed + nu + 2)
        w = _dd.mul_d(_dd.add(psi[l], psi[l + nu]), 0.5)   # psi(l+1), psi(l+nu+1)
        w = _dd.sub(w, _dd.mul_d(lnq, (2 * l + nu + log_term_offset) / 2.0))
        s_a_w = _dd.add(s_a_w, t)
        s_b_w = _dd.add(s_b_w, _dd.mul(t, w))
        wmag = lnrho_w + abs(_dd.to_float(w)) + 1.0
        np.maximum(max_w, np.abs(t[0]) * wmag, out=max_w)
        l += 1
        if l >= MAX_TERMS:
            raise SeriesConvergenceError("ascending log series", f"nu={nu}")
        if integer:
            t = _dd.div_d(_dd.mul(t, rho2), float(l * (l + nu)))
        else:
            t = _dd.div(_dd.mul(t, rho2), _dd.mul(qnum[l], qnum[l + nu]))
        if l > 4:
            met = t[0] * wmag <= 1e-34 * max_w
            done = np.logical_and.reduceat(met, starts)
            if done.any():
                leaving = np.repeat(done, sizes)
                finished = where[leaving]
                s_a[0][finished], s_a[1][finished] = s_a_w[0][leaving], s_a_w[1][leaving]
                s_b[0][finished], s_b[1][finished] = s_b_w[0][leaving], s_b_w[1][leaving]
                max_opmag[finished] = max_w[leaving]
                if done.all():
                    break
                keep = ~leaving
                where = where[keep]
                sizes = sizes[~done]
                starts = np.cumsum(sizes) - sizes
                t, rho2, s_a_w, s_b_w = (tuple(part[keep] for part in v)
                                         for v in (t, rho2, s_a_w, s_b_w))
                lnrho_w, max_w = lnrho_w[keep], max_w[keep]
    log_part = _dd.sub(_dd.mul(lnrho, s_a), s_b)
    total = _dd.add(total, _dd.mul_d(_dd.mul(c2, log_part), sign))
    noise = max_opmag * abs(_dd.to_float(c2)) * 2.0 ** -98
    return (total[0].reshape(shape), total[1].reshape(shape)), noise.reshape(shape)


@functools.lru_cache(maxsize=None)
def _integer_tables(count: int):
    """dd integers m, m = 0..count-1, and psi(m) = H_{m-1} - EulerGamma,
    m = 1..count: the q -> 1 limits of the bracket's tables."""
    psi = [_dd.neg(_dd.EULER_GAMMA)]
    for m in range(1, count):
        psi.append(_dd.add(psi[-1], _dd.div_d(_dd.dd(1.0), float(m))))
    return [_dd.dd(float(m)) for m in range(count)], psi


def _bessel_k_dd(nu: int, two_rho):
    """K_nu(2 rho) and its noise floor: :func:`_log_series_dd` at q = 1,

        K_nu(2r) = 1/2 sum_{l<nu} (-1)^l (nu-l-1)!/l! r^{2l-nu}
                   + (-1)^{nu+1} sum_{l>=0} [ln r - psi(l+1)/2 - psi(l+nu+1)/2]
                     r^{2l+nu} / (l! (l+nu)!).

    Callers decide whether the cancellation left anything meaningful.  The
    finite part's coefficients stay in dd: rounded to doubles, their error
    outlives the e^{4 rho} cancellation from nu = 4 on.
    """
    if nu < 0 or nu != int(nu):
        raise DomainError(f"bessel_k requires nonnegative integer order, got {nu!r}")
    rho = np.asarray(two_rho, dtype=float) / 2.0
    if np.any(rho <= 0.0):
        raise DomainError("bessel_k requires rho > 0")
    return _log_series_dd(rho, int(nu), _integer_tables, _dd.dd(0.5), _dd.dd(1.0),
                          _dd.dd(0.0), 0)


def bessel_k(nu: int, two_rho: float) -> float:
    """Modified Bessel function of the second kind K_nu(2 rho), rho > 0.

    Evaluated from the two-part ascending series (finite sum plus log series).
    Raises :class:`SeriesConvergenceError` once the e^{4 rho} cancellation
    leaves a roundoff floor above NOISE_BUDGET of the value (2 rho beyond
    roughly 24).
    """
    value, noise = _bessel_k_dd(nu, two_rho)
    out = float(_dd.to_float(value))
    if not float(noise) < NOISE_BUDGET * abs(out):
        raise SeriesConvergenceError(
            "bessel_k",
            f"cancellation floor reached at 2rho={two_rho} (noise {float(noise):.2e})",
        )
    return out
