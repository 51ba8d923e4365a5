"""q-special functions with pinned analytic-continuation conventions.

Everything here uses the *symmetric* q-number

    [x]_q = (q^x - q^{-x}) / (q - q^{-1}),

which reduces to x as q -> 1 and is invariant under q -> 1/q.  The symmetric
q-factorial is continued off the integers by

    [z]_q! = q^{-z(z-1)/2} * Gamma_{q^2}(z+1),

where Gamma_Q is the standard base-Q q-Gamma function; the normalization is
validated against the plain product on integers 0..20 the first time each q
is used (see :func:`q_factorial_cont`).

Everything here is plain double arithmetic.  The modified Bessel function
of the second kind, whose ascending log series cancels by ~e^{4 rho}, is the
q-measure bracket at the classical tag and lives with it in
:mod:`.measure`, in compensated double-double arithmetic.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
# modified Bessel functions of the first kind
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
