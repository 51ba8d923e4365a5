"""Truncated discrete-series su(1,1) representations and their deformations.

The classical carrier basis |n,k>, n = 0..N, carries both the classical
generators and every deformed family considered here: an invertible map
f(K0) rescales the ladder matrix elements,

    K0 |n,k> = (n+k) |n,k>,
    K+ |n,k> = f(n+1+k) sqrt((n+1)(n+2k))   |n+1,k>,
    K- |n,k> = f(n+k)   sqrt(n(n+2k-1))     |n-1,k>,

with f = 1 classical and the Curtright-Zachos choice

    f(x) = sqrt([x-k]_q [x+k-1]_q / ((x-k)(x+k-1)))

producing the su_q(1,1) algebra on the same basis.  Two-node actions use the
classical primitive coproduct or the noncocommutative q-coproduct

    Delta(K+-) = q^{K0} (x) K+-  +  K+- (x) q^{-K0},

whose q^{+-K0} prefactor acts on the *spectator* node.

Raising out of the top truncation level is dropped; the squared weight that
was dropped is reported as ``truncation_loss`` so residual tests can stay
honest on interior components.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, ShapeError
from .qspecial import QParam, q_number

__all__ = [
    "check_bargmann",
    "DeformationMap",
    "LadderOperator",
    "BipartiteOperator",
    "apply_ladder",
    "apply_coproduct",
    "lowering_elements",
]

# q**x leaves double range once |x ln q| passes this
_LOG_DBL_MAX = math.log(sys.float_info.max)
# levels of a q table evaluated per comprehension
_TABLE_CHUNK = 4096


def check_bargmann(k: float) -> float:
    """Validate a Bargmann index: k >= 1/2 keeps every sqrt in the ladder
    matrix elements real (Gamma(n+2k) > 0 for all n >= 0)."""
    k = float(k)
    if not k >= 0.5:
        raise DomainError(f"Bargmann index must satisfy k >= 1/2, got {k!r}")
    return k


@dataclass(frozen=True)
class DeformationMap:
    """The mapping function f(K0) selecting the deformation.

    kind is one of "classical" (f identically 1), "q" (Curtright-Zachos map
    for the given QParam), or "custom" (arbitrary real function of the K0
    eigenvalue).  Custom maps must be strictly positive on the lattice
    {j + k : j >= 1}; this is checked wherever matrix elements are built.
    """

    kind: str
    q: Optional[QParam] = None
    func: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if self.kind not in ("classical", "q", "custom"):
            raise DomainError(f"unknown deformation kind {self.kind!r}")
        if self.kind == "q":
            if not isinstance(self.q, QParam) or self.q.is_classical:
                raise DomainError("q-deformation needs a deformed QParam")
        if self.kind == "custom" and not callable(self.func):
            raise DomainError("custom deformation needs a callable")

    @classmethod
    def classical(cls) -> "DeformationMap":
        return cls("classical")

    @classmethod
    def q_deformed(cls, q) -> "DeformationMap":
        return cls("q", q=q if isinstance(q, QParam) else QParam(q))

    @classmethod
    def custom(cls, func: Callable[[float], float]) -> "DeformationMap":
        return cls("custom", func=func)

    @property
    def is_classical(self) -> bool:
        return self.kind == "classical"

    def value(self, x: float, k: float) -> float:
        """f evaluated at the K0 eigenvalue x (= j + k with j >= 1)."""
        if self.kind == "classical":
            return 1.0
        if self.kind == "q":
            j = x - k
            misc = j * (x + k - 1.0)
            return float(np.sqrt(q_number(j, self.q) * q_number(x + k - 1.0, self.q) / misc))
        val = float(self.func(x))
        if not val > 0.0:
            raise DomainError(
                f"deformation map must be strictly positive on the lattice; f({x}) = {val}")
        return val


def lowering_elements(deformation: DeformationMap, k: float, count: int) -> np.ndarray:
    """Matrix elements e[n] = f(n+k) sqrt(n(n+2k-1)) for n = 0..count-1.

    e[n] is the weight with which K- sends level n to level n-1 (and K+ sends
    n-1 to n); e[0] = 0.
    """
    k = check_bargmann(k)
    if deformation.kind == "q":
        return _q_lowering_elements(deformation.q.value, k, count)
    e = np.zeros(count)
    if deformation.kind == "classical":
        n = np.arange(1, count)
        e[1:] = np.sqrt(n * (n + 2 * k - 1))
    else:
        for n in range(1, count):
            e[n] = deformation.value(n + k, k) * np.sqrt(n * (n + 2 * k - 1))
    return e


def _q_lowering_elements(q: float, k: float, count: int) -> np.ndarray:
    """e[n] = sqrt([n]_q [n+2k-1]_q) with the arithmetic of :func:`q_number`
    (Python float powers: numpy's round differently), raising its DomainError
    for the first q-number, in the order [1], [2k], [2], [2k+1], ..., that
    overflows.  The table stops at the level where q**-n (or q**n for q > 1)
    leaves double range and is filled _TABLE_CHUNK levels at a time, so an
    absurd ``count`` costs at most 8 bytes per level below that one."""
    scale = q - 1.0 / q
    e = np.zeros(min(count, int(_LOG_DBL_MAX / abs(math.log(q))) + 2))
    for lo in range(1, len(e), _TABLE_CHUNK):
        ns = range(lo, min(lo + _TABLE_CHUNK, len(e)))
        try:
            qn = np.array([(q ** x - q ** -x) / scale for n in ns for x in (n, n + 2 * k - 1)])
        except OverflowError:
            qn = None
        if qn is None or not np.isfinite(qn).all():
            for n in ns:
                q_number(n, q)          # raises for the first overflowing x
                q_number(n + 2 * k - 1, q)
        with np.errstate(over="ignore"):    # a product past double range is inf
            e[ns.start:ns.stop] = np.sqrt(qn[0::2] * qn[1::2])
    return e


@dataclass(frozen=True)
class LadderOperator:
    """One of K0, K+, K- on the truncated basis |0..N, k>."""

    which: str
    deformation: DeformationMap
    k: float
    truncation: int

    def __post_init__(self):
        if self.which not in ("K0", "K+", "K-"):
            raise DomainError(f"which must be K0, K+ or K-, got {self.which!r}")
        check_bargmann(self.k)
        if self.truncation < 1:
            raise DomainError("truncation must be a positive integer")

    def matrix(self) -> np.ndarray:
        """Dense (N+1)x(N+1) realization."""
        N = self.truncation
        if self.which == "K0":
            return np.diag(np.arange(N + 1) + self.k)
        e = lowering_elements(self.deformation, self.k, N + 1)
        m = np.zeros((N + 1, N + 1))
        if self.which == "K-":
            for n in range(1, N + 1):
                m[n - 1, n] = e[n]
        else:
            for n in range(1, N + 1):
                m[n, n - 1] = e[n]
        return m


def apply_ladder(op: LadderOperator, v):
    """Apply a ladder operator to a LadderState, returning a new state.

    The returned state's ``truncation_loss`` carries the squared norm of the
    raise out of the top level (zero for K0 and K-); coefficients are *not*
    renormalized.
    """
    c = np.asarray(v.coeffs)
    N = len(c) - 1
    if N != op.truncation or float(v.k) != float(op.k):
        raise ShapeError(
            f"operator (k={op.k}, N={op.truncation}) does not match state "
            f"(k={v.k}, N={N})")
    loss = 0.0
    if op.which == "K0":
        out = (np.arange(N + 1) + op.k) * c
    else:
        e = lowering_elements(op.deformation, op.k, N + 2)
        out = np.zeros_like(c)
        if op.which == "K-":
            out[:-1] = e[1:N + 1] * c[1:]
        else:
            out[1:] = e[1:N + 1] * c[:-1]
            loss = float(abs(e[N + 1] * c[N]) ** 2)
    return dataclasses.replace(v, coeffs=out, truncation_loss=loss)


@dataclass(frozen=True)
class BipartiteOperator:
    """Coproduct image of K0/K+/K- on a two-node truncated basis.

    mode "classical" is the primitive coproduct K (x) 1 + 1 (x) K; mode "q"
    is the noncocommutative Delta(K+-) = q^{K0} (x) K+- + K+- (x) q^{-K0}
    acting through the Curtright-Zachos matrix elements on the classical
    carrier basis.
    """

    which: str
    mode: str
    k1: float
    k2: float
    n1: int
    n2: int
    q: Optional[QParam] = None

    def __post_init__(self):
        if self.which not in ("K0", "K+", "K-"):
            raise DomainError(f"which must be K0, K+ or K-, got {self.which!r}")
        if self.mode not in ("classical", "q"):
            raise DomainError(f"mode must be classical or q, got {self.mode!r}")
        check_bargmann(self.k1)
        check_bargmann(self.k2)
        if self.mode == "q":
            if not isinstance(self.q, QParam) or self.q.is_classical:
                raise DomainError("q-mode coproduct needs a deformed QParam")


def _coproduct_arrays(op: BipartiteOperator, m1: int, m2: int):
    """Lowering elements of levels 0..m1 and 0..m2 of both nodes, plus the
    q^{+-K0} spectator weights of levels below m1 and m2."""
    if op.mode == "classical":
        dmap = DeformationMap.classical()
        w1 = np.ones(m1)
        w2 = np.ones(m2)
    else:
        dmap = DeformationMap.q_deformed(op.q)
        qv = op.q.value
        w1 = qv ** (np.arange(m1) + op.k1)      # q^{K0} on node 1
        w2 = qv ** -(np.arange(m2) + op.k2)     # q^{-K0} on node 2
    e1 = lowering_elements(dmap, op.k1, m1 + 1)
    e2 = lowering_elements(dmap, op.k2, m2 + 1)
    return e1, e2, w1, w2


def apply_coproduct(op: BipartiteOperator, M):
    """Apply a coproduct operator to a BipartiteMatrix, returning a new one.

    For Delta(K-) the output entry (n1, n2) receives

        w2[n2] * e1[n1+1] * c[n1+1, n2]  +  w1[n1] * e2[n2+1] * c[n1, n2+1],

    where w1 = q^{n1+k1} and w2 = q^{-n2-k2} are the spectator-node weights
    (both 1 in classical mode).  Delta(K+) is its adjoint and drops the raise
    out of the top row/column into ``truncation_loss``.
    """
    c = np.asarray(M.coeffs)
    if c.shape != (op.n1 + 1, op.n2 + 1):
        raise ShapeError(f"matrix shape {c.shape} does not match operator "
                         f"({op.n1 + 1}, {op.n2 + 1})")
    loss = 0.0
    if op.which == "K0":
        n1 = np.arange(op.n1 + 1) + op.k1
        n2 = np.arange(op.n2 + 1) + op.k2
        out = (n1[:, None] + n2[None, :]) * c
    else:
        # only the first m1 rows and m2 columns, the support of c plus one row
        # and one column for a K+ raise, can be nonzero: forming the products
        # there alone keeps the weights and matrix elements that overflow at
        # large N from meeting the zeros past them as inf * 0
        rows, cols = np.flatnonzero(c.any(axis=1)), np.flatnonzero(c.any(axis=0))
        m1 = min(int(rows[-1]) + 2 if rows.size else 1, op.n1 + 1)
        m2 = min(int(cols[-1]) + 2 if cols.size else 1, op.n2 + 1)
        e1, e2, w1, w2 = _coproduct_arrays(op, m1, m2)
        out = np.zeros_like(c)
        o, s = out[:m1, :m2], c[:m1, :m2]
        if op.which == "K-":
            o[:-1, :] += w2[None, :] * e1[1:m1, None] * s[1:, :]
            o[:, :-1] += w1[:, None] * e2[None, 1:m2] * s[:, 1:]
        else:
            o[1:, :] += w2[None, :] * e1[1:m1, None] * s[:-1, :]
            o[:, 1:] += w1[:, None] * e2[None, 1:m2] * s[:, :-1]
            loss = float(np.sum(np.abs(w2 * e1[m1] * s[-1, :]) ** 2)
                         + np.sum(np.abs(w1 * e2[m2] * s[:, -1]) ** 2))
    kwargs = {"coeffs": out, "truncation_loss": loss}
    if hasattr(M, "normalized"):
        kwargs["normalized"] = False
    return dataclasses.replace(M, **kwargs)
