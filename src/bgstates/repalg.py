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

import numpy as np

from .errors import DomainError
from .qspecial import QParam, q_number

__all__ = [
    "check_bargmann",
    "map_value",
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


def map_value(f, x: float, k: float) -> float:
    """The deformation f evaluated at the K0 eigenvalue x (= j + k with j >= 1).

    f is a QParam, meaning 1 when classical and the Curtright-Zachos map
    otherwise (q > 1 included), or a callable of the eigenvalue, which must be
    strictly positive on the lattice {j + k : j >= 1}.
    """
    if isinstance(f, QParam):
        if f.is_classical:
            return 1.0
        j = x - k
        misc = j * (x + k - 1.0)
        return float(np.sqrt(q_number(j, f) * q_number(x + k - 1.0, f) / misc))
    if not callable(f):
        raise DomainError(f"a deformation is a QParam or a callable, got {f!r}")
    val = float(f(x))
    if not val > 0.0:
        raise DomainError(
            f"deformation map must be strictly positive on the lattice; f({x}) = {val}")
    return val


def lowering_elements(f, k: float, count: int) -> np.ndarray:
    """Matrix elements e[n] = f(n+k) sqrt(n(n+2k-1)) for n = 0..count-1.

    e[n] is the weight with which K- sends level n to level n-1 (and K+ sends
    n-1 to n); e[0] = 0.  A chunk, a list of deformed QParams on one side of
    q = 1, gives rows e[block, n]; a deformed QParam's table is its chunk of one.
    """
    k = check_bargmann(k)
    chunk = isinstance(f, list)
    if chunk or isinstance(f, QParam) and not f.is_classical:
        e = _q_lowering_elements([p.value for p in (f if chunk else [f])], k, count)
        return e if chunk else e[0]
    e = np.zeros(count)
    n = np.arange(1, count)
    e[1:] = np.sqrt(n * (n + 2 * k - 1))
    if not isinstance(f, QParam):
        e[1:] *= [map_value(f, j + k, k) for j in range(1, count)]
    return e


def _q_lowering_elements(qs, k: float, count: int) -> np.ndarray:
    """e[b, n] = sqrt([n]_q [n+2k-1]_q) at q = qs[b] with the arithmetic of
    :func:`q_number` (Python float powers: numpy's round differently),
    raising its DomainError for the first q-number, q by q in the order [1],
    [2k], [2], [2k+1], ..., that overflows.  Each distinct argument is
    evaluated once: with 2k-1 an integer, [n+2k-1]_q is [m]_q of a later
    level m of the same chunk.  The tables stop at the level where q**-n (or
    q**n for q > 1) leaves double range at the q farthest from 1 and are
    filled _TABLE_CHUNK levels at a time, so an absurd ``count`` costs at
    most 8 bytes per level and q below that one."""
    e = np.zeros((len(qs), min(count, int(_LOG_DBL_MAX / max(abs(math.log(q)) for q in qs)) + 2)))
    for lo in range(1, e.shape[1], _TABLE_CHUNK):
        hi = min(lo + _TABLE_CHUNK, e.shape[1])
        ns = np.arange(lo, hi, dtype=float)
        shifted = ns + 2 * k - 1
        # with 2k-1 an integer the leading shifted arguments, up to hi-1, are
        # levels of this chunk: their q-numbers are not evaluated twice
        reuse = max(0, hi - int(shifted[0])) if shifted[0].is_integer() else 0
        xs = ns.tolist() + shifted[reuse:].tolist()
        try:
            qn = np.array([[(q ** x - q ** -x) / scale for x in xs]
                           for q, scale in ((q, q - 1.0 / q) for q in qs)])
        except OverflowError:
            qn = None
        if qn is None or not np.isfinite(qn).all():
            for q, n in ((q, n) for q in qs for n in ns.tolist()):
                q_number(n, q)          # raises for the first overflowing x
                q_number(n + 2 * k - 1, q)
        start = hi - lo - reuse         # where [lo+2k-1]_q sits in qn
        with np.errstate(over="ignore"):    # a product past double range is inf
            e[:, lo:hi] = np.sqrt(qn[:, :hi - lo] * qn[:, start:start + hi - lo])
    return e


def _table(stored, f, k: float, count: int) -> np.ndarray:
    """Levels 0..count-1 of the lowering table of (f, k): a prefix of
    ``stored``, the table a state was built from, when that is long enough,
    else a fresh :func:`lowering_elements` table."""
    if stored is not None and len(stored) >= count:
        return stored[:count]
    return lowering_elements(f, k, count)


def _check_which(which: str):
    if which not in ("K0", "K+", "K-"):
        raise DomainError(f"which must be K0, K+ or K-, got {which!r}")


def apply_ladder(which: str, state):
    """Apply K0, K+ or K- to a LadderState, returning a new state.

    k, the deformation and the truncation N = len(coeffs) - 1 are the
    state's.  The returned state's ``truncation_loss`` carries the squared
    norm of the raise out of the top level (zero for K0 and K-);
    coefficients are *not* renormalized.
    """
    _check_which(which)
    c = np.asarray(state.coeffs)
    N = len(c) - 1
    loss = 0.0
    if which == "K0":
        out = (np.arange(N + 1) + state.k) * c
    else:
        # act on the support of c plus one level, as apply_coproduct does, so a
        # table entry past double range never meets a zero there as inf * 0
        support = np.flatnonzero(c)
        m = min(int(support[-1]) + 2 if support.size else 1, N + 1)
        e = _table(state.ladder, state.deformation, state.k, m + (which == "K+"))
        out = np.zeros_like(c)
        if which == "K-":
            out[:m - 1] = e[1:m] * c[1:m]
        else:
            out[1:m] = e[1:m] * c[:m - 1]
            if c[N]:
                loss = float(abs(e[N + 1] * c[N]) ** 2)
    return dataclasses.replace(state, coeffs=out, truncation_loss=loss)


def _blocks(M) -> tuple:
    """The params of each block of M: M.params of a stack, (M.params,) of one."""
    return M.params if np.ndim(M.coeffs) > 2 else (M.params,)


def _coproduct_arrays(M, m1: int, m2: int, raises: bool):
    """Lowering elements of levels 0..m1-1 and 0..m2-1 of both nodes, one
    level more when ``raises`` (the level a K+ raise drops), from the tables
    M was built from where it carries them; plus the q^{+-K0} spectator
    weights of levels below m1 and m2 (all 1 for a classical q).  For a
    stack of states each is an array over [block, level]."""
    blocks = _blocks(M)
    params, stack = blocks[0], np.ndim(M.coeffs) > 2
    q = np.ones((1, 1)) if params.q.is_classical else np.array([[p.q.value] for p in blocks])
    w1 = q ** (np.arange(m1) + params.k1)      # q^{K0} on node 1
    w2 = q ** -(np.arange(m2) + params.k2)     # q^{-K0} on node 2
    tables = []
    for rows, k, m in zip(M.ladders or (None, None), (params.k1, params.k2), (m1, m2)):
        rows = rows if stack and rows is not None else [rows] * len(blocks)
        tables.append(np.array([_table(row, p.q, k, m + raises) for row, p in zip(rows, blocks)]))
    arrays = (*tables, w1, w2)
    return arrays if stack else tuple(a[0] for a in arrays)


def _reach(nonzero: np.ndarray, extra: int = 1) -> np.ndarray:
    """Per block, one past the last line of ``nonzero`` [..., line] that is
    True, plus ``extra`` lines (one for the line a raise lands on), at most
    the line count (``extra`` for a block with no True line)."""
    n = nonzero.shape[-1]
    last = n - 1 - np.argmax(nonzero[..., ::-1], axis=-1)
    return np.where(nonzero.any(axis=-1), np.minimum(last + 1 + extra, n), extra)


def apply_coproduct(which: str, M):
    """Apply Delta(K0), Delta(K+) or Delta(K-) to a BipartiteMatrix, returning
    a new, unnormalized one.

    k1, k2 and q are read from ``M.params``: a classical q gives the
    primitive coproduct K (x) 1 + 1 (x) K, any other (q > 1 included) the
    q-coproduct.  For Delta(K-) the output entry (n1, n2) receives

        w2[n2] * e1[n1+1] * c[n1+1, n2]  +  w1[n1] * e2[n2+1] * c[n1, n2+1],

    where w1 = q^{n1+k1} and w2 = q^{-n2-k2} are the spectator-node weights
    (both 1 for a classical q).  Delta(K+) is its adjoint and drops the raise
    out of the top row/column into ``truncation_loss``.  Each block of a
    stack of states (coefficients c[..., :, :]) is acted on as it would be
    alone, and ``truncation_loss`` is then an array over the blocks.
    """
    _check_which(which)
    c = np.asarray(M.coeffs)
    loss = 0.0
    if which == "K0":
        params = _blocks(M)[0]
        n1 = np.arange(c.shape[-2]) + params.k1
        n2 = np.arange(c.shape[-1]) + params.k2
        out = (n1[:, None] + n2[None, :]) * c
    else:
        # only the first m1 rows and m2 columns, the support of c plus one row
        # and one column for a K+ raise, can be nonzero: forming the products
        # there alone keeps the weights and matrix elements that overflow at
        # large N from meeting the zeros past them as inf * 0.  A stack is
        # formed on its widest block's, each block's tables and weights
        # zeroed past its own
        raises = which == "K+"
        m1, m2 = _reach(c.any(axis=-1)), _reach(c.any(axis=-2))
        r1, r2 = int(np.max(m1)), int(np.max(m2))
        e1, e2, w1, w2 = (np.where(np.arange(a.shape[-1]) < m[..., None] + extra, a, 0.0)
                          for a, m, extra in zip(_coproduct_arrays(M, r1, r2, raises),
                                                 (m1, m2, m1, m2), (raises, raises, 0, 0)))
        out = np.zeros_like(c)
        o, s = out[..., :r1, :r2], c[..., :r1, :r2]
        if which == "K-":
            o[..., :-1, :] += w2[..., None, :] * e1[..., 1:r1, None] * s[..., 1:, :]
            o[..., :, :-1] += w1[..., :, None] * e2[..., None, 1:r2] * s[..., :, 1:]
        else:
            o[..., 1:, :] += w2[..., None, :] * e1[..., 1:r1, None] * s[..., :-1, :]
            o[..., :, 1:] += w1[..., :, None] * e2[..., None, 1:r2] * s[..., :, :-1]
            loss = (np.sum(np.abs(w2 * e1[..., r1, None] * s[..., -1, :]) ** 2, axis=-1)
                    + np.sum(np.abs(w1 * e2[..., r2, None] * s[..., :, -1]) ** 2, axis=-1))
            loss = float(loss) if c.ndim == 2 else loss
    return dataclasses.replace(M, coeffs=out, truncation_loss=loss, normalized=False)
