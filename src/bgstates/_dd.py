"""Double-double ("compensated") arithmetic used by the series evaluators.

A double-double value is a pair ``(hi, lo)`` of floats with ``hi = fl(hi+lo)``,
giving roughly 32 significant decimal digits.  The alternating series for the
modified Bessel function of the second kind and for the q-deformed measure
cancel by factors up to ~e^{4*rho}, which plain 64-bit accumulation cannot
survive at the rho values the moment quadratures need; carrying the terms
themselves in compensated pairs is what makes those evaluations honest.

All operations are elementwise and accept either Python floats or numpy
arrays in the pair components, so vectorised series loops come for free.

Algorithms follow the classic error-free transformations (Dekker splitting,
Knuth two-sum) and the QD library's exp/log recipes.
"""

from __future__ import annotations

import numpy as np

# fl(ln 2) and its double-double correction term
_LN2_HI = 0.6931471805599453
_LN2_LO = 2.3190468138462996e-17

# Euler-Mascheroni constant, split the same way
EULER_GAMMA = (0.5772156649015329, -4.942915152430645e-18)

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLITTER * b
    bhi = t - (t - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd(x, lo=0.0):
    """Promote a float (or array) to a double-double pair."""
    return (x, lo if np.ndim(x) == 0 else np.full_like(x, lo))


def to_float(a):
    return a[0] + a[1]


def add(a, b):
    s1, s2 = _two_sum(a[0], b[0])
    t1, t2 = _two_sum(a[1], b[1])
    s2 = s2 + t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 = s2 + t2
    return _quick_two_sum(s1, s2)


def add_d(a, x):
    s1, s2 = _two_sum(a[0], x)
    s2 = s2 + a[1]
    return _quick_two_sum(s1, s2)


def neg(a):
    return (-a[0], -a[1])


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    p1, p2 = _two_prod(a[0], b[0])
    p2 = p2 + (a[0] * b[1] + a[1] * b[0])
    return _quick_two_sum(p1, p2)


def mul_d(a, x):
    p1, p2 = _two_prod(a[0], x)
    p2 = p2 + a[1] * x
    return _quick_two_sum(p1, p2)


def div(a, b):
    q1 = a[0] / b[0]
    r = sub(a, mul_d(b, q1))
    q2 = r[0] / b[0]
    r = sub(r, mul_d(b, q2))
    q3 = r[0] / b[0]
    s1, s2 = _quick_two_sum(q1, q2)
    return add_d((s1, s2), q3)


def _two_diff(a, b):
    s = a - b
    bb = s - a
    return s, (a - (s - bb)) - (b + bb)


def div_d(a, x):
    q1 = a[0] / x
    p1, p2 = _two_prod(q1, x)
    s, e = _two_diff(a[0], p1)
    e = e + a[1] - p2
    q2 = (s + e) / x
    return _quick_two_sum(q1, q2)


def recip(a):
    one = dd(np.ones_like(a[0])) if np.ndim(a[0]) else dd(1.0)
    return div(one, a)


def sqr(a):
    return mul(a, a)


def pow_int(a, n: int):
    """a**n for integer n (n may be negative)."""
    if n == 0:
        return dd(np.ones_like(a[0])) if np.ndim(a[0]) else dd(1.0)
    inv = n < 0
    n = abs(n)
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = sqr(base)
    return recip(result) if inv else result


def pow_ints(a, n):
    """a**m for each integer m >= 1 of the array n, a a scalar pair.

    Runs pow_int's binary powering over all of n at once: every element gets
    the same products, in the same order, as ``pow_int(a, m)`` forms.
    """
    n = np.asarray(n, dtype=np.int64)
    hi, lo = np.zeros(n.shape), np.zeros(n.shape)
    started = np.zeros(n.shape, dtype=bool)
    base = a
    bit = 1
    top = int(n.max()) if n.size else 0
    while bit <= top:
        use = (n & bit) != 0
        if use.any():
            p_hi, p_lo = mul((hi, lo), base)
            hi = np.where(use, np.where(started, p_hi, base[0]), hi)
            lo = np.where(use, np.where(started, p_lo, base[1]), lo)
            started |= use
        bit <<= 1
        if bit <= top:
            base = sqr(base)
    return hi, lo


def exp(a):
    """Double-double exponential via range reduction and expm1 squaring."""
    hi = a[0]
    m = np.floor(hi / _LN2_HI + 0.5)
    # r = (a - m*ln2) / 2**9; the m*ln2 product must itself be error-free
    r = sub(a, mul_d((_LN2_HI, _LN2_LO), m))
    r = mul_d(r, 1.0 / 512.0)
    # expm1(r) by Taylor; |r| <= ln2/1024 so ~8 terms suffice, use 10
    p = sqr(r)
    s = add(r, mul_d(p, 0.5))
    fact = 2.0
    term = p
    for k in range(3, 12):
        fact *= k
        term = mul(term, r)
        s = add(s, div_d(term, fact))
    # undo the /512: (1+s) <- (1+s)^2 i.e. s <- 2s + s^2, nine times
    for _ in range(9):
        s = add(mul_d(s, 2.0), sqr(s))
    s = add_d(s, 1.0)
    scale = np.ldexp(1.0, np.asarray(m, dtype=np.int64)) if np.ndim(m) else np.ldexp(1.0, int(m))
    return mul_d(s, scale)


def log(a):
    """Double-double natural log (a > 0), one Newton step on a float seed."""
    x0 = np.log(a[0])
    zero = np.zeros_like(x0) if np.ndim(x0) else 0.0
    # x1 = x0 + (a*exp(-x0) - 1); the float seed is ~16 digits, Newton doubles it
    corr = add_d(mul(a, exp((-x0, zero))), -1.0)
    return add((x0, zero), corr)


def sum_pairwise(hi, lo=None):
    """Sum a 1-d array of double-double values into a scalar pair.

    Tree reduction keeps every partial in compensated form, so the result is
    accurate to dd roundoff regardless of length.
    """
    hi = np.asarray(hi, dtype=float)
    lo = np.zeros_like(hi) if lo is None else np.asarray(lo, dtype=float)
    while hi.size > 1:
        if hi.size & 1:
            hi = np.append(hi, 0.0)
            lo = np.append(lo, 0.0)
        h = (hi[0::2], lo[0::2])
        t = (hi[1::2], lo[1::2])
        hi, lo = add(h, t)
    return float(hi[0]), float(lo[0])
