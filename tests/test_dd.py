"""Compensated-pair arithmetic checked against 50-digit mpmath reference."""

import mpmath as mp
import numpy as np
import pytest

from bgstates import _dd

mp.mp.dps = 50


def to_mp(a):
    return mp.mpf(a[0]) + mp.mpf(a[1])


def rel_err(a, ref):
    return abs(to_mp(a) - ref) / abs(ref)


RNG = np.random.default_rng(20240817)
PAIRS = [(float(x), float(y)) for x, y in RNG.uniform(-10, 10, size=(40, 2))]


@pytest.mark.parametrize("x,y", PAIRS)
def test_mul_div_add(x, y):
    a = _dd.dd(x)
    b = _dd.dd(y)
    assert rel_err(_dd.mul(a, b), mp.mpf(x) * mp.mpf(y)) < 1e-31
    assert rel_err(_dd.add(a, b), mp.mpf(x) + mp.mpf(y)) < 1e-30 or abs(x + y) < 1e-12
    if abs(y) > 1e-8:
        assert rel_err(_dd.div(a, b), mp.mpf(x) / mp.mpf(y)) < 1e-30
        assert rel_err(_dd.div_d(a, y), mp.mpf(x) / mp.mpf(y)) < 1e-30


@pytest.mark.parametrize("x", [1e-8, 0.02, 0.5, 0.999, 1.0 + 1e-9, 3.7, 25.0, 1e3, 1e8])
def test_log(x):
    got = _dd.log(_dd.dd(x))
    assert abs(to_mp(got) - mp.log(x)) < mp.mpf("1e-30") * max(1, abs(mp.log(x)))


@pytest.mark.parametrize("x", [-80.0, -12.3, -1.0, -1e-9, 0.0, 1e-9, 0.7, 5.0, 41.2, 80.0])
def test_exp(x):
    got = _dd.exp(_dd.dd(x))
    assert rel_err(got, mp.exp(x)) < 1e-29


def test_exp_log_roundtrip_vectorised():
    xs = np.geomspace(1e-6, 1e4, 257)
    back = _dd.exp(_dd.log((xs, np.zeros_like(xs))))
    assert np.all(np.abs(_dd.to_float(back) - xs) <= 4e-16 * xs)


def test_pow_int():
    a = _dd.dd(0.9)
    assert rel_err(_dd.pow_int(a, 37), mp.mpf(0.9) ** 37) < 1e-30
    assert rel_err(_dd.pow_int(a, -21), mp.mpf(0.9) ** -21) < 1e-30
    assert _dd.to_float(_dd.pow_int(a, 0)) == 1.0


def test_sum_pairwise_cancellation():
    # sum of n, -n pairs plus tiny residue survives exactly
    n = 4001
    hi = np.zeros(2 * n + 1)
    hi[:n] = np.linspace(1.0, 1e8, n)
    hi[n:2 * n] = -hi[:n]
    hi[-1] = 1e-20
    s = _dd.sum_pairwise(hi)
    assert _dd.to_float(s) == pytest.approx(1e-20, rel=1e-25)


def test_vectorised_matches_scalar():
    xs = np.array([0.3, 1.7, 9.1])
    ys = np.array([2.2, -0.4, 5.5])
    v = _dd.mul((xs, np.zeros_like(xs)), (ys, np.zeros_like(ys)))
    for i in range(3):
        s = _dd.mul(_dd.dd(float(xs[i])), _dd.dd(float(ys[i])))
        assert v[0][i] == s[0] and v[1][i] == s[1]


@pytest.mark.parametrize("x", [0.5, 0.9, 1.0 / 0.93, (0.96, 1.3e-18)])
def test_pow_ints_matches_pow_int(x):
    # the array powering forms, per element, the products pow_int forms
    a = _dd.dd(x) if isinstance(x, float) else x
    exps = np.arange(1, 301)
    hi, lo = _dd.pow_ints(a, exps)
    for m, h, l in zip(exps, hi, lo):
        assert (h, l) == _dd.pow_int(a, int(m))
