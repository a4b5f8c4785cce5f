"""Double-double arithmetic against a 50-digit arbitrary-precision oracle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import dd

mpmath.mp.dps = 50


def to_mp(h, l):
    return mpmath.mpf(float(h)) + mpmath.mpf(float(l))


def rel_err(h, l, ref):
    got = to_mp(h, l)
    if ref == 0:
        return abs(got)
    return abs((got - ref) / ref)


# Dekker splitting assumes no intermediate underflow, so stay clear of
# the subnormal range (the tau machinery only ever multiplies O(1) and
# exponentially gauged quantities, never subnormals).
vals = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_subnormal=False).filter(
    lambda v: v == 0.0 or abs(v) > 1e-100
)


@given(vals, vals)
@settings(max_examples=50)
def test_add_mul_div_roundtrip(a, b):
    ah, al = dd.from_float(a)
    bh, bl = dd.from_float(b)
    sh, sl = dd.add(ah, al, bh, bl)
    assert rel_err(sh, sl, mpmath.mpf(a) + mpmath.mpf(b)) < 1e-30
    ph, pl = dd.mul(ah, al, bh, bl)
    assert rel_err(ph, pl, mpmath.mpf(a) * mpmath.mpf(b)) < 1e-30
    if abs(b) > 1e-6:
        qh, ql = dd.div(ah, al, bh, bl)
        assert rel_err(qh, ql, mpmath.mpf(a) / mpmath.mpf(b)) < 1e-29


@given(st.floats(min_value=-600.0, max_value=600.0))
@settings(max_examples=80)
def test_exp(x):
    eh, el = dd.exp(*dd.from_float(x))
    assert rel_err(eh, el, mpmath.exp(mpmath.mpf(x))) < 1e-29


def test_exp_dd_argument():
    # low part of the argument must influence the result
    xh, xl = 1.0, 3e-17
    eh, el = dd.exp(np.float64(xh), np.float64(xl))
    ref = mpmath.exp(mpmath.mpf(xh) + mpmath.mpf(xl))
    assert rel_err(eh, el, ref) < 1e-29


@given(st.floats(min_value=1e-10, max_value=1e10))
@settings(max_examples=50)
def test_log_abs(x):
    lh = dd.log_abs(*dd.from_float(x))
    assert abs(float(lh) - float(mpmath.log(mpmath.mpf(x)))) < 1e-13


def test_log_abs_zero():
    assert dd.log_abs(np.float64(0.0), np.float64(0.0)) == -np.inf


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_slogdet_random(n):
    # dd.slogdet takes symmetric positive-definite batches
    rng = np.random.default_rng(n)
    b = rng.normal(size=(3, n, n))
    a = b @ np.swapaxes(b, -1, -2) + n * np.eye(n)
    s, ld = dd.slogdet(a, np.zeros_like(a))
    for i in range(3):
        sr, lr = np.linalg.slogdet(a[i])
        assert s[i] == sr
        assert ld[i] == pytest.approx(lr, rel=1e-12, abs=1e-12)


def test_slogdet_hilbert_conditioning():
    # Hilbert matrices are the classic ill-conditioned case: float64 LU
    # loses ~ n digits, double-double must stay near machine precision.
    n = 12
    h = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    hh, hl = dd.from_float(np.zeros((n, n)))
    for i in range(n):
        for j in range(n):
            q = dd.div(np.float64(1.0), np.float64(0.0), *dd._two_sum(float(i + 1), float(j)))
            hh[i, j], hl[i, j] = q
    s, ld = dd.slogdet(hh, hl)
    with mpmath.workdps(60):
        ref = mpmath.log(abs(mpmath.det(mpmath.matrix([[mpmath.mpf(1) / (i + j + 1) for j in range(n)] for i in range(n)]))))
    assert s == 1.0
    assert abs(float(ld) - float(ref)) < 1e-12


def test_slogdet_singular():
    a = np.ones((1, 2, 2))
    s, ld = dd.slogdet(a, np.zeros_like(a))
    assert s[0] == 0.0 or ld[0] == -np.inf
