"""Double-double arithmetic against a 50-digit arbitrary-precision oracle."""

import math

import mpmath
import numpy as np
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

