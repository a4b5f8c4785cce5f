"""Double-double arithmetic against a 50-digit arbitrary-precision oracle."""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import dd

mpmath.mp.dps = 50


def to_mp(h, l, n=0):
    return mpmath.ldexp(mpmath.mpf(float(h)) + mpmath.mpf(float(l)), int(n))


def rel_err(h, l, ref, n=0):
    got = to_mp(h, l, n)
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
    eh, el, en = dd.exp(*dd.from_float(x))
    assert rel_err(eh, el, mpmath.exp(mpmath.mpf(x)), en) < 1e-29
    assert 0.5**0.5 <= eh <= 2.0**0.5


def test_exp_dd_argument():
    # low part of the argument must influence the result
    xh, xl = 1.0, 3e-17
    eh, el, en = dd.exp(np.float64(xh), np.float64(xl))
    ref = mpmath.exp(mpmath.mpf(xh) + mpmath.mpf(xl))
    assert rel_err(eh, el, ref, en) < 1e-29


def test_exp_beyond_float_range():
    # e^+-2000 overflows and underflows a double, but not the split form;
    # the exact products of n with both words of ln2 keep r to ~32 digits
    # (measured 1.6e-30 on |x| <= 2000)
    xs = np.array([-2000.0, -1234.5678, 1999.75, 2000.0])
    eh, el, en = dd.exp(*dd.from_float(xs))
    assert np.all(np.isfinite(eh)) and np.all(np.isfinite(el))
    with np.errstate(over="ignore"):
        assert np.ldexp(eh[-1], en[-1]) == np.inf  # the value as one double
    for x, h, l, n in zip(xs, eh, el, en):
        assert rel_err(h, l, mpmath.exp(mpmath.mpf(x)), n) < 1e-29


@given(st.floats(min_value=1e-10, max_value=1e10))
@settings(max_examples=50)
def test_log_abs(x):
    lh = dd.log_abs(*dd.from_float(x))
    assert abs(float(lh) - float(mpmath.log(mpmath.mpf(x)))) < 1e-13


def test_log_abs_zero():
    assert dd.log_abs(np.float64(0.0), np.float64(0.0)) == -np.inf


def test_exp_table():
    # 2^(j/64), j = -32..32, the reduction's table: correctly rounded
    # double-double (measured 4.2e-33 relative)
    assert dd._POW2_HI.shape == dd._POW2_LO.shape == (65,)
    for j, h, l in zip(range(-32, 33), dd._POW2_HI, dd._POW2_LO):
        assert rel_err(h, l, mpmath.power(2, mpmath.mpf(j) / 64)) <= 1e-31
        assert abs(l) <= 0.5 * np.spacing(h)


def test_exp_reduction_edges():
    """x = (64 n + j) ln2/64 + r at the edges of the reduction: j = +-32
    (x near +-ln2/2, so n = 0), ties of r at half steps of ln2/64, a tiny
    x, |x| = 2000 and a low word that moves x across a step. Measured
    4.5e-32 relative on |x| <= 3 and 1.7e-30 on |x| <= 2000, where n times
    the rounding of the two-word ln2 dominates."""
    step = mpmath.log(2) / 64
    half = [float((i + mpmath.mpf(0.5)) * step) for i in (-33, -32, -31, -1, 0, 31, 32)]
    near = [float(v * step) for v in (31.6, -31.6, 32, -32, 31.5, -31.5)]
    xs = np.array(half + near + [float(mpmath.log(2) / 2), -float(mpmath.log(2) / 2), 1e-300, -3e-20, 0.0])
    xl = np.zeros_like(xs)
    # the low word shifts x = 0.5 ln2/64 to either side of the half step
    xs = np.append(xs, [half[4], half[4]])
    xl = np.append(xl, [0.5 * np.spacing(half[4]), -0.5 * np.spacing(half[4])])
    eh, el, en = dd.exp(xs, xl)
    for x, l, h, lo, n in zip(xs, xl, eh, el, en):
        assert rel_err(h, lo, mpmath.exp(mpmath.mpf(x) + mpmath.mpf(l)), n) <= 1e-31
        assert 0.5**0.5 <= h <= 2.0**0.5
    big = np.array([-2000.0, 2000.0, 2000.0 - float(step) / 2, -2000.0 + float(step) / 2])
    eh, el, en = dd.exp(big, np.array([0.0, 0.0, 1e-14, -1e-14]))
    for x, l, h, lo, n in zip(big, [0.0, 0.0, 1e-14, -1e-14], eh, el, en):
        assert rel_err(h, lo, mpmath.exp(mpmath.mpf(x) + mpmath.mpf(l)), n) <= 1e-29
        assert 0.5**0.5 <= h <= 2.0**0.5
