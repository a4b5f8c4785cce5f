"""Vectorized double-double (compensated) arithmetic.

The exponential-sum tau jets (solitons.tau_jet_sums) sum 2^N terms
whose rewritten forms cancel and whose Taylor coefficients need more
than float64 carries. Each value here is carried as an unevaluated sum
hi+lo of two float64 arrays (~32 significant digits), which restores
full headroom (Dekker 1971; Hida, Li & Bailey 2001, the QD library).

Only the handful of operations that sum needs are provided: elementary
ops, exp (one table reduction by ln2/64; 1.7e-30 relative out to |x| =
2000) and log_abs. All of them broadcast like the numpy ufuncs. exp
returns the split form (hi, lo, n), value (hi + lo) 2^n, so its result
never overflows or goes subnormal; the sum multiplies such values as
mantissas and adds their powers of two as integers.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant

# log(2) to double-double precision
_LN2_HI = 6.931471805599452862e-01
_LN2_LO = 2.319046813846299558e-17

def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    return s, b - (s - a)


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def add(xh, xl, yh, yl):
    s, e = _two_sum(xh, yh)
    e = e + (xl + yl)
    return _quick_two_sum(s, e)


def sub(xh, xl, yh, yl):
    return add(xh, xl, -yh, -yl)


def mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _quick_two_sum(p, e)


def div(xh, xl, yh, yl):
    q1 = xh / yh
    th, tl = mul(q1, np.zeros_like(q1), yh, yl)
    rh, rl = sub(xh, xl, th, tl)
    q2 = rh / yh
    th, tl = mul(q2, np.zeros_like(q2), yh, yl)
    rh, rl = sub(rh, rl, th, tl)
    q3 = rh / yh
    qh, ql = _quick_two_sum(q1, q2)
    return add(qh, ql, q3, np.zeros_like(q3))


def from_float(x):
    x = np.asarray(x, dtype=float)
    return x, np.zeros_like(x)


# 1/j!, j <= order, in double-double, built exactly (j! overflows 53 bits at 23!)
def _inv_factorials(order):
    out = [(1.0, 0.0)]
    fh, fl = np.float64(1.0), np.float64(0.0)
    for j in range(1, order + 1):
        fh, fl = mul(fh, fl, np.float64(j), np.float64(0.0))
        qh, ql = div(np.float64(1.0), np.float64(0.0), fh, fl)
        out.append((float(qh), float(ql)))
    return out


_INV_FACT = _inv_factorials(11)

# 2^(j/64), j = -32..32, in double-double: v ~ 2^(140 + j/64) from six
# integer square roots in fixed point with 140 fractional bits, h + l its split
_POW2_INT = [functools.reduce(lambda v, _: math.isqrt(v << 140), range(6), 1 << (140 + j)) for j in range(-32, 33)]
_POW2_HI, _POW2_LO = np.ldexp([(float(v), float(v - int(float(v)))) for v in _POW2_INT], -140).T


def exp(xh, xl):
    """exp(x) of a double-double x in split form (h, l, n), value (h + l)
    2^n with h in [1/sqrt 2, sqrt 2] and n an int64 array. The power of
    two of the range reduction is returned rather than applied, so
    nothing overflows or goes subnormal. x = (64 n + j) ln2/64 + r, |j| <=
    32 and |r| <= ln2/128: a table of 2^(j/64) times e^r's series. Measured
    4.5e-32 relative on |x| <= 3, 1.7e-30 on |x| <= 2000 (ln2's rounding)."""
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    q = xh / _LN2_HI
    n, m = np.rint(q), np.rint(64.0 * q)  # m = 64 n + j
    # r = x - m ln2/64 from the exact products of m with both words of
    # ln2/64: x minus the high product is exact (Sterbenz), so r keeps ~32
    # digits however large m is
    th, tl = _two_prod(m, np.float64(_LN2_HI / 64.0))
    uh, ul = _two_prod(m, np.float64(_LN2_LO / 64.0))
    rh, rl = sub(*_two_sum(xh - th, -tl), uh, ul)
    rh, rl = add(rh, rl, xl, np.zeros_like(xl))
    # e^r by Horner, r^6/6! .. r^11/11! in float64 (below 1e-16; r^12/12! < 1e-35)
    sh, sl = 0.0, 0.0
    for i in range(11, 5, -1):
        sh = (sh + _INV_FACT[i][0]) * rh
    for i in range(5, 0, -1):
        sh, sl = mul(*add(sh, sl, *_INV_FACT[i]), rh, rl)
    # at a tie x_hi/ln2 = n + 1/2, j = +-32 both reduce x; take the one
    # whose sign differs from r's, or h leaves [1/sqrt 2, sqrt 2]
    j = m - 64.0 * n
    j = np.where((np.abs(j) == 32.0) & (j * rh > 0.0), -j, j)
    t = j.astype(np.int64) + 32
    sh, sl = mul(*add(sh, sl, 1.0, 0.0), _POW2_HI[t], _POW2_LO[t])
    return sh, sl, ((m - j) / 64.0).astype(np.int64)


def log_abs(xh, xl):
    """log|x| of a double-double, as float64 (absolute error ~1e-16)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(xh)) + np.log1p(np.where(xh != 0.0, xl / xh, 0.0))
    return np.where(xh == 0.0, -np.inf, out)

