"""Vectorized double-double (compensated) arithmetic.

The exponential-sum tau jets (solitons.tau_jet_sums) sum 2^N terms
whose rewritten forms cancel and whose Taylor coefficients need more
than float64 carries. Each value here is carried as an unevaluated sum
hi+lo of two float64 arrays (~32 significant digits), which restores
full headroom (Dekker 1971; Hida, Li & Bailey 2001, the QD library).

Only the handful of operations that sum needs are provided: elementary
ops, exp and log_abs. All of them broadcast like the underlying numpy
ufuncs. exp returns the split form (hi, lo, n), value (hi + lo) 2^n, so
its result never overflows or goes subnormal; the sum multiplies such
values as mantissas and adds their powers of two as integers.
"""

from __future__ import annotations

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant

# log(2) to double-double precision
_LN2_HI = 6.931471805599452862e-01
_LN2_LO = 2.319046813846299558e-17

# Taylor terms of exp on |r| <= ln2/2: the first one left out is below 1e-33
_EXP_ORDER = 22


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


# 1/j! in double-double, built exactly (j! overflows the 53-bit mantissa at 23!)
def _inv_factorials(order):
    out = []
    fh, fl = np.float64(1.0), np.float64(0.0)
    for j in range(1, order + 1):
        fh, fl = mul(fh, fl, np.float64(j), np.float64(0.0))
        qh, ql = div(np.float64(1.0), np.float64(0.0), fh, fl)
        out.append((float(qh), float(ql)))
    return out


_INV_FACT = _inv_factorials(_EXP_ORDER)


def exp(xh, xl):
    """exp(x) of a double-double x in split form (h, l, n), value (h + l)
    2^n with h in [1/sqrt 2, sqrt 2] and n an int64 array. The power of
    two of the range reduction is returned rather than applied, so
    nothing overflows or goes subnormal: measured 1.6e-30 relative on
    |x| <= 2000, where e^x itself leaves float64's range."""
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    n = np.rint(xh / _LN2_HI)
    # r = x - n*ln2, |r| <= ln2/2, from the exact products of n with both
    # words of ln2: x - n*ln2_hi is exact (Sterbenz), so r keeps ~32
    # digits however large n is
    th, tl = _two_prod(n, np.float64(_LN2_HI))
    uh, ul = _two_prod(n, np.float64(_LN2_LO))
    rh, rl = sub(*_two_sum(xh - th, -tl), uh, ul)
    rh, rl = add(rh, rl, xl, np.zeros_like(xl))
    # Taylor sum 1 + r + r^2/2! + ... via Horner
    sh = np.full_like(rh, _INV_FACT[_EXP_ORDER - 1][0])
    sl = np.full_like(rh, _INV_FACT[_EXP_ORDER - 1][1])
    for j in range(_EXP_ORDER - 2, -1, -1):
        sh, sl = mul(sh, sl, rh, rl)
        sh, sl = add(sh, sl, np.float64(_INV_FACT[j][0]), np.float64(_INV_FACT[j][1]))
    sh, sl = mul(sh, sl, rh, rl)
    sh, sl = add(sh, sl, np.float64(1.0), np.float64(0.0))
    return sh, sl, n.astype(np.int64)


def log_abs(xh, xl):
    """log|x| of a double-double, as float64 (absolute error ~1e-16)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(xh)) + np.log1p(np.where(xh != 0.0, xl / xh, 0.0))
    return np.where(xh == 0.0, -np.inf, out)

