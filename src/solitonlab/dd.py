"""Vectorized double-double (compensated) arithmetic.

Tau-function determinants of closely spaced wavenumbers are Cauchy-matrix
conditioned: a float64 factorization loses up to ~10 digits at N=10, which
is not enough to cross-check the determinant against the Hirota expansion
at the 1e-11 level. Each value here is carried as an unevaluated sum hi+lo
of two float64 arrays (~32 significant digits), which restores full
headroom.

Only the handful of operations the determinant route needs are provided:
elementary ops, exp, log_abs and slogdet, an LDL^T without pivoting for
batches of symmetric positive-definite matrices. All functions but slogdet
broadcast like the underlying numpy ufuncs.
"""

from __future__ import annotations

import math

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
    """exp of a double-double, accurate to ~30 digits for |x| < ~700."""
    xh = np.asarray(xh, dtype=float)
    xl = np.asarray(xl, dtype=float)
    n = np.rint(xh / _LN2_HI)
    # r = x - n*ln2, |r| <= ln2/2
    th, tl = mul(n, np.zeros_like(n), np.float64(_LN2_HI), np.float64(_LN2_LO))
    rh, rl = sub(xh, xl, th, tl)
    # Taylor sum 1 + r + r^2/2! + ... via Horner
    sh = np.full_like(rh, _INV_FACT[_EXP_ORDER - 1][0])
    sl = np.full_like(rh, _INV_FACT[_EXP_ORDER - 1][1])
    for j in range(_EXP_ORDER - 2, -1, -1):
        sh, sl = mul(sh, sl, rh, rl)
        sh, sl = add(sh, sl, np.float64(_INV_FACT[j][0]), np.float64(_INV_FACT[j][1]))
    sh, sl = mul(sh, sl, rh, rl)
    sh, sl = add(sh, sl, np.float64(1.0), np.float64(0.0))
    ni = n.astype(np.int64)
    return np.ldexp(sh, ni), np.ldexp(sl, ni)


def log_abs(xh, xl):
    """log|x| of a double-double, as float64 (absolute error ~1e-16)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(xh)) + np.log1p(np.where(xh != 0.0, xl / xh, 0.0))
    return np.where(xh == 0.0, -np.inf, out)


def slogdet(ah, al):
    """Sign and log|det| of a batch of symmetric positive-definite
    double-double matrices of shape (..., n, n); only the lower triangle
    is read.

    LDL^T without pivoting, backward stable on such matrices (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 10), on the lower
    triangle packed column by column with the batch axis last. The sign
    is the product of the pivot signs, so a matrix that is not positive
    definite shows as a sign other than 1; a zero pivot yields sign 0 and
    logabs -inf.
    """
    n, batch_shape = np.shape(ah)[-1], np.shape(ah)[:-2]
    cols, rows = np.triu_indices(n)
    ph, pl = (np.moveaxis(np.asarray(a, dtype=float).reshape(-1, n, n), 0, -1)[rows, cols] for a in (ah, al))
    start = np.concatenate(([0], np.cumsum(np.arange(n, 0, -1))))  # column k at start[k]
    sign = np.ones(ph.shape[1])
    logabs = np.zeros(ph.shape[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n):
            dh, dl = ph[start[k]], pl[start[k]]
            logabs += log_abs(dh, dl)
            sign *= np.sign(dh)
            vh, vl = ph[start[k] + 1 : start[k + 1]], pl[start[k] + 1 : start[k + 1]]
            mh, ml = div(vh, vl, dh, dl)
            # trailing column j, rows j..n-1: subtract (v_i / d) v_j
            for r, j in enumerate(range(k + 1, n)):
                c = slice(start[j], start[j + 1])
                ph[c], pl[c] = sub(ph[c], pl[c], *mul(mh[r:], ml[r:], vh[r], vl[r]))
    broken = np.abs(sign) != 1.0
    sign[broken], logabs[broken] = 0.0, -np.inf
    return sign.reshape(batch_shape), logabs.reshape(batch_shape)
