"""Truncated Taylor (jet) arithmetic.

A Jet stores the scaled derivatives coeffs[..., n] = f^(n)(x0)/n! of a
scalar function at every point of its centers x0, an array of any shape:
the coefficients have shape x0.shape + (order+1,), and a point is the
grid of shape (). This is Taylor arithmetic with leading batch axes
(Griewank & Walther, *Evaluating Derivatives*): every operation acts on
the last axis and elementwise across the others, so each point of a
result is bitwise the result at that point alone. All derivative-hungry
quantities in this package
(Wronskians, log-derivative potentials, PDE residuals) are built from jet
arithmetic, so no finite differencing enters anywhere.

Coefficients may be real or complex (plane-wave seeds need complex jets).
Arithmetic silently truncates at the jet's order, which is exact for the
retained coefficients. A non-jet operand is a scalar or an array of the
centers' shape.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

#: jets with |constant term| below this are treated as singular divisors
DIV_THRESHOLD = 1e-300


class ConfigError(ValueError):
    """Invalid input: spectral data, a state index or a jet order."""


def _integer(v, what: str) -> int:
    """v as an int: integers only (operator.index: numpy integers pass,
    1.5, 2.0 and strings do not), booleans refused; ConfigError naming
    what otherwise."""
    if not isinstance(v, (bool, np.bool_)):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ConfigError(f"{what} {v!r} is not an integer")


def _check_order(q) -> int:
    """The jet order q >= 0 as an int (_integer); ConfigError otherwise."""
    q = _integer(q, "jet order")
    if q < 0:
        raise ConfigError("jet order must be non-negative")
    return q


class JetMismatchError(ValueError):
    """Operands have different centers or orders."""


class SingularJetError(ZeroDivisionError):
    """Division by a jet whose constant term vanishes."""


def _pointwise(fn, v) -> np.ndarray:
    """fn, a function of the math module, applied to each element of v, as
    an array of v's shape. numpy's vectorized exp and log differ from the C
    library's in the last bit for a few percent of arguments; the package
    has always used the C library's, so results stay bitwise what they
    were. Errors are math's: exp overflow raises OverflowError."""
    return np.array([fn(t) for t in np.ravel(v).tolist()], dtype=float).reshape(np.shape(v))


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the truncated product of jets a and b (last axis)."""
    order = a.shape[-1] - 1
    out = a[..., :1] * b
    for i in range(1, order + 1):
        out[..., i:] += a[..., i : i + 1] * b[..., : order + 1 - i]
    return out


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the jet quotient a/b (last axis); the constant
    terms of b must not vanish."""
    b0 = b[..., 0]
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for n in range(a.shape[-1]):
        acc = a[..., n]
        if n:
            s = b[..., 1] * out[..., n - 1]
            for i in range(2, n + 1):
                s = s + b[..., i] * out[..., n - i]
            acc = acc - s
        out[..., n] = acc / b0
    return out


@dataclass(frozen=True)
class Jet:
    center: float | np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        center, c = np.asarray(self.center, dtype=float), np.asarray(self.coeffs)
        if c.shape[:-1] != center.shape or not c.shape:
            raise ValueError("jet coefficients need the shape center.shape + (order+1,)")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def value(self):
        return self.coeffs[..., 0]

    def deriv(self, n: int = 1):
        """n-th derivative value at the center."""
        if n > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative {n}")
        return self.coeffs[..., n] * math.factorial(n)

    def at(self, p) -> "Jet":
        """The jet at the points p (an index of the centers)."""
        return Jet(self.center[p], self.coeffs[p].copy())

    @staticmethod
    def constant(v, center, order: int) -> "Jet":
        c = np.zeros(np.shape(center) + (_check_order(order) + 1,), dtype=np.result_type(np.asarray(v).dtype, float))
        c[..., 0] = v
        return Jet(center, c)

    def _check(self, other: "Jet"):
        a, b = self.center, other.center
        if not (a is b or np.array_equal(a, b)) or self.order != other.order:
            raise JetMismatchError(
                f"jet mismatch: center {a} vs {b}, order {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.center, self.coeffs + other.coeffs)
        c = self.coeffs.astype(np.result_type(self.coeffs.dtype, np.asarray(other).dtype))
        c[..., 0] += other
        return Jet(self.center, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, -self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.center, _cauchy(self.coeffs, other.coeffs))
        return Jet(self.center, self.coeffs * np.asarray(other)[..., None])

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return _div(self, other)
        return Jet(self.center, self.coeffs / np.asarray(other)[..., None])

    def __rtruediv__(self, other):
        return Jet.constant(other, self.center, self.order) / self

    def derivative(self) -> "Jet":
        """Jet of f', one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        n = np.arange(1, self.order + 1)
        return Jet(self.center, self.coeffs[..., 1:] * n)

    def truncate(self, order: int) -> "Jet":
        if _check_order(order) > self.order:
            raise ValueError("cannot extend a jet by truncation")
        return Jet(self.center, self.coeffs[..., : order + 1])


def _div(a: Jet, b: Jet) -> Jet:
    small = np.abs(b.value) < DIV_THRESHOLD
    if np.any(small):
        x = np.ravel(b.center)[np.argmax(small)]
        raise SingularJetError(f"division by jet with vanishing constant term at x={x}")
    return Jet(a.center, _quotient(a.coeffs, b.coeffs))


def jet_exp(rate: float, x0, order: int, unit: bool = False) -> Jet:
    """Jet of exp(rate*x) at x0, a point or a grid of any shape (a list
    too); with unit=True the e^{rate*x0} prefactor is dropped (constant
    term 1), useful when the scale is tracked separately as a log gauge."""
    x0, order = np.asarray(x0, dtype=float), _check_order(order)
    c = np.empty(x0.shape + (order + 1,))
    c[..., 0] = 1.0 if unit else _pointwise(math.exp, rate * x0)
    for n in range(1, order + 1):
        c[..., n] = c[..., n - 1] * rate / n
    return Jet(x0, c)


def jet_log_d2(a: Jet):
    """Second derivative of log a at the center: 2*a2/a0 - (a1/a0)^2."""
    if a.order < 2:
        raise ValueError("jet_log_d2 needs order >= 2")
    a0 = a.value
    if not np.all(a0 > 0):
        raise ValueError("jet_log_d2 requires a positive constant term")
    r1 = a.coeffs[..., 1] / a0
    return 2.0 * (a.coeffs[..., 2] / a0) - r1 * r1


def jet_det(matrix) -> Jet:
    """Determinant of a square matrix of jets (shared centers and order),
    by LU with partial pivoting on the constant terms, chosen per point.

    A pivot column whose constant terms all vanish (a sign-indefinite tau
    crossing zero) is h times a jet one order lower, h being the
    displacement from the center. Multilinearity then gives det = h * det
    with that column shifted down one order, its unknown top coefficient
    set to zero: that coefficient only reaches the determinant's top
    order, which the factor h pushes past truncation. The shift is made
    for that batch element only and the product of h's is applied at the
    end, so a singular pivot needs no second algorithm.
    """
    m = [list(row) for row in matrix]
    if not m:
        raise ValueError("empty matrix")
    first = m[0][0]
    for row in m:
        for e in row:
            first._check(e)
    n = len(m)
    order = first.order
    a = np.moveaxis(np.array([[e.coeffs for e in row] for row in m]), (0, 1), (-3, -2))
    batch = a.shape[:-3]
    a = a.reshape((-1, n, n, order + 1)).copy()
    nb = a.shape[0]
    bidx = np.arange(nb)
    sign = np.ones(nb)
    shift = np.zeros(nb, dtype=np.int64)
    det = None
    for k in range(n):
        while True:
            flat = (np.max(np.abs(a[:, k:, k, 0]), axis=1) < DIV_THRESHOLD) & (shift <= order)
            if not flat.any():
                break
            a[flat, k:, k, :-1] = a[flat, k:, k, 1:]
            a[flat, k:, k, -1] = 0.0
            shift[flat] += 1
        # the determinant vanishes to this order; any nonzero pivot will do
        a[shift > order, k, k, 0] = 1.0
        p = np.argmax(np.abs(a[:, k:, k, 0]), axis=1) + k
        swap = p != k
        if swap.any():
            row_p = a[bidx, p]
            a[bidx, p] = a[:, k]
            a[:, k] = row_p
            sign = np.where(swap, -sign, sign)
        piv = a[:, k, k]
        det = piv.copy() if det is None else _cauchy(det, piv)
        if k < n - 1:
            f = _quotient(a[:, k + 1 :, k], piv[:, None])
            a[:, k + 1 :, k + 1 :] -= _cauchy(f[:, :, None], a[:, None, k, k + 1 :])
    # shifts run 0..order + 1; np.unique here would import numpy.ma on
    # the first call, 10 ms of a cold process
    for s in range(1, int(shift.max()) + 1):
        sel = shift == s
        det[sel, s:] = det[sel, : order + 1 - s]
        det[sel, :s] = 0.0
    return Jet(first.center, (det * sign[:, None]).reshape(batch + (order + 1,)))
