"""Unit and property tests for truncated Taylor (jet) arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import cli
from solitonlab.jets import (
    DIV_THRESHOLD,
    ConfigError,
    Jet,
    JetMismatchError,
    SingularJetError,
    jet_det,
    jet_exp,
    jet_log_d2,
)


def poly_jet(coeffs, center, order):
    """Jet of the polynomial sum c_i x^i at an arbitrary center."""
    out = np.zeros(order + 1)
    for i, c in enumerate(coeffs):
        for n in range(min(i, order) + 1):
            out[n] += c * math.comb(i, n) * center ** (i - n)
    return Jet(center, out)


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
coeff_lists = st.lists(finite, min_size=1, max_size=5)


class TestArithmetic:
    def test_difference_of_squares(self):
        one_plus = Jet(0.0, np.array([1.0, 1.0, 0.0]))
        one_minus = Jet(0.0, np.array([1.0, -1.0, 0.0]))
        prod = one_plus * one_minus
        assert np.allclose(prod.coeffs, [1.0, 0.0, -1.0])

    def test_additive_identity(self):
        f = Jet(0.5, np.array([2.0, -1.0, 3.0]))
        zero = Jet.constant(0.0, 0.5, 2)
        assert np.array_equal((f + zero).coeffs, f.coeffs)

    def test_hand_cauchy_product(self):
        a = Jet(0.0, np.array([1.0, 2.0, 1.0]))
        b = Jet(0.0, np.array([1.0, 1.0, 0.0]))
        assert np.allclose((a * b).coeffs, [1.0, 3.0, 3.0])

    def test_mismatched_center_raises(self):
        a = Jet.constant(1.0, 0.0, 2)
        b = Jet.constant(1.0, 1.0, 2)
        with pytest.raises(JetMismatchError):
            a + b

    def test_mismatched_order_raises(self):
        a = Jet.constant(1.0, 0.0, 2)
        b = Jet.constant(1.0, 0.0, 3)
        with pytest.raises(JetMismatchError):
            a * b

    @given(coeff_lists, coeff_lists, finite)
    @settings(max_examples=100)
    def test_polynomial_product_exact(self, p, q, center):
        order = len(p) + len(q) - 2
        jp = poly_jet(p, center, order)
        jq = poly_jet(q, center, order)
        full = np.convolve(p, q)
        expected = poly_jet(full, center, order)
        scale = max(1.0, float(np.max(np.abs(expected.coeffs))))
        assert np.max(np.abs((jp * jq).coeffs - expected.coeffs)) / scale < 1e-13

    @given(coeff_lists, coeff_lists, finite)
    @settings(max_examples=100)
    def test_polynomial_sum_exact(self, p, q, center):
        order = max(len(p), len(q)) - 1
        jp = poly_jet(p, center, order)
        jq = poly_jet(q, center, order)
        full = np.zeros(order + 1)
        full[: len(p)] += p
        full[: len(q)] += q
        expected = poly_jet(full, center, order)
        scale = max(1.0, float(np.max(np.abs(expected.coeffs))))
        assert np.max(np.abs((jp + jq).coeffs - expected.coeffs)) / scale < 1e-13


class TestDivision:
    def test_self_division(self):
        f = Jet(0.0, np.array([2.0, -1.0, 0.5]))
        assert np.allclose((f / f).coeffs, [1.0, 0.0, 0.0])

    def test_geometric_series(self):
        one = Jet.constant(1.0, 0.0, 2)
        denom = Jet(0.0, np.array([1.0, 1.0, 0.0]))
        assert np.allclose((one / denom).coeffs, [1.0, -1.0, 1.0])

    @given(
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_div_mul_round_trip(self, ac, bc):
        ac[0] = ac[0] if abs(ac[0]) >= 0.1 else 0.7
        bc[0] = bc[0] if abs(bc[0]) >= 0.1 else 1.3
        a = Jet(0.0, np.array(ac))
        b = Jet(0.0, np.array(bc))
        back = (a * b) / b
        scale = max(1.0, float(np.max(np.abs(a.coeffs))))
        assert np.max(np.abs(back.coeffs - a.coeffs)) / scale < 1e-12

    def test_singular_divisor_raises(self):
        a = Jet.constant(1.0, 0.0, 2)
        b = Jet(0.0, np.array([DIV_THRESHOLD / 10.0, 1.0, 0.0]))
        with pytest.raises(SingularJetError):
            a / b


class TestExp:
    def test_rate_zero(self):
        j = jet_exp(0.0, 1.7, 3)
        assert np.allclose(j.coeffs, [1.0, 0.0, 0.0, 0.0])

    def test_maclaurin(self):
        j = jet_exp(1.0, 0.0, 3)
        assert np.allclose(j.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_hand_differentiation(self):
        j = jet_exp(-2.0, 0.5, 2)
        e = math.exp(-1.0)
        assert np.allclose(j.coeffs, [e, -2.0 * e, 2.0 * e])

    @given(st.floats(min_value=-4.0, max_value=4.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=100)
    def test_ode_identity(self, rate, x0):
        j = jet_exp(rate, x0, 5)
        for n in range(5):
            assert (n + 1) * j.coeffs[n + 1] == pytest.approx(rate * j.coeffs[n], abs=1e-300, rel=1e-15)


class TestLogD2:
    def test_affine_log(self):
        assert jet_log_d2(jet_exp(3.0, 0.7, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_cosh(self):
        j = Jet(0.0, np.array([1.0, 0.0, 0.5]))
        assert jet_log_d2(j) == pytest.approx(1.0)

    def test_constant(self):
        assert jet_log_d2(Jet.constant(4.0, 0.0, 2)) == 0.0

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            jet_log_d2(Jet.constant(-1.0, 0.0, 2))


class TestDeterminant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_constant_matrix_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(n, n))
        jets = [[Jet.constant(mat[i, j], 0.0, 2) for j in range(n)] for i in range(n)]
        det = jet_det(jets)
        assert det.coeffs[0] == pytest.approx(np.linalg.det(mat), rel=1e-10)
        assert np.allclose(det.coeffs[1:], 0.0)

    def test_exponential_matrix_derivative(self):
        # det [[e^x, 1], [1, e^-x]] = 1 at every x: all jet coefficients vanish
        x0 = 0.3
        m = [
            [jet_exp(1.0, x0, 3), Jet.constant(1.0, x0, 3)],
            [Jet.constant(1.0, x0, 3), jet_exp(-1.0, x0, 3)],
        ]
        det = jet_det(m)
        assert det.coeffs[0] == pytest.approx(0.0, abs=1e-15)


class TestDerivativeAndTruncate:
    def test_derivative_of_exp(self):
        j = jet_exp(2.0, 0.0, 4)
        d = j.derivative()
        assert np.allclose(d.coeffs, 2.0 * j.coeffs[:4])

    def test_deriv_accessor(self):
        j = jet_exp(3.0, 0.0, 3)
        assert j.deriv(2) == pytest.approx(9.0)

    def test_truncate(self):
        j = jet_exp(1.0, 0.0, 4)
        assert j.truncate(2).order == 2
        with pytest.raises(ValueError):
            j.truncate(5)


#: the entries of jets that take a jet order
ORDERS = {
    "jet_exp": lambda q: jet_exp(1.0, 0.3, q),
    "jet_exp-unit": lambda q: jet_exp(1.0, [0.3, 0.4], q, unit=True),
    "constant": lambda q: Jet.constant(1.0, 0.3, q),
    "truncate": lambda q: jet_exp(1.0, 0.3, 3).truncate(q),
}


@pytest.mark.parametrize("entry", ORDERS)
@pytest.mark.parametrize("order", [-1, 1.7, 2.5, 2.0, True, np.True_, "1", None], ids=repr)
def test_bad_jet_order_is_a_config_error(entry, order):
    # the integer rule of every order: 1.7 was an untyped TypeError; a
    # ConfigError is a ValueError, the CLI's exit 2
    with pytest.raises(ConfigError) as info:
        ORDERS[entry](order)
    assert isinstance(info.value, ValueError) and cli.ConfigError is ConfigError


@pytest.mark.parametrize("entry", ORDERS)
def test_numpy_integers_are_jet_orders(entry):
    assert np.array_equal(ORDERS[entry](np.int64(2)).coeffs, ORDERS[entry](2).coeffs)


# ---------------------------------------------------------------------------
# Batched jets: each point of a batched result is the one-point result


def reference_mul(a, b):
    """The one-point product before jets were batched."""
    return np.convolve(a, b)[: len(a)]


def reference_div(a, b):
    """The one-point quotient before jets were batched."""
    out = np.zeros(len(a), dtype=np.result_type(a, b))
    for n in range(len(a)):
        acc = a[n]
        if n:
            acc = acc - np.dot(b[1 : n + 1], out[n - 1 :: -1])
        out[n] = acc / b[0]
    return out


def reference_det(m):
    """Cofactor expansion of a one-point jet matrix of any size."""
    if len(m) == 1:
        return m[0][0]
    acc = None
    for j in range(len(m)):
        term = m[0][j] * reference_det([row[:j] + row[j + 1 :] for row in m[1:]])
        term = -term if j % 2 else term
        acc = term if acc is None else acc + term
    return acc


def assert_matches(got, want, order):
    """Bitwise at order <= 1 (no sum is reassociated there), else within
    1e-15 of the largest coefficient."""
    if order <= 1:
        assert np.array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


XS = np.array([-2.5, -0.0, 0.0, 0.3, 1.7, 4.0])


def batch(rng, order, lead=1.0):
    c = rng.normal(size=(len(XS), order + 1))
    c[:, 0] = np.sign(c[:, 0]) * (lead + np.abs(c[:, 0]))
    return Jet(XS, c)


def assert_per_point(batched, per_point):
    assert np.array_equal(batched.center, XS)
    for p in range(len(XS)):
        one = per_point(p)
        assert one.center == XS[p]
        assert np.array_equal(batched.coeffs[p], one.coeffs)
        assert np.array_equal(batched.at(p).coeffs, one.coeffs)


class TestBatched:
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_arithmetic_equals_per_point(self, order):
        rng = np.random.default_rng(40 + order)
        a, b = batch(rng, order), batch(rng, order)
        w = rng.normal(size=len(XS))
        ops = [
            lambda f, g, s: f + g,
            lambda f, g, s: f - g,
            lambda f, g, s: f * g,
            lambda f, g, s: f / g,
            lambda f, g, s: -f,
            lambda f, g, s: 2.5 - f,
            lambda f, g, s: f + s,
            lambda f, g, s: f * s,
            lambda f, g, s: f / s,
            lambda f, g, s: 1.5 / g,
            lambda f, g, s: f.truncate(0),
        ]
        if order:
            ops.append(lambda f, g, s: f.derivative())
        for op in ops:
            assert_per_point(op(a, b, w), lambda p: op(a.at(p), b.at(p), w[p]))
        assert np.array_equal(a.deriv(order), [a.at(p).deriv(order) for p in range(len(XS))])
        for p in range(len(XS)):
            assert_matches((a * b).coeffs[p], reference_mul(a.coeffs[p], b.coeffs[p]), order)
            assert_matches((a / b).coeffs[p], reference_div(a.coeffs[p], b.coeffs[p]), order)

    @pytest.mark.parametrize("unit", [False, True])
    def test_exp_equals_per_point(self, unit):
        got = jet_exp(-1.3, XS, 3, unit)
        assert_per_point(got, lambda p: jet_exp(-1.3, float(XS[p]), 3, unit))
        for p, x in enumerate(XS):
            assert got.coeffs[p, 0] == (1.0 if unit else math.exp(-1.3 * x))

    def test_singular_divisor_names_the_point(self):
        c = np.ones((len(XS), 2))
        c[3, 0] = 0.0
        with pytest.raises(SingularJetError, match="x=0.3"):
            batch(np.random.default_rng(47), 1) / Jet(XS, c)

    def test_mixing_one_point_and_batched_raises(self):
        a = batch(np.random.default_rng(48), 1)
        with pytest.raises(JetMismatchError):
            a + a.at(0)
        with pytest.raises(JetMismatchError):
            a * Jet(XS + 1.0, a.coeffs)
        with pytest.raises(ValueError):
            Jet(XS[:2], a.coeffs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_det_equals_per_point(self, n, order):
        rng = np.random.default_rng(10 * n + order)
        m = [[batch(rng, order, lead=0.0) for _ in range(n)] for _ in range(n)]
        det = jet_det(m)
        assert_per_point(det, lambda p: jet_det([[e.at(p) for e in row] for row in m]))
        for p in range(len(XS)):
            want = reference_det([[e.at(p) for e in row] for row in m]).coeffs
            assert np.max(np.abs(det.coeffs[p] - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_det_with_vanishing_pivots(self, order):
        # point 1: a first column with vanishing constant terms; point 3: two
        # columns with equal constant terms (exact in powers of two), so the
        # second pivot vanishes after one elimination step; point 4: a zero
        # column, a determinant that vanishes to every order
        rng = np.random.default_rng(50 + order)
        c = rng.normal(size=(len(XS), 4, 4, order + 1))
        c[1, :, 0, 0] = 0.0
        c[3, :, 0, 0] = c[3, :, 1, 0] = [1.0, 0.5, 0.25, 2.0]
        c[4, :, 2] = 0.0
        m = [[Jet(XS, c[:, i, j]) for j in range(4)] for i in range(4)]
        det = jet_det(m)
        assert_per_point(det, lambda p: jet_det([[e.at(p) for e in row] for row in m]))
        for p in range(len(XS)):
            want = reference_det([[e.at(p) for e in row] for row in m]).coeffs
            assert np.max(np.abs(det.coeffs[p] - want)) < 1e-12 * max(1.0, np.max(np.abs(c[p])) ** 4)
        assert det.coeffs[1, 0] == 0.0
        assert np.all(det.coeffs[4] == 0.0)
