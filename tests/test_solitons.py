"""Tests for spectral data, tau functions, potentials, and flows."""

import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solitonlab import dd, solitons as S
from solitonlab.identities import run_identity_suite
from solitonlab.jets import Jet, JetMismatchError, SingularJetError, jet_exp, jet_log_d2
from solitonlab.solitons import (
    CoefficientRule,
    ConfigError,
    RangeError,
    SolitonConfig,
)


def sech2_config(n):
    """k_j = j with the binomial-product norming constants whose potential
    is -n(n+1) sech^2 x."""
    c = [
        math.factorial(n + j) / (math.factorial(j) * math.factorial(j - 1) * math.factorial(n - j))
        for j in range(1, n + 1)
    ]
    return SolitonConfig(tuple(range(1, n + 1)), tuple(c))


def hirota_value(cfg, rule, x):
    """Tau at one point from the exponential-sum grid route."""
    (log_abs,), (sign,) = S.tau_hirota_grid(cfg, rule, [x])
    return sign * math.exp(log_abs)


def tau_jet_sum_reference(cfg, rule, x, order):
    """The per-point double-double exponential sum as it stood before the
    grid core, as a TauGrid of shape (): the reference the grid core must
    match bitwise."""
    cfg = cfg.flowed()
    k, ce = S._effective(cfg, rule)
    n = len(k)
    x = np.float64(x)
    if n == 0:
        return S.TauGrid(x, Jet.constant(1.0, x, order).coeffs, np.float64(0.0), np.float64(1.0))
    m = 1 << n
    bits = ((np.arange(m, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
    ph, pl, sgn = np.ones(m), np.zeros(m), np.ones(m)
    for j in range(n):
        fh, fl = dd.div(*dd.from_float(abs(ce[j])), *dd._two_prod(np.float64(2.0), np.float64(k[j])))
        mh, ml = dd.mul(ph, pl, fh, fl)
        ph, pl = np.where(bits[:, j], mh, ph), np.where(bits[:, j], ml, pl)
        if ce[j] < 0:
            sgn = np.where(bits[:, j], -sgn, sgn)
    for j in range(n):
        for l in range(j + 1, n):
            rh, rl = dd.div(*dd._two_sum(np.float64(k[j]), np.float64(-k[l])),
                            *dd._two_sum(np.float64(k[j]), np.float64(k[l])))
            ah, al = dd.mul(rh, rl, rh, rl)
            sel = bits[:, j] & bits[:, l]
            mh, ml = dd.mul(ph, pl, ah, al)
            ph, pl = np.where(sel, mh, ph), np.where(sel, ml, pl)
    rh, rl = np.zeros(m), np.zeros(m)
    for j in range(n):
        th, tl = dd.add(rh, rl, *dd._two_prod(np.float64(-2.0), np.float64(k[j])))
        rh, rl = np.where(bits[:, j], th, rh), np.where(bits[:, j], tl, rl)
    argh, argl = dd.mul(rh, rl, np.float64(x), np.float64(0.0))
    with np.errstate(divide="ignore"):
        gauge0 = float(np.max(argh + np.log(np.abs(ph))))
    eh, el, en = dd.exp(*dd.add(argh, argl, np.float64(-gauge0), np.float64(0.0)))
    eh, el = np.ldexp(eh, en), np.ldexp(el, en)
    cur_h, cur_l = dd.mul(ph, pl, eh, el)
    cur_h, cur_l = cur_h * sgn, cur_l * sgn
    sums = []
    for q in range(order + 1):
        if q:
            cur_h, cur_l = dd.mul(cur_h, cur_l, rh, rl)
            cur_h, cur_l = dd.div(cur_h, cur_l, np.float64(q), np.float64(0.0))
        h, l = cur_h, cur_l
        while h.shape[0] > 1:
            half = h.shape[0] // 2
            h, l = dd.add(h[:half], l[:half], h[half:], l[half:])
        sums.append((h[0], l[0]))
    s0h, s0l = sums[0]
    if s0h == 0.0:
        return S.TauGrid(x, np.array([float(s[0]) for s in sums]), np.float64(gauge0), np.float64(1.0))
    coeffs = [1.0] + [float(dd.div(*sums[q], s0h, s0l)[0]) for q in range(1, order + 1)]
    gauge = gauge0 + float(dd.log_abs(s0h, s0l))
    return S.TauGrid(x, np.array(coeffs), np.float64(gauge), np.float64(math.copysign(1.0, s0h)))


def tau_point(grid, p):
    """The TauGrid of shape () at point p of a grid, by indexing."""
    return S.TauGrid(grid.xs[p], grid.coeffs[p], grid.gauge[p], grid.sign[p])


def assert_tau_matches_reference(got, ref):
    """Jet coefficients and sign bitwise equal to the reference. Its gauge
    is the largest term's log plus log|sum|, the core's a power of two
    plus log|sum|, so the gauges differ in rounding: 1 ulp measured on 38
    of 231 points of the bitwise test, bound 2 ulp."""
    assert got.xs.shape == got.gauge.shape == got.sign.shape == () and got.xs == ref.xs
    assert np.array_equal(got.coeffs, ref.coeffs) and got.sign == ref.sign
    assert abs(got.gauge - ref.gauge) <= 2.0 * np.spacing(abs(ref.gauge))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SolitonConfig((2.0, 1.0), (1.0, 1.0))
        with pytest.raises(ConfigError):
            SolitonConfig((1.0,), (-1.0,))
        with pytest.raises(ConfigError):
            SolitonConfig((-1.0,), (1.0,))
        with pytest.raises(ConfigError):
            SolitonConfig((1.0,), (1.0, 2.0))
        with pytest.raises(ConfigError):
            SolitonConfig((1.0,), (1.0,), times={2: 0.1})
        # non-finite or non-numeric data, as a JSON config can spell it
        for k, c, times in [
            ((math.nan,), (1.0,), None),
            ((1.0,), (math.inf,), None),
            ((-math.inf, 1.0), (1.0, 1.0), None),
            ((1.0,), (1.0,), {3: math.nan}),
            ((1.0,), (1.0,), {3: None}),
            ((1.0,), (1.0,), [3, 0.1]),
            (1.0, 2.0, None),
            ((None,), (1.0,), None),
            (([1.0],), (1.0,), None),
            ("12", "34", None),
            (("2",), (1.0,), None),
            ((1.0,), (True,), None),
            ((1.0,), (np.True_,), None),
            ((1.0,), (1.0,), {3: "0.1"}),
            ((1.0,), (1.0,), {3: False}),
        ]:
            with pytest.raises(ConfigError):
                SolitonConfig(k, c, times)

    def test_trivial_config(self):
        cfg = SolitonConfig((), ())
        assert cfg.n == 0
        assert S.potential(cfg, 1.3) == 0.0
        te = S.tau_jet_sum(cfg, None, 0.0, 2)
        assert te.values().value == 1.0

    def test_energies(self):
        cfg = SolitonConfig((1.0, 3.0), (1.0, 1.0))
        assert cfg.energies == (-1.0, -9.0)

    def test_hashable_with_times(self):
        a = SolitonConfig((1, 2), (1, 2), {3: 0.1, 5: 0.2})
        b = SolitonConfig((1.0, 2.0), (1.0, 2.0), {5: 0.2, 3: 0.1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SolitonConfig((1, 2), (1, 2)), SolitonConfig((1, 2), (1, 2), {3: 0.2})}) == 3
        assert sorted(a.times.items()) == [(3, 0.1), (5, 0.2)]


class TestRules:
    def test_eigenfunction_rule_n1(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        assert S.eigenfunction_rule(cfg, 1).factors == (0.0,)

    def test_eigenfunction_rule_n2(self):
        cfg = SolitonConfig((1.0, 2.0), (1.0, 1.0))
        f = S.eigenfunction_rule(cfg, 2).factors
        assert f == pytest.approx((1.0 / 3.0, 0.0))

    def test_eigenfunction_rule_n3(self):
        cfg = SolitonConfig((1.0, 2.0, 3.0), (1.0, 1.0, 1.0))
        f = S.eigenfunction_rule(cfg, 1).factors
        assert f == pytest.approx((0.0, -1.0 / 3.0, -0.5))

    def test_compose_is_pointwise_product(self):
        a = CoefficientRule((2.0, 3.0))
        b = CoefficientRule((0.5, -1.0))
        assert a.compose(b).factors == (1.0, -3.0)

    def test_index_out_of_range(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        with pytest.raises(ConfigError):
            S.eigenfunction_rule(cfg, 2)


class TestTau:
    def test_n1_value(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        assert S.tau_jet_sum(cfg, None, 0.0, 0).values().value == pytest.approx(2.0)

    def test_n2_sech2_value(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        # closed form e^{-6x} (1+e^{2x})^3 at x=0
        assert S.tau_jet_sum(cfg, None, 0.0, 0).values().value == pytest.approx(8.0, rel=1e-12)

    def test_n2_closed_form_on_grid(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        for x in np.linspace(-4, 4, 9):
            te = S.tau_jet_sum(cfg, None, float(x), 0)
            ref = -6.0 * x + 3.0 * np.log1p(math.exp(2.0 * x))
            assert te.sign == 1.0
            assert te.log_abs == pytest.approx(ref, abs=1e-11)

    def test_hirota_n0(self):
        assert hirota_value(SolitonConfig((), ()), None, 1.0) == pytest.approx(1.0)

    def test_hirota_n1(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        assert hirota_value(cfg, None, 0.0) == pytest.approx(2.0)

    def test_hirota_cross_term(self):
        # 1 + 3 + 3 + 3*3*(1/9) = 8 with the (1/3)^2 interaction factor
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        assert hirota_value(cfg, None, 0.0) == pytest.approx(8.0, rel=1e-13)

    def test_hirota_budget(self):
        n = 25
        cfg = SolitonConfig(tuple(range(1, n + 1)), (1.0,) * n)
        with pytest.raises(RangeError, match="N=25"):
            S.tau_hirota_grid(cfg, None, [0.0])
        with pytest.raises(RangeError, match="N=25"):
            S.potential_fn(cfg)
        with pytest.raises(RangeError, match="N=25"):
            S.potential_jet(cfg, 0.0, 3)
        with pytest.raises(RangeError, match="N=25"):
            S.dt_potential(cfg, 0.0)

    def test_det_matches_hirota_n3(self):
        rng = np.random.default_rng(5)
        cfg = S.random_config(rng, n=3)
        for x in np.linspace(-8, 8, 17):
            td = S.tau_jet_sum(cfg, None, float(x), 0)
            (lh,), (sh,) = S.tau_hirota_grid(cfg, None, [float(x)])
            assert td.log_abs == pytest.approx(lh, abs=1e-12)
            assert td.sign == sh

    def test_det_matches_hirota_tilde_rules(self):
        rng = np.random.default_rng(6)
        cfg = S.random_config(rng, n=4)
        rules = [
            S.eigenfunction_rule(cfg, 2),
            S.pair_rule(cfg, 1, 3),
            S.deletion_rule(cfg, [2, 4], 2),
            S.drop_rule(4, 3),
        ]
        for rule in rules:
            for x in np.linspace(-6, 6, 13):
                td = S.tau_jet_sum(cfg, rule, float(x), 0)
                (lh,), (sh,) = S.tau_hirota_grid(cfg, rule, [float(x)])
                assert td.sign == sh
                assert td.log_abs == pytest.approx(lh, abs=1e-10)

    def test_grid_routes_agree(self):
        rng = np.random.default_rng(7)
        cfg = S.random_config(rng, n=8, n_range=(8, 8))
        xs = S.default_grid(cfg, 101)
        ld, sd = S.tau_logdet_grid(cfg, None, xs)
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        assert np.all(sd == sh)
        assert np.max(np.abs(ld - lh)) < 1e-11

    @pytest.mark.parametrize("n, bound", [(13, 1e-12), (14, 1e-11), (16, 1e-11)])
    def test_logdet_reach(self, n, bound):
        """Beyond the jet sum's N <= 12 budget (tau_hirota_grid reaches
        N = 24), on 401 points:
        measured max |ld - lh| 4.5e-13 at N = 13, 4.0e-12 at N = 14 and
        5.5e-12 at N = 16; the bounds are 1e-12, 1e-11 and 1e-11."""
        cfg = S.random_config(np.random.default_rng(n), n=n, k_range=(0.2, 6.0))
        xs = S.default_grid(cfg, 401)
        ld, sd = S.tau_logdet_grid(cfg, None, xs)
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        assert np.all(sd == sh)
        assert np.max(np.abs(ld - lh)) < bound

    def test_logdet_beyond_reach_is_range_error(self):
        cfg = S.random_config(np.random.default_rng(17), n=17, k_range=(0.2, 8.0))
        with pytest.raises(RangeError, match="N=17"):
            S.tau_logdet_grid(cfg, None, [0.0])

    def test_logdet_far_from_the_cores(self):
        """At |x| up to 800 the entries e^{-k x} leave float64 range; the
        gauge is carried in logs, so the determinant still matches the
        exponential sum (log tau = 5594.3 at x = -800)."""
        cfg = SolitonConfig((0.5, 1.0, 2.0), (1.0, 2.0, 3.0))
        xs = np.array([-800.0, -400.0, -200.0, 200.0, 400.0, 800.0])
        ld, sd = S.tau_logdet_grid(cfg, None, xs)
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        assert np.array_equal(sd, sh)
        assert np.all(np.abs(ld - lh) <= 1e-12 * np.maximum(1.0, np.abs(lh)))

    @pytest.mark.parametrize(
        "make_rule",
        [
            lambda cfg: None,
            lambda cfg: S.drop_rule(cfg.n, 3),
            lambda cfg: S.rescale_rule(cfg.n, 2, 3.5),
            lambda cfg: S.deletion_rule(cfg, [2, 4], 2),
        ],
        ids=["none", "drop", "rescale", "deletion-squared"],
    )
    def test_logdet_positive_rules(self, make_rule):
        cfg = S.random_config(np.random.default_rng(9), n=4)
        rule = make_rule(cfg)
        xs = np.linspace(-12.0, 12.0, 49)
        ld, sd = S.tau_logdet_grid(cfg, rule, xs)
        lh, sh = S.tau_hirota_grid(cfg, rule, xs)
        assert np.all(sd == 1.0) and np.all(sh == 1.0)
        assert np.max(np.abs(ld - lh)) < 1e-12

    def test_logdet_refuses_negative_effective_c(self):
        cfg = S.random_config(np.random.default_rng(9), n=4)
        rule = S.eigenfunction_rule(cfg, 2)
        with pytest.raises(ConfigError, match=re.escape(repr(rule))):
            S.tau_logdet_grid(cfg, rule, [0.0])

    def test_positivity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            cfg = S.random_config(rng)
            for x in np.linspace(-10 / cfg.k[0], 10 / cfg.k[0], 21):
                assert S.tau_jet_sum(cfg, None, float(x), 0).sign == 1.0


SPLIT_CASES = {
    "n12": SolitonConfig(tuple(1.0 + 1e-5 * j for j in range(1, 13)), (1.0,) * 12),
    "n16": SolitonConfig(tuple(1.0 + 5e-4 * j for j in range(1, 17)), (1.0,) * 16),
}


class TestBilinearHirota:
    @pytest.mark.parametrize("name", SPLIT_CASES)
    def test_split_rule_keeps_far_points_finite(self, name):
        """Wavenumbers 1e-5 (N = 12) and 5e-4 (N = 16) apart: the balanced
        split's smallest cross factor is e^-758 and e^-810, and its sum
        underflows to 0 at x = -4000 (N = 12) and x <= -100 (N = 16). The
        split rule takes h = 3. Against the 40-digit sum, relative to
        max(1, |ref|): log tau measured 2.9e-16, U 4.6e-15."""
        cfg = SPLIT_CASES[name]
        xs = np.array([-4000.0, -100.0, -10.0, 0.0])
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        u = S.potential_fn(cfg)(xs)
        assert np.all(np.isfinite(lh)) and np.all(sh == 1.0) and np.all(np.isfinite(u))
        ref = mp_hirota(cfg.k, cfg.c, xs)
        assert np.all(np.abs(lh - ref[:, 0]) <= 1e-12 * np.maximum(1.0, np.abs(ref[:, 0])))
        assert np.max(np.abs(u - ref[:, 1])) <= 1e-12 * max(1.0, np.max(np.abs(ref[:, 1])))
        if cfg.n <= 12:
            jet = S.tau_jet_sums(cfg, [None], xs, 0)[0].log_abs
            assert np.all(np.abs(lh - jet) <= 1e-12 * np.maximum(1.0, np.abs(jet)))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: S.random_config(np.random.default_rng(8), n=8, k_range=(0.2, 6.0)),
            lambda: S.random_config(np.random.default_rng(12), n=12, k_range=(0.2, 6.0)),
            lambda: tight_gap_config(12, 12, 1e-6),
        ],
        ids=["random-n8", "random-n12", "tight-gap-n12"],
    )
    def test_matches_mp_hirota_sum(self, make):
        """log tau and U on 5 points of [-10/k_1, 10/k_1] against the
        40-digit sum, where |log tau| reaches 1311. Measured relative to
        max(1, |ref|): log tau 3.6e-16, U 1.1e-15 (relative to max |U|)."""
        cfg = make()
        xs = np.linspace(-10.0 / cfg.k[0], 10.0 / cfg.k[0], 5)
        ref = mp_hirota(cfg.k, cfg.c, xs)
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        u = S.potential_fn(cfg)(xs)
        assert np.all(sh == 1.0)
        assert np.all(np.abs(lh - ref[:, 0]) <= 1e-15 * np.maximum(1.0, np.abs(ref[:, 0])))
        assert np.max(np.abs(u - ref[:, 1])) <= 1e-12 * max(1.0, np.max(np.abs(ref[:, 1])))

    def test_tables_match_subset_definition(self):
        """The doubling builds of _split_tables against each subset's sums
        taken term by term (N = 7, split h = 3): const_A + const_B +
        log X_AB is sum_{j in S} log(c_j/(2 k_j)) + sum_{j<l in S}
        2 log|(k_j - k_l)/(k_j + k_l)|, and R_A + R_B = -2 sum_{j in S} k_j."""
        cfg = S.random_config(np.random.default_rng(7), n=7, k_range=(0.2, 6.0))
        k, c = np.array(cfg.k), np.array(cfg.c)
        h, (ca, ra), (cb, rb), logxt, _ = S._split_tables(k, c)
        assert h == 3 and logxt.shape == (16, 8)
        for s in range(1 << 7):
            members = [j for j in range(7) if s >> j & 1]
            const = sum(math.log(c[j] / (2.0 * k[j])) for j in members) + sum(
                2.0 * math.log(abs(k[j] - k[l]) / (k[j] + k[l])) for j in members for l in members if j < l)
            a, b = s & 7, s >> 3
            assert ca[a] + cb[b] + logxt[b, a] == pytest.approx(const, rel=1e-14, abs=1e-13)
            assert ra[a] + rb[b] == pytest.approx(-2.0 * sum(k[members]), rel=1e-15, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_scalar_potential_matches_grid(self, n):
        """A one-point call takes other BLAS kernels than a grid, so the
        two agree to rounding, not bitwise: measured at most 1.3e-15 of
        max |U| on 301 points; bound 1e-13."""
        cfg = S.random_config(np.random.default_rng(30 + n), n=n, k_range=(0.2, 6.0))
        xs = S.default_grid(cfg, 301)
        grid = S.potential_fn(cfg)(xs)
        scalar = np.array([S.potential(cfg, x) for x in xs])
        assert np.max(np.abs(grid - scalar)) <= 1e-13 * max(1.0, np.max(np.abs(grid)))


class TestTauJetSumGrid:
    XS = (-7.5, -1.3, -0.0, 0.0, 0.4, 2.9, 11.0)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_grid_matches_per_point_reference_bitwise(self, n):
        cfg = S.random_config(np.random.default_rng(100 + n), n=n) if n else SolitonConfig((), ())
        rules = [None]
        if n:
            j = n // 2 + 1
            # exact-zero and negative factors, their product, and a dropped soliton
            rules += [S.eigenfunction_rule(cfg, j), S.pair_rule(cfg, 1, n), S.drop_rule(n, j)]
        for rule in rules:
            for order in range(4):
                grid = S.tau_jet_sums(cfg, [rule], self.XS, order)[0]
                assert grid.coeffs.shape == (len(self.XS), order + 1)
                for p, x in enumerate(self.XS):
                    ref = tau_jet_sum_reference(cfg, rule, x, order)
                    assert_tau_matches_reference(tau_point(grid, p), ref)
                    assert_tau_matches_reference(S.tau_jet_sum(cfg, rule, x, order), ref)
                for lower in range(order):
                    cut = grid.truncate(lower)
                    low = S.tau_jet_sums(cfg, [rule], self.XS, lower)[0]
                    assert np.array_equal(cut.coeffs, low.coeffs)
                    assert np.array_equal(cut.gauge, low.gauge) and np.array_equal(cut.sign, low.sign)

    def test_grid_spanning_several_chunks(self):
        # three rules at order 1 on a grid of several point blocks, one
        # stack: each point against the reference, and each row bitwise
        # equal to its own one-rule call, at order 1 and truncated to 0
        cfg = S.random_config(np.random.default_rng(120), n=10)
        rules = [None, S.eigenfunction_rule(cfg, 4), S.drop_rule(10, 7)]
        step = S._HIROTA_CHUNK // (2 * len(rules) << cfg.n)
        xs = np.linspace(-8.0, 8.0, 2 * step + 3)
        grids = S.tau_jet_sums(cfg, rules, xs, 1)
        assert grids.coeffs.shape == (len(rules), len(xs), 2) and grids.xs.shape == (len(rules), len(xs))
        for r, rule in enumerate(rules):
            for p in (0, step - 1, step, 2 * step, 2 * step + 2):
                assert_tau_matches_reference(tau_point(grids[r], p), tau_jet_sum_reference(cfg, rule, xs[p], 1))
            for order in (1, 0):
                grid, alone = grids[r].truncate(order), S.tau_jet_sums(cfg, [rule], xs, order)[0]
                for a, b in ((grid.coeffs, alone.coeffs), (grid.gauge, alone.gauge), (grid.sign, alone.sign)):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_rows_at_a_lower_order_are_the_one_rule_calls(self, n):
        # one stack at one order: every row truncated to any lower order is
        # bitwise the one-rule call at that order, on a grid and at a point
        cfg = S.random_config(np.random.default_rng(128 + n), n=n) if n else SolitonConfig((), ())
        rules = [None] + ([S.eigenfunction_rule(cfg, 1), S.pair_rule(cfg, 1, n), S.drop_rule(n, n)] if n else [])
        for x in (np.linspace(-4.0, 4.0, 9), 0.3):
            stack = S.tau_jet_sums(cfg, rules, x, 3)
            assert stack.coeffs.shape == (len(rules),) + np.shape(x) + (4,)
            for r, rule in enumerate(rules):
                for order in range(4):
                    row, alone = stack[r].truncate(order), S.tau_jet_sums(cfg, [rule], x, order)
                    assert alone.coeffs.shape == (1,) + np.shape(x) + (order + 1,)
                    for f in ("xs", "coeffs", "gauge", "sign"):
                        assert np.array_equal(getattr(row, f), getattr(alone, f)[0])

    def test_terms_are_memoized_read_only(self):
        # the rule-independent table: pair products and decay rates on k
        key = S.random_config(np.random.default_rng(123), n=5).k
        table = S._jet_sum_table(key)
        assert S._jet_sum_table(key) is table
        for shared, fresh in zip(table, S._jet_sum_table.__wrapped__(key)):
            assert np.array_equal(shared, fresh)
            assert not shared.flags.writeable

    def test_exponentials_are_memoized_on_k_and_grid(self, monkeypatch):
        # e^{-2 k_j x} once per (kept k, grid), held as the two half tables
        # of subset exponentials: equal grids built as separate arrays share
        # one dd.exp, another grid or k misses, and the shared read-only
        # halves are bitwise the unmemoized evaluation
        calls = []
        real = dd.exp

        def counted(xh, xl):
            calls.append(np.shape(xh))
            return real(xh, xl)

        monkeypatch.setattr(dd, "exp", counted)
        S._subset_exps.cache_clear()
        cfg = S.random_config(np.random.default_rng(124), n=5)
        rules = [None, S.eigenfunction_rule(cfg, 2)]
        first = S.tau_jet_sums(cfg, rules, np.linspace(-3.0, 3.0, 11), 2)
        again = S.tau_jet_sums(cfg, rules[:1], list(np.linspace(-3.0, 3.0, 11)), 1)
        assert calls == [(11, 5)]
        assert np.array_equal(again[0].coeffs, first[0].coeffs[:, :2])
        S.tau_jet_sums(cfg, [None], np.linspace(-3.0, 3.0, 12), 0)
        S.tau_jet_sums(SolitonConfig(cfg.k[:4], cfg.c[:4]), [None], np.linspace(-3.0, 3.0, 11), 0)
        S.tau_jet_sums(cfg, [S.drop_rule(5, 1)], np.linspace(-3.0, 3.0, 11), 0)  # a soliton left out
        assert calls == [(11, 5), (12, 5), (11, 4), (11, 4)]
        key = (cfg.k, np.linspace(-3.0, 3.0, 11).tobytes())
        low, high = S._subset_exps(*key)
        assert len(calls) == 4
        assert [a.shape for a in low] == [(11, 4)] * 3 and [a.shape for a in high] == [(11, 8)] * 3
        for shared, fresh in zip(low + high, sum(S._subset_exps.__wrapped__(*key), ())):
            assert not shared.flags.writeable
            assert np.array_equal(shared, fresh)

    def test_order_weights_are_memoized_on_k_and_order(self):
        # R_S^q/q!: a higher top order extends the entry below it, row for
        # row bitwise, and the shared arrays are read-only
        key = S.random_config(np.random.default_rng(125), n=4).k
        S._order_weights.cache_clear()
        wh, wl = S._order_weights(key, 3)
        assert S._order_weights.cache_info().currsize == 4  # tops 0..3
        assert S._order_weights(key, 3)[0] is wh and wh.shape == (4, 16)
        low = S._order_weights(key, 1)
        assert np.array_equal(low[0], wh[:2]) and np.array_equal(low[1], wl[:2])
        rh, rl = S._jet_sum_table(key)[3:5]
        assert np.array_equal(wh[0], np.ones(16)) and np.array_equal(wh[1], rh) and np.array_equal(wl[1], rl)
        assert np.allclose(wh[3], rh**3 / 6.0, rtol=1e-15, atol=0.0)
        assert not (wh.flags.writeable or wl.flags.writeable)

    def test_result_is_independent_of_the_memos(self):
        # bitwise the same from cleared memos as after other grids, orders
        # and rule sets on the same k warmed them
        cfg = S.random_config(np.random.default_rng(126), n=7)
        xs = np.linspace(-4.0, 4.0, 31)
        rules = [None, S.eigenfunction_rule(cfg, 3), S.pair_rule(cfg, 2, 5)]

        def run():
            out = S.tau_jet_sums(cfg, rules, xs, 3)
            return [a.tobytes() for a in (out.coeffs, out.gauge, out.sign)]

        def clear():
            for memo in (S._jet_sum_table, S._order_weights, S._subset_exps):
                memo.cache_clear()

        clear()
        cold = run()
        clear()
        S.tau_jet_sums(cfg, [S.drop_rule(7, 2)], np.linspace(-5.0, 5.0, 9), 4)
        S.tau_jet_sums(cfg, [S.deletion_rule(cfg, [1, 4], 2), None], xs[::2], 5)
        S.tau_jet_sums(cfg, [None], list(xs), 0)
        misses = [memo.cache_info().misses for memo in (S._order_weights, S._subset_exps)]
        assert run() == cold
        # the warm run built nothing: its k and grid, and its top order
        assert [memo.cache_info().misses for memo in (S._order_weights, S._subset_exps)] == misses

    def test_exponential_memo_holds_half_tables(self):
        # N = 12 on 2001 points: the entry a call leaves holds [2001, 64]
        # halves, about 6 MB, never the [2001, 4096] table of about 200 MB
        cfg = S.random_config(np.random.default_rng(127), n=12, k_range=(0.2, 6.0))
        xs = S.default_grid(cfg)
        S._subset_exps.cache_clear()
        S.tau_jet_sums(cfg, [None], xs, 0)
        low, high = S._subset_exps(cfg.k, xs.tobytes())
        assert S._subset_exps.cache_info()[:2] == (1, 1)  # (hits, misses): the call's own entry
        assert [a.shape for a in low + high] == [(2001, 64)] * 6
        assert sum(a.nbytes for a in low + high) == 6 * 2001 * 64 * 8

    def test_identity_suite_forms_exponentials_once_per_config(self, monkeypatch):
        # dd.exp, the subset exponentials and the order weights are each
        # built only on a memo miss: once per config and grid, and once per
        # k and top order
        calls = []
        real = dd.exp
        monkeypatch.setattr(dd, "exp", lambda xh, xl: calls.append(1) or real(xh, xl))
        built = {"exps": [], "weights": []}
        for name, memo in (("exps", S._subset_exps), ("weights", S._order_weights)):
            counted = functools.lru_cache(maxsize=memo.cache_info().maxsize)(
                lambda *a, b=memo.__wrapped__, log=built[name]: log.append(a) or b(*a)
            )
            monkeypatch.setattr(S, memo.__name__, counted)
        reports = run_identity_suite(0, 50)
        assert len(reports) == 300 and len(calls) == 50
        assert len(built["exps"]) == 50 == len(set(built["exps"]))
        tops = [key[1] for key in built["weights"]]
        assert len(built["weights"]) == len(set(built["weights"])) and tops.count(0) == 50

    @pytest.mark.parametrize(
        "cfg, xs",
        [
            (SolitonConfig(tuple(1.0 + 0.5 * j for j in range(8)), (1e40,) * 8), None),
            (SolitonConfig((1.0, 1.5, 2.0, 2.5), (1e100,) * 4), None),
            (SolitonConfig(tuple(1.0 + 1e-3 * j for j in range(1, 13)), (1.0,) * 12), [-400.0, -150.0, -100.0]),
            (SolitonConfig((0.1, 0.2), (5e-324, 1.7e308)), [-3000.0, 0.0, 3000.0]),
        ],
        ids=["c1e40", "c1e100", "tight-n12", "c-range-ends"],
    )
    def test_prefactors_beyond_float_range(self, cfg, xs):
        """Prefactors past 1e308 (c_j = 1e40 at N = 8, 1e100 at N = 4) or
        below 1e-308 (66 pair factors ((k_j - k_l)/(k_j + k_l))^2 with k
        1e-3 apart) are carried as mantissa times 2^pe, and c_j/(2 k_j) at
        either end of float64's range as logs in the bilinear sum; both
        routes gave NaN. Measured 2.3e-16 relative to max(1, |ref|)."""
        xs = S.default_grid(cfg, 11) if xs is None else np.array(xs)
        grid = S.tau_jet_sums(cfg, [None], xs, 2)[0]
        ref, sign = S.tau_hirota_grid(cfg, None, xs)
        assert np.all(np.isfinite(grid.coeffs)) and np.array_equal(grid.sign, sign)
        assert np.all(np.abs(grid.log_abs - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_budget(self):
        cfg = S.random_config(np.random.default_rng(121), n=13, k_range=(0.2, 8.0))
        with pytest.raises(RangeError, match="N=13"):
            S.tau_jet_sums(cfg, [None], [0.0], 0)[0]


def mp_jet_sums(k, ces, xs, order, dps=40):
    """For each row of effective norming constants ces, [points, order +
    3]: log|tau|, its sign and the normalized jets tau^(q)/(q! tau), q =
    0..order, of the 2^N signed exponential sum, every term kept, at dps
    digits from the float data as given."""
    with mpmath.workdps(dps):
        k = [mpmath.mpf(v) for v in k]
        rate, pair = [mpmath.mpf(0)], [mpmath.mpf(1)]
        for j, kj in enumerate(k):
            cross = [mpmath.mpf(1)]  # pair factors with the solitons below j
            for kl in k[:j]:
                cross += [v * ((kl - kj) / (kl + kj)) ** 2 for v in cross]
            pair += [p * v for p, v in zip(pair, cross)]
            rate += [r - 2 * kj for r in rate]
        powers = [[r**q / math.factorial(q) for r in rate] for q in range(order + 1)]
        exps = [[mpmath.exp(r * mpmath.mpf(x)) for r in rate] for x in xs]
        out = []
        for ce in ces:
            w = [mpmath.mpf(1)]
            for kj, cj in zip(k, ce):
                w += [v * mpmath.mpf(cj) / (2 * kj) for v in w]
            w = [a * b for a, b in zip(w, pair)]
            rows = []
            for e in exps:
                terms = [a * b for a, b in zip(w, e)]
                sums = [mpmath.fdot(terms, pw) for pw in powers]
                rows.append([float(mpmath.log(abs(sums[0]))), float(mpmath.sign(sums[0]))]
                            + [float(v / sums[0]) for v in sums])
            out.append(np.array(rows))
    return out


JET_SUM_CASES = {
    "n1": lambda: SolitonConfig((1.2,), (2.5,)),
    "n4": lambda: S.random_config(np.random.default_rng(140), n=4, k_range=(0.2, 6.0)),
    "n8-gap1e-6": lambda: tight_gap_config(141, 8, 1e-6),
    "n12": lambda: S.random_config(np.random.default_rng(142), n=12, k_range=(0.2, 6.0)),
}


class TestTauJetSums:
    XS = np.array([-400.0, -2.1, -0.3, 0.0, 1.7, 400.0])

    @pytest.mark.parametrize("name", JET_SUM_CASES)
    def test_matches_mpmath_sum(self, name):
        """Six signed and unsigned rules at order 3 in one call against the
        40-digit sum, out to x = +-400, where the terms span e^+-30000.
        rescale_rule(n, j, 1e-300) puts its rule's top term e^-690.8 below
        the config's tau at x = -400, and the normalized coefficients of
        its tau reach 1e-298 at N = 1; every rule is bitwise its own
        one-rule call. Measured: log|tau| to 2.1e-16 of max(1, |ref|),
        bound 2.2e-15; every coefficient the correctly rounded reference
        (zeros exact), bound 1 ulp."""
        cfg = JET_SUM_CASES[name]()
        n, j = cfg.n, (cfg.n + 1) // 2
        rules = [None, S.eigenfunction_rule(cfg, j), S.pair_rule(cfg, 1, n), S.deletion_rule(cfg, {1, n}, 2),
                 S.drop_rule(n, j), S.rescale_rule(n, j, 1e-300)]
        grids = S.tau_jet_sums(cfg, rules, self.XS, 3)
        assert grids[0].gauge[0] - grids[-1].gauge[0] > 690.0
        refs = mp_jet_sums(cfg.k, [cfg.c if rule is None else rule.apply(cfg) for rule in rules], self.XS, 3)
        for rule, grid, ref in zip(rules, grids, refs):
            assert np.array_equal(grid.sign, ref[:, 1])
            assert np.all(np.abs(grid.gauge - ref[:, 0]) <= 2.2e-15 * np.maximum(1.0, np.abs(ref[:, 0])))
            assert np.all(np.abs(grid.coeffs - ref[:, 2:]) <= 2.0**-52 * np.abs(ref[:, 2:]))
            alone = S.tau_jet_sums(cfg, [rule], self.XS, 3)[0]
            for a, b in ((grid.coeffs, alone.coeffs), (grid.gauge, alone.gauge), (grid.sign, alone.sign)):
                assert np.array_equal(a, b)


class TestTauRatio:
    @pytest.mark.parametrize("rate", [0.0, -1.7, 2.3])
    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_over_itself_is_the_exponential(self, rate, order):
        cfg = S.random_config(np.random.default_rng(130), n=4)
        xs = np.linspace(-4.0, 4.0, 9)
        g = S.tau_jet_sums(cfg, [None], xs, order)[0]
        r = g.over(g, rate)
        assert np.array_equal(r.coeffs, jet_exp(rate, xs, order, unit=True).coeffs)
        assert np.array_equal(r.gauge, rate * xs) and np.array_equal(r.sign, np.ones(len(xs)))

    def test_values_beyond_float_range_is_range_error(self):
        # e^gauge overflows past log(DBL_MAX) ~ 709.78; the error names the point
        xs = np.array([-1.0, 0.25, 2.0])
        g = S.TauGrid(xs, np.ones((3, 2)), np.array([0.0, 709.5, 710.0]), np.ones(3))
        with pytest.raises(RangeError, match="x=2.0"):
            g.values()
        ok = S.TauGrid(xs[:2], g.coeffs[:2], g.gauge[:2], -g.sign[:2]).values()
        assert np.array_equal(ok.value, [-1.0, -math.exp(709.5)])


    def test_over_a_vanishing_denominator_names_the_point(self):
        xs = np.array([-1.0, 0.5, 2.0])
        num = S.TauGrid(xs, np.ones((3, 2)), np.zeros(3), np.ones(3))
        den = S.TauGrid(xs, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.zeros(3), np.ones(3))
        with pytest.raises(SingularJetError, match="x=0.5"):
            num[None].over(den)
        with pytest.raises(JetMismatchError):
            num.over(num.truncate(0))

    def test_over_a_stack_is_over_each_row(self):
        cfg = S.random_config(np.random.default_rng(131), n=4)
        xs = np.linspace(-4.0, 4.0, 9)
        taus = S.tau_jet_sums(cfg, [None] + [S.eigenfunction_rule(cfg, j) for j in (1, 3)], xs, 2)
        rates = np.array([[-0.5], [1.25]])
        stack = taus[1:].over(taus[0], rates)
        for row, rate in zip(range(2), rates[:, 0]):
            alone = taus[1 + row].over(taus[0], rate)
            for f in ("coeffs", "gauge", "sign"):
                assert np.array_equal(getattr(stack[row], f), getattr(alone, f))


class TestDomain:
    @pytest.mark.parametrize("seed", range(5))
    def test_cores_near_the_origin_keep_the_base_width(self, seed):
        # random_config draws have |x_j| <= 2.4/k_j, well inside 10/k_1
        cfg = S.random_config(np.random.default_rng(seed))
        assert S.core_halfwidth(cfg, 10.0) == 10.0 / cfg.k[0]
        assert np.array_equal(S.default_grid(cfg, 11), np.linspace(-10.0 / cfg.k[0], 10.0 / cfg.k[0], 11))

    @pytest.mark.parametrize("k, c", [((1.0,), (1e30,)), ((0.7, 1.3), (1e-25, 1.0))])
    def test_far_cores_widen_the_domain(self, k, c):
        # free centres near x = 34.2 and x = -41.4, beyond 10/k_1
        cfg = SolitonConfig(k, c)
        centre = [math.log(cj / (2.0 * kj)) / (2.0 * kj) for kj, cj in zip(k, c)]
        half = S.core_halfwidth(cfg, 10.0)
        assert half == pytest.approx(max(abs(x0) + 6.0 / kj for x0, kj in zip(centre, k)), rel=1e-15)
        xs = S.default_grid(cfg)
        assert xs[-1] == half
        # the far well, of depth -2 k_j^2, is on the grid
        j = int(np.argmax(np.abs(centre)))
        near = np.abs(xs - centre[j]) < 3.0 / k[j]
        assert np.min(S.potential_fn(cfg)(xs[near])) < -1.9 * k[j] ** 2

    def test_the_flowed_centre_counts(self):
        # t_3 = 10 moves the soliton from x = 0 to x = 4 k^2 t = 40
        cfg = SolitonConfig((1.0,), (2.0,), {3: 10.0})
        assert S.core_halfwidth(cfg, 10.0) == pytest.approx(46.0, rel=1e-12)
        assert S.core_halfwidth(SolitonConfig((), ()), 10.0) == 10.0


class TestPotential:
    def test_sech2_n2_at_origin(self):
        assert S.potential(SolitonConfig((1.0, 2.0), (6.0, 12.0)), 0.0) == pytest.approx(-6.0)

    def test_single_soliton_closed_form(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        assert S.potential(cfg, 0.0) == pytest.approx(-2.0)
        for x in np.linspace(-5, 5, 11):
            assert S.potential(cfg, float(x)) == pytest.approx(-2.0 / math.cosh(x) ** 2, abs=1e-12)

    def test_vanishes_at_infinity(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            cfg = S.random_config(rng)
            for x in (-30.0 / cfg.k[0], 30.0 / cfg.k[0]):
                assert abs(S.potential(cfg, x)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sech2_reduction(self, n):
        cfg = sech2_config(n)
        for x in np.linspace(-8, 8, 33):
            u = S.potential(cfg, float(x))
            assert abs(u + n * (n + 1) / math.cosh(x) ** 2) < 1e-10

    def test_everywhere_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            cfg = S.random_config(rng)
            xs = S.default_grid(cfg, 101)
            assert np.all(S.potential_fn(cfg)(xs) < 0.0)

    def test_potential_fn_matches_pointwise(self):
        rng = np.random.default_rng(11)
        cfg = S.random_config(rng, n=5)
        xs = S.default_grid(cfg, 41)
        fast = S.potential_fn(cfg)(xs)
        slow = -2.0 * jet_log_d2(S.tau_jet_sums(cfg, [None], xs, 2)[0].jet)
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_potential_jet_matches_fd(self):
        rng = np.random.default_rng(12)
        cfg = S.random_config(rng, n=3)
        x0, h = 0.6, 1e-5
        uj = S.potential_jet(cfg, x0, 1)
        fd = (S.potential(cfg, x0 + h) - S.potential(cfg, x0 - h)) / (2 * h)
        assert uj.deriv(1) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("order", [-1, -3])
    def test_negative_jet_order_is_config_error(self, order):
        with pytest.raises(ConfigError):
            S.potential_jet(SolitonConfig((1.0,), (2.0,)), 0.0, order)

    def test_jet_and_dt_beyond_n12_match_mpmath_determinant(self):
        """potential_jet(., 3) and dt_potential at N = 13 against a 60-digit
        determinant on 5 points of [-8/k_1, 8/k_1], relative to
        max(1, |ref|): measured 7.4e-14."""
        cfg = S.random_config(np.random.default_rng(13), n=13, k_range=(0.2, 6.0))
        for x in np.linspace(-8.0 / cfg.k[0], 8.0 / cfg.k[0], 5):
            with mpmath.workdps(60):
                _, _, d2, d3, d4, d5 = mpmath.diffs(lambda y: mp_log_tau(cfg.k, cfg.c, y), x, 5)
                dt = mpmath.diff(lambda y, t: mp_log_tau(cfg.k, cfg.c, y, t), (x, 0), (2, 1))
            ref = -2.0 * np.array([float(v) for v in (d2, d3, d4 / 2, d5 / 6, dt)])
            got = np.append(S.potential_jet(cfg, float(x), 3).coeffs, S.dt_potential(cfg, float(x)))
            assert np.all(np.abs(got - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))

    def test_gauge_invariance_n1(self):
        # scaling c by e^{2kd} equals translating x by d
        k, c, d = 1.3, 0.7, 0.9
        a = S.potential(SolitonConfig((k,), (c * math.exp(2 * k * d),)), 0.4)
        b = S.potential(SolitonConfig((k,), (c,)), 0.4 - d)
        assert a == pytest.approx(b, abs=1e-12)


def mp_log_tau(k, c, x, t=0):
    """log det(delta_mn + c_m e^{8 k_m^3 t} e^{-(k_m+k_n)x}/(k_m+k_n)) at
    the working precision of mpmath, from the float data as given."""
    k = [mpmath.mpf(v) for v in k]
    c = [mpmath.mpf(v) * mpmath.exp(8 * km**3 * t) for v, km in zip(c, k)]
    n = len(k)
    a = mpmath.matrix(n, n)
    for m in range(n):
        for l in range(n):
            a[m, l] = (m == l) + c[m] * mpmath.exp(-(k[m] + k[l]) * x) / (k[m] + k[l])
    return mpmath.log(mpmath.det(a))


def mp_hirota(k, c, xs, dps=40):
    """[points, 2] array of (log tau, U) from the 2^N positive Hirota terms
    at dps digits, from the float data as given. A float64 screen leaves
    out the terms below e^-80 of the largest: all 2^N of them sum below
    1e-29 of tau for N <= 16."""
    with mpmath.workdps(dps):
        k = [mpmath.mpf(v) for v in k]
        logw = np.array([mpmath.mpf(0)], dtype=object)
        rate = np.array([mpmath.mpf(0)], dtype=object)
        for j, (kj, cj) in enumerate(zip(k, c)):
            cross = np.array([mpmath.mpf(0)], dtype=object)  # pair logs with the solitons below j
            for kl in k[:j]:
                cross = np.concatenate([cross, cross + 2 * mpmath.log(abs((kl - kj) / (kl + kj)))])
            logw = np.concatenate([logw, logw + (mpmath.log(mpmath.mpf(cj) / (2 * kj)) + cross)])
            rate = np.concatenate([rate, rate - 2 * kj])
        screen_w, screen_r = logw.astype(float), rate.astype(float)
        out = []
        for x in xs:
            approx = screen_w + screen_r * x
            keep = np.flatnonzero(approx > approx.max() - 80.0)
            logs = logw[keep] + rate[keep] * mpmath.mpf(x)
            top = max(logs)
            w = [mpmath.exp(v - top) for v in logs]
            r = rate[keep]
            s0, s1, s2 = mpmath.fsum(w), mpmath.fdot(w, r), mpmath.fdot(w, r * r)
            out.append((float(top + mpmath.log(s0)), float(-2 * (s2 / s0 - (s1 / s0) ** 2))))
    return np.array(out)


def tight_gap_config(seed, n, gap):
    """random_config draw of n - 1 solitons with one more wavenumber
    inserted at `gap` above a drawn one (below random_config's min_gap)."""
    rng = np.random.default_rng(seed)
    base = S.random_config(rng, n=n - 1)
    i = int(rng.integers(0, n - 1))
    k, c = list(base.k), list(base.c)
    k.insert(i + 1, k[i] + gap)
    c.insert(i + 1, float(rng.uniform(0.1, 10.0)))
    return SolitonConfig(tuple(k), tuple(c))


def nth_draw(seed, count, **kwargs):
    """The count-th random_config draw from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cfg = S.random_config(rng, **kwargs)
    return cfg


N8_DRAW = nth_draw(0, 24, n_range=(1, 8))


class TestNearDegenerate:
    @pytest.mark.parametrize(
        "k, c",
        [
            ((1.0, 1.0 + 1e-6, 2.0), (1.0, 1.0, 1.0)),
            ((1.0, 1.0 + 1e-8, 1.5, 3.0), (2.0, 0.5, 1.0, 4.0)),
            (N8_DRAW.k, N8_DRAW.c),
        ],
    )
    def test_scalar_potentials_match_mpmath_determinant(self, k, c):
        """U, the order-5 jet of U and dU/dt against derivatives of log tau
        from a 40-digit determinant, on 9 points of [-10, 10]. Up to order
        3 and in dU/dt measured at most 4.4e-12 (the flat 2^N table that the
        bilinear core replaced: 8.1e-12 in the same run); the jet-quotient
        route that once served potential_jet was 5.3e-11 off in U' and
        3.7e-8 in the order-3 coefficient. The order-4 and -5 coefficients,
        which reach 873, measured at most 4.7e-14 relative to
        max(1, |ref|)."""
        cfg = SolitonConfig(k, c)
        for x in np.linspace(-10.0, 10.0, 9):
            with mpmath.workdps(40):
                d = list(mpmath.diffs(lambda y: mp_log_tau(k, c, y), x, 7))
                dt = mpmath.diff(lambda y, t: mp_log_tau(k, c, y, t), (x, 0), (2, 1))
            want = -2.0 * np.array([float(v / mpmath.factorial(n - 2)) for n, v in enumerate(d) if n >= 2])
            got = S.potential_jet(cfg, float(x), 5).coeffs
            assert abs(S.potential(cfg, float(x)) - want[0]) < 1e-11
            assert np.max(np.abs(got[:4] - want[:4])) < 1e-11
            assert np.all(np.abs(got[4:] - want[4:]) <= 1e-11 * np.maximum(1.0, np.abs(want[4:])))
            assert abs(S.dt_potential(cfg, float(x)) + 2.0 * float(dt)) < 1e-11

    @pytest.mark.parametrize(
        "k, c",
        [((1.0, 1.0 + 1e-6, 2.0), (1.0, 1.0, 1.0)), ((1.0, 1.0 + 1e-8, 1.5, 3.0), (2.0, 0.5, 1.0, 4.0))],
    )
    def test_logdet_matches_mpmath_determinant(self, k, c):
        """tau_logdet_grid against a 60-digit determinant on 21 points of
        [-10, 10]: measured 3.6e-15 and 1.4e-14; bound 1e-13."""
        xs = np.linspace(-10.0, 10.0, 21)
        ld, sd = S.tau_logdet_grid(SolitonConfig(k, c), None, xs)
        with mpmath.workdps(60):
            ref = np.array([float(mp_log_tau(k, c, x)) for x in xs])
        assert np.all(sd == 1.0)
        assert np.max(np.abs(ld - ref)) < 1e-13

    @given(st.integers(0, 2**31), st.integers(2, 6), st.floats(2.0, 8.0))
    @settings(max_examples=60, deadline=None)
    def test_tight_gap_potential_routes_agree(self, seed, n, u):
        """potential_fn and potential_jet's U' against -2 (log tau)'' and
        -12 l_3 from the double-double jet sum, with a pair at gap 10^-u,
        relative to max(1, max |U|) and max(1, max |U'|) on 41 points. l_3
        = t_3 - t_1 t_2 + t_1^3/3 is the cubic coefficient of log tau, from
        the normalized tau jet t. Bounds 1e-12 and 2e-11; measured worst
        over 300 draws 8.1e-14 in U and 1.5e-12 in U' (the flat 2^N table
        that the bilinear core replaced gave the same 1.5e-12)."""
        cfg = tight_gap_config(seed, n, 10.0**-u)
        xs = S.default_grid(cfg, 41)
        fast = S.potential_fn(cfg)(xs)
        tau = S.tau_jet_sums(cfg, [None], xs, 3)[0]
        jet_sum = -2.0 * jet_log_d2(tau.truncate(2).jet)
        assert np.max(np.abs(fast - jet_sum)) <= 1e-12 * max(1.0, float(np.max(np.abs(fast))))
        _, t1, t2, t3 = tau.coeffs.T
        slope = np.array([S.potential_jet(cfg, float(x), 1).coeffs[1] for x in xs])
        want = -12.0 * (t3 - t1 * t2 + t1**3 / 3.0)
        assert np.max(np.abs(slope - want)) <= 2e-11 * max(1.0, float(np.max(np.abs(slope))))


class TestEigenfunctions:
    def test_n1_closed_form(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        assert S.eigenfunction(cfg, 1, 0.0, 0).coeffs[0] == pytest.approx(0.5)
        for x in np.linspace(-4, 4, 9):
            phi = S.eigenfunction(cfg, 1, float(x), 0).coeffs[0]
            assert phi == pytest.approx(0.5 / math.cosh(x), abs=1e-13)

    def test_asymptote(self):
        rng = np.random.default_rng(13)
        cfg = S.random_config(rng, n=3)
        x = 25.0 / cfg.k[0]
        for j in (1, 2, 3):
            phi = S.eigenfunction(cfg, j, x, 0).coeffs[0]
            assert phi * math.exp(cfg.k[j - 1] * x) == pytest.approx(1.0, abs=1e-9)

    def test_ground_state_positive(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            cfg = S.random_config(rng)
            for x in np.linspace(-10 / cfg.k[0], 10 / cfg.k[0], 21):
                assert S.eigenfunction(cfg, cfg.n, float(x), 0).coeffs[0] > 0.0

    def test_schrodinger_residual(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            cfg = S.random_config(rng, n_range=(1, 5))
            for x in np.linspace(-6 / cfg.k[0], 6 / cfg.k[0], 13):
                u = S.potential(cfg, float(x))
                for j in range(1, cfg.n + 1):
                    jet = S.eigenfunction(cfg, j, float(x), 2)
                    phi = jet.coeffs[0]
                    res = -jet.deriv(2) + (u + cfg.k[j - 1] ** 2) * phi
                    assert abs(res) <= 1e-9 * max(abs(phi), 1e-3)

    @pytest.mark.parametrize("x", [0.3, np.linspace(-5.0, 5.0, 11)])
    def test_stacked_build_is_the_one_index_builds(self, x):
        # several indices are one over of one call's stack, in the order
        # given; each row is bitwise the one-index build from that call, the
        # row of eigenfunctions and, as true jets, eigenfunction
        cfg = S.random_config(np.random.default_rng(16), n=5)
        idx = [4, 1, 3]
        taus = S.tau_jet_sums(cfg, [None] + [S.eigenfunction_rule(cfg, j) for j in idx], x, 2)
        stack = S.eigenfunction_grid(cfg, idx, taus[0], taus[1:])
        assert stack.coeffs.shape == (3,) + np.shape(x) + (3,) and stack.gauge.shape == (3,) + np.shape(x)
        fields = ("xs", "coeffs", "gauge", "sign")
        for r, j in enumerate(idx):
            one = S.eigenfunction_grid(cfg, [j], taus[0], taus[1 + r : 2 + r])[0]
            for other in (one, S.eigenfunctions(cfg, idx, x, 2)[r], S.eigenfunctions(cfg, [j], x, 2)[0]):
                assert all(np.array_equal(getattr(stack[r], f), getattr(other, f)) for f in fields)
            assert np.array_equal(stack[r].values().coeffs, S.eigenfunction(cfg, j, x, 2).coeffs)


class TestFlows:
    def test_zero_times_unchanged(self):
        cfg = SolitonConfig((1.0,), (2.0,), times={3: 0.0})
        assert cfg.flowed().c == (2.0,)

    def test_t3_flow(self):
        cfg = SolitonConfig((1.0,), (2.0,), times={3: 0.1})
        assert cfg.flowed().c[0] == pytest.approx(2.0 * math.exp(0.8))

    def test_t5_flow(self):
        cfg = SolitonConfig((1.0,), (1.0,), times={5: 0.01})
        assert cfg.flowed().c[0] == pytest.approx(math.exp(0.32))

    def test_flow_overflow(self):
        # t = -10 would make c underflow to 0 instead
        for t in (10.0, -10.0):
            cfg = SolitonConfig((4.0,), (1.0,), times={3: t})
            with pytest.raises(RangeError):
                cfg.flowed()

    def test_advanced_adds_to_t3_and_keeps_the_rest(self):
        cfg = SolitonConfig((1.0, 2.0), (1.0, 3.0), {3: 0.25, 5: -0.01})
        assert cfg.advanced(0.5) == SolitonConfig(cfg.k, cfg.c, {3: 0.75, 5: -0.01})
        assert cfg.advanced(np.float64(0.5)) == cfg.advanced(0.5)
        assert SolitonConfig(cfg.k, cfg.c).advanced(-0.5).times == {3: -0.5}
        assert cfg.times == {3: 0.25, 5: -0.01}

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "0.5", True], ids=repr)
    def test_advanced_refuses_a_non_finite_t(self, t):
        with pytest.raises(ConfigError):
            SolitonConfig((1.0,), (2.0,)).advanced(t)

    def test_dt_potential_trivial(self):
        assert S.dt_potential(SolitonConfig((), ()), 0.3) == 0.0

    @pytest.mark.parametrize("n", [1, 3])
    def test_dt_potential_vs_fd(self, n):
        rng = np.random.default_rng(16 + n)
        cfg = S.random_config(rng, n=n, k_range=(0.3, 2.0))
        h = 1e-5
        for x in (-1.2, 0.0, 0.8):
            up = S.potential(SolitonConfig(cfg.k, cfg.c, {3: h}), x)
            dn = S.potential(SolitonConfig(cfg.k, cfg.c, {3: -h}), x)
            # centered-difference truncation ~ h^2 (8k^3)^3 U limits the match
            assert S.dt_potential(cfg, x) == pytest.approx((up - dn) / (2 * h), abs=1e-7, rel=1e-7)


class TestRandomConfig:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_always_valid(self, seed):
        rng = np.random.default_rng(seed)
        cfg = S.random_config(rng)
        assert 1 <= cfg.n <= 6
        assert all(b - a >= 0.3 for a, b in zip(cfg.k, cfg.k[1:]))
        assert all(0.2 <= k <= 4.0 for k in cfg.k)
        assert all(0.1 <= c <= 10.0 for c in cfg.c)
