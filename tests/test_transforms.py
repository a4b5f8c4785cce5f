"""Tests for the deformation schemes and the generic engines."""

import math

import numpy as np
import pytest

from solitonlab import identities as I, numerics, solitons as S, transforms as T
from solitonlab.solitons import ConfigError, SolitonConfig


class TestClosedFormRewrites:
    def test_darboux_ground_sech2(self):
        res = T.darboux_ground(SolitonConfig((1.0, 2.0), (6.0, 12.0)))
        assert res.after_k == (1.0,)
        assert res.after_c == pytest.approx((2.0,))
        assert res.scheme == "darboux_ground"

    def test_darboux_ground_to_trivial(self):
        res = T.darboux_ground(SolitonConfig((1.0,), (2.0,)))
        assert res.after.n == 0
        assert S.potential(res.after, 0.7) == 0.0

    def test_darboux_ground_n3(self):
        res = T.darboux_ground(SolitonConfig((1.0, 2.0, 3.0), (1.0, 1.0, 1.0)))
        assert res.after_c == pytest.approx((0.5, 0.2))

    def test_darboux_ground_trivial_raises(self):
        with pytest.raises(ConfigError):
            T.darboux_ground(SolitonConfig((), ()))

    def test_krein_adler_check(self):
        assert not T.krein_adler_check(2, [1])
        assert T.krein_adler_check(2, [1, 2])
        assert T.krein_adler_check(4, [2, 3])
        assert not T.krein_adler_check(4, [2, 4])

    def test_krein_adler_single_ground(self):
        res = T.krein_adler_delete(SolitonConfig((1.0, 2.0), (3.0, 1.0)), [2])
        assert res.after_c == pytest.approx((1.0,))

    def test_krein_adler_delete_all(self):
        res = T.krein_adler_delete(SolitonConfig((1.0, 2.0), (1.0, 1.0)), [1, 2])
        assert res.after.n == 0

    def test_krein_adler_pair(self):
        res = T.krein_adler_delete(SolitonConfig((1.0, 2.0, 3.0), (1.0, 1.0, 1.0)), [2, 3])
        assert res.after_c == pytest.approx((1.0 / 6.0,))

    def test_krein_adler_condition_enforced(self):
        cfg = SolitonConfig((1.0, 2.0), (1.0, 1.0))
        with pytest.raises(ConfigError, match="m=2"):
            T.krein_adler_delete(cfg, [1])
        res = T.krein_adler_delete(cfg, [1], unsafe=True)
        assert not res.is_regular
        with pytest.raises(ConfigError):
            res.after

    def test_am_delete_any_set(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        assert T.am_delete(cfg, [2]).after_c == pytest.approx((6.0 / 9.0,))
        assert T.am_delete(cfg, [1]).after_c == pytest.approx((12.0 / 9.0,))
        assert T.am_delete(cfg, [1, 2]).after.n == 0

    def test_am_add_rescale(self):
        cfg = SolitonConfig((1.0, 2.0), (4.0, 10.0))
        res = T.am_add(cfg, {1: 3.0})
        assert res.after_c == pytest.approx((3.0, 10.0))
        assert res.after_k == cfg.k
        res = T.am_add(cfg, {2: 1.0})
        assert res.after_c == pytest.approx((4.0, 5.0))

    def test_am_add_large_e_limit(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        res = T.am_add(cfg, {1: 1e12})
        assert abs(res.after_c[0] - 2.0) < 1e-11

    def test_am_add_validation(self):
        from solitonlab.identities import verify_addition_determinant

        cfg = SolitonConfig((1.0,), (2.0,))
        with pytest.raises(ConfigError):
            T.am_add(cfg, {1: -1.0})
        with pytest.raises(ConfigError):
            T.am_add(cfg, {2: 1.0})
        # e must be finite too: e/(e + 1) of inf is NaN
        for e in (0.0, math.nan, math.inf, float("1e400")):
            with pytest.raises(ConfigError):
                T.am_add(cfg, {1: e})
            with pytest.raises(ConfigError):
                T.generic_am(cfg, [1], "add", [e], x=0.3)
            with pytest.raises(ConfigError):
                verify_addition_determinant(cfg, [1], [e], np.linspace(-1.0, 1.0, 5))

    def test_deletion_commutes(self):
        rng = np.random.default_rng(21)
        cfg = S.random_config(rng, n=5)
        step1 = T.am_delete(cfg, [2])
        step2 = T.am_delete(step1.after, [3])  # index 4 of the original
        joint = T.am_delete(cfg, [2, 4])
        assert step2.after_k == joint.after_k
        assert np.max(np.abs(np.array(step2.after_c) - joint.after_c)) < 1e-13


class TestWronskian:
    def test_single_function(self):
        f = T.free_seed(1.0, 0.0)
        w = T.wronskian([f], 0.3, 2)
        assert np.allclose(w.coeffs, f(0.3, 2).coeffs)

    def test_two_exponentials(self):
        # W[e^{ax}, e^{bx}] = (b - a) e^{(a+b)x}
        from solitonlab.jets import jet_exp

        a, b, x = 0.7, 1.9, 0.4
        fa = lambda xx, order: jet_exp(a, xx, order)
        fb = lambda xx, order: jet_exp(b, xx, order)
        w = T.wronskian([fa, fb], x, 0)
        assert w.coeffs[0] == pytest.approx((b - a) * math.exp((a + b) * x), rel=1e-13)

    def test_three_exponentials_vandermonde(self):
        from solitonlab.jets import jet_exp

        fns = [lambda xx, order, a=a: jet_exp(a, xx, order) for a in (1.0, 2.0, 3.0)]
        w = T.wronskian(fns, 0.0, 0)
        assert w.coeffs[0] == pytest.approx(2.0, rel=1e-12)

    def test_empty(self):
        assert T.wronskian([], 0.0, 1).coeffs[0] == 1.0

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["bound", "free", "plane_wave"])
    def test_grid_equals_per_point_loop(self, kind, order):
        # each seed is evaluated once over the grid and the determinant is
        # one batched LU at every size
        cfg = S.random_config(np.random.default_rng(26), n=4)
        xs = np.linspace(-3.0, 2.0, 7)
        if kind == "bound":
            seeds = T.eigenfunction_seeds(cfg, [1, 2, 3, 4])
        elif kind == "free":
            seeds = [T.free_seed(kj, (-1.0) ** j * (0.5 + j)) for j, kj in enumerate(cfg.k)]
        else:
            seeds = [T.plane_wave_seed(kj) for kj in cfg.k]
        for m in range(1, 5):
            w = T.wronskian(seeds[:m], xs, order)
            assert w.coeffs.shape == (len(xs), order + 1)
            for p, x in enumerate(xs):
                assert np.array_equal(w.coeffs[p], T.wronskian(seeds[:m], float(x), order).coeffs)

    def test_seeds_are_evaluated_once(self, grid_tau_calls):
        # the bound states of equal configs share one core call; any other
        # seed, repeated or not, is called once; each gives its gauged jets
        cfg = S.random_config(np.random.default_rng(27), n=4)
        twin = SolitonConfig(cfg.k, cfg.c)
        calls = []
        free = T.free_seed(1.1, 0.5)
        counted = T.SeedFunction(lambda x, order: calls.append(order) or free.evaluator(x, order))
        seeds = [T.eigenfunction_seed(cfg, 2), counted, T.eigenfunction_seed(twin, 4), counted, T.eigenfunction_seed(cfg, 2)]
        jets = T.seed_jets(seeds, np.linspace(-3.0, 2.0, 7), 2)
        assert calls == [2] and jets[1] is jets[3] and jets[0] is jets[4]
        [(rules, orders)] = grid_tau_calls
        assert rules[0] is None and len(rules) == 3 and orders == [2, 2, 2]
        for seed, jet in zip(seeds, jets):
            assert np.array_equal(jet.values().coeffs, seed(np.linspace(-3.0, 2.0, 7), 2).coeffs)


class TestGenericDarboux:
    def test_no_seeds_is_identity(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        tgt = T.eigenfunction_seed(cfg, 1)
        out = T.generic_darboux([], tgt, 0.5, 1)
        assert np.allclose(out.coeffs, tgt(0.5, 1).coeffs)

    def test_repeated_seed_annihilates(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        seed = T.eigenfunction_seed(cfg, 2)
        out = T.generic_darboux([seed], seed, 0.3, 0)
        assert abs(out.coeffs[0]) < 1e-14

    def test_ground_deletion_matches_closed_form(self):
        rng = np.random.default_rng(22)
        cfg = S.random_config(rng, n=3)
        after = T.darboux_ground(cfg).after
        ufn = S.potential_fn(cfg)
        seeds = [T.eigenfunction_seed(cfg, cfg.n)]
        xs = np.linspace(-8 / cfg.k[0], 8 / cfg.k[0], 11)
        v = T.darboux_potential(seeds, ufn, xs)
        assert v == pytest.approx([S.potential(after, float(x)) for x in xs], abs=1e-9)

    def test_krein_adler_pair_matches_generic(self):
        rng = np.random.default_rng(23)
        cfg = S.random_config(rng, n=4)
        dset = [3, 4]
        after = T.krein_adler_delete(cfg, dset).after
        ufn = S.potential_fn(cfg)
        seeds = T.eigenfunction_seeds(cfg, dset)
        xs = np.linspace(-8 / cfg.k[0], 8 / cfg.k[0], 11)
        v = T.darboux_potential(seeds, ufn, xs)
        assert v == pytest.approx([S.potential(after, float(x)) for x in xs], abs=1e-9)

    def test_grid_equals_per_point_loop(self):
        # one batched Wronskian per call, its sign chosen per point (the base
        # potential is zero here: potential_fn's own grid and one-point calls
        # may sum its matrix products in different orders)
        cfg = S.random_config(np.random.default_rng(29), n=4)
        seeds = T.eigenfunction_seeds(cfg, [2, 3])
        tgt = T.eigenfunction_seed(cfg, 1)
        xs = np.linspace(-8 / cfg.k[0], 8 / cfg.k[0], 9)
        v = T.darboux_potential(seeds, lambda _: 0.0, xs)
        img = T.generic_darboux(seeds, tgt, xs, 2)
        assert v.shape == xs.shape
        for p, x in enumerate(xs):
            assert v[p] == T.darboux_potential(seeds, lambda _: 0.0, float(x))
            assert np.array_equal(img.coeffs[p], T.generic_darboux(seeds, tgt, float(x), 2).coeffs)

    def test_two_dimensional_grid_is_the_flat_grid_reshaped(self):
        # a grid of any shape is evaluated point by point: jets have x's
        # shape, each bitwise the flat grid's reshaped, and the potential
        # has x's shape, as in generic_am; bound and free seeds alike
        cfg = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
        seeds, tgt = T.eigenfunction_seeds(cfg, [1, 2]), T.eigenfunction_seed(cfg, 3)
        x = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        flat = x.ravel()

        def reshaped(got, ref):
            return np.array_equal(got.center, x) and np.array_equal(got.coeffs, ref.coeffs.reshape(x.shape + (-1,)))

        u = S.potential_fn(cfg)
        v = T.darboux_potential(seeds, u, x)
        assert v.shape == x.shape and np.array_equal(v, T.darboux_potential(seeds, u, flat).reshape(x.shape))
        assert np.array_equal(u(x), u(flat).reshape(x.shape))
        free = [T.free_seed(0.8, 1.3), T.free_seed(1.6, -0.9)]
        for fns in (seeds, [*seeds, tgt], free, []):
            assert reshaped(T.wronskian(fns, x, 1), T.wronskian(fns, flat, 1))
        for got, ref in zip(T.seed_jets([*seeds, *free], x, 1), T.seed_jets([*seeds, *free], flat, 1)):
            assert reshaped(got.jet, ref.jet) and np.array_equal(got.gauge, ref.gauge.reshape(x.shape))
        assert reshaped(T.generic_darboux(seeds, tgt, x, 1), T.generic_darboux(seeds, tgt, flat, 1))
        assert reshaped(T.deleted_seed_image(seeds, 0, x, 1), T.deleted_seed_image(seeds, 0, flat, 1))

    @pytest.mark.parametrize("x", [0.3, np.linspace(-3.0, 3.0, 21)])
    @pytest.mark.parametrize("engine", ["generic_darboux", "deleted_seed_image", "darboux_potential", "wronskian"])
    def test_one_core_call_per_engine(self, grid_tau_calls, engine, x):
        # the config's tau and each seed's numerator once, at the order the
        # larger Wronskian of a quotient needs; the target comes from an
        # equal config built separately
        cfg = SolitonConfig((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0))
        seeds, tgt = T.eigenfunction_seeds(cfg, [2, 3]), T.eigenfunction_seed(SolitonConfig(cfg.k, cfg.c), 4)
        calls = {
            "generic_darboux": lambda: T.generic_darboux(seeds, tgt, x, 1),
            "deleted_seed_image": lambda: T.deleted_seed_image(seeds, 0, x, 1),
            "darboux_potential": lambda: T.darboux_potential(seeds, lambda _: 0.0, x),
            "wronskian": lambda: T.wronskian([*seeds, tgt], x, 1),
        }
        calls[engine]()
        [(rules, orders)] = grid_tau_calls
        eig = [tgt.index] if engine in ("generic_darboux", "wronskian") else []
        assert rules == [None] + [S.eigenfunction_rule(cfg, j) for j in [2, 3, *eig]]
        assert orders == [len(seeds) + len(eig) - 1 + (2 if engine == "darboux_potential" else 1)] * len(rules)

    def test_vanishing_wronskian_is_regularity_error(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        seed = T.eigenfunction_seed(cfg, 2)
        with pytest.raises(T.RegularityError):
            T.darboux_potential([seed, seed], S.potential_fn(cfg), np.linspace(-1.0, 1.0, 3))
        with pytest.raises(T.RegularityError):
            T.deleted_seed_image([seed, seed], 0, np.linspace(-1.0, 1.0, 3))

    def test_far_field_underflow_is_not_a_singularity(self):
        # W[phi_3] underflows at |x| >= 400, where the engines raised a
        # RegularityError; in their gauge they agree with the closed-form
        # deletion, and a quotient whose true value overflows is a RangeError
        cfg = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
        after = T.krein_adler_delete(cfg, [3]).after
        xs = np.array([-1000.0, -400.0, 400.0, 1000.0])
        seeds = T.eigenfunction_seeds(cfg, [3])
        v = T.darboux_potential(seeds, S.potential_fn(cfg), xs)
        assert np.max(np.abs(v - S.potential_fn(after)(xs))) < 5e-14
        img = T.generic_darboux(seeds, T.eigenfunction_seed(cfg, 1), xs, 0).value
        ratio = img / S.eigenfunction(after, 1, xs, 0).value
        assert np.max(np.abs(ratio / np.mean(ratio) - 1.0)) < 1e-12
        for x in (-1000.0, 1000.0):
            with pytest.raises(S.RangeError):
                T.deleted_seed_image(T.eigenfunction_seeds(cfg, [1, 3]), 1, x)
        with pytest.raises(T.RegularityError):
            T.darboux_potential([seeds[0], seeds[0]], S.potential_fn(cfg), xs)
        with pytest.raises(T.RegularityError):
            T.deleted_seed_image([seeds[0], seeds[0]], 0, xs)

    def test_deleted_seed_image_solves_new_hamiltonian(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        seeds = T.eigenfunction_seeds(cfg, [2])
        after = T.darboux_ground(cfg).after
        x = 0.4
        img = T.deleted_seed_image(seeds, 0, x, 2)
        u = S.potential(after, x)
        res = -img.deriv(2) + (u + cfg.k[1] ** 2) * img.coeffs[0]
        assert abs(res) < 1e-9 * max(abs(img.coeffs[0]), 1e-3)

    def test_transmission_product_from_free_seeds(self):
        # chaining all free seeds maps a plane wave to one with far-field
        # amplitude ratio prod (ik - k_j)/(ik + k_j)
        k = (0.8, 1.6)
        ctilde = (1.3, -0.9)
        cfg = T.seed_config_from_free(k, ctilde)
        seeds = [T.free_seed(kj, ct) for kj, ct in zip(k, ctilde)]
        kw = 1.1
        target = T.plane_wave_seed(kw)
        xr, xl = 12.0, -12.0
        out_r = T.generic_darboux(seeds, target, xr, 0).coeffs[0]
        out_l = T.generic_darboux(seeds, target, xl, 0).coeffs[0]
        ratio = (out_r * np.exp(-1j * kw * xr)) / (out_l * np.exp(-1j * kw * xl))
        # far-field ratio equals the transmission amplitude product
        assert ratio == pytest.approx(complex(numerics.transmission_product(cfg, kw)), abs=1e-5)


class TestSeedConfigMap:
    def test_n1_map(self):
        cfg = T.seed_config_from_free((1.5,), (2.0,))
        assert cfg.c == pytest.approx((2.0 * 1.5 * 2.0,))

    def test_sign_pattern_enforced(self):
        with pytest.raises(ConfigError):
            T.seed_config_from_free((1.0, 2.0), (1.0, 1.0))

    def test_wronskian_reproduces_potential(self):
        k = (0.9, 1.7, 2.6)
        ctilde = (1.1, -0.6, 2.3)
        cfg = T.seed_config_from_free(k, ctilde)
        seeds = [T.free_seed(kj, ct) for kj, ct in zip(k, ctilde)]
        xs = np.linspace(-3, 3, 7)
        v = T.darboux_potential(seeds, lambda _: 0.0, xs)
        assert v == pytest.approx([S.potential(cfg, float(x)) for x in xs], abs=1e-9)


class TestGenericAM:
    def test_delete_matches_closed_form(self):
        rng = np.random.default_rng(24)
        cfg = S.random_config(rng, n=4)
        for dset in ([2], [1, 3]):
            after = T.am_delete(cfg, dset).after
            xs = np.linspace(-8 / cfg.k[0], 8 / cfg.k[0], 9)
            r = T.generic_am(cfg, dset, "delete", x=xs)
            assert r.potential == pytest.approx([S.potential(after, float(x)) for x in xs], abs=1e-10)

    def test_add_matches_closed_form(self):
        rng = np.random.default_rng(25)
        cfg = S.random_config(rng, n=3)
        e = [2.0, 0.7]
        after = T.am_add(cfg, {1: e[0], 3: e[1]}).after
        xs = np.linspace(-8 / cfg.k[0], 8 / cfg.k[0], 9)
        r = T.generic_am(cfg, [1, 3], "add", e=e, x=xs)
        assert r.potential == pytest.approx([S.potential(after, float(x)) for x in xs], abs=1e-10)

    @pytest.mark.parametrize("mode", ["add", "delete"])
    def test_hierarchy_times_use_the_flowed_c(self, mode):
        # the overlap matrix and the target map use the flowed c; built from
        # the c before the flow, addition is O(1) off wherever t_3 moves c
        cfg = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4), {3: 0.05})
        e = [2.0, 0.7]
        after = (T.am_add(cfg.flowed(), {1: e[0], 3: e[1]}) if mode == "add" else T.am_delete(cfg.flowed(), [1, 3])).after
        xs = np.linspace(-4.0, 4.0, 9)
        r = T.generic_am(cfg, [1, 3], mode, e, 2, xs)
        assert r.potential == pytest.approx([S.potential(after, float(x)) for x in xs], abs=1e-10)
        if mode == "add":  # iso-spectral: phi_2 maps to a multiple of the new phi_2
            ratios = r.target_value / [S.eigenfunction(after, 2, float(x), 0).coeffs[0] for x in xs]
            assert np.std(ratios) / abs(np.mean(ratios)) < 1e-9

    def test_deleted_target_maps_to_new_eigenfunction(self):
        cfg = SolitonConfig((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))
        after = T.am_delete(cfg, [3]).after
        xs = [-1.0, 0.0, 0.7, 1.5]
        r = T.generic_am(cfg, [3], "delete", target=1, x=xs)
        ratios = r.target_value / [S.eigenfunction(after, 1, x, 0).coeffs[0] for x in xs]
        assert np.std(ratios) / abs(np.mean(ratios)) < 1e-9

    def test_binary_darboux_equivalence(self):
        # one addition step equals two chained Darboux steps: first with
        # phi, then with (e + <s,s>)/phi, a solution of the once-
        # transformed Hamiltonian at the same energy
        from solitonlab.identities import inner_tail
        from solitonlab.jets import Jet, jet_log_d2

        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        j, e1 = 2, 1.7
        after = T.am_add(cfg, {j: e1}).after
        phi = T.eigenfunction_seed(cfg, j)

        def second_seed(x, order):
            base = phi(x, order + 1)
            # F(x) = e + <s,s>(x) = e + 1 - c_j * tail(x); F' = c_j phi^2
            fval = e1 + 1.0 - cfg.c[j - 1] * inner_tail(cfg, j, j, x)
            s2 = (base * base) * cfg.c[j - 1]
            coeffs = [fval]
            for n in range(order):
                coeffs.append(s2.coeffs[n] / (n + 1))
            return Jet(float(x), np.array(coeffs)) / base.truncate(order)

        ufn = S.potential_fn(cfg)
        for x in (-1.0, 0.2, 1.1):
            u1 = T.darboux_potential([phi], ufn, x)
            chi = second_seed(x, 2)
            chi = chi if chi.coeffs[0] > 0 else -chi
            u2 = u1 - 2.0 * jet_log_d2(chi)
            assert u2 == pytest.approx(S.potential(after, x), abs=1e-8)

    # target values computed by an earlier implementation, which reached
    # the config tau through one scalar eigenfunction call per seed and
    # formed each of the 2^N exponentials with its own dd.exp; the subset
    # products of N per-soliton exponentials round differently, measured
    # at most 8.9e-16 relative (three of five moved), bound 1e-14
    REFERENCE_TARGETS = [
        ((0.6, 1.3, 2.2), (1.7, 0.4, 5.0), "delete", [1, 3], None, 1, 0.7, "-0x1.e0e5ea553cf36p+0"),
        ((0.6, 1.3, 2.2), (1.7, 0.4, 5.0), "add", [1], [2.0], 3, -1.3, "0x1.7249c2c53673cp-4"),
        ((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0), "add", [1, 4], [1.5, 3.0], 4, 0.0, "0x1.503f702c73198p-2"),
        ((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0), "delete", [2], None, 3, -0.4, "0x1.1d135968db256p-3"),
        ((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0), "delete", [1, 2, 3], None, 2, 0.25, "-0x1.0f7f86e561b01p+4"),
    ]

    @pytest.mark.parametrize("k,c,mode,idx,e,jt,x,expected", REFERENCE_TARGETS)
    def test_target_reuses_the_config_tau(self, grid_tau_calls, k, c, mode, idx, e, jt, x, expected):
        # one core call: the config's own tau (order 2, truncated for the
        # target map), the m(m+1)/2 overlap pairs and the m target-column
        # pairs unless the target is a seed (then the overlap pairs hold
        # them), all at order 2, and one order-0 eigenfunction numerator per
        # distinct index
        cfg = SolitonConfig(k, c)
        r = T.generic_am(cfg, idx, mode, e, jt, x)
        assert r.target_value == pytest.approx(float.fromhex(expected), rel=1e-14, abs=0.0)
        m = len(idx)
        pairs = m * (m + 1) // 2 + (0 if jt in idx else m)
        [(rules, orders)] = grid_tau_calls
        assert len(rules) == 1 + pairs + len({*idx, jt}) and rules[0] is None
        assert orders == [2] * (1 + pairs) + [0] * len({*idx, jt})

    @pytest.mark.parametrize("mode", ["add", "delete"])
    def test_grid_equals_per_point_loop(self, mode):
        # a grid call is bitwise the loop of one-point calls, and its
        # results have the grid's shape
        cfg = SolitonConfig((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0))
        e = [1.5, 3.0, 0.8] if mode == "add" else None
        xs = np.linspace(-3.0, 3.0, 21).reshape(3, 7)
        r = T.generic_am(cfg, [1, 2, 3], mode, e, 4, xs)
        assert r.potential.shape == r.target_value.shape == xs.shape
        for i, x in np.ndenumerate(xs):
            p = T.generic_am(cfg, [1, 2, 3], mode, e, 4, float(x))
            assert p.potential.shape == ()
            assert r.potential[i] == p.potential and r.target_value[i] == p.target_value

    @pytest.mark.parametrize("mode", ["add", "delete"])
    def test_equal_configs_built_separately_are_one_config(self, mode):
        # an equal config built separately gives the same result bitwise, as
        # does any order of the indices, each e staying with its index
        k, c = (0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0)
        e = [1.5, 0.8] if mode == "add" else None
        xs = np.linspace(-3.0, 3.0, 7)
        shared = T.generic_am(SolitonConfig(k, c), [1, 3], mode, e, 2, xs)
        twin = T.generic_am(SolitonConfig(k, c), [3, 1], mode, e and e[::-1], 2, xs)
        assert np.array_equal(shared.potential, twin.potential)
        assert np.array_equal(shared.target_value, twin.target_value)

    #: k = (0.7, 1.3, 2.1), c = (1.5, 3.0, 0.4) over x in [-1000, 1000]
    FAR_CFG = SolitonConfig((0.7, 1.3, 2.1), (1.5, 3.0, 0.4))
    FAR = np.arange(-1000.0, 1001.0, 10.0)
    NEAR = [-100.0, -10.0, 0.0, 10.0, 100.0]

    @pytest.mark.parametrize("dset", [[1, 3], [2, 3], [1, 2, 3]])
    def test_far_field_deletion_is_not_a_singularity(self, dset):
        # each overlap row gauged by its largest entry left far-field rows
        # nearly parallel, so det underflowed: a RegularityError from x =
        # 500, 860 and 370; in the symmetric gauge det tends to a Cauchy
        # determinant and the closed form holds to |x| = 1000
        r = T.generic_am(self.FAR_CFG, dset, "delete", x=self.FAR)
        closed = S.potential_fn(T.am_delete(self.FAR_CFG, dset).after)(self.FAR)
        assert np.max(np.abs(r.potential - closed)) < 1e-11
        assert I.verify_deletion_determinant(self.FAR_CFG, dset, self.FAR).passed

    # target values of the row-gauged overlap matrix at NEAR; the
    # symmetric gauge moved them by at most 6.0e-13 relative on |x| <= 100
    NEAR_TARGETS = [
        ([3], 1, ["0x1.915ddefffab2ap-99", "0x1.73d580cbb6bf0p-8", "-0x1.78a8170c94221p-2",
                  "-0x1.de16b2c7c39fcp-12", "-0x1.02057d1245ceep-102"]),
        ([2, 3], 1, ["0x1.915ddefffab2ap-99", "0x1.73d580d2eba55p-8", "0x1.2bf7f712865c6p-3",
                     "0x1.1eda6f1419f18p-13", "0x1.35a02faf7c840p-104"]),
        ([1, 3], 2, ["-0x1.0c48f197088e7p-184", "-0x1.d1992b2234719p-16", "-0x1.1f7a0486941a4p-4",
                     "-0x1.56a30131e3e50p-23", "-0x1.8add7abe173e0p-192"]),
    ]

    @pytest.mark.parametrize("dset,jt,expected", NEAR_TARGETS)
    def test_far_field_targets_are_finite(self, dset, jt, expected):
        # [3] -> 1 raised a false RangeError from x = 510
        assert np.isfinite(T.generic_am(self.FAR_CFG, dset, "delete", target=jt, x=self.FAR).target_value).all()
        near = T.generic_am(self.FAR_CFG, dset, "delete", target=jt, x=self.NEAR).target_value
        assert near == pytest.approx([float.fromhex(v) for v in expected], rel=1e-11, abs=0.0)

    def test_overflowing_deleted_target_is_a_range_error(self):
        # the deleted phi_3 maps to a state growing as e^{k_3 x}: a silent
        # NaN from x = 170 in the row gauge; finite wherever its true value
        # is (5.8e307 at x = 336), and a RangeError where that overflows,
        # whether the correction sum (337), a scaled entry (337.75) or its
        # gauge (340) overflows first
        r = T.generic_am(self.FAR_CFG, [1, 3], "delete", target=3, x=[*self.FAR[self.FAR <= 330.0], 336.0])
        assert np.isfinite(r.target_value).all()
        for x in (337.0, 337.75, 340.0, 1000.0, self.FAR):
            with pytest.raises(S.RangeError):
                T.generic_am(self.FAR_CFG, [1, 3], "delete", target=3, x=x)

    def test_far_field_addition_is_unchanged(self):
        # addition needs no gauge (h = 0): bitwise the row-gauged results
        r = T.generic_am(self.FAR_CFG, [1, 3], "add", [1.5, 0.8], 2, [-1000.0, -100.0, 0.0, 100.0, 1000.0])
        pot = ["-0x1.feaaaaaaab215p-44", "-0x1.feaaaaaaaaaa5p-44", "-0x1.9150625cf7169p+1",
               "-0x1.47ac946e341f1p-201", "-0x0.0p+0"]
        tgt = ["-0x0.0p+0", "-0x1.0c48f197088e7p-184", "0x1.9f51c65ff365cp-2", "0x1.5d9ec4ada7938p-188", "0x0.0p+0"]
        assert r.potential.tolist() == [float.fromhex(v) for v in pot]
        assert r.target_value.tolist() == [float.fromhex(v) for v in tgt]


class TestSpectrumContracts:
    def test_post_deletion_spectrum(self):
        rng = np.random.default_rng(26)
        cfg = S.random_config(rng, n=4, k_range=(0.5, 3.5))
        res = T.am_delete(cfg, [2, 3])
        sp = numerics.bound_spectrum(S.potential_fn(res.after), 16.0 / res.after_k[0])
        expected = sorted(-k * k for k in res.after_k)
        assert len(sp.energies) == 2
        assert np.max(np.abs(np.array(sp.energies) - expected)) < 1e-3

    def test_am_add_isospectral(self):
        rng = np.random.default_rng(27)
        cfg = S.random_config(rng, n=3, k_range=(0.5, 3.5))
        res = T.am_add(cfg, {1: 2.0, 2: 0.5})
        before = numerics.bound_spectrum(S.potential_fn(cfg), 16.0 / cfg.k[0])
        after = numerics.bound_spectrum(S.potential_fn(res.after), 16.0 / cfg.k[0])
        assert len(before.energies) == len(after.energies) == 3
        assert np.max(np.abs(np.array(before.energies) - after.energies)) < 1e-3
