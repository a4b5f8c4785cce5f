"""Tests for the identity verification engine."""

import itertools
import math

import numpy as np
import pytest

from solitonlab import identities as I, numerics, solitons as S
from solitonlab.solitons import SolitonConfig


@pytest.fixture(scope="module")
def cfg4():
    return S.random_config(np.random.default_rng(31), n=4)


def grid_for(cfg, n=21):
    return np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], n)


class TestInnerTail:
    def test_n1_at_origin(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        # integral of sech^2/4 over [0, inf)
        assert I.inner_tail(cfg, 1, 1, 0.0) == pytest.approx(0.25)

    def test_diagonal_full_line_norm(self):
        rng = np.random.default_rng(32)
        cfg = S.random_config(rng, n=3)
        x = -25.0 / cfg.k[0]
        for j in (1, 2, 3):
            assert I.inner_tail(cfg, j, j, x) == pytest.approx(1.0 / cfg.c[j - 1], rel=1e-10)

    def test_offdiagonal_orthogonality(self, cfg4):
        x = -25.0 / cfg4.k[0]
        norm = max(1.0 / c for c in cfg4.c)
        for j in (1, 2, 3):
            for l in range(j + 1, 5):
                assert abs(I.inner_tail(cfg4, j, l, x)) < 1e-8 * norm

    def test_against_quadrature(self, cfg4):
        rng = np.random.default_rng(33)
        hi = 30.0 / cfg4.k[0]
        for _ in range(4):
            j = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            x = float(rng.uniform(-2.0, 2.0))

            def f(y, j=j, l=l):
                return S.eigenfunction(cfg4, j, y, 0).value * S.eigenfunction(cfg4, l, y, 0).value

            q = numerics.quadrature(f, x, hi, 1e-11)
            assert abs(q - I.inner_tail(cfg4, j, l, x)) < 1e-8

    @pytest.mark.parametrize("order", [0, 1])
    def test_tail_matrix_symmetric_and_equal_to_single_entries(self, cfg4, order):
        idx = [1, 2, 3, 4]
        x = 0.37
        pairs = S.tail_pairs(idx, idx)
        den, *taus = S.tau_jet_sums(cfg4, [None] + [S.pair_rule(cfg4, *p) for p in pairs], [x], [order] * (1 + len(pairs)))
        pair_taus = dict(zip(pairs, taus))
        tails = I.tail_matrix_grid(cfg4, idx, idx, den, pair_taus)
        assert tails.coeffs.shape == (4, 4, 1, order + 1) and tails.xs.shape == (4, 4, 1)
        for a in idx:
            for b in idx:
                t = tails[a - 1, b - 1]
                single = I.tail_matrix_grid(cfg4, [a], [b], den, pair_taus)[0, 0]
                for other in (tails[b - 1, a - 1], single):
                    assert np.array_equal(t.coeffs, other.coeffs)
                    assert np.array_equal(t.gauge, other.gauge) and np.array_equal(t.sign, other.sign)
                if order == 0:
                    assert single.values().value[0] == I.inner_tail(cfg4, a, b, x)

    def test_tail_matrix_reads_given_taus_only(self, cfg4, grid_tau_calls):
        # the builder evaluates no tau and leaves the caller's pair taus as
        # they were; a pair that was not handed in is a KeyError
        xs = np.linspace(-0.5, 0.3, 5)
        pairs = S.tail_pairs([1, 3], [1, 3, 4])
        den, *taus = S.tau_jet_sums(cfg4, [None] + [S.pair_rule(cfg4, *p) for p in pairs], xs, [1] * (1 + len(pairs)))
        pair_taus = dict(zip(pairs, taus))
        before = dict(pair_taus)
        grid_tau_calls.clear()
        tails = S.tail_matrix_grid(cfg4, [1, 3], [1, 3, 4], den, pair_taus)
        assert grid_tau_calls == []
        assert pair_taus.keys() == before.keys() and all(pair_taus[p] is before[p] for p in before)
        assert tails.coeffs.shape == (2, 3, 5, 2) and tails.gauge.shape == tails.sign.shape == (2, 3, 5)
        with pytest.raises(KeyError):
            S.tail_matrix_grid(cfg4, [2], [2], den, pair_taus)


class TestIndividualIdentities:
    def test_wronskian_m1_is_definitional(self, cfg4):
        rep = I.verify_wronskian_identity(cfg4, [2], grid_for(cfg4))
        assert rep.passed
        assert rep.measured_constant == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("dset", [[1, 2], [2, 3], [1, 3, 4]])
    def test_wronskian_multi(self, cfg4, dset):
        rep = I.verify_wronskian_identity(cfg4, dset, grid_for(cfg4))
        assert rep.passed, rep

    def test_bilinear_diagonal_n1(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        rep = I.verify_bilinear_derivative(cfg, 1, 1, np.linspace(-5, 5, 21), 1e-11)
        assert rep.passed

    def test_bilinear_offdiagonal(self, cfg4):
        for j, l in ((1, 3), (2, 4), (4, 4)):
            rep = I.verify_bilinear_derivative(cfg4, j, l, grid_for(cfg4))
            assert rep.passed, rep

    def test_deletion_determinant_m1_is_tail(self, cfg4):
        # the tail closed form carries 1/(k_j+k_l); at M=1 the ratio to the
        # squared-rewrite side is therefore 1/(2 k_d)
        rep = I.verify_deletion_determinant(cfg4, [3], grid_for(cfg4))
        assert rep.passed
        assert rep.measured_constant == pytest.approx(1.0 / (2.0 * cfg4.k[2]), rel=1e-9)

    @pytest.mark.parametrize("dset", [[1, 2], [1, 3], [2, 3, 4]])
    def test_deletion_determinant_multi(self, cfg4, dset):
        assert I.verify_deletion_determinant(cfg4, dset, grid_for(cfg4)).passed

    def test_addition_determinant_m1_constant(self, cfg4):
        e = 2.4
        rep = I.verify_addition_determinant(cfg4, [2], [e], grid_for(cfg4))
        assert rep.passed
        assert rep.measured_constant == pytest.approx(e + 1.0, rel=1e-9)

    def test_addition_determinant_large_e(self, cfg4):
        # e -> inf: the rescale factor tends to 1 and LHS/RHS -> e + 1
        e = 1e8
        rep = I.verify_addition_determinant(cfg4, [1], [e], grid_for(cfg4))
        assert rep.passed
        assert rep.measured_constant == pytest.approx(e + 1.0, rel=1e-6)

    def test_addition_determinant_multi(self, cfg4):
        assert I.verify_addition_determinant(cfg4, [1, 2], [2.0, 5.0], grid_for(cfg4)).passed

    def test_tau_split_n1_exact(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        rep = I.verify_tau_split(cfg, 1, np.linspace(-5, 5, 21), 1e-13)
        assert rep.passed

    @pytest.mark.parametrize("j", [1, 2, 4])
    def test_tau_split_random(self, cfg4, j):
        # also against the per-point loop that the grid arithmetic replaced:
        # np.exp may differ from math.exp in the last bit, so to 1e-15
        grid = grid_for(cfg4)
        rep = I.verify_tau_split(cfg4, j, grid)
        assert rep.passed
        u, uj, wj = (S.tau_jet_sums(cfg4, [r], grid, [0])[0] for r in (None, S.drop_rule(4, j), S.pair_rule(cfg4, j, j)))
        logc = math.log(cfg4.c[j - 1] / (2.0 * cfg4.k[j - 1]))
        loop = max(
            abs(1.0 - suj * math.exp(luj - lu) - swj * math.exp(logc - 2.0 * cfg4.k[j - 1] * x + lwj - lu))
            for x, lu, luj, suj, lwj, swj in zip(grid, u.log_abs, uj.log_abs, uj.sign, wj.log_abs, wj.sign)
        )
        assert rep.max_abs_deviation == pytest.approx(loop, rel=0.0, abs=1e-15)

    def test_tau_split_n5(self):
        cfg = S.random_config(np.random.default_rng(34), n=5)
        assert I.verify_tau_split(cfg, 3, grid_for(cfg)).passed

    def test_seed_wronskian_n1(self):
        rep = I.verify_seed_wronskian([1.3], [0.8], np.linspace(-4, 4, 17))
        assert rep.passed

    def test_seed_wronskian_n4(self, cfg4):
        ctilde = [((-1.0) ** i) * (0.5 + i) for i in range(4)]
        rep = I.verify_seed_wronskian(cfg4.k, ctilde, grid_for(cfg4))
        assert rep.passed, rep

    def test_seed_wronskian_sign_pattern(self):
        from solitonlab.solitons import ConfigError

        with pytest.raises(ConfigError):
            I.verify_seed_wronskian([1.0, 2.0], [1.0, 1.0], np.linspace(-1, 1, 5))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_determinant_checks_evaluate_each_tau_once(self, cfg4, grid_tau_calls, m):
        # one core call whatever the grid length, holding m(m+1)/2 pair
        # taus, one shared denominator and one rewritten numerator; for m = 1
        # the deletion check's squared rewrite is its one pair tau
        dset = list(range(1, m + 1))
        for npts in (1, 21):
            grid = np.linspace(-0.5, 0.3, npts)
            grid_tau_calls.clear()
            I.verify_deletion_determinant(cfg4, dset, grid)
            [(rules, orders)] = grid_tau_calls
            assert len(rules) == m * (m + 1) // 2 + (1 if m == 1 else 2) and set(orders) == {0}
            grid_tau_calls.clear()
            I.verify_addition_determinant(cfg4, dset, [2.0] * m, grid)
            [(rules, orders)] = grid_tau_calls
            assert len(rules) == m * (m + 1) // 2 + 2 and set(orders) == {0}

    @pytest.mark.parametrize("dset", [[2], [1, 3], [1, 2, 4]])
    def test_wronskian_evaluates_each_tau_once(self, cfg4, grid_tau_calls, monkeypatch, dset):
        # one core call: the config's own tau once, at order m-1, shared by
        # the m eigenfunctions and the right side; m eigenfunction
        # numerators at order m-1; one rewritten numerator
        scalar = []
        monkeypatch.setattr(S, "tau_jet_sum", lambda *a: scalar.append(a))
        monkeypatch.setattr(I, "tau_jet_sum", lambda *a: scalar.append(a))
        for npts in (1, 21):
            grid_tau_calls.clear()
            rep = I.verify_wronskian_identity(cfg4, dset, np.linspace(-0.5, 0.3, npts))
            assert rep.passed
            [(rules, orders)] = grid_tau_calls
            assert len(rules) == len(dset) + 2
            assert rules[0] is None and orders[0] == len(dset) - 1
        assert scalar == []

    @pytest.mark.parametrize("j,l,expected", [(1, 3, 4), (2, 2, 3)])
    def test_bilinear_evaluates_each_tau_once(self, cfg4, grid_tau_calls, j, l, expected):
        # one core call: the config's own tau once (its order-1 grid also
        # serves the order-0 eigenfunctions), one eigenfunction numerator per
        # distinct index, one pair tau for the tail
        for npts in (1, 21):
            grid_tau_calls.clear()
            assert I.verify_bilinear_derivative(cfg4, j, l, np.linspace(-0.5, 0.3, npts)).passed
            [(rules, orders)] = grid_tau_calls
            assert len(rules) == expected and rules[0] is None and orders[0] == 1


class TestReports:
    def test_report_serialization(self, cfg4):
        rep = I.verify_tau_split(cfg4, 1, grid_for(cfg4))
        d = rep.to_dict()
        assert d["pass"] is True
        assert d["tag"] == "tau_split"
        assert d["tolerance"] == rep.tolerance

    def test_suite_deterministic(self):
        a = I.run_identity_suite(seed=5, n_configs=2, grid_points=11)
        b = I.run_identity_suite(seed=5, n_configs=2, grid_points=11)
        assert [r.max_abs_deviation for r in a] == [r.max_abs_deviation for r in b]

    def test_suite_small_sweep_passes(self):
        reports = I.run_identity_suite(seed=11, n_configs=4, grid_points=15)
        assert len(reports) == 24
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]


#: the constant of each constancy identity over the index set D with
#: parameters e, fixed by x -> +infinity where every tau tends to 1, and
#: the relative tolerance it is pinned to (10x the worst over suite seeds
#: 0-2, rounded up)
CONSTANTS = {
    "wronskian_ratio": (lambda k, e: math.prod(a - b for a, b in itertools.combinations(k, 2)), 3e-13),
    "deletion_determinant": (lambda k, e: np.linalg.det(1.0 / np.add.outer(k, k)), 1e-10),  # Cauchy
    "addition_determinant": (lambda k, e: math.prod(v + 1.0 for v in e), 1e-13),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_suite_constants_are_the_far_field_limits(seed):
    # the suite's draws, replayed in step with run_identity_suite; each
    # report's name carries its D, which checks that they stay in step
    reports = I.run_identity_suite(seed, 50)
    rng = np.random.default_rng(seed)
    for i in range(50):
        cfg = S.random_config(rng)
        msize = int(rng.integers(1, min(cfg.n, 3) + 1))
        dset = sorted(rng.choice(np.arange(1, cfg.n + 1), size=msize, replace=False).tolist())
        for _ in range(2):  # j and l
            rng.integers(1, cfg.n + 1)
        e = rng.uniform(0.5, 5.0, msize).tolist()
        for _ in range(cfg.n):  # ctilde
            rng.uniform(0.2, 5.0)
        k = [cfg.k[d - 1] for d in dset]
        for r in reports[6 * i : 6 * i + 6]:
            if r.tag in CONSTANTS:
                assert r.identity_name.endswith(f"D={dset}")
                constant, tol = CONSTANTS[r.tag]
                assert r.measured_constant == pytest.approx(constant(k, e), rel=tol, abs=0.0), r
