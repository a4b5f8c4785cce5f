"""Tests for the black-box numerical cross-checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from solitonlab import numerics as N, solitons as S
from solitonlab.solitons import SolitonConfig


def test_package_import_leaves_scipy_unloaded():
    # the package runs on numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(S.__file__).parents[1]))
    code = "import sys, solitonlab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["scatter", "--k", "1.3", "--format", "json"],
        ["phase-shift"],
        ["spectrum", "--format", "json"],
    ],
)
def test_cli_scatter_phase_shift_and_spectrum_leave_scipy_unloaded(tmp_path, argv):
    # the numerical subcommands through the CLI entry point as run by -m
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"k": [1.0, 2.0], "c": [1.0, 1.0]}')
    env = dict(os.environ, PYTHONPATH=str(Path(S.__file__).parents[1]))
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['solitonlab', {argv[0]!r}, {str(cfg)!r}, *{argv[1:]!r}]\n"
        "try:\n"
        "    runpy.run_module('solitonlab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print('exit', exc.code, 'scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "exit 0 False"


def _counting(ufn, sizes):
    """ufn that records the number of x values of each call in sizes."""

    def wrapped(x):
        sizes.append(np.size(x))
        return ufn(x)

    return wrapped


#: k_2 - k_1 = 1e-3: the Sturm count separates the two roots only after
#: about eleven bisections of [1/L, sqrt(max(-U))]
NEAR_DEGENERATE = SolitonConfig((1.0, 1.001), (1.0, 1.0))


class TestSpectrum:
    def test_sech2_n2(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        sp = N.bound_spectrum(S.potential_fn(cfg), 12.0)
        assert len(sp.energies) == 2
        assert sp.energies[0] == pytest.approx(-4.0, abs=5e-4)
        assert sp.energies[1] == pytest.approx(-1.0, abs=5e-4)

    def test_trivial_potential(self):
        sp = N.bound_spectrum(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 10.0)
        assert sp.energies == ()

    def test_random_n3(self):
        cfg = S.random_config(np.random.default_rng(41), n=3, k_range=(0.5, 3.5))
        sp = N.bound_spectrum(S.potential_fn(cfg), 16.0 / cfg.k[0])
        expected = sorted(cfg.energies)
        assert len(sp.energies) == 3
        assert np.max(np.abs(np.array(sp.energies) - expected)) < 1e-3

    def test_energies_within_1e_9(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        sp = N.bound_spectrum(S.potential_fn(cfg), 12.0)
        assert np.max(np.abs(np.array(sp.energies) - [-4.0, -1.0])) <= 1e-9
        # the reported step is the accepted one, finer than the start
        assert sp.grid_step < 0.05

    @pytest.mark.parametrize(
        "cfg, L",
        [
            (NEAR_DEGENERATE, 24.0),
            (SolitonConfig((0.5, 1.0, 1.001, 2.0), (1.0, 2.0, 3.0, 1.0)), 40.0),
        ],
    )
    def test_near_degenerate_pair_counted_and_resolved(self, cfg, L):
        ufn = S.potential_fn(cfg)
        u, h = N._sample(ufn, L, math.ceil(2.0 * L / 0.05))
        assert N._sturm_count(u, h, np.array([1.0 / L])) == [cfg.n]
        sp = N.bound_spectrum(ufn, L)
        assert np.max(np.abs(np.array(sp.energies) - sorted(cfg.energies))) <= 1e-9

    def test_wrong_previous_roots_fall_back_to_the_scan(self):
        # finer levels try the previous roots first; brackets around wrong
        # ones show no sign change, and the states are bracketed anew by
        # Sturm-count bisection
        u, h = N._sample(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0, 960)
        kappa = N._bound_kappas(u, h, 1.0 / 12.0, np.array([0.5, 2.5]))
        assert kappa == pytest.approx([1.0, 2.0], abs=1e-6)

    @pytest.mark.parametrize("nu", [0.0495, 0.055, 1.055])
    def test_search_floor(self, nu):
        # U = -nu(nu+1) sech^2 x has states kappa = nu - n > 0. At L = 20 the
        # floor is kappa = 0.05: a state below it is left out, and for one
        # just above it the floor solution's node lies beyond -L
        ufn = lambda x: -nu * (nu + 1) / np.cosh(np.asarray(x, dtype=float)) ** 2
        sp = N.bound_spectrum(ufn, 20.0)
        expected = [-((nu - n) ** 2) for n in range(math.ceil(nu)) if nu - n > 0.05]
        assert len(sp.energies) == len(expected)
        assert np.max(np.abs(np.array(sp.energies) - expected), initial=0.0) <= 1e-9

    def test_repulsive_barrier_has_no_states(self):
        sp = N.bound_spectrum(lambda x: 2.0 / np.cosh(np.asarray(x, dtype=float)) ** 2, 20.0)
        assert sp.energies == ()

    def test_nan_potential_is_solver_error(self):
        def ufn(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.3) < 0.5, np.nan, -1.0 / np.cosh(x) ** 2)

        with pytest.raises(N.SolverError):
            N.bound_spectrum(ufn, 20.0)

    def test_count_that_never_separates_is_solver_error(self, monkeypatch):
        # two states at one kappa: bisection halves the bracket around 1.5
        # until its midpoint meets an endpoint, then gives up
        monkeypatch.setattr(N, "_sturm_count", lambda u, h, kappa: np.where(kappa < 1.5, 2, 0))
        with pytest.raises(N.SolverError, match="does not separate 2 bound states"):
            N.bound_spectrum(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0)

    def test_count_rising_with_kappa_is_solver_error(self, monkeypatch):
        # 2 at the floor, 0 at sqrt(max(-U)) = 2.45, but 3 at the midpoint
        count = lambda u, h, kappa: np.where(kappa < 0.5, 2, np.where(kappa < 1.3, 3, 0))
        monkeypatch.setattr(N, "_sturm_count", count)
        with pytest.raises(N.SolverError, match="rises with kappa"):
            N.bound_spectrum(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0)

    def test_bracket_without_sign_change_is_solver_error(self, monkeypatch):
        # a count of 1 over [1/L, sqrt(max(-U))], which holds both roots
        monkeypatch.setattr(N, "_sturm_count", lambda u, h, kappa: np.where(kappa < 2.4, 1, 0))
        with pytest.raises(N.SolverError, match="keeps its sign"):
            N.bound_spectrum(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0)

    def test_count_above_roots_is_solver_error(self, monkeypatch):
        # a Sturm count of 3 for two states: an error, never a short list
        monkeypatch.setattr(N, "_sturm_count", lambda u, h, kappa: np.full(np.shape(kappa), 3))
        with pytest.raises(N.SolverError, match="Sturm count 3 at kappa = sqrt"):
            N.bound_spectrum(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0)

    def test_unsettled_energies_are_solver_error(self, monkeypatch):
        # two levels make one Richardson extrapolation, not two to compare
        monkeypatch.setattr(N, "_MAGNUS_MAX_STEPS", 2 * N._MIN_STEPS)
        with pytest.raises(N.SolverError):
            N.bound_spectrum(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0)

    def test_undecayed_potential_rejected(self):
        with pytest.raises(N.DomainError):
            N.bound_spectrum(lambda x: np.full_like(np.asarray(x, dtype=float), -1.0), 10.0)

    def test_nonpositive_or_nonfinite_domain_rejected(self):
        ufn = S.potential_fn(SolitonConfig((1.0,), (2.0,)))
        for L in (0.0, -12.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                N.bound_spectrum(ufn, L)


class TestMagnusKernel:
    CFG4 = SolitonConfig((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0))

    def test_jost_coefficient_at_imaginary_k(self):
        # a(i kappa) = 1/t(i kappa) = prod_j (kappa - k_j)/(kappa + k_j)
        L = 14.0 / self.CFG4.k[0]
        u, h = N._sample(S.potential_fn(self.CFG4), L, 1 << 14)
        kappa = np.array([0.3, 1.0, 1.7, 2.5, 3.3, 4.0])
        a = N._jost_a(u, h, kappa)
        assert np.max(np.abs(a - 1.0 / N.transmission_product(self.CFG4, 1j * kappa))) < 1e-9

    @pytest.mark.parametrize("kappa, below", [(0.5, 2), (1.5, 1), (2.5, 0)])
    def test_sturm_count_between_bound_states(self, kappa, below):
        # states below -kappa^2 of U = -6 sech^2 x: those with k_j > kappa
        u, h = N._sample(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), 12.0, 480)
        assert N._sturm_count(u, h, np.array([kappa])) == [below]

    def test_scatter_samples_a_quarter_of_plain_doubling(self):
        # plain step doubling refined 1024 -> 65536 steps here, 260096 points
        sizes = []
        N.scatter(_counting(S.potential_fn(self.CFG4), sizes), 0.5, 24.0 / 0.7)
        assert sizes[:2] == [1, 1]
        assert sizes[2:] == [2 * 1024 * 2**i for i in range(4)]
        assert sum(sizes) <= 260096 / 4

    @pytest.mark.parametrize("routine", ["scatter", "bound_spectrum"])
    def test_potential_sampled_once_per_level(self, routine):
        # the two edge checks, then one call at the Gauss points per level
        sizes = []
        ufn = _counting(S.potential_fn(SolitonConfig((1.0, 2.0), (6.0, 12.0))), sizes)
        if routine == "scatter":
            N.scatter(ufn, 1.3, 12.0)
        else:
            sp = N.bound_spectrum(ufn, 12.0)
            assert sp.grid_step == 24.0 / (sizes[-1] // 2)
        assert sizes[:2] == [1, 1]
        levels = sizes[2:]
        assert len(levels) >= 3
        assert levels == [levels[0] * 2**i for i in range(len(levels))]


class TestScattering:
    def test_reflectionless_and_unitary(self):
        cfg = S.random_config(np.random.default_rng(42), n=3, k_range=(0.4, 3.0))
        ufn = S.potential_fn(cfg)
        L = 14.0 / cfg.k[0]
        for k in (0.5, 1.7, 3.1):
            res = N.scatter(ufn, k, L)
            assert abs(res.reflection_amp) < 1e-6
            assert res.unitarity_defect < 1e-6

    def test_transmission_phase(self):
        cfg = S.random_config(np.random.default_rng(43), n=2, k_range=(0.5, 3.0))
        ufn = S.potential_fn(cfg)
        L = 14.0 / cfg.k[0]
        for k in (0.5, 1.7, 3.1):
            res = N.scatter(ufn, k, L)
            ref = N.transmission_product(cfg, k)
            phase = np.angle(res.transmission_amp / ref)
            assert abs(phase) < 1e-5
            assert abs(res.transmission_amp) == pytest.approx(abs(ref), abs=1e-6)

    def test_free_potential(self):
        res = N.scatter(lambda x: 0.0 * np.asarray(x, dtype=float), 1.3, 10.0)
        assert abs(res.reflection_amp) < 1e-9
        assert res.transmission_amp == pytest.approx(1.0, abs=1e-8)

    def test_invalid_wavenumber(self):
        # a wavenumber or domain half-width that is not positive and finite
        bad = [(-1.0, 10.0), (math.nan, 10.0), (math.inf, 10.0)]
        bad += [(1.0, 0.0), (1.0, -10.0), (1.0, math.inf), (1.0, math.nan)]
        for k, L in bad:
            with pytest.raises(ValueError, match="positive and finite"):
                N.scatter(lambda x: 0.0, k, L)

    @pytest.mark.parametrize("k", [0.5, 3.1])
    def test_matches_transmission_product_n4(self, k):
        cfg = SolitonConfig((0.7, 1.3, 2.1, 2.9), (1.5, 3.0, 0.4, 7.0))
        res = N.scatter(S.potential_fn(cfg), k, 14.0 / cfg.k[0])
        assert abs(res.transmission_amp - N.transmission_product(cfg, k)) < 1e-9
        assert abs(res.reflection_amp) < 1e-9

    def test_nan_potential_is_solver_error(self):
        # finite at the ends, NaN inside: a typed error, never a NaN amplitude
        def ufn(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x - 0.3) < 0.5, np.nan, 0.0)

        with pytest.raises(N.SolverError):
            N.scatter(ufn, 1.0, 10.0)

    def test_unsettled_amplitudes_are_solver_error(self, monkeypatch):
        # a refinement cap below the step the tolerance needs
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        monkeypatch.setattr(N, "_MAGNUS_MAX_STEPS", 2048)
        with pytest.raises(N.SolverError):
            N.scatter(S.potential_fn(cfg), 1.7, 12.0)


class TestQuadrature:
    def test_polynomial(self):
        assert N.quadrature(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_eigenfunction_norm(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        f = lambda y: S.eigenfunction(cfg, 1, y, 0).value ** 2
        assert N.quadrature(f, -30.0, 30.0, 1e-10) == pytest.approx(0.5, abs=1e-8)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(N, "_MAGNUS_MAX_STEPS", 1 << 10)
        with pytest.raises(N.SolverError):
            N.quadrature(lambda x: np.sin(1.0 / (np.abs(x) + 1e-14)), -1.0, 1.0, 1e-14)

    def test_narrow_peak_on_a_wide_interval(self):
        # 2000 widths across [-10, 10]: every level starts at _MIN_STEPS
        # steps, where one starting at two steps settled on 5.5e-227
        f = lambda x: np.exp(-(((x - 0.3) / 0.01) ** 2))
        assert N.quadrature(f, -10.0, 10.0) == pytest.approx(0.01 * math.sqrt(math.pi), abs=1e-10)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_not_positive_and_finite_is_value_error(self, tol):
        # a NaN or negative tol ran the whole step budget into SolverError
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            N.quadrature(np.exp, 0.0, 1.0, tol)
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            N._step_doubling(np.exp, 1.0, lambda u, h: u.sum(), tol, "sum")

    def test_narrow_off_centre_bump(self):
        # width 0.01 at x = 0.3: no node of the first two levels comes near it
        f = lambda x: np.exp(-(((x - 0.3) / 0.01) ** 2))
        assert N.quadrature(f, -1.0, 1.0) == pytest.approx(0.01 * math.sqrt(math.pi), abs=1e-10)

    def test_empty_and_reversed_interval(self):
        assert N.quadrature(np.exp, 0.7, 0.7) == 0.0
        assert N.quadrature(np.exp, 1.0, 0.0) == pytest.approx(1.0 - math.e, abs=1e-10)

    @pytest.mark.parametrize(
        "bounds, name", [((0.0, math.nan), "b"), ((0.0, math.inf), "b"), ((-math.inf, 0.0), "a"), ((math.inf, math.inf), "a")]
    )
    def test_nonfinite_bound_is_named(self, bounds, name):
        # a NaN bound was "cannot convert float NaN to integer" from inside
        # the step-doubling driver, and inf to inf an empty interval
        with pytest.raises(ValueError, match=f"quadrature bound {name} must be finite"):
            N.quadrature(np.exp, *bounds)

    def test_nonfinite_integrand_is_solver_error(self):
        with pytest.raises(N.SolverError, match="function is not finite"):
            N.quadrature(lambda x: np.where(x > 0.5, np.nan, 1.0), 0.0, 1.0)


class TestKdV:
    def test_trivial(self):
        assert S.kdv_residual(SolitonConfig((), ()).advanced(0.1), 0.3) == 0.0

    def test_single_soliton(self):
        # measured worst 1.8e-15; bound 10x that, rounded up
        cfg = SolitonConfig((1.0,), (2.0,))
        for t in (-0.2, 0.0, 0.3):
            assert np.all(S.kdv_residual(cfg.advanced(t), np.linspace(-5, 5, 11)) < 2e-14)

    def test_three_soliton_grid(self):
        # measured worst 5.7e-14; bound 10x that, rounded up
        cfg = S.random_config(np.random.default_rng(44), n=3, k_range=(0.3, 2.5))
        worst = max(np.max(S.kdv_residual(cfg.advanced(t), np.linspace(-6, 6, 9))) for t in np.linspace(-0.3, 0.3, 5))
        assert worst < 6e-13

    def test_twenty_solitons(self):
        # k up to 8, where |U'''| reaches 3.3e3; measured worst 8.7e-11 (the
        # flat 2^N table the bilinear core replaced: 2.4e-9); bound 10x
        # that, rounded up
        cfg = S.random_config(np.random.default_rng(20), n=20, k_range=(0.2, 8.0), min_gap=0.3)
        xs = np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], 9)
        worst = max(np.max(S.kdv_residual(cfg.advanced(t), xs)) for t in (-0.01, 0.0, 0.01))
        assert worst < 9e-10

    def test_grid_matches_per_point_loop(self):
        # results of x's shape; the cumulant core's matrix products sum in
        # another order for one point than for a grid, so grid and loop agree
        # to rounding, not bitwise: measured worst 2.8e-14, bound 10x that,
        # rounded up
        cfg = S.random_config(np.random.default_rng(45), n=4, k_range=(0.3, 2.5))
        xs = np.linspace(-6, 6, 9)
        assert S.kdv_residual(cfg.advanced(0.1), 0.5).shape == ()
        for t in (-0.3, 0.1, 0.3):
            r = S.kdv_residual(cfg.advanced(t), xs)
            assert r.shape == xs.shape
            assert np.max(np.abs(r - [S.kdv_residual(cfg.advanced(t), float(x)) for x in xs])) < 3e-13


class TestPotentialMinimum:
    # f = cosh(y) + 0.3 y^3, y = x - x0: minimum exactly at x0, where the
    # third derivative is not zero, so a plain parabola fit is biased
    @staticmethod
    def skewed(x0):
        return lambda x: np.cosh(np.asarray(x) - x0) + 0.3 * (np.asarray(x) - x0) ** 3

    @pytest.mark.parametrize("x0", [0.3137, -1.7 + 0.02, 2.9 - 0.05, -1.7 + 1e-7, 2.9 - 1e-6])
    def test_off_centre_and_near_either_end(self, x0):
        # the first grid step of [-1.7, 2.9] is 0.14375
        assert N._potential_minimum(self.skewed(x0), -1.7, 2.9) == pytest.approx(x0, abs=1e-10)

    def test_returns_python_float(self):
        assert type(N._potential_minimum(self.skewed(0.4), -1.0, 1.0)) is float


class TestPhaseShift:
    def test_reference_pair(self):
        dev = N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0)), (-3.0, 3.0))
        assert dev < 1e-3
        # a numpy scalar would make the CLI's json.dumps fail
        assert type(dev) is float

    def test_translation_invariance(self):
        # rescaling c translates soliton centers but not the shift
        k1 = 1.0
        scaled = SolitonConfig((k1, 2.0), (math.exp(2.0 * k1 * 1.5), 1.0))
        dev = N.phase_shift_check(scaled, (-3.0, 3.0))
        assert dev < 1e-3

    def test_requires_two_solitons(self):
        with pytest.raises(ValueError):
            N.phase_shift_check(SolitonConfig((1.0,), (1.0,)), (-3.0, 3.0))

    @pytest.mark.parametrize("t_pair", [(3.0, -3.0), (0.0, 3.0), (-3.0, 0.0), (1.0, 3.0), (-3.0, -1.0)])
    def test_times_must_straddle_the_collision(self, t_pair):
        # the expected offsets are those before (t < 0) and after (t > 0)
        # the collision; reversed, a valid pair read as failing
        with pytest.raises(ValueError):
            N.phase_shift_check(SolitonConfig((1.0, 2.0), (6.0, 12.0)), t_pair)

    @pytest.mark.parametrize("times", [{3: 0.5}, {5: 0.01}, {3: 0.5, 5: 0.01}], ids=repr)
    def test_config_with_times_is_refused(self, times):
        # the expected offsets are those of a collision at t = 0 of the data
        # as given; {3: 0.5, 5: 0.01} was rebuilt as {3: t} and returned the
        # untimed deviation bitwise
        with pytest.raises(S.ConfigError):
            N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0), times), (-3.0, 3.0))

    def test_empty_times_are_no_times(self):
        untimed = N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0)), (-3.0, 3.0))
        assert N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0), {}), (-3.0, 3.0)) == untimed

    def test_unseparated_raises(self):
        cfg = SolitonConfig((1.0, 1.05), (1.0, 1.0))
        with pytest.raises(N.SolverError):
            N.phase_shift_check(cfg, (-0.01, 0.01))
