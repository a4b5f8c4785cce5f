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
    # scipy is imported lazily by the routines that need it
    env = dict(os.environ, PYTHONPATH=str(Path(S.__file__).parents[1]))
    code = "import sys, solitonlab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestSpectrum:
    def test_sech2_n2(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        sp = N.bound_spectrum(S.potential_fn(cfg), 12.0, 1e-3)
        assert len(sp.energies) == 2
        assert sp.energies[0] == pytest.approx(-4.0, abs=5e-4)
        assert sp.energies[1] == pytest.approx(-1.0, abs=5e-4)

    def test_trivial_potential(self):
        sp = N.bound_spectrum(lambda x: np.zeros_like(np.asarray(x, dtype=float)), 10.0, 2e-3)
        assert sp.energies == ()

    def test_random_n3(self):
        cfg = S.random_config(np.random.default_rng(41), n=3, k_range=(0.5, 3.5))
        sp = N.bound_spectrum(S.potential_fn(cfg), 16.0 / cfg.k[0], 1e-3)
        expected = sorted(cfg.energies)
        assert len(sp.energies) == 3
        assert np.max(np.abs(np.array(sp.energies) - expected)) < 1e-3

    def test_second_order_convergence(self):
        cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
        ufn = S.potential_fn(cfg)
        errs = []
        for h in (4e-3, 2e-3):
            sp = N.bound_spectrum(ufn, 12.0, h)
            errs.append(abs(sp.energies[0] + 4.0))
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0

    def test_undecayed_potential_rejected(self):
        with pytest.raises(N.DomainError):
            N.bound_spectrum(lambda x: np.full_like(np.asarray(x, dtype=float), -1.0), 10.0)


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
        with pytest.raises(ValueError):
            N.scatter(lambda x: 0.0, -1.0, 10.0)


class TestQuadrature:
    def test_polynomial(self):
        assert N.quadrature(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_eigenfunction_norm(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        f = lambda y: S.eigenfunction(cfg, 1, float(y), 0).coeffs[0] ** 2
        assert N.quadrature(f, -30.0, 30.0, 1e-10) == pytest.approx(0.5, abs=1e-8)

    def test_budget_exhaustion(self):
        with pytest.raises(N.SolverError):
            N.quadrature(lambda x: math.sin(1.0 / (abs(x) + 1e-14)), -1.0, 1.0, 1e-14, max_depth=4)


class TestKdV:
    def test_trivial(self):
        assert N.kdv_residual(SolitonConfig((), ()), 0.3, 0.1) == 0.0

    def test_single_soliton(self):
        cfg = SolitonConfig((1.0,), (2.0,))
        for x in np.linspace(-5, 5, 11):
            for t in (-0.2, 0.0, 0.3):
                assert N.kdv_residual(cfg, float(x), t) < 1e-9

    def test_three_soliton_grid(self):
        cfg = S.random_config(np.random.default_rng(44), n=3, k_range=(0.3, 2.5))
        worst = max(
            N.kdv_residual(cfg, float(x), float(t))
            for x in np.linspace(-6, 6, 9)
            for t in np.linspace(-0.3, 0.3, 5)
        )
        assert worst < 1e-8


class TestPhaseShift:
    def test_reference_pair(self):
        dev = N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0)), (-3.0, 3.0))
        assert dev < 1e-3

    def test_translation_invariance(self):
        # rescaling c translates soliton centers but not the shift
        k1 = 1.0
        scaled = SolitonConfig((k1, 2.0), (math.exp(2.0 * k1 * 1.5), 1.0))
        dev = N.phase_shift_check(scaled, (-3.0, 3.0))
        assert dev < 1e-3

    def test_requires_two_solitons(self):
        with pytest.raises(ValueError):
            N.phase_shift_check(SolitonConfig((1.0,), (1.0,)), (-3.0, 3.0))

    def test_unseparated_raises(self):
        cfg = SolitonConfig((1.0, 1.05), (1.0, 1.0))
        with pytest.raises(N.SolverError):
            N.phase_shift_check(cfg, (-0.01, 0.01))
