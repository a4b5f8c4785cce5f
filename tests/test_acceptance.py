"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s (or read the captured stdout) to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from solitonlab import identities as I, numerics as N, solitons as S, transforms as T
from solitonlab.jets import jet_log_d2
from solitonlab.solitons import SolitonConfig


@pytest.fixture(autouse=True)
def _criterion_line(capsys):
    """Emit the per-criterion pass/fail line even when output is captured."""
    global _emit

    def emit(line):
        with capsys.disabled():
            print(line, flush=True)

    _emit = emit
    yield
    _emit = print


_emit = print


def _report(num: int, name: str, ok: bool, detail: str):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _emit(line)
    assert ok, line


def _sech2_config(n: int) -> SolitonConfig:
    k = tuple(float(j) for j in range(1, n + 1))
    c = tuple(
        math.factorial(n + j) / (math.factorial(j) * math.factorial(j - 1) * math.factorial(n - j))
        for j in range(1, n + 1)
    )
    return SolitonConfig(k, c)


def test_01_determinant_hirota_equivalence():
    rng = np.random.default_rng(100)
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        cfg = S.random_config(rng, n=(i % 10) + 1, n_range=(1, 10))
        xs = S.default_grid(cfg)
        ld, sd = S.tau_logdet_grid(cfg, None, xs)
        lh, sh = S.tau_hirota_grid(cfg, None, xs)
        assert np.all(sd == sh)
        worst = max(worst, float(np.max(np.abs(ld - lh))))
    elapsed = time.time() - t0
    ok = worst < 1e-11 and elapsed < 30.0
    _report(1, "determinant-hirota equivalence", ok,
            f"max rel dev {worst:.3e}, {elapsed:.1f}s for 100 configs")


def test_02_sech2_reduction():
    xs = np.linspace(-8.0, 8.0, 321)
    worst = 0.0
    for n in range(1, 6):
        cfg = _sech2_config(n)
        u = S.potential_fn(cfg)(xs)
        ref = -n * (n + 1) / np.cosh(xs) ** 2
        worst = max(worst, float(np.max(np.abs(u - ref))))
    ok = worst < 1e-10
    _report(2, "sech^2 reduction N=1..5", ok, f"max dev {worst:.3e}")


def test_03_bound_spectrum():
    rng = np.random.default_rng(101)
    worst = 0.0
    counts_ok = True
    for _ in range(3):
        cfg = S.random_config(rng, n_range=(1, 4), k_range=(0.4, 3.5))
        sp = N.bound_spectrum(S.potential_fn(cfg), 16.0 / cfg.k[0])
        counts_ok &= len(sp.energies) == cfg.n
        if len(sp.energies) == cfg.n:
            worst = max(worst, float(np.max(np.abs(
                np.array(sp.energies) - np.array(sorted(cfg.energies))))))
    ok = counts_ok and worst < 1e-3
    _report(3, "bound spectrum recovery", ok,
            f"counts exact: {counts_ok}, max energy dev {worst:.3e}")


def test_04_reflectionless_scattering():
    rng = np.random.default_rng(102)
    worst_r = worst_u = worst_ph = 0.0
    for _ in range(10):
        cfg = S.random_config(rng, n_range=(1, 4), k_range=(0.4, 3.0))
        ufn = S.potential_fn(cfg)
        L = 14.0 / cfg.k[0]
        for k in (0.5, 1.7, 3.1):
            res = N.scatter(ufn, k, L)
            ref = N.transmission_product(cfg, k)
            worst_r = max(worst_r, abs(res.reflection_amp))
            worst_u = max(worst_u, res.unitarity_defect)
            worst_ph = max(worst_ph, abs(math.remainder(
                np.angle(res.transmission_amp) - np.angle(ref), 2.0 * math.pi)))
    ok = worst_r < 1e-6 and worst_u < 1e-6 and worst_ph < 1e-5
    _report(4, "reflectionless scattering", ok,
            f"max |r| {worst_r:.3e}, unitarity {worst_u:.3e}, phase {worst_ph:.3e}")


def test_05_schrodinger_residual():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(3):
        cfg = S.random_config(rng, n_range=(1, 5))
        for x in np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], 13):
            u = S.potential(cfg, float(x))
            for j in range(1, cfg.n + 1):
                jet = S.eigenfunction(cfg, j, float(x), 2)
                phi = jet.coeffs[0]
                res = -jet.deriv(2) + (u + cfg.k[j - 1] ** 2) * phi
                scale = max(abs(jet.deriv(2)), cfg.k[j - 1] ** 2 * abs(phi), 1e-6)
                worst = max(worst, abs(res) / scale)
    ok = worst < 1e-9
    _report(5, "schrodinger residual", ok, f"max relative residual {worst:.3e}")


def test_06_identity_suite():
    t0 = time.time()
    reports = I.run_identity_suite(seed=0, n_configs=50)
    bad = [r for r in reports if not r.passed]
    ok = not bad
    _report(6, "identity suite 50 configs", ok,
            f"{len(reports) - len(bad)}/{len(reports)} reports pass, {time.time() - t0:.1f}s"
            + ("" if ok else "; first fail: " + bad[0].identity_name))


def test_07_deformation_closure():
    rng = np.random.default_rng(104)
    worst = 0.0
    spectra_ok = True
    for scheme, dset_of in (("ka", lambda n: [n]), ("ka", lambda n: [n - 1, n]),
                            ("am", lambda n: [2])):
        cfg = S.random_config(rng, n_range=(3, 4), k_range=(0.5, 3.5))
        dset = dset_of(cfg.n)
        if scheme == "ka":
            res = T.krein_adler_delete(cfg, dset)
            seeds = T.eigenfunction_seeds(cfg, dset)
            ufn = S.potential_fn(cfg)
            xs = np.linspace(-8.0 / cfg.k[0], 8.0 / cfg.k[0], 9)
            v = T.darboux_potential(seeds, ufn, xs)
            worst = max(worst, float(np.max(np.abs(v - [S.potential(res.after, float(x)) for x in xs]))))
        else:
            res = T.am_delete(cfg, dset)
            xs = np.linspace(-8.0 / cfg.k[0], 8.0 / cfg.k[0], 9)
            r = T.generic_am(cfg, dset, "delete", x=xs)
            worst = max(worst, float(np.max(np.abs(r.potential - [S.potential(res.after, float(x)) for x in xs]))))
        sp = N.bound_spectrum(S.potential_fn(res.after), 16.0 / res.after_k[0])
        expected = sorted(-kj * kj for kj in res.after_k)
        spectra_ok &= len(sp.energies) == len(expected) and bool(
            np.max(np.abs(np.array(sp.energies) - expected)) < 1e-3)
    ok = worst < 1e-9 and spectra_ok
    _report(7, "deformation closure", ok,
            f"max pointwise dev {worst:.3e}, post-deletion spectra exact: {spectra_ok}")


def test_08_am_addition_isospectral():
    rng = np.random.default_rng(105)
    cfg = S.random_config(rng, n=3, k_range=(0.5, 3.5))
    e = {1: 4.0, 3: 0.8}
    res = T.am_add(cfg, e)
    rescale_exact = all(
        res.after.c[j - 1] == cfg.c[j - 1] * (v / (v + 1.0)) for j, v in e.items()
    ) and res.after.c[1] == cfg.c[1]
    before = N.bound_spectrum(S.potential_fn(cfg), 16.0 / cfg.k[0])
    after = N.bound_spectrum(S.potential_fn(res.after), 16.0 / cfg.k[0])
    dev = float(np.max(np.abs(np.array(before.energies) - np.array(after.energies))))
    ok = rescale_exact and len(before.energies) == len(after.energies) and dev < 2e-3
    _report(8, "am addition iso-spectrality", ok,
            f"rescale exact: {rescale_exact}, spectrum dev {dev:.3e}")


def test_09_sanity_chain():
    cfg = SolitonConfig((1.0, 2.0), (6.0, 12.0))
    res = T.darboux_ground(cfg)
    chain_ok = res.after.k == (1.0,) and res.after.c == (2.0,)
    rule = S.eigenfunction_rule(cfg, 2)
    worst = 0.0
    for x in np.linspace(-8.0, 8.0, 33):
        t = S.tau_jet_sum(cfg, rule, float(x), 2)
        u1 = -2.0 * jet_log_d2(t.jet)
        worst = max(worst, abs(u1 - S.potential(res.after, float(x))))
    ok = chain_ok and worst < 1e-10
    _report(9, "sanity chain", ok,
            f"rewrite exact: {chain_ok}, potential relation dev {worst:.3e}")


def test_10_kdv_residual_and_phase_shift():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(2):
        cfg = S.random_config(rng, n_range=(1, 4), k_range=(0.3, 2.5))
        xs = np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], 9)
        for t in np.linspace(-0.3, 0.3, 5):
            worst = max(worst, float(np.max(S.kdv_residual(cfg.advanced(t), xs))))
    shift_dev = N.phase_shift_check(SolitonConfig((1.0, 2.0), (1.0, 1.0)), (-3.0, 3.0))
    ok = worst < 1e-8 and shift_dev < 1e-3
    _report(10, "kdv residual and phase shift", ok,
            f"max residual {worst:.3e}, phase-shift dev {shift_dev:.3e}")


def test_11_normalization():
    rng = np.random.default_rng(107)
    cfg = S.random_config(rng, n=2, k_range=(0.7, 2.5))
    L = 28.0 / cfg.k[0]
    phi = lambda j, y: S.eigenfunction(cfg, j, y, 0).value
    worst_diag = worst_off = 0.0
    for j in (1, 2):
        q = N.quadrature(lambda y, j=j: phi(j, y) ** 2, -L, L, 1e-10)
        worst_diag = max(worst_diag, abs(q - 1.0 / cfg.c[j - 1]))
    q = N.quadrature(lambda y: phi(1, y) * phi(2, y), -L, L, 1e-10)
    worst_off = abs(q)
    ok = worst_diag < 1e-8 and worst_off < 1e-8
    _report(11, "normalization and orthogonality", ok,
            f"diag dev {worst_diag:.3e}, off-diag {worst_off:.3e}")
