"""Independent numerical cross-checks.

Everything here consumes potentials only as black-box x -> U(x) maps and
never touches the determinant machinery, so agreement with the closed
forms is a genuine two-sided check: bound spectra from a finite-difference
Hamiltonian, reflection/transmission amplitudes from direct integration of
the scattering problem, adaptive quadrature as an oracle for the closed-
form overlap integrals, and the KdV residual of the flowing potential.

scipy is imported inside the functions that use it: it dominates the
import time of the package, and most callers never need it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solitons import (
    SolitonConfig,
    apply_time_flows,
    dt_potential,
    potential_fn,
    potential_jet,
)


#: largest |U| accepted at the ends of a truncated domain
DECAY_TOL = 1e-8


class DomainError(ValueError):
    """Potential has not decayed at the requested boundary."""


class SolverError(RuntimeError):
    """Numerical routine failed to converge."""


@dataclass(frozen=True)
class SpectrumResult:
    energies: tuple
    grid_step: float
    domain_halfwidth: float


@dataclass(frozen=True)
class ScatteringResult:
    k: float
    reflection_amp: complex
    transmission_amp: complex

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.reflection_amp) ** 2 + abs(self.transmission_amp) ** 2 - 1.0)


def bound_spectrum(
    potential: Callable,
    domain_halfwidth: float,
    grid_step: float = 1e-3,
    decay_tol: float = DECAY_TOL,
) -> SpectrumResult:
    """Negative eigenvalues of -d^2/dx^2 + U on [-L, L] with clamped ends,
    from the symmetric three-point finite-difference Hamiltonian."""
    from scipy.linalg import eigh_tridiagonal

    L = float(domain_halfwidth)
    h = float(grid_step)
    edge = max(abs(float(potential(-L))), abs(float(potential(L))))
    if edge > decay_tol:
        raise DomainError(
            f"potential magnitude {edge:.3g} at +-{L} exceeds {decay_tol:.0e}; enlarge the domain"
        )
    npts = int(round(2.0 * L / h)) - 1
    xs = -L + h * np.arange(1, npts + 1)
    diag = 2.0 / h**2 + np.asarray(potential(xs), dtype=float)
    off = np.full(npts - 1, -1.0 / h**2)
    vals = eigh_tridiagonal(diag, off, select="v", select_range=(-np.inf, 0.0), eigvals_only=True)
    return SpectrumResult(tuple(float(v) for v in np.sort(vals)), h, L)


def scatter(
    potential: Callable,
    k: float,
    domain_halfwidth: float,
    rtol: float = 1e-10,
    decay_tol: float = DECAY_TOL,
) -> ScatteringResult:
    """Reflection/transmission amplitudes at wavenumber k > 0.

    Integrates psi'' = (U - k^2) psi from +L (pure outgoing e^{ikx}) to
    -L, then splits the left asymptote into incident e^{ikx} and
    reflected e^{-ikx} parts; amplitudes are normalized to unit incident
    amplitude."""
    from scipy.integrate import solve_ivp

    if k <= 0:
        raise ValueError("wavenumber must be positive")
    L = float(domain_halfwidth)
    edge = max(abs(float(potential(-L))), abs(float(potential(L))))
    if edge > decay_tol:
        raise DomainError(
            f"potential magnitude {edge:.3g} at +-{L} exceeds {decay_tol:.0e}; enlarge the domain"
        )

    def rhs(x, y):
        psi, dpsi = y[0] + 1j * y[1], y[2] + 1j * y[3]
        ddpsi = (float(potential(x)) - k * k) * psi
        return [dpsi.real, dpsi.imag, ddpsi.real, ddpsi.imag]

    psi0 = cmath.exp(1j * k * L)
    dpsi0 = 1j * k * psi0
    sol = solve_ivp(
        rhs,
        (L, -L),
        [psi0.real, psi0.imag, dpsi0.real, dpsi0.imag],
        method="DOP853",
        rtol=rtol,
        atol=1e-12,
    )
    if not sol.success:
        raise SolverError(f"scattering integration failed: {sol.message}")
    psi = sol.y[0, -1] + 1j * sol.y[1, -1]
    dpsi = sol.y[2, -1] + 1j * sol.y[3, -1]
    # at -L: psi = A e^{-ikL} + B e^{ikL} (incident A, reflected B)
    a = 0.5 * (psi + dpsi / (1j * k)) * cmath.exp(1j * k * L)
    b = 0.5 * (psi - dpsi / (1j * k)) * cmath.exp(-1j * k * L)
    return ScatteringResult(k=k, reflection_amp=b / a, transmission_amp=1.0 / a)


def transmission_product(cfg: SolitonConfig, k: float) -> complex:
    """Closed-form transmission amplitude prod_j (ik - k_j)/(ik + k_j)."""
    t = 1.0 + 0.0j
    for kj in cfg.k:
        t *= (1j * k - kj) / (1j * k + kj)
    return t


def quadrature(f: Callable, a: float, b: float, tol: float = 1e-10, max_depth: int = 48) -> float:
    """Adaptive Simpson integral of f over [a, b]."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        if depth >= max_depth:
            raise SolverError(f"quadrature did not converge on [{x0}, {x2}]")
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, eps / 2.0, depth + 1
        )

    a = float(a)
    b = float(b)
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def kdv_residual(cfg: SolitonConfig, x: float, t: float | None = None) -> float:
    """|dU/dt - 6 U dU/dx + d^3U/dx^3| at (x, t) for the lowest flow;
    spatial derivatives from an order-3 jet of U, the time derivative
    analytic (never finite-differenced)."""
    if t is not None:
        times = dict(cfg.times or {})
        times[3] = times.get(3, 0.0) + float(t)
        cfg = SolitonConfig(cfg.k, cfg.c, times)
    if cfg.n == 0:
        return 0.0
    uj = potential_jet(cfg, float(x), 3)
    u = float(uj.coeffs[0].real) if np.iscomplexobj(uj.coeffs) else float(uj.coeffs[0])
    ux = float(uj.deriv(1))
    uxxx = float(uj.deriv(3))
    ut = dt_potential(cfg, float(x))
    return abs(ut - 6.0 * u * ux + uxxx)


def _potential_minimum(ufn: Callable, lo: float, hi: float) -> float:
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda x: float(ufn(x)), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x)


def phase_shift_check(cfg: SolitonConfig, t_pair: tuple, min_separation: float = 5.0) -> float:
    """Two-soliton collision phase shifts.

    Evolves the config to t = -T and t = +T, locates both potential
    minima, and compares each soliton's offset from free motion
    (center x_j(t) = 4 k_j^2 t + log(c_j / 2 k_j) / (2 k_j)) against the
    closed-form shift a/(2 k_j), a = 2 log|(k_1-k_2)/(k_1+k_2)|: the
    faster soliton is advanced by a/(2 k_2) before the collision and
    free afterwards, the slower one the other way round. Returns the
    maximum absolute deviation."""
    if cfg.n != 2:
        raise ValueError("phase-shift check requires exactly two solitons")
    k1, k2 = cfg.k
    a12 = 2.0 * math.log(abs(k1 - k2) / (k1 + k2))
    tm, tp = (float(t_pair[0]), float(t_pair[1]))
    free_center = lambda j, t: 4.0 * cfg.k[j] ** 2 * t + math.log(cfg.c[j] / (2.0 * cfg.k[j])) / (
        2.0 * cfg.k[j]
    )
    # expected offsets from free motion: (at -T, at +T) for slow and fast
    expected = {0: (0.0, a12 / (2.0 * k1)), 1: (a12 / (2.0 * k2), 0.0)}
    worst = 0.0
    for t, side in ((tm, 0), (tp, 1)):
        flowed = apply_time_flows(SolitonConfig(cfg.k, cfg.c, {3: t}))
        ufn = potential_fn(flowed)
        centers = []
        for j in range(2):
            guess = free_center(j, t) + expected[j][side]
            centers.append(_potential_minimum(ufn, guess - 2.0 / cfg.k[j], guess + 2.0 / cfg.k[j]))
        if abs(centers[0] - centers[1]) < min_separation / k1:
            raise SolverError(f"solitons not separated at t={t}; increase |T|")
        for j in range(2):
            worst = max(worst, abs(centers[j] - free_center(j, t) - expected[j][side]))
    return worst
