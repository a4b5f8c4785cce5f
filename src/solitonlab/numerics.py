"""Independent numerical cross-checks.

Everything here consumes potentials only as black-box x -> U(x) maps and
never touches the determinant machinery, so agreement with the closed
forms is a genuine two-sided check: bound spectra from a finite-difference
Hamiltonian, reflection/transmission amplitudes from a Magnus propagator
for the scattering problem, adaptive quadrature as an oracle for the
closed-form overlap integrals, the KdV residual of the flowing potential,
and two-soliton phase shifts from located potential minima.

scipy is used by bound_spectrum only (its tridiagonal eigensolver), and
imported inside it: scipy dominates the import time of the package, and
every other routine here runs on numpy alone.
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


#: step refinement beyond which scatter gives up on its tolerance
_MAGNUS_MAX_STEPS = 1 << 20

#: Gauss-Legendre nodes of [0, 1] and the commutator weight of the
#: fourth-order Magnus expansion
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_MAGNUS_C = math.sqrt(3.0) / 12.0


def _magnus_propagator(potential: Callable, k: float, L: float, nsteps: int) -> np.ndarray:
    """Real 2x2 map of (psi, psi') from x = L to x = -L for
    psi'' = (U - k^2) psi, by nsteps fourth-order Magnus steps.

    With A = [[0, 1], [q, 0]], q = U - k^2, at the two Gauss points of a
    step h, Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1] is traceless,
    so exp(Omega) = cosh(s) I + sinh(s)/s Omega with s^2 = -det(Omega);
    both are even in s and real functions of z = s^2 of either sign."""
    h = -2.0 * L / nsteps
    xs = L + h * (np.arange(nsteps)[:, None] + _GAUSS_NODES[None, :])
    u = np.asarray(potential(xs.ravel()), dtype=float)
    if not np.all(np.isfinite(u)):
        bad = xs.ravel()[~np.isfinite(u)][0]
        raise SolverError(f"potential is not finite at x={bad:.17g}")
    q = u.reshape(nsteps, 2) - k * k
    diag = _MAGNUS_C * h * h * (q[:, 0] - q[:, 1])
    lower = 0.5 * h * (q[:, 0] + q[:, 1])
    z = diag * diag + h * lower
    r = np.sqrt(np.abs(z))
    with np.errstate(invalid="ignore", divide="ignore"):
        ch = np.where(z > 0, np.cosh(r), np.cos(r))
        sc = np.where(z > 0, np.sinh(r), np.sin(r)) / r
    small = np.abs(z) < 1e-4
    zs = z[small]
    ch[small] = 1.0 + zs * (1.0 / 2 + zs * (1.0 / 24 + zs / 720))
    sc[small] = 1.0 + zs * (1.0 / 6 + zs * (1.0 / 120 + zs / 5040))
    steps = np.empty((nsteps, 2, 2))
    steps[:, 0, 0] = ch + sc * diag
    steps[:, 0, 1] = sc * h
    steps[:, 1, 0] = sc * lower
    steps[:, 1, 1] = ch - sc * diag
    # later steps multiply from the left; pair neighbours, log2(n) levels
    while len(steps) > 1:
        if len(steps) % 2:
            steps = np.concatenate([steps, np.eye(2)[None]])
        steps = steps[1::2] @ steps[0::2]
    return steps[0]


def _amplitudes(prop: np.ndarray, k: float, L: float) -> tuple:
    """(r, t) from the propagator of the outgoing wave e^{ikx} at +L: at -L,
    psi = A e^{ikx} + B e^{-ikx}, normalized to unit incident A."""
    psi = prop[0, 0] + 1j * k * prop[0, 1]
    dpsi = prop[1, 0] + 1j * k * prop[1, 1]
    # common factor e^{ikL} of psi and psi' cancels in r
    a = 0.5 * (psi + dpsi / (1j * k)) * cmath.exp(2j * k * L)
    b = 0.5 * (psi - dpsi / (1j * k))
    return b / a, 1.0 / a


def scatter(
    potential: Callable,
    k: float,
    domain_halfwidth: float,
    rtol: float = 1e-10,
    decay_tol: float = DECAY_TOL,
) -> ScatteringResult:
    """Reflection/transmission amplitudes at wavenumber k > 0.

    Propagates (psi, psi') for psi'' = (U - k^2) psi from +L (pure
    outgoing e^{ikx}) to -L with a fourth-order Magnus method on a
    uniform grid, then splits the left asymptote into incident e^{ikx}
    and reflected e^{-ikx} parts; amplitudes are normalized to unit
    incident amplitude. The method is exact for piecewise-constant U, so
    the step need not resolve the wavelength: it starts near 0.05/max(k, 1)
    and is halved until two successive (r, t) agree to rtol, which then
    bounds the error of the finer one. Past _MAGNUS_MAX_STEPS steps, or
    on a non-finite U, SolverError is raised.

    `potential` must accept an array of x values: each refinement
    evaluates U at all its Gauss points in one call."""
    if k <= 0:
        raise ValueError("wavenumber must be positive")
    L = float(domain_halfwidth)
    edge = max(abs(float(potential(-L))), abs(float(potential(L))))
    if edge > decay_tol:
        raise DomainError(
            f"potential magnitude {edge:.3g} at +-{L} exceeds {decay_tol:.0e}; enlarge the domain"
        )
    nsteps = max(2, math.ceil(2.0 * L * max(k, 1.0) / 0.05))
    prev = None
    while nsteps <= _MAGNUS_MAX_STEPS:
        r, t = _amplitudes(_magnus_propagator(potential, k, L, nsteps), k, L)
        if prev is not None and abs(r - prev[0]) <= rtol and abs(t - prev[1]) <= rtol:
            return ScatteringResult(k=k, reflection_amp=r, transmission_amp=t)
        prev = r, t
        nsteps *= 2
    raise SolverError(
        f"scattering amplitudes did not settle to rtol={rtol:.0e} within {_MAGNUS_MAX_STEPS} steps"
    )


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
    """Minimizer of ufn on [lo, hi]: the argmin of a 33-point grid, zoomed
    onto its neighbours until the bracket is ~1e-3 of the original, then
    parabolic (Newton-like) steps through a five-point stencil of spacing
    d = 1e-4 (hi - lo), which may reach 2d past the bracket.

    U is flat to rounding within ~sqrt(eps) of its minimum, so comparing
    values alone stalls near 1e-8. The vertex of the parabola through a
    symmetric three-point stencil of half-width d is off by O(d^2) plus
    rounding over d; combining the vertices for d and 2d (Richardson)
    cancels the d^2 term, so d stays wide enough for rounding not to
    matter."""
    a, b = float(lo), float(hi)
    while True:
        xs = np.linspace(a, b, 33)
        i = int(np.argmin(ufn(xs)))
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, 32)]
        if b - a <= 1e-3 * (hi - lo):
            break
    x = float(xs[i])
    d = 1e-4 * (hi - lo)
    for _ in range(3):
        f2m, f1m, f0, f1p, f2p = ufn(x + d * np.arange(-2.0, 3.0))
        curv1, curv2 = f1p - 2.0 * f0 + f1m, f2p - 2.0 * f0 + f2m
        if not (curv1 > 0 and curv2 > 0):
            break
        step1 = -0.5 * d * (f1p - f1m) / curv1
        step2 = -d * (f2p - f2m) / curv2
        x = min(max(x + (4.0 * step1 - step2) / 3.0, lo), hi)
    return float(x)


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
