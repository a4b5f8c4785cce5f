"""Independent numerical cross-checks.

Everything here consumes potentials only as black-box x -> U(x) maps and
never touches the determinant machinery, so agreement with the closed
forms is a genuine two-sided check. One Richardson step-doubling driver
runs a batched Magnus propagator (amplitudes at real k; bound states as
zeros of the Jost coefficient a(i kappa), bracketed by Sturm-count
bisection) and Gauss-Legendre quadrature, the oracle for the closed-form
overlap integrals. There are also the KdV residual of the flowing
potential and two-soliton phase shifts from located potential minima.
Everything runs on numpy alone.
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


def _check_domain(potential: Callable, L: float, decay_tol: float) -> float:
    """L as a float: ValueError unless positive and finite, DomainError unless U decayed at +-L."""
    L = float(L)
    if not 0.0 < L < math.inf:
        raise ValueError(f"domain half-width must be positive and finite, not {L}")
    edge = max(abs(float(potential(-L))), abs(float(potential(L))))
    if edge > decay_tol:
        raise DomainError(
            f"potential magnitude {edge:.3g} at +-{L} exceeds {decay_tol:.0e}; enlarge the domain"
        )
    return L


#: step refinement beyond which the step-doubling loop gives up
_MAGNUS_MAX_STEPS = 1 << 20

#: step maps built at once by _magnus_propagator (energies x steps)
_MAGNUS_BLOCK = 1 << 16

#: Gauss-Legendre nodes of [0, 1] and the commutator weight of the
#: fourth-order Magnus expansion
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_MAGNUS_C = math.sqrt(3.0) / 12.0


def _sample(f: Callable, L: float, nsteps: int) -> tuple:
    """f at both Gauss points of nsteps uniform steps from x = L to x = -L,
    in one call, as [nsteps, 2], and the signed step h = -2L/nsteps."""
    h = -2.0 * L / nsteps
    xs = L + h * (np.arange(nsteps)[:, None] + _GAUSS_NODES[None, :])
    u = np.asarray(f(xs.ravel()), dtype=float)
    if not np.all(np.isfinite(u)):
        bad = xs.ravel()[~np.isfinite(u)][0]
        raise SolverError(f"function is not finite at x={bad:.17g}")
    return u.reshape(nsteps, 2), h


def _mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Products p q of 2x2 maps stored as components [4, ...] (00, 01, 10, 11)."""
    r = np.empty(p.shape)
    r[0] = p[0] * q[0] + p[1] * q[2]
    r[1] = p[0] * q[1] + p[1] * q[3]
    r[2] = p[2] * q[0] + p[3] * q[2]
    r[3] = p[2] * q[1] + p[3] * q[3]
    return r


def _magnus_steps(u: np.ndarray, h: float, energies: np.ndarray) -> np.ndarray:
    """Fourth-order Magnus maps of (psi, psi') for psi'' = (U - E) psi, as
    components [4, E, nsteps], one per energy and step, each scaled by
    e^{-kappa |h|} with kappa = sqrt(max(-E, 0)).

    With A = [[0, 1], [q, 0]], q = U - E, at the two Gauss points of a
    step h, Omega = h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1] is traceless,
    so exp(Omega) = cosh(s) I + sinh(s)/s Omega with s^2 = -det(Omega);
    both are even in s and real functions of z = s^2 of either sign. The
    scale removes the growth e^{kappa |h|} of the free solution, so the
    product over [-L, L] stays finite and smooth in kappa."""
    energies = np.asarray(energies, dtype=float)[:, None]
    diag = _MAGNUS_C * h * h * (u[:, 0] - u[:, 1])
    lower = 0.5 * h * (u[:, 0] + u[:, 1]) - h * energies
    z = diag * diag + h * lower
    # series for |z| < 1e-4; the closed forms only where they are needed
    ch = 1.0 + z * (1.0 / 2 + z * (1.0 / 24 + z / 720))
    sc = 1.0 + z * (1.0 / 6 + z * (1.0 / 120 + z / 5040))
    grow, turn = z >= 1e-4, z <= -1e-4
    r = np.sqrt(z[grow])
    ch[grow], sc[grow] = np.cosh(r), np.sinh(r) / r
    r = np.sqrt(-z[turn])
    ch[turn], sc[turn] = np.cos(r), np.sin(r) / r
    scale = np.exp(-np.sqrt(np.maximum(-energies, 0.0)) * abs(h))
    ch *= scale
    sc *= scale
    return np.stack([ch + sc * diag, sc * h, sc * lower, ch - sc * diag])


def _magnus_propagator(u: np.ndarray, h: float, energies: np.ndarray) -> np.ndarray:
    """Scaled maps of (psi, psi') across all sampled steps, as components
    [4, E], one per energy; energies go in blocks of ~_MAGNUS_BLOCK steps."""
    energies = np.asarray(energies, dtype=float)
    block = max(1, _MAGNUS_BLOCK // len(u))
    out = []
    for s in range(0, len(energies), block):
        m = _magnus_steps(u, h, energies[s : s + block])
        # later steps multiply from the left; pair neighbours, log2(n) levels
        while m.shape[2] > 1:
            if m.shape[2] % 2:
                eye = np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]
                m = np.concatenate([m, np.broadcast_to(eye, (4, m.shape[1], 1))], axis=2)
            m = _mul(m[:, :, 1::2], m[:, :, 0::2])
        out.append(m[:, :, 0])
    return np.concatenate(out, axis=1)


def _jost_a(u: np.ndarray, h: float, kappa: np.ndarray) -> np.ndarray:
    """Jost coefficient a(i kappa) = 1/t(i kappa) for kappa > 0.

    The solution e^{-kappa x} of x > L is propagated to -L, where
    psi = a e^{-kappa x} + b e^{kappa x}, so a is -(psi' - kappa psi)/(2 kappa)
    there; the step scale e^{-kappa |h|} supplies the normalizing e^{-2 kappa L}.
    For a reflectionless potential a = prod_j (kappa - k_j)/(kappa + k_j)."""
    kappa = np.asarray(kappa, dtype=float)
    m = _magnus_propagator(u, h, -kappa * kappa)
    psi = m[0] - kappa * m[1]
    dpsi = m[2] - kappa * m[3]
    return (kappa * psi - dpsi) / (2.0 * kappa)


def _sturm_count(u: np.ndarray, h: float, kappa) -> np.ndarray:
    """Numbers of bound states below -kappa^2, one per kappa: the nodes of
    the solution e^{-kappa x} of x > L (oscillation theorem). Its values
    at every step end come from one batched prefix product of the step
    maps; beyond -L it is A e^{kappa x} + B e^{-kappa x}, with one more
    node iff psi and psi' - kappa psi have the same sign at -L (then
    sign B != sign psi)."""
    k = np.atleast_1d(np.asarray(kappa, dtype=float))
    p = _magnus_steps(u, h, -k * k)
    d = 1
    while d < p.shape[2]:
        p[:, :, d:] = _mul(p[:, :, d:], p[:, :, :-d])
        d *= 2
    # psi = 1 > 0 at x = L, then at every step end
    psi = p[0] - k[:, None] * p[1]
    nodes = np.count_nonzero(np.diff(np.signbit(psi), axis=1, prepend=False), axis=1)
    dpsi = p[2, :, -1] - k * p[3, :, -1]
    extra = psi[:, -1] * (dpsi - k * psi[:, -1]) > 0
    return (nodes + extra).reshape(np.shape(kappa))


#: secant steps allowed per root
_SECANT_MAX_STEPS = 60


def _secant(u, h, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of a(i kappa), one in each bracket [lo, hi] (a of opposite
    signs at the ends), by batched secant steps in s = log kappa, where the
    factors tanh((s - log k_j)/2) of a are odd about their roots; a step
    out of its bracket becomes a bisection, and each evaluation shrinks it.
    A root is settled, at its last iterate, once the next step in s is below 1e-13."""
    lo, hi = np.log(lo), np.log(hi)
    x0, f0, x1, f1 = lo, flo, hi, fhi
    done = np.zeros(len(lo), dtype=bool)
    for _ in range(_SECANT_MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            x = x1 - f1 * (x1 - x0) / (f1 - f0)
        done |= (np.abs(x - x1) <= 1e-13) | (f1 == 0.0)
        if done.all():
            return np.exp(x1)
        x = np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))
        x[done] = x1[done]
        f = f1.copy()
        f[~done] = _jost_a(u, h, np.exp(x[~done]))
        same = np.signbit(f) == np.signbit(flo)
        lo, flo = np.where(same, x, lo), np.where(same, f, flo)
        hi, fhi = np.where(same, hi, x), np.where(same, fhi, f)
        x0, f0, x1, f1 = x1, f1, x, f
    raise SolverError(f"secant refinement of {len(lo)} bound states did not settle")


def _bound_kappas(
    u: np.ndarray, h: float, floor: float, prev: np.ndarray | None
) -> np.ndarray | None:
    """Sorted kappa > floor of the bound states at one step, or None when
    the step is too coarse for the Sturm count (a node per step needs more
    than one radian of phase). prev, the roots of the previous step, are
    tried first in brackets of 1e-3 of their size (less than half their
    spacing). Otherwise every interval of [floor, sqrt(max(-U))] whose
    Sturm count drops by more than one is halved, all at once, until each
    holds one state; the brackets go to _secant."""
    depth = max(float(np.max(-u)), 0.0)
    if abs(h) * math.sqrt(depth) > 1.0:
        return None
    if prev is not None:
        if not len(prev):
            return prev
        spacing = np.diff(prev, prepend=-np.inf, append=np.inf)
        delta = np.minimum(1e-3 * prev, 0.4 * np.minimum(spacing[:-1], spacing[1:]))
        lo, hi = prev - delta, prev + delta
        flo, fhi = np.split(_jost_a(u, h, np.concatenate([lo, hi])), 2)
        if np.all(np.signbit(flo) != np.signbit(fhi)):
            return _secant(u, h, lo, hi, flo, fhi)
    ks = np.array([floor, max(math.sqrt(depth), floor)])
    n = _sturm_count(u, h, ks)
    if n[-1]:
        raise SolverError(f"Sturm count {n[-1]} at kappa = sqrt(max(-U)), below every state")
    if not n[0]:
        return np.empty(0)
    while True:
        drop = n[:-1] - n[1:]
        if np.any(drop < 0):
            raise SolverError("Sturm count rises with kappa")
        split = np.flatnonzero(drop > 1)
        if not len(split):
            break
        mid = 0.5 * (ks[split] + ks[split + 1])
        if np.any((mid == ks[split]) | (mid == ks[split + 1])):
            raise SolverError(f"Sturm count does not separate {drop[split].max()} bound states")
        ks = np.insert(ks, split + 1, mid)
        n = np.insert(n, split + 1, _sturm_count(u, h, mid))
    b = np.flatnonzero(drop)
    lo, hi = ks[b], ks[b + 1]
    flo, fhi = np.split(_jost_a(u, h, np.concatenate([lo, hi])), 2)
    if np.any(np.signbit(flo) == np.signbit(fhi)):
        raise SolverError("a(i kappa) keeps its sign across a bracket of one bound state")
    return _secant(u, h, lo, hi, flo, fhi)


def _step_doubling(
    f: Callable, L: float, h0: float, evaluate: Callable, tol: float, what: str
) -> tuple:
    """Values of evaluate(u, h) settled by step doubling.

    Each level samples f once (`_sample`) on a uniform step over [-L, L],
    halving from about h0. evaluate is a fourth-order method in the step
    (the Magnus propagator of scatter and bound_spectrum, or the
    Gauss-Legendre rule of quadrature), so (16 fine - coarse)/15 of
    successive levels cancels the leading error; two successive such
    extrapolations agreeing to tol (absolute) bound the error of the
    coarser one, and the finer is returned with the step of its fine
    level. evaluate may return None to ask for a finer step; a change of
    shape restarts the comparison. Past _MAGNUS_MAX_STEPS steps
    SolverError is raised."""
    nsteps = max(2, math.ceil(2.0 * L / h0))
    prev = prev_rich = None
    while nsteps <= _MAGNUS_MAX_STEPS:
        u, h = _sample(f, L, nsteps)
        val = evaluate(u, h)
        nsteps *= 2
        if val is None:
            continue
        rich = None
        if prev is not None and prev.shape == val.shape:
            rich = (16.0 * val - prev) / 15.0
            if prev_rich is not None and np.all(np.abs(rich - prev_rich) <= tol):
                return rich, abs(h)
        prev, prev_rich = val, rich
    raise SolverError(f"{what} did not settle to {tol:.0e} within {_MAGNUS_MAX_STEPS} steps")


#: the step-doubling tolerance of scatter and bound_spectrum
_RTOL = 1e-10


def bound_spectrum(
    potential: Callable,
    domain_halfwidth: float,
    grid_step: float = 0.05,
    decay_tol: float = DECAY_TOL,
) -> SpectrumResult:
    """Bound-state energies -kappa^2 of -d^2/dx^2 + U, with U taken as 0
    beyond [-L, L], as the zeros of the Jost coefficient a(i kappa).

    At each step, the Sturm node count (`_sturm_count`) of the states
    below -kappa^2 is bisected on kappa in (1/L, sqrt(max(-U))], for all
    intervals at once, until each interval holds at most one state; on
    each one-state bracket the root of a(i kappa) (`_jost_a`, the Magnus
    kernel of scatter at E = -kappa^2) is refined by secant steps kept in
    the bracket. The search floor 1/L leaves out only states whose decay
    length exceeds the domain. A count that is not 0 at sqrt(max(-U)),
    rises with kappa or never separates two states, or a one-state bracket
    without a sign change of a, raises SolverError: the result never
    misses a state silently. grid_step is the starting Magnus step (made
    finer if a step would span more than one radian of oscillation); it
    is halved until two successive Richardson extrapolations of the
    energies agree to 1e-10, and the returned grid_step is the finest
    step used. A non-finite U or more than _MAGNUS_MAX_STEPS steps raise
    SolverError; a domain_halfwidth or grid_step that is not positive and
    finite raises ValueError.

    `potential` must accept an array of x values."""
    L = _check_domain(potential, domain_halfwidth, decay_tol)
    if not 0.0 < float(grid_step) < math.inf:
        raise ValueError(f"grid step must be positive and finite, not {grid_step}")
    floor = 1.0 / L
    prev = None

    def energies(u, h):
        nonlocal prev
        kappa = _bound_kappas(u, h, floor, prev)
        if kappa is None:
            return None
        prev = kappa
        return np.sort(-kappa * kappa)

    vals, h = _step_doubling(
        potential, L, float(grid_step), energies, _RTOL, "bound-state energies"
    )
    return SpectrumResult(tuple(float(v) for v in np.sort(vals)), h, L)


def _amplitudes(prop: np.ndarray, k: float, L: float) -> tuple:
    """(r, t) from the propagator of the outgoing wave e^{ikx} at +L: at -L,
    psi = A e^{ikx} + B e^{-ikx}, normalized to unit incident A."""
    psi = prop[0] + 1j * k * prop[1]
    dpsi = prop[2] + 1j * k * prop[3]
    # common factor e^{ikL} of psi and psi' cancels in r
    a = 0.5 * (psi + dpsi / (1j * k)) * cmath.exp(2j * k * L)
    b = 0.5 * (psi - dpsi / (1j * k))
    return b / a, 1.0 / a


def scatter(
    potential: Callable,
    k: float,
    domain_halfwidth: float,
    rtol: float = _RTOL,
    decay_tol: float = DECAY_TOL,
) -> ScatteringResult:
    """Reflection/transmission amplitudes at wavenumber k > 0.

    Propagates (psi, psi') for psi'' = (U - k^2) psi from +L (pure
    outgoing e^{ikx}) to -L with a fourth-order Magnus method on a
    uniform grid (`_magnus_propagator` at E = k^2), then splits the left
    asymptote into incident e^{ikx} and reflected e^{-ikx} parts;
    amplitudes are normalized to unit incident amplitude. The method is
    exact for piecewise-constant U, so the step need not resolve the
    wavelength: it starts near 0.05/max(k, 1) and is halved until two
    successive Richardson extrapolations (16 fine - coarse)/15 of (r, t)
    agree to rtol, which bounds the error of the coarser one; the finer
    is returned. Past _MAGNUS_MAX_STEPS steps, or on a non-finite U,
    SolverError is raised; a k or domain_halfwidth that is not positive
    and finite raises ValueError.

    `potential` must accept an array of x values: each refinement
    evaluates U at all its Gauss points in one call."""
    if not 0.0 < k < math.inf:
        raise ValueError(f"wavenumber must be positive and finite, not {k}")
    L = _check_domain(potential, domain_halfwidth, decay_tol)

    def amplitudes(u, h):
        return np.array(_amplitudes(_magnus_propagator(u, h, np.array([k * k]))[:, 0], k, L))

    (r, t), _ = _step_doubling(
        potential, L, 0.05 / max(k, 1.0), amplitudes, rtol, "scattering amplitudes"
    )
    return ScatteringResult(k=k, reflection_amp=complex(r), transmission_amp=complex(t))


def transmission_product(cfg: SolitonConfig, k: float) -> complex:
    """Closed-form transmission amplitude prod_j (ik - k_j)/(ik + k_j)."""
    t = 1.0 + 0.0j
    for kj in cfg.k:
        t *= (1j * k - kj) / (1j * k + kj)
    return t


def quadrature(f: Callable, a: float, b: float, tol: float = 1e-10) -> float:
    """Integral of f from a to b (so a > b gives the negated integral) by
    two-point Gauss-Legendre steps, h/2 (f(g1) + f(g2)) per step, on the
    step-doubling driver of scatter: each level calls f once on all its
    nodes, and the step halves from (b - a)/2 until two successive
    Richardson extrapolations agree to the absolute tolerance tol. Past
    _MAGNUS_MAX_STEPS steps, or on a non-finite f (its message gives x as
    the offset from (a + b)/2), SolverError is raised.

    f must accept an array of x values."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    # the driver samples [-half, half]; -h/2 is the signed weight of a node
    rule = lambda u, h: -0.5 * h * u.sum()
    return float(_step_doubling(lambda t: f(mid + t), half, 2 * half, rule, tol, "quadrature")[0])


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
    u = float(uj.coeffs[0])
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
