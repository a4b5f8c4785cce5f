"""Isospectral and state-deleting deformations of reflectionless potentials.

Two layers are implemented deliberately side by side:

* closed-form parameter rewrites — ground-state Darboux, Krein-Adler
  multi-deletion (per-factor exponent 1), Abraham-Moses deletion
  (exponent 2) and addition (pure c rescale), each returning a new
  SolitonConfig;
* generic engines over arbitrary seed functions — Wronskian-quotient
  Darboux chains and the overlap-determinant Abraham-Moses map — that
  never look at the closed forms.

That the two layers produce the same potentials is a theorem; the test
suite treats it as a falsifiable claim and checks it pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .jets import Jet, SingularJetError, jet_det, jet_exp, jet_log_d2
from .solitons import (
    ConfigError,
    CoefficientRule,
    SolitonConfig,
    TauGrid,
    deletion_rule,
    eigenfunction,
    eigenfunction_grid,
    rescale_rule,
    row_gauged,
    tail_matrix_grid,
    tail_values,
    tau_jet_sum_grid,
)


class RegularityError(ArithmeticError):
    """Transform denominator loses positivity (singular output)."""


@dataclass(frozen=True)
class TransformResult:
    """Outcome of a deformation: surviving spectral data plus a record of
    the scheme, the deleted index set, and the per-factor exponent of the
    induced rewrite c_m -> c_m * prod_d ((k_d - k_m)/(k_d + k_m))^xi."""

    before: SolitonConfig
    scheme: str
    deleted: tuple
    xi_exponent: int | None
    after_k: tuple
    after_c: tuple
    am_params: dict | None = None

    @property
    def after(self) -> SolitonConfig:
        """Surviving data as a validated config; raises for the singular
        outputs produced under the unsafe Krein-Adler override."""
        return SolitonConfig(self.after_k, self.after_c, self.before.times)

    @property
    def is_regular(self) -> bool:
        return all(c > 0 for c in self.after_c)


def _delete(cfg: SolitonConfig, deleted, xi: int, scheme: str) -> TransformResult:
    dset = sorted(set(int(d) for d in deleted))
    for d in dset:
        if not 1 <= d <= cfg.n:
            raise ConfigError(f"deleted index {d} out of range 1..{cfg.n}")
    newc = deletion_rule(cfg, dset, xi).apply(cfg)
    keep = [m for m in range(1, cfg.n + 1) if m not in dset]
    return TransformResult(
        before=cfg,
        scheme=scheme,
        deleted=tuple(dset),
        xi_exponent=xi,
        after_k=tuple(cfg.k[m - 1] for m in keep),
        after_c=tuple(float(newc[m - 1]) for m in keep),
    )


def darboux_ground(cfg: SolitonConfig) -> TransformResult:
    """Delete the ground state (index N) by a single Darboux step; the
    result is the (N-1)-soliton family member with rewritten c — shape
    invariance in executable form."""
    if cfg.n < 1:
        raise ConfigError("nothing to delete from the trivial potential")
    return _delete(cfg, {cfg.n}, 1, "darboux_ground")


def _krein_adler_violation(n: int, deleted) -> int | None:
    """First m in 1..n with prod_j (d_j - m) < 0, or None when the
    deletion set is admissible."""
    dset = sorted(set(int(d) for d in deleted))
    for m in range(1, n + 1):
        prod = 1
        for d in dset:
            prod *= d - m
        if prod < 0:
            return m
    return None


def krein_adler_check(n: int, deleted) -> bool:
    """Admissibility of deleting the index set: prod_j (d_j - m) >= 0 for
    every m in 1..n, which is what keeps the surviving c non-negative."""
    return _krein_adler_violation(n, deleted) is None


def krein_adler_delete(cfg: SolitonConfig, deleted, unsafe: bool = False) -> TransformResult:
    """Multi-state Darboux deletion (exponent-1 rewrite). The sign
    condition guarantees a regular output; `unsafe` skips it to let the
    caller study the resulting singular potentials (the result's `after`
    accessor will refuse to validate them)."""
    m = _krein_adler_violation(cfg.n, deleted)
    if m is not None and not unsafe:
        raise ConfigError(
            f"deletion set {sorted(set(deleted))} fails the sign condition at m={m}; "
            "the output would be singular (pass unsafe=True to build it anyway)"
        )
    return _delete(cfg, deleted, 1, "krein_adler")


def am_delete(cfg: SolitonConfig, deleted) -> TransformResult:
    """Abraham-Moses deletion (exponent-2 rewrite): squared factors are
    positive, so any index set is admissible."""
    return _delete(cfg, deleted, 2, "am_delete")


def am_add(cfg: SolitonConfig, params: Mapping) -> TransformResult:
    """Abraham-Moses addition with parameters e_j > 0: exactly
    iso-spectral, rescaling c_j -> e_j/(e_j+1) * c_j."""
    rule = CoefficientRule.identity(cfg.n)
    clean = {}
    for j, e in params.items():
        j = int(j)
        e = float(e)
        if not 1 <= j <= cfg.n:
            raise ConfigError(f"addition index {j} out of range 1..{cfg.n}")
        if e <= 0:
            raise ConfigError(f"addition parameter e_{j} = {e} must be positive")
        clean[j] = e
        rule = rule.compose(rescale_rule(cfg.n, j, e / (e + 1.0)))
    newc = rule.apply(cfg)
    return TransformResult(
        before=cfg,
        scheme="am_add",
        deleted=(),
        xi_exponent=None,
        after_k=cfg.k,
        after_c=tuple(float(v) for v in newc),
        am_params=clean,
    )


# ---------------------------------------------------------------------------
# Seed functions and the generic engines


@dataclass(frozen=True)
class SeedFunction:
    """A solution of the starting Hamiltonian at a fixed energy, exposed
    as a jet evaluator (x, order) -> Jet, where x is a point or a grid
    (giving a batched Jet). Eigenfunction seeds remember their spectral
    origin so overlap integrals can use closed forms."""

    evaluator: Callable
    config: SolitonConfig | None = None
    index: int | None = None

    def __call__(self, x, order: int) -> Jet:
        return self.evaluator(x, order)


def eigenfunction_seed(cfg: SolitonConfig, j: int, den: TauGrid | None = None, num: TauGrid | None = None) -> SeedFunction:
    """The j-th bound state as a seed. On a grid it is one batched
    eigenfunction_grid evaluation; den, the config's own tau over a
    grid (tau_jet_sum_grid(cfg, None, xs, order)), is reused on that grid
    up to its order, so seeds sharing it evaluate the config's tau once
    between them. num, the seed's eigenfunction numerator over den's grid
    at den's order, is reused there too (eigenfunction_grid's num)."""

    def ev(x, order):
        if np.ndim(x) == 0:
            return eigenfunction(cfg, j, x, order)
        if den is not None and order <= den.order and np.array_equal(x, den.xs):
            return eigenfunction_grid(cfg, j, den.truncate(order), None if num is None else num.truncate(order))
        return eigenfunction_grid(cfg, j, tau_jet_sum_grid(cfg, None, x, order))

    return SeedFunction(evaluator=ev, config=cfg, index=j)


def eigenfunction_seeds(cfg: SolitonConfig, indices, den: TauGrid | None = None) -> list:
    return [eigenfunction_seed(cfg, j, den) for j in sorted(set(indices))]


def free_seed(k: float, ctilde: float) -> SeedFunction:
    """Zero-potential solution e^{kx} + ctilde e^{-kx} at energy -k^2.
    Regular Wronskian chains need the signs (-1)^(j-1) ctilde > 0."""

    def ev(x, order):
        return jet_exp(k, x, order) + jet_exp(-k, x, order) * ctilde

    return SeedFunction(evaluator=ev)


def plane_wave_seed(k: float) -> SeedFunction:
    """Scattering solution e^{ikx} of the zero potential, energy +k^2."""

    def ev(x, order):
        rate = 1j * k
        c = np.empty(np.shape(x) + (order + 1,), dtype=complex)
        c[..., 0] = np.exp(rate * np.asarray(x))
        for n in range(1, order + 1):
            c[..., n] = c[..., n - 1] * rate / n
        return Jet(x, c)

    return SeedFunction(evaluator=ev)


def seed_config_from_free(k, ctilde) -> SolitonConfig:
    """Spectral data whose tau matches (up to the exponential gauge) the
    Wronskian of the free seeds e^{k_j x} + ctilde_j e^{-k_j x}:
    c_j = 2 k_j |ctilde_j| * prod_{m != j} (k_j + k_m)/|k_j - k_m|."""
    k = [float(v) for v in k]
    ctilde = [float(v) for v in ctilde]
    if len(k) != len(ctilde):
        raise ConfigError("k and ctilde length mismatch")
    for j, ct in enumerate(ctilde, start=1):
        if (-1.0) ** (j - 1) * ct <= 0:
            raise ConfigError(f"seed coefficient {j} violates the alternating sign pattern")
    c = []
    for j, (kj, ct) in enumerate(zip(k, ctilde), start=1):
        v = 2.0 * kj * abs(ct)
        for m, km in enumerate(k, start=1):
            if m != j:
                v *= (kj + km) / abs(kj - km)
        c.append(v)
    return SolitonConfig(tuple(k), tuple(c))


def wronskian(fns: Sequence, x, order: int = 0) -> Jet:
    """Jet of the Wronskian det(d^(i-1) f_m / dx^(i-1)) at a point x, or
    batched over a grid x: each function is evaluated once, over the
    whole grid, and the determinant is one batched jet_det. Accepts
    SeedFunctions or raw (x, order) -> Jet evaluators; an empty list
    gives the constant 1 (the empty determinant)."""
    x = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
    m = len(fns)
    if m == 0:
        return Jet.constant(1.0, x, order)
    jets = [f(x, m - 1 + order) for f in fns]
    rows = []
    current = [j.truncate(m - 1 + order) for j in jets]
    for i in range(m):
        rows.append([j.truncate(order) for j in current])
        if i < m - 1:
            current = [j.derivative() for j in current]
    return jet_det(rows)


def generic_darboux(seeds: Sequence, target, x: float, order: int = 0) -> Jet:
    """Image of the target under the M-seed Darboux chain:
    W[seed_1, ..., seed_M, target] / W[seed_1, ..., seed_M]."""
    if not seeds:
        return target(float(x), order)
    num = wronskian(list(seeds) + [target], x, order)
    den = wronskian(seeds, x, order)
    try:
        return num / den
    except SingularJetError as exc:
        raise RegularityError(f"seed Wronskian vanishes at x={x}") from exc


def deleted_seed_image(seeds: Sequence, drop: int, x: float, order: int = 0) -> Jet:
    """Image of the dropped seed itself: W[seeds without seeds[drop]] /
    W[seeds], an eigenfunction of the transformed Hamiltonian."""
    reduced = [s for i, s in enumerate(seeds) if i != drop]
    num = wronskian(reduced, x, order)
    den = wronskian(seeds, x, order)
    try:
        return num / den
    except SingularJetError as exc:
        raise RegularityError(f"seed Wronskian vanishes at x={x}") from exc


def darboux_potential(seeds: Sequence, base_potential: Callable, x: float) -> float:
    """Transformed potential U - 2 (log |W[seeds]|)'' at x."""
    if not seeds:
        return float(base_potential(x))
    w = wronskian(seeds, x, 2)
    w0 = w.coeffs[0]
    if not np.isreal(w0) or w0 == 0:
        raise RegularityError(f"seed Wronskian vanishes or is complex at x={x}")
    if w0.real < 0:
        w = -w
    return float(base_potential(x)) - 2.0 * jet_log_d2(Jet(w.center, w.coeffs.real))


@dataclass(frozen=True)
class AMResult:
    """Pointwise output of the generic overlap-determinant map."""

    x: float
    potential: float
    target_value: float | None


def generic_am(
    seeds: Sequence,
    mode: str,
    e: Sequence | None = None,
    target=None,
    x: float = 0.0,
) -> AMResult:
    """Generic Abraham-Moses step over bound-state seeds of one config.

    Uses unit-normalized seeds s_j = sqrt(c_j) phi_j, so the overlap
    matrix is F_jl = (e_j + 1) delta_jl - sqrt(c_j c_l) T_jl(x) for
    addition and F_jl = sqrt(c_j c_l) T_jl(x) for deletion, where T is
    the tail integral of phi_j phi_l from x to +infinity (closed form,
    no quadrature). The new potential is U - 2 (log det F)'', with
    U = -2 (log u)'' from the order-2 tau u that the tails already use.
    """
    if mode not in ("add", "delete"):
        raise ConfigError(f"unknown mode {mode!r}; use 'add' or 'delete'")
    if not seeds:
        raise ConfigError("at least one seed required")
    cfg = seeds[0].config
    if cfg is None or any(s.config is not cfg or s.index is None for s in seeds):
        raise ConfigError("generic_am needs bound-state seeds of a single config")
    idx = [s.index for s in seeds]
    m = len(seeds)
    if mode == "add":
        if e is None or len(e) != m:
            raise ConfigError("addition needs one parameter e per seed")
        e = [float(v) for v in e]
        if any(v <= 0 for v in e):
            raise ConfigError("addition parameters must be positive")

    # one-point grid: every jet below is batched over the single point x
    x = float(x)
    sqc = np.sqrt([cfg.c[j - 1] for j in idx])
    sqcc = np.outer(sqc, sqc)
    den = tau_jet_sum_grid(cfg.flowed(), None, [x], 2)
    pair_taus = {}
    tails = tail_matrix_grid(cfg, idx, idx, den, pair_taus)

    if mode == "delete":
        # F = D T D with D = diag(sqrt c); D and the row gauges factor out of log det
        det = jet_det(row_gauged(tails)[0])
        if det.value[0] <= 0:
            raise RegularityError(f"overlap determinant not positive at x={x}")
    else:
        rows = [[t.values() * -sqcc[a, b] for b, t in enumerate(row)] for a, row in enumerate(tails)]
        for a in range(m):
            rows[a][a] = rows[a][a] + (e[a] + 1.0)
        det = jet_det(rows)
        if det.value[0] <= 0:
            raise RegularityError(f"overlap matrix not positive definite at x={x}")

    u_new = -2.0 * (jet_log_d2(den.jet) + jet_log_d2(det))[0]

    tval = None
    if target is not None:
        if target.config is not cfg or target.index is None:
            raise ConfigError("target must be a bound state of the same config")
        # value-level map: psi -/+ sum_jl s_j (F^-1)_jl <s_l, psi>
        jt = target.index
        fvals = sqcc * tail_values(tails)[0]
        if mode == "add":
            fvals = np.diag(np.add(e, 1.0)) - fvals
        # the eigenfunctions' own tau is the one den already holds
        den0 = den.truncate(0)
        phi = {j: eigenfunction_grid(cfg, j, den0).value[0] for j in {*idx, jt}}
        svals = sqc * np.array([phi[j] for j in idx])
        # <s_a, phi_target>(x) = sqrt(c_a) (delta/c_a - tail)
        full = np.array([1.0 / cfg.c[j - 1] if j == jt else 0.0 for j in idx])
        bvec = sqc * (full - tail_values(tail_matrix_grid(cfg, idx, [jt], den, pair_taus))[0, :, 0])
        psi = phi[jt]
        corr = svals @ np.linalg.solve(fvals, bvec)
        tval = float(psi + corr) if mode == "delete" else float(psi - corr)

    return AMResult(x=x, potential=float(u_new), target_value=tval)
