"""Isospectral and state-deleting deformations of reflectionless potentials.

Two layers are implemented deliberately side by side:

* closed-form parameter rewrites — ground-state Darboux, Krein-Adler
  multi-deletion (per-factor exponent 1), Abraham-Moses deletion
  (exponent 2) and addition (pure c rescale), each returning a
  TransformResult of the new data; the deleted sets and the addition
  parameters are checked where their rewrites live, in solitons
  (deletion_rule, addition_rule), and a bad one is a ConfigError;
* generic engines that never look at the closed forms — Wronskian-quotient
  Darboux chains over arbitrary seed functions, and the overlap-
  determinant Abraham-Moses map over the bound states indices of a
  config (generic_am). Each engine evaluates its seeds once (seed_jets),
  the bound states of one config in one tau_jet_sums call, at x of any
  shape, and gives results of x's shape. Seeds and Wronskians are gauged
  jets (solitons.TauGrid), as taus are, so underflow is no singularity;
  an engine's seeds are one stack, and a Wronskian is one jet_det of a
  stack's derivatives, a subset of the seeds one index into it.

That the two layers produce the same potentials is a theorem; the test
suite treats it as a falsifiable claim and checks it pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jets import Jet, SingularJetError, jet_det, jet_exp, jet_log_d2
from .solitons import (
    ConfigError,
    RangeError,
    SolitonConfig,
    TauGrid,
    _check_index,
    _index_set,
    _points,
    addition_rule,
    deletion_rule,
    eigenfunction_grid,
    eigenfunction_rule,
    eigenfunctions,
    matrix_values,
    overlap_rows,
    pair_rule,
    tail_pairs,
    tau_jet_sums,
)


class RegularityError(ArithmeticError):
    """Transform denominator loses positivity (singular output)."""


@dataclass(frozen=True)
class TransformResult:
    """Outcome of a deformation: the config it started from, the scheme
    that rewrote it and the surviving spectral data."""

    before: SolitonConfig
    scheme: str
    after_k: tuple
    after_c: tuple

    @property
    def after(self) -> SolitonConfig:
        """Surviving data as a validated config; raises for the singular
        outputs produced under the unsafe Krein-Adler override."""
        return SolitonConfig(self.after_k, self.after_c, self.before.times)

    @property
    def is_regular(self) -> bool:
        return all(c > 0 for c in self.after_c)


def _delete(cfg: SolitonConfig, deleted, xi: int, scheme: str) -> TransformResult:
    dset = _index_set(cfg.n, deleted)
    newc = deletion_rule(cfg, dset, xi).apply(cfg)
    keep = [m for m in range(1, cfg.n + 1) if m not in dset]
    after_k, after_c = tuple(cfg.k[m - 1] for m in keep), tuple(float(newc[m - 1]) for m in keep)
    return TransformResult(before=cfg, scheme=scheme, after_k=after_k, after_c=after_c)


def darboux_ground(cfg: SolitonConfig) -> TransformResult:
    """Delete the ground state (index N) by a single Darboux step; the
    result is the (N-1)-soliton family member with rewritten c — shape
    invariance in executable form; ConfigError for N = 0."""
    return _delete(cfg, [cfg.n], 1, "darboux_ground")


def _krein_adler_violation(n: int, deleted) -> int | None:
    """First m in 1..n with prod_j (d_j - m) < 0, or None when the
    deletion set is admissible."""
    dset = _index_set(n, deleted)
    return next((m for m in range(1, n + 1) if math.prod(d - m for d in dset) < 0), None)


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
            f"deletion set {_index_set(cfg.n, deleted)} fails the sign condition at m={m}; "
            "the output would be singular (pass unsafe=True to build it anyway)"
        )
    return _delete(cfg, deleted, 1, "krein_adler")


def am_delete(cfg: SolitonConfig, deleted) -> TransformResult:
    """Abraham-Moses deletion (exponent-2 rewrite): squared factors are
    positive, so any index set is admissible."""
    return _delete(cfg, deleted, 2, "am_delete")


def am_add(cfg: SolitonConfig, params) -> TransformResult:
    """Abraham-Moses addition with finite parameters e_j > 0, params as
    solitons.addition_rule takes them: exactly iso-spectral, rescaling
    c_j -> e_j/(e_j+1) * c_j."""
    newc = addition_rule(cfg, params)[0].apply(cfg)
    return TransformResult(before=cfg, scheme="am_add", after_k=cfg.k, after_c=tuple(float(v) for v in newc))


# ---------------------------------------------------------------------------
# Seed functions and the generic engines


@dataclass(frozen=True)
class SeedFunction:
    """A solution of the starting Hamiltonian at a fixed energy: a gauged
    jet evaluator (x, order) -> TauGrid, x a point or a grid of any shape,
    and called, its true jets. Eigenfunction seeds remember their spectral
    origin, so overlap integrals can use closed forms and seed_jets can
    evaluate the bound states of one config together."""

    evaluator: Callable
    config: SolitonConfig | None = None
    index: int | None = None

    def __call__(self, x, order: int) -> Jet:
        return self.evaluator(x, order).values()


def _ungauged(jet: Jet) -> TauGrid:
    """A true-value jet as a TauGrid of gauge 0 and sign 1."""
    return TauGrid(jet.center, jet.coeffs, np.zeros(jet.center.shape), np.ones(jet.center.shape))


def eigenfunction_seed(cfg: SolitonConfig, j: int) -> SeedFunction:
    """The j-th bound state as a seed (solitons.eigenfunctions)."""
    return SeedFunction(lambda x, order: eigenfunctions(cfg, [j], x, order)[0], cfg, j)


def eigenfunction_seeds(cfg: SolitonConfig, indices) -> list:
    return [eigenfunction_seed(cfg, j) for j in _index_set(cfg.n, indices)]


def free_seed(k: float, ctilde: float) -> SeedFunction:
    """Zero-potential solution e^{kx} + ctilde e^{-kx} at energy -k^2, in
    the gauge s = max(kx, log|ctilde| - kx) of its larger term. Regular
    Wronskian chains need the signs (-1)^(j-1) ctilde > 0."""
    log_c = math.log(abs(ctilde)) if ctilde else -math.inf

    def ev(x, order):
        x = np.asarray(x, dtype=float)
        s = np.maximum(k * x, -k * x + log_c)
        grow = jet_exp(k, x, order, unit=True) * np.exp(k * x - s)
        decay = jet_exp(-k, x, order, unit=True) * np.copysign(np.exp(-k * x + log_c - s), ctilde)
        return TauGrid(x, (grow + decay).coeffs, s, np.ones(x.shape))

    return SeedFunction(evaluator=ev)


def plane_wave_seed(k: float) -> SeedFunction:
    """Scattering solution e^{ikx} of the zero potential, energy +k^2, in
    gauge 0."""
    return SeedFunction(evaluator=lambda x, order: _ungauged(jet_exp(1j * k, x, order)))


def seed_config_from_free(k, ctilde) -> SolitonConfig:
    """Spectral data whose tau matches (up to the exponential gauge) the
    Wronskian of the free seeds e^{k_j x} + ctilde_j e^{-k_j x}:
    c_j = 2 k_j |ctilde_j| * prod_{m != j} (k_j + k_m)/|k_j - k_m|."""
    k, ctilde = [float(v) for v in k], [float(v) for v in ctilde]
    if len(k) != len(ctilde):
        raise ConfigError("k and ctilde length mismatch")
    for j, ct in enumerate(ctilde, start=1):
        if (-1.0) ** (j - 1) * ct <= 0:
            raise ConfigError(f"seed coefficient {j} violates the alternating sign pattern")
    c = [math.prod([2.0 * kj * abs(ct)] + [(kj + km) / abs(kj - km) for m, km in enumerate(k) if m != j])
         for j, (kj, ct) in enumerate(zip(k, ctilde))]
    return SolitonConfig(tuple(k), tuple(c))


def seed_jets(seeds: Sequence, x, order: int) -> TauGrid:
    """Gauged jets of the seeds at x (solitons._points), one TauGrid stacked
    over [len(seeds), *x.shape], each seed evaluated once: the
    eigenfunction seeds of one config (equal configs, not only the same
    object) from one solitons.eigenfunctions call, which holds the
    config's tau and their numerators; every other SeedFunction by one call
    of its evaluator, a raw (x, order) -> Jet evaluator in gauge 0. This
    is where seeds of different kinds meet: their stacks are joined, onto
    an empty one over x, and gathered into the seeds' order."""
    x = _points(x)[0]
    keys = [id(s) if getattr(s, "index", None) is None else (s.config, s.index) for s in seeds]
    groups, at, parts = {}, {}, [_ungauged(Jet.constant(1.0, x, order))[None][:0]]
    for cfg, j in (key for key in keys if isinstance(key, tuple)):
        groups.setdefault(cfg, {})[j] = None
    for cfg, idx in groups.items():
        at.update({(cfg, j): r for r, j in enumerate(idx, len(at))})
        parts.append(eigenfunctions(cfg, list(idx), x, order))
    for s, key in zip(seeds, keys):
        if key not in at:
            at[key] = len(at)
            parts.append((s.evaluator(x, order) if isinstance(s, SeedFunction) else _ungauged(s(x, order)))[None])
    joined = (np.concatenate([getattr(t, f) for t in parts]) for f in ("xs", "coeffs", "gauge", "sign"))
    return TauGrid(*joined)[[at[key] for key in keys]]


def jet_wronskian(seeds: TauGrid, order: int, x=None) -> TauGrid:
    """Gauged Wronskian det(d^(i-1) f_m / dx^(i-1)) to the given jet order
    of the gauged jets of M functions stacked over [M, *x.shape]
    (seed_jets), each of order >= M - 1 + order: one jet_det of the
    stack's normalized jets and their derivatives, in the sum of their
    gauges, added in seed order so that a point gives the grid's bits,
    and the product of their signs. No seeds give 1 over x."""
    m = len(seeds.xs)
    if not m:
        return _ungauged(Jet.constant(1.0, x, order))
    rows = [seeds.jet.truncate(m - 1 + order)]
    for _ in range(m - 1):
        rows.append(rows[-1].derivative())
    matrix = np.stack([r.coeffs[..., : order + 1] for r in rows])  # [derivative, seed, *x.shape, order + 1]
    det = jet_det(Jet(np.broadcast_to(seeds.xs, matrix.shape[:-1]), matrix))
    return TauGrid(seeds.xs[0], det.coeffs, np.add.accumulate(seeds.gauge)[-1], np.prod(seeds.sign, axis=0))


def wronskian(fns: Sequence, x, order: int = 0) -> Jet:
    """Jet of the Wronskian det(d^(i-1) f_m / dx^(i-1)) at x: the functions
    evaluated once (seed_jets), one jet_wronskian and its true values.
    Accepts SeedFunctions or raw (x, order) -> Jet evaluators; an empty
    list gives the constant 1."""
    return jet_wronskian(seed_jets(fns, x, max(len(fns) - 1, 0) + order), order, x).values()


def _wronskian_quotient(fns: Sequence, num, den, x, order: int) -> Jet:
    """W[fns[i], i in num] / W[fns[i], i in den] at x, the gauged quotient
    (TauGrid.over) of two Wronskians of one seed_jets evaluation of fns;
    RangeError where its true value overflows."""
    jets = seed_jets(fns, x, len(fns) - 1 + order)
    w_num, w_den = (jet_wronskian(jets[list(s)], order, x) for s in (num, den))
    try:
        return w_num.over(w_den).values()
    except SingularJetError as exc:
        raise RegularityError(f"seed Wronskian vanishes: {exc}") from exc


def generic_darboux(seeds: Sequence, target, x, order: int = 0) -> Jet:
    """Image of the target under the M-seed Darboux chain at x: W[seed_1,
    ..., seed_M, target] / W[seed_1, ..., seed_M]."""
    return _wronskian_quotient([*seeds, target], range(len(seeds) + 1), range(len(seeds)), x, order)


def deleted_seed_image(seeds: Sequence, drop: int, x, order: int = 0) -> Jet:
    """Image of the dropped seed itself: W[seeds without seeds[drop]] /
    W[seeds], an eigenfunction of the transformed Hamiltonian."""
    return _wronskian_quotient(seeds, [i for i in range(len(seeds)) if i != drop], range(len(seeds)), x, order)


def darboux_potential(seeds: Sequence, base_potential: Callable, x):
    """Transformed potential U - 2 (log |W[seeds]|)'' at x, from one gauged
    Wronskian, whose normalized jet gives the sign and regularity of W per
    point and (log |W|)'' where W itself underflows. The error is absolute:
    2e-14 of max|U| for one eigenfunction seed, up to 7e-13 for two
    (Krein-Adler deletions of random 2-4 soliton draws against 40-digit
    sums, |x| <= 1000), besides base_potential's own."""
    w = jet_wronskian(seed_jets(seeds, x, len(seeds) + 1), 2, x).jet
    w0 = w.value
    bad = ~np.isreal(w0) | (w0 == 0)
    if np.any(bad):
        raise RegularityError(f"seed Wronskian vanishes or is complex at x={np.ravel(w.center)[np.argmax(bad)]}")
    u = jet_log_d2(Jet(w.center, w.coeffs.real * np.sign(w0.real)[..., None]))
    return base_potential(x) - 2.0 * u


@dataclass(frozen=True)
class AMResult:
    """Output of the generic overlap-determinant map, each of x's shape."""

    x: np.ndarray
    potential: np.ndarray
    target_value: np.ndarray | None


def generic_am(cfg: SolitonConfig, indices, mode: str, e: Sequence | None = None, target=None, x=0.0) -> AMResult:
    """Generic Abraham-Moses step over the bound states indices of cfg, at
    a point or over a grid; for addition e holds one parameter per index,
    in the order of indices (solitons.addition_rule), and target, if
    given, is the index of the bound state to map.

    Uses unit-normalized seeds s_j = sqrt(c_j) phi_j, so the overlap
    matrix is F_jl = (e_j + 1) delta_jl - sqrt(c_j c_l) T_jl(x) for
    addition and F_jl = sqrt(c_j c_l) T_jl(x) for deletion, where T is
    the tail integral of phi_j phi_l from x to +infinity in closed form,
    c the flowed config's; F is read in the gauge of solitons.overlap_rows.
    The new potential is U - 2 (log det F)'', with U = -2 (log u)'' from
    the order-2 tau u that the tails already use; the target maps to
    psi -/+ sum_jl s_j (F^-1)_jl <s_l, psi>, one batched solve, and is a
    RangeError where it overflows. u, the pair taus and the eigenfunction
    numerators are one tau_jet_sums call. The potential's error is
    absolute: up to 1.5e-14 of max|U| over one index, 1.3e-12 over two and
    1.2e-10 over three (random 2-4 soliton draws, |x| <= 1000).
    """
    if mode == "add":
        if e is None or len(e) != len(indices):
            raise ConfigError("addition needs one parameter e per index")
        e = addition_rule(cfg, zip(indices, e))[1]
        idx, e = list(e), list(e.values())
    elif mode == "delete":
        idx, e = _index_set(cfg.n, indices), None
    else:
        raise ConfigError(f"unknown mode {mode!r}; use 'add' or 'delete'")
    cfg = cfg.flowed()
    jt = None if target is None else _check_index(cfg.n, target)
    pairs = tail_pairs(idx, idx if jt is None else [*idx, jt])
    eig = [] if jt is None else _index_set(cfg.n, [*idx, jt])
    rules = [None] + [pair_rule(cfg, *p) for p in pairs] + [eigenfunction_rule(cfg, j) for j in eig]
    taus = tau_jet_sums(cfg, rules, x, 2)
    den = taus[0]
    rows, h, tails = overlap_rows(cfg, idx, den, taus[1 : 1 + len(pairs)], e, [] if jt is None else [jt])
    det = jet_det(rows)
    if np.any(det.value <= 0):
        raise RegularityError(f"overlap determinant not positive at x={np.ravel(den.xs)[np.argmax(det.value <= 0)]}")
    u_new = -2.0 * (jet_log_d2(den.jet) + jet_log_d2(det))

    tval = None
    if target is not None:
        # F y = <s, phi_t> = D (delta / c - T_t), D = diag sqrt c, in F's gauge:
        # rows z = e^-h w (delta / c - T_t), w = D (z = y) in addition and 1 (z =
        # e^h D y) in deletion; so sum_a s_a y_a = sum_a w_a (e^-h_a phi_a) z_a
        phi = eigenfunction_grid(cfg, eig, den.truncate(0), taus[1 + len(pairs) :].truncate(0))
        w = np.sqrt([cfg.c[j - 1] for j in idx]) if mode == "add" else np.ones(len(idx))
        b = -np.moveaxis(tails[:, -1].values(h).value, 0, -1)
        if jt in idx:
            a = idx.index(jt)
            b[..., a] += _ungauged(Jet.constant(1.0 / cfg.c[jt - 1], den.xs, 0)).values(h[a]).value
        z = np.linalg.solve(matrix_values(rows), (w * b)[..., None])[..., 0]
        with np.errstate(over="ignore", invalid="ignore"):
            corr = np.sum(w * np.moveaxis(phi[[eig.index(j) for j in idx]].values(h).value, 0, -1) * z, -1)
        tval = phi[eig.index(jt)].values().value + (corr if mode == "delete" else -corr)
        if not np.isfinite(tval).all():
            raise RangeError(f"target value overflow at x={np.ravel(den.xs)[np.argmin(np.isfinite(tval))]}")
    return AMResult(x=den.xs, potential=u_new, target_value=tval)
