"""Executable verification of the determinant identities.

Each verify_* function evaluates both sides of one identity on a grid and
returns a VerificationReport. Proportionality ("LHS is a constant multiple
of RHS") is measured as std/|mean| of the pointwise ratio, so drift
anywhere on the grid is detected without privileging any single point;
equalities are measured as a grid-normalized residual. Points where either
side has underflowed below 1e-280 are excluded and counted — a ratio of
underflowed quantities is noise, not evidence.

Every tau an identity needs is evaluated once per grid, not once per
point, and all of a check's taus come from one solitons.tau_jet_sums
call: the double-double exponential sums of every rule the check needs,
at all grid points and one jet order, with the exponentials formed once
for all of them, as one TauGrid stacked over the rules. The builders
index rows and slices of that stack; the jets built from it are batched
over the grid too, a tail, overlap or Wronskian matrix is one jet over
[rows, cols, *grid], and the determinants of their constant terms are
one np.linalg.slogdet call.
The generic Wronskian engine (jet_wronskian), itself under test, takes
the stacked gauged eigenfunctions of the check's own call in the
Wronskian identity and the stacked free seeds (transforms.free_seed) in
the seed-Wronskian identity.

The Abraham-Moses deletion and addition determinants are one check body
(_overlap_determinant) over the overlap matrix of solitons.overlap_rows,
as transforms.generic_am's is; inner_tail is the 1x1 tail matrix. The
right sides of the Wronskian, deletion and addition checks are rewritten
taus over the config's own tau times an exponential, TauGrid.over, as
tail entries are. The index sets and the addition parameters are checked
by solitons (_index_set, addition_rule), and a bad one is a ConfigError.

Random-configuration fuzzing (run_identity_suite) is part of the module
itself: sweeping these identities over random spectral data is the
product, not merely its QA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solitons import (
    ConfigError,
    SolitonConfig,
    _check_index,
    _index_set,
    addition_rule,
    drop_rule,
    eigenfunction_grid,
    eigenfunction_rule,
    pair_rule,
    deletion_rule,
    overlap_rows,
    random_config,
    matrix_values,
    tail_matrix_grid,
    tail_pairs,
    tau_jet_sum,  # unused here, kept: perfbench/test_perfbench.py checks this name is traced
    tau_jet_sums,
)
from .transforms import free_seed, jet_wronskian, seed_config_from_free, seed_jets

#: magnitudes below this are excluded from ratio statistics
UNDERFLOW_FLOOR = 1e-280

CONSTANCY_TOL = 1e-9
POINTWISE_TOL = 1e-10


@dataclass(frozen=True)
class VerificationReport:
    identity_name: str
    tag: str
    grid: tuple
    max_abs_deviation: float
    constancy_measure: float | None
    tolerance: float
    passed: bool
    excluded_points: int = 0
    measured_constant: float | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.identity_name,
            "tag": self.tag,
            "tolerance": self.tolerance,
            "max_abs_deviation": self.max_abs_deviation,
            "constancy_measure": self.constancy_measure,
            "measured_constant": self.measured_constant,
            "excluded_points": self.excluded_points,
            "grid_points": len(self.grid),
            "pass": self.passed,
        }


def _ratio_report(name, tag, grid, log_lhs, sign_lhs, log_rhs, sign_rhs, tol):
    """Constancy report for LHS = const * RHS given both sides in
    (log|.|, sign) form, each an array of the grid's shape."""
    ok = (log_lhs > math.log(UNDERFLOW_FLOOR)) & (log_rhs > math.log(UNDERFLOW_FLOOR))
    excluded = int(np.sum(~ok))
    ratios = sign_lhs[ok] * sign_rhs[ok] * np.exp(log_lhs[ok] - log_rhs[ok])
    if len(ratios) == 0:
        return VerificationReport(name, tag, tuple(grid), math.inf, math.inf, tol, False, excluded)
    mean = float(np.mean(ratios))
    constancy = float(np.std(ratios) / abs(mean)) if mean != 0 else math.inf
    dev = float(np.max(np.abs(ratios - mean)))
    return VerificationReport(
        name, tag, tuple(grid), dev, constancy, tol, constancy <= tol, excluded, mean
    )


# ---------------------------------------------------------------------------
# Closed-form tail integrals


def inner_tail(cfg: SolitonConfig, j: int, l: int, x):
    """Tail integral int_x^inf phi_j phi_l dy in closed form at x, a point
    or a grid: the 1x1 tail_matrix_grid, its tau and pair tau one
    tau_jet_sums call. As x -> -infinity this tends to 1/c_j for j=l and
    to 0 otherwise (orthogonality with normalization (phi_j, phi_j) =
    1/c_j)."""
    taus = tau_jet_sums(cfg, [None, pair_rule(cfg, min(j, l), max(j, l))], x, 0)
    return tail_matrix_grid(cfg, [j], [l], taus[0], taus[1:]).values().value[0, 0]


# ---------------------------------------------------------------------------
# Identity checks


def _check_taus(cfg: SolitonConfig, rules, grid, order: int):
    """A check's one tau_jet_sums call, one TauGrid stacked over the rules;
    ConfigError for a grid of no points."""
    if np.size(grid) == 0:
        raise ConfigError("an identity check needs at least one grid point")
    return tau_jet_sums(cfg, rules, grid, order)


def verify_wronskian_identity(cfg: SolitonConfig, deleted, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """W[phi_{d1},...,phi_{dM}] is a constant multiple of
    (rewritten tau / tau) e^{-sum k_d x}. The left side is the generic
    Wronskian determinant (transforms.jet_wronskian) of the eigenfunctions
    at order M-1, built from the config's own tau, whose order-0 part also
    serves the right side, and their numerators: one tau_jet_sums call of
    M+2 rules."""
    dset = _index_set(cfg.n, deleted)
    ksum = sum(cfg.k[d - 1] for d in dset)
    m = len(dset)
    rules = [None, deletion_rule(cfg, dset, 1)] + [eigenfunction_rule(cfg, d) for d in dset]
    taus = _check_taus(cfg, rules, grid, m - 1)
    w = jet_wronskian(eigenfunction_grid(cfg, dset, taus[0], taus[2:]), 0)
    den, rewritten = taus[:2].truncate(0)
    rhs = rewritten.over(den, -ksum)
    return _ratio_report(
        f"wronskian_identity D={dset}", "wronskian_ratio", grid, w.log_abs, w.sign * np.sign(w.jet.value),
        rhs.log_abs, rhs.sign, tol,
    )


def verify_bilinear_derivative(cfg: SolitonConfig, j: int, l: int, grid, tol: float = POINTWISE_TOL) -> VerificationReport:
    """phi_j phi_l equals minus the x-derivative of the closed-form tail
    antiderivative, pointwise. The order-1 tau of the tail also serves
    the order-0 eigenfunctions, so the check is one tau_jet_sums call of
    four rules (three for j = l): that tau, the tail's pair tau and the
    eigenfunction numerators."""
    idx = _index_set(cfg.n, (j, l))
    rules = [None, pair_rule(cfg, idx[0], idx[-1])] + [eigenfunction_rule(cfg, i) for i in idx]
    taus = _check_taus(cfg, rules, grid, 1)
    phi = eigenfunction_grid(cfg, idx, taus[0].truncate(0), taus[2:].truncate(0)).values().value
    lhs = phi[idx.index(j)] * phi[idx.index(l)]
    rhs = -tail_matrix_grid(cfg, [j], [l], taus[0], taus[1:2]).values().deriv(1)[0, 0]
    scale = max(float(np.max(np.abs(lhs))), UNDERFLOW_FLOOR)
    dev = float(np.max(np.abs(lhs - rhs))) / scale
    return VerificationReport(
        f"bilinear_derivative j={j} l={l}", "bilinear_derivative", tuple(grid), dev, None, tol, dev <= tol
    )


def verify_deletion_determinant(cfg: SolitonConfig, deleted, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """det of the tail-integral matrix over the deleted set is a constant
    multiple of (squared-rewrite tau / tau) e^{-2 sum k_d x}."""
    dset = _index_set(cfg.n, deleted)
    rate = -2.0 * sum(cfg.k[d - 1] for d in dset)
    return _overlap_determinant(cfg, dset, None, deletion_rule(cfg, dset, 2), rate, "deletion", grid, tol)


def verify_addition_determinant(cfg: SolitonConfig, deleted, e, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """det(e_j delta_jl + overlap of unit-normalized bound states up to x)
    is a constant multiple of (rescaled tau / tau); the rescale is
    c_d -> e_d/(e_d+1) c_d (solitons.addition_rule), e_d the parameter in
    the place of d."""
    if len(e) != len(deleted):
        raise ConfigError("one parameter e per index required")
    rule, e = addition_rule(cfg, zip(deleted, e))
    return _overlap_determinant(cfg, list(e), list(e.values()), rule, 0.0, "addition", grid, tol)


def _overlap_determinant(cfg, dset, e, rule, rate, name, grid, tol) -> VerificationReport:
    """The Abraham-Moses determinant check of deletion (e None) or addition
    over dset: one tau_jet_sums call of the config's tau, the m(m+1)/2 pair
    taus and rule's tau, unless a pair rule equals it (one deleted d:
    pair_rule(d, d), bitwise); the left side is one stacked slogdet of
    overlap_rows, the right rule's tau over the config's times e^{rate x}."""
    pairs = tail_pairs(dset, dset)
    rules = [None] + [pair_rule(cfg, *p) for p in pairs]
    if rule not in rules:
        rules.append(rule)
    taus = _check_taus(cfg, rules, grid, 0)
    rows, h, _ = overlap_rows(cfg, dset, taus[0], taus[1 : 1 + len(pairs)], e)
    sgn_l, logabs = np.linalg.slogdet(matrix_values(rows))
    rhs = taus[rules.index(rule)].over(taus[0], rate)
    return _ratio_report(
        f"{name}_determinant D={dset}", f"{name}_determinant", grid, 2.0 * h.sum(axis=0) + logabs, sgn_l,
        rhs.log_abs, rhs.sign, tol,
    )


def verify_tau_split(cfg: SolitonConfig, j: int, grid, tol: float = POINTWISE_TOL) -> VerificationReport:
    """tau = tau|_{c_j->0} + (c_j/2k_j) e^{-2 k_j x} * squared-rewrite
    tau, checked as a relative residual in a common gauge; the three taus
    are one tau_jet_sums call."""
    cfg = cfg.flowed()
    j = _check_index(cfg.n, j)
    kj, cj = cfg.k[j - 1], cfg.c[j - 1]
    u, uj, wj = _check_taus(cfg, [None, drop_rule(cfg.n, j), pair_rule(cfg, j, j)], grid, 0)
    a = uj.sign * np.exp(uj.log_abs - u.log_abs)
    logb = math.log(cj / (2.0 * kj)) - 2.0 * kj * u.xs + wj.log_abs - u.log_abs
    dev = float(np.max(np.abs(1.0 - a - wj.sign * np.exp(logb))))
    return VerificationReport(f"tau_split j={j}", "tau_split", tuple(grid), dev, None, tol, dev <= tol)


def verify_seed_wronskian(k, ctilde, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """The Wronskian of the free seeds e^{kx} + ctilde e^{-kx} (with the
    alternating sign pattern) equals prod_{j>l}(k_j-k_l) e^{sum k_j x}
    times the tau of the matched config — checked as ratio == 1, which
    also validates the ctilde -> c parameter map."""
    cfg = seed_config_from_free(k, ctilde)  # validates the sign pattern
    k, n = cfg.k, cfg.n
    log_vdm = sum(math.log(k[a] - k[b]) for a in range(n) for b in range(a))
    u = _check_taus(cfg, [None], grid, 0)[0]
    w = jet_wronskian(seed_jets([free_seed(kj, ct) for kj, ct in zip(k, ctilde)], u.xs, n - 1), 0)
    if np.any(w.sign * w.jet.value <= 0):
        return VerificationReport("seed_wronskian", "seed_wronskian", tuple(grid), math.inf, None, tol, False)
    log_rhs = log_vdm + sum(k) * u.xs + u.log_abs
    dev = float(np.max(np.abs(np.exp(w.log_abs - log_rhs) - 1.0)))
    return VerificationReport("seed_wronskian", "seed_wronskian", tuple(grid), dev, None, tol, dev <= tol)


# ---------------------------------------------------------------------------
# Fuzzing suite


def run_identity_suite(
    seed: int = 0,
    n_configs: int = 50,
    grid_points: int = 21,
    constancy_tol: float = CONSTANCY_TOL,
    pointwise_tol: float = POINTWISE_TOL,
) -> list:
    """Sweep all identities over random valid configurations
    (N in 1..6, k in (0.2, 4), c in (0.1, 10), grid +-6/k_1).
    Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(n_configs):
        cfg = random_config(rng)
        grid = np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], grid_points)
        msize = int(rng.integers(1, min(cfg.n, 3) + 1))
        dset = sorted(rng.choice(np.arange(1, cfg.n + 1), size=msize, replace=False).tolist())
        j = int(rng.integers(1, cfg.n + 1))
        l = int(rng.integers(1, cfg.n + 1))
        e = rng.uniform(0.5, 5.0, msize).tolist()
        ctilde = [((-1.0) ** i) * float(rng.uniform(0.2, 5.0)) for i in range(cfg.n)]
        reports.append(verify_wronskian_identity(cfg, dset, grid, constancy_tol))
        reports.append(verify_bilinear_derivative(cfg, j, l, grid, pointwise_tol))
        reports.append(verify_deletion_determinant(cfg, dset, grid, constancy_tol))
        reports.append(verify_addition_determinant(cfg, dset, e, grid, constancy_tol))
        reports.append(verify_tau_split(cfg, j, grid, pointwise_tol))
        reports.append(verify_seed_wronskian(cfg.k, ctilde, grid, constancy_tol))
    return reports
