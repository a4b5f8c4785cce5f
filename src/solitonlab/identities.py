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
at all grid points, with the exponentials formed once for all of them.
The jets built from those taus (eigenfunctions, tail entries,
Wronskians) are batched over the grid too, and the determinants of their
constant terms are one stacked np.linalg.slogdet call. The generic
Wronskian engine on the left of the Wronskian and seed-Wronskian
identities, which is itself under test, receives seed functions and
evaluates each once over the whole grid.

The tail-integral matrices of the Abraham-Moses deletion and addition
determinants come from solitons.tail_matrix_grid; inner_tail is its
one-point 1x1 case. The right sides of the Wronskian, deletion and
addition checks are rewritten taus over the config's own tau times an
exponential, TauGrid.over, as the tail entries are.

Random-configuration fuzzing (run_identity_suite) is part of the module
itself: sweeping these identities over random spectral data is the
product, not merely its QA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import _pointwise, jet_exp
from .solitons import (
    ConfigError,
    SolitonConfig,
    drop_rule,
    eigenfunction_grid,
    eigenfunction_rule,
    pair_rule,
    deletion_rule,
    random_config,
    rescale_rule,
    row_gauged,
    tail_matrix_grid,
    tail_values,
    tau_jet_sum,  # unused here, kept: perfbench/test_perfbench.py checks this name is traced
    tau_jet_sum_grid,
    tau_jet_sums,
)
from .transforms import eigenfunction_seed, seed_config_from_free, wronskian

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
    (log|.|, sign) form."""
    log_lhs = np.asarray(log_lhs)
    log_rhs = np.asarray(log_rhs)
    ok = (log_lhs > math.log(UNDERFLOW_FLOOR)) & (log_rhs > math.log(UNDERFLOW_FLOOR))
    excluded = int(np.sum(~ok))
    ratios = np.asarray(sign_lhs)[ok] * np.asarray(sign_rhs)[ok] * np.exp(log_lhs[ok] - log_rhs[ok])
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


def inner_tail(cfg: SolitonConfig, j: int, l: int, x: float) -> float:
    """Tail integral int_x^inf phi_j phi_l dy in closed form: the 1x1
    tail_matrix_grid on a one-point grid. As x -> -infinity this tends
    to 1/c_j for j=l and to 0 otherwise (orthogonality with
    normalization (phi_j, phi_j) = 1/c_j)."""
    cfg = cfg.flowed()
    den = tau_jet_sum_grid(cfg, None, [float(x)], 0)
    return float(tail_values(tail_matrix_grid(cfg, [j], [l], den))[0, 0, 0])


# ---------------------------------------------------------------------------
# Identity checks


def _pairs(dset) -> list:
    """The unordered index pairs (a, b), a <= b, of a tail matrix over dset."""
    return [(a, b) for i, a in enumerate(dset) for b in dset[i:]]


def verify_wronskian_identity(cfg: SolitonConfig, deleted, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """W[phi_{d1},...,phi_{dM}] is a constant multiple of
    (rewritten tau / tau) e^{-sum k_d x}. The left side runs through the
    generic Wronskian engine, its eigenfunction seeds sharing the config's
    own tau at order M-1, whose order-0 part also serves the right side,
    and taking their numerators from the same tau_jet_sums call: one call
    of M+2 rules."""
    cfg = cfg.flowed()
    dset = sorted(set(int(d) for d in deleted))
    ksum = sum(cfg.k[d - 1] for d in dset)
    m = len(dset)
    rules = [None, deletion_rule(cfg, dset, 1)] + [eigenfunction_rule(cfg, d) for d in dset]
    den, rewritten, *nums = tau_jet_sums(cfg, rules, grid, [m - 1, 0] + [m - 1] * m)
    w = wronskian([eigenfunction_seed(cfg, d, den, num) for d, num in zip(dset, nums)], den.xs, 0).value
    nonzero = w != 0
    log_l = np.full(w.shape, -np.inf)
    log_l[nonzero] = _pointwise(math.log, np.abs(w[nonzero]))
    sgn_l = np.where(nonzero, np.copysign(1.0, w), 0.0)
    rhs = rewritten.over(den.truncate(0), -ksum)
    return _ratio_report(
        f"wronskian_identity D={dset}", "wronskian_ratio", grid, log_l, sgn_l, rhs.log_abs, rhs.sign, tol
    )


def verify_bilinear_derivative(cfg: SolitonConfig, j: int, l: int, grid, tol: float = POINTWISE_TOL) -> VerificationReport:
    """phi_j phi_l equals minus the x-derivative of the closed-form tail
    antiderivative, pointwise. The order-1 tau of the tail also serves
    the order-0 eigenfunctions, so the check is one tau_jet_sums call of
    four rules (three for j = l): that tau, the tail's pair tau and the
    eigenfunction numerators."""
    cfg = cfg.flowed()
    pair = min(j, l), max(j, l)
    idx = sorted(set(pair))
    rules = [None, pair_rule(cfg, *pair)] + [eigenfunction_rule(cfg, i) for i in idx]
    den, tau, *nums = tau_jet_sums(cfg, rules, grid, [1, 1] + [0] * len(idx))
    phi = {i: eigenfunction_grid(cfg, i, den.truncate(0), num).value for i, num in zip(idx, nums)}
    lhs = phi[j] * phi[l]
    [[tail]] = tail_matrix_grid(cfg, [j], [l], den, {pair: tau})
    rhs = -tail.values().deriv(1)
    scale = max(float(np.max(np.abs(lhs))), UNDERFLOW_FLOOR)
    dev = float(np.max(np.abs(lhs - rhs))) / scale
    return VerificationReport(
        f"bilinear_derivative j={j} l={l}", "bilinear_derivative", tuple(grid), dev, None, tol, dev <= tol
    )


def verify_deletion_determinant(cfg: SolitonConfig, deleted, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """det of the tail-integral matrix over the deleted set is a constant
    multiple of (squared-rewrite tau / tau) e^{-2 sum k_d x}: one
    tau_jet_sums call of the config's own tau, the m(m+1)/2 pair taus and
    the squared rewrite. For one index d the squared rewrite is
    pair_rule(d, d) with bitwise-equal factors, so the tail's pair tau
    serves the right side too."""
    cfg = cfg.flowed()
    dset = sorted(set(int(d) for d in deleted))
    ksum = sum(cfg.k[d - 1] for d in dset)
    pairs = _pairs(dset)
    rules = [None] + [pair_rule(cfg, *p) for p in pairs]
    if len(dset) > 1:
        rules.append(deletion_rule(cfg, dset, 2))
    den, *taus = tau_jet_sums(cfg, rules, grid, [0] * len(rules))
    rows, log_gauge = row_gauged(tail_matrix_grid(cfg, dset, dset, den, dict(zip(pairs, taus))))
    sgn_l, logabs = np.linalg.slogdet(np.stack([np.stack([r.value for r in row], -1) for row in rows], -2))
    log_l = log_gauge + logabs
    rhs = taus[-1].over(den, -2.0 * ksum)  # the squared rewrite, or the one pair tau
    return _ratio_report(
        f"deletion_determinant D={dset}", "deletion_determinant", grid, log_l, sgn_l, rhs.log_abs, rhs.sign, tol
    )


def verify_addition_determinant(cfg: SolitonConfig, deleted, e, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """det(e_j delta_jl + overlap of unit-normalized bound states up to x)
    is a constant multiple of (rescaled tau / tau); the rescale is
    c_d -> e_d/(e_d+1) c_d. One tau_jet_sums call of the config's own tau,
    the m(m+1)/2 pair taus and the rescaled tau."""
    cfg = cfg.flowed()
    dset = sorted(set(int(d) for d in deleted))
    e = [float(v) for v in e]
    if len(e) != len(dset) or any(v <= 0 for v in e):
        raise ConfigError("one positive parameter e per index required")
    rule = None
    for d, ed in zip(dset, e):
        r = rescale_rule(cfg.n, d, ed / (ed + 1.0))
        rule = r if rule is None else rule.compose(r)
    sqc = np.sqrt([cfg.c[d - 1] for d in dset])
    pairs = _pairs(dset)
    rules = [None] + [pair_rule(cfg, *p) for p in pairs] + [rule]
    den, *taus, num = tau_jet_sums(cfg, rules, grid, [0] * len(rules))
    tails = tail_values(tail_matrix_grid(cfg, dset, dset, den, dict(zip(pairs, taus))))
    sgn_l, log_l = np.linalg.slogdet(np.diag(np.add(e, 1.0)) - np.outer(sqc, sqc) * tails)
    rhs = num.over(den)
    return _ratio_report(
        f"addition_determinant D={dset}", "addition_determinant", grid, log_l, sgn_l, rhs.log_abs, rhs.sign, tol
    )


def verify_tau_split(cfg: SolitonConfig, j: int, grid, tol: float = POINTWISE_TOL) -> VerificationReport:
    """tau = tau|_{c_j->0} + (c_j/2k_j) e^{-2 k_j x} * squared-rewrite
    tau, checked as a relative residual in a common gauge; the three taus
    are one tau_jet_sums call."""
    cfg = cfg.flowed()
    kj = cfg.k[j - 1]
    cj = cfg.c[j - 1]
    u, uj, wj = tau_jet_sums(cfg, [None, drop_rule(cfg.n, j), pair_rule(cfg, j, j)], grid, [0, 0, 0])
    a = uj.sign * np.exp(uj.log_abs - u.log_abs)
    logb = math.log(cj / (2.0 * kj)) - 2.0 * kj * u.xs + wj.log_abs - u.log_abs
    dev = float(np.max(np.abs(1.0 - a - wj.sign * np.exp(logb))))
    return VerificationReport(f"tau_split j={j}", "tau_split", tuple(grid), dev, None, tol, dev <= tol)


def verify_seed_wronskian(k, ctilde, grid, tol: float = CONSTANCY_TOL) -> VerificationReport:
    """The Wronskian of the free seeds e^{kx} + ctilde e^{-kx} (with the
    alternating sign pattern) equals prod_{j>l}(k_j-k_l) e^{sum k_j x}
    times the tau of the matched config — checked as ratio == 1, which
    also validates the ctilde -> c parameter map."""
    k = [float(v) for v in k]
    ctilde = [float(v) for v in ctilde]
    cfg = seed_config_from_free(k, ctilde)  # validates the sign pattern
    n = len(k)
    log_vdm = 0.0
    for a in range(n):
        for b in range(a):
            log_vdm += math.log(k[a] - k[b])
    u = tau_jet_sum_grid(cfg, None, grid, 0)
    xs = u.xs
    # per-column gauge keeps the Wronskian entries in floating range
    cols = []
    gauge = 0.0
    for kj, ct in zip(k, ctilde):
        s = np.maximum(kj * xs, -kj * xs + math.log(abs(ct)))
        gauge += s

        def ev(xx, order, kj=kj, ct=ct, s=s):
            grow = jet_exp(kj, xx, order, unit=True) * _pointwise(math.exp, kj * xx - s)
            decay = jet_exp(-kj, xx, order, unit=True) * np.copysign(
                _pointwise(math.exp, -kj * xx + math.log(abs(ct)) - s), ct
            )
            return grow + decay

        cols.append(ev)
    wv = wronskian(cols, xs, 0).value
    if np.any(wv <= 0):
        return VerificationReport("seed_wronskian", "seed_wronskian", tuple(grid), math.inf, None, tol, False)
    log_w = gauge + _pointwise(math.log, wv)
    log_rhs = log_vdm + sum(k) * xs + u.log_abs
    dev = float(np.max(np.abs(_pointwise(math.exp, log_w - log_rhs) - 1.0)))
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
