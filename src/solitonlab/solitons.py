"""Spectral data and tau-function evaluation for reflectionless potentials.

A reflectionless potential with N bound states at energies -k_j^2 is
U(x) = -2 (log u)'' where u is the determinant of the N x N matrix

    A_mn = delta_mn + c_m exp(-(k_m+k_n) x) / (k_m + k_n),

with 0 < k_1 < ... < k_N and positive norming constants c_j. The same u
has an independent 2^N-term exponential-sum expansion (Hirota form) with
pairwise interaction factors ((k_j-k_l)/(k_j+k_l))^2.

Two independent routes evaluate u, each over a grid of points. The
determinant is a float64 elimination on the generators of its Cauchy
structure and gives values only (tau_logdet_grid). The exponential sum
is a bilinear form over two halves of the solitons. It gives values
(tau_hirota_grid), and U, its x-jets and dU/dt (potential_fn,
potential_jet, dt_potential) from one core, as cumulants of the config's
own positive terms. Its double-double form gives jets of the rewritten
taus (tau_jet_sum_grid) for eigenfunctions and tail integrals. Scalar
entry points are one-point grids.

Every tilde-variant of u used by the deformation schemes is a pointwise
rewrite c_m -> factor_m * c_m, represented by CoefficientRule. Tau jets
carry a log gauge (TauGrid), as tau spans hundreds of orders of magnitude.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import dd
from .jets import Jet, _pointwise, jet_exp

#: enumeration budget for the 2^N exponential-sum oracle
HIROTA_MAX_N = 24

#: [points, terms] elements per block of the double-double jet sum
_HIROTA_CHUNK = 1 << 18

#: [terms, points] elements per block of the plain-double sums: small
#: enough to stay in the heap and the cache, where larger temporaries are
#: mapped and unmapped on every call
_POINT_BLOCK = 1 << 14


class ConfigError(ValueError):
    """Invalid spectral data or index."""


class RangeError(ArithmeticError):
    """A valid config beyond the numerical reach of a route: exponent
    overflow that no gauge can absorb, a time flow that takes a norming
    constant beyond exp(+-700), or more solitons than a 2^N enumeration
    budget or the determinant's measured reach allows (names N)."""


@dataclass(frozen=True)
class SolitonConfig:
    """Spectral data: ascending positive wavenumbers k, positive norming
    constants c, and optional hierarchy times {odd n: t_n}."""

    k: tuple
    c: tuple
    times: Mapping | None = None

    def __post_init__(self):
        k = tuple(float(v) for v in self.k)
        c = tuple(float(v) for v in self.c)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "c", c)
        if len(k) != len(c):
            raise ConfigError(f"{len(k)} wavenumbers but {len(c)} norming constants")
        if any(v <= 0 for v in k):
            raise ConfigError("wavenumbers must be positive")
        if any(b <= a for a, b in zip(k, k[1:])):
            raise ConfigError("k not strictly ascending")
        if any(v <= 0 for v in c):
            raise ConfigError("norming constants must be positive")
        if self.times is not None:
            t = {int(n): float(v) for n, v in self.times.items()}
            for n in t:
                if n < 3 or n % 2 == 0:
                    raise ConfigError(f"hierarchy time index {n} is not an odd integer >= 3")
            object.__setattr__(self, "times", t)

    def __hash__(self):
        # times is a dict (callers read it through .items()); hash its items
        times = None if self.times is None else tuple(sorted(self.times.items()))
        return hash((self.k, self.c, times))

    @property
    def n(self) -> int:
        return len(self.k)

    @property
    def energies(self) -> tuple:
        """Bound-state energies -k_j^2, descending in depth order j."""
        return tuple(-kj * kj for kj in self.k)

    def flowed(self) -> "SolitonConfig":
        """Config with hierarchy times folded into the c parameters."""
        if not self.times:
            return self if self.times is None else SolitonConfig(self.k, self.c)
        return apply_time_flows(self)


@dataclass(frozen=True)
class CoefficientRule:
    """Per-index multiplicative rewrite c_m -> factors[m] * c_m.

    Rules compose by pointwise product; a factor of exactly 0 removes
    that soliton from the tau function. Negative factors are legal (the
    eigenfunction numerators need them) even though they leave the space
    of valid potentials.
    """

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(float(f) for f in self.factors))

    @staticmethod
    def identity(n: int) -> "CoefficientRule":
        return CoefficientRule((1.0,) * n)

    def compose(self, other: "CoefficientRule") -> "CoefficientRule":
        if len(self.factors) != len(other.factors):
            raise ConfigError("cannot compose rules of different lengths")
        return CoefficientRule(tuple(a * b for a, b in zip(self.factors, other.factors)))

    def apply(self, cfg: SolitonConfig) -> np.ndarray:
        if len(self.factors) != cfg.n:
            raise ConfigError(f"rule of length {len(self.factors)} on N={cfg.n} config")
        return np.asarray(cfg.c) * np.asarray(self.factors)


def eigenfunction_rule(cfg: SolitonConfig, j: int) -> CoefficientRule:
    """Rewrite whose tau is the numerator of the j-th eigenfunction:
    c_m -> c_m (k_j - k_m)/(k_j + k_m). The factor at m=j is exactly 0."""
    _check_index(cfg, j)
    kj = cfg.k[j - 1]
    return CoefficientRule(tuple((kj - km) / (kj + km) for km in cfg.k))


def pair_rule(cfg: SolitonConfig, j: int, l: int) -> CoefficientRule:
    """Product of the j-th and l-th eigenfunction rewrites; j=l gives the
    squared (phase-shift) rewrite used by the deletion determinants."""
    return eigenfunction_rule(cfg, j).compose(eigenfunction_rule(cfg, l))


def deletion_rule(cfg: SolitonConfig, deleted, exponent: int = 1) -> CoefficientRule:
    """Composite rewrite for deleting the index set `deleted`, with the
    per-factor exponent 1 (Darboux/Krein-Adler) or 2 (Abraham-Moses)."""
    if exponent not in (1, 2):
        raise ConfigError("deletion exponent must be 1 or 2")
    rule = CoefficientRule.identity(cfg.n)
    for d in sorted(set(deleted)):
        step = eigenfunction_rule(cfg, d)
        if exponent == 2:
            step = step.compose(step)
        rule = rule.compose(step)
    return rule


def drop_rule(n: int, j: int) -> CoefficientRule:
    """Rule for u with c_j set to 0 (soliton j absent)."""
    if not 1 <= j <= n:
        raise ConfigError(f"index {j} out of range 1..{n}")
    return CoefficientRule(tuple(0.0 if m == j else 1.0 for m in range(1, n + 1)))


def rescale_rule(n: int, j: int, factor: float) -> CoefficientRule:
    if not 1 <= j <= n:
        raise ConfigError(f"index {j} out of range 1..{n}")
    return CoefficientRule(tuple(factor if m == j else 1.0 for m in range(1, n + 1)))


def _check_index(cfg: SolitonConfig, j: int):
    if not 1 <= j <= cfg.n:
        raise ConfigError(f"eigenstate index {j} out of range 1..{cfg.n}")


@dataclass(frozen=True)
class TauEval:
    """Gauged jet of a tau function: true value = sign * e^gauge * jet."""

    x: float
    jet: Jet
    gauge_exponent: float
    sign: float

    @property
    def log_abs(self) -> float:
        v = abs(self.jet.coeffs[0])
        return self.gauge_exponent + (math.log(v) if v > 0 else -math.inf)

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.gauge_exponent) * self.jet.coeffs[0]


def _effective(cfg: SolitonConfig, rule: CoefficientRule | None):
    if rule is None:
        rule = CoefficientRule.identity(cfg.n)
    ce = rule.apply(cfg)
    k = np.asarray(cfg.k)
    keep = ce != 0.0
    return k[keep], ce[keep]


# ---------------------------------------------------------------------------
# Hirota exponential-sum route (independent oracle)


def _subset_sums(v, pairs=None) -> np.ndarray:
    """sum_{j in S} v[j] (+ sum_{j < l in S} pairs[j, l]) over the subsets S of
    range(len(v)), bit j of the index marking j: [2^len(v), ...], by doubling."""
    v = np.asarray(v, dtype=float)
    out = np.zeros((1 << len(v),) + v.shape[1:])
    for j in range(len(v)):
        step = v[j] if pairs is None else _subset_sums(pairs[:j, j]) + v[j]
        np.add(out[: 1 << j], step, out=out[1 << j : 2 << j])
    return out


def _split_tables(k: np.ndarray, ce: np.ndarray) -> tuple:
    """(h, low, high, logxt, cut): the 2^N terms as a bilinear form over the
    low solitons L = k[:h] and the high ones H. Term S = A u B is sign_A
    sign_B X_AB e^{const_A + R_A x} e^{const_B + R_B x}, so tau = a^T X b. A
    half is (const, R), _subset_sums over its subsets: const of log|c_j|/(2
    k_j) and the pair logs 2 log|(k_j - k_l)/(k_j + k_l)|, R of -2 k_j.
    logxt [2^(N-h), 2^h] = log X^T sums the cross pair logs, so X is in (0,
    1] and smallest, e^-s, at A = L, B = H. h is the largest h <= N // 2
    with s <= 600: a positive sum gauged by its largest half terms (each
    <= 1) holds a term >= e^-s, and nothing overflows. _half_blocks raises
    terms below e^-cut, cut = s + (N + 64) log 2 <= 661, to e^-cut: the
    2^(N+1) changes sum below 2^-10 ulp and keep exp and BLAS off the
    subnormals below e^-708, which are tens of times slower. h = 0 (the
    direct sum) always qualifies. N <= 24; RangeError beyond it."""
    n = len(k)
    if n > HIROTA_MAX_N:
        raise RangeError(f"2^N enumeration budget exceeded: N={n} > {HIROTA_MAX_N}")
    with np.errstate(divide="ignore"):  # pair logs; the diagonal, log 0, is never read
        q = 2.0 * np.log(np.abs(k[:, None] - k) / (k[:, None] + k))
    logc = np.log(np.abs(ce)) - np.log(2.0 * k)
    h = n // 2
    while np.sum(q[:h, h:]) < -600.0:
        h -= 1
    halves = [(_subset_sums(logc[p], q[p, p]), _subset_sums(-2.0 * k[p])) for p in (slice(0, h), slice(h, n))]
    logxt = _subset_sums(_subset_sums(q[:h, h:]).T)
    return (h, *halves, logxt, (n + 64) * math.log(2.0) - logxt[-1, -1])


def _half_blocks(xs: np.ndarray, low: tuple, high: tuple, cut: float, width: int):
    """(blk, a, b) over blocks of _POINT_BLOCK // (width 2^(N-h)) points (at
    least one) covering xs: the terms e^{max(const + R x - m, -cut)}
    [terms, points] of the low and high halves, each gauged by its largest
    exponent m per point."""
    step = max(1, _POINT_BLOCK // (width * len(high[0])))
    for i in range(0, len(xs), step):
        blk, ab = slice(i, i + step), []
        for const, rate in (low, high):
            e = rate[:, None] * xs[blk] + const[:, None]
            e -= e.max(axis=0)
            ab.append(np.exp(np.maximum(e, -cut, out=e), out=e))
        yield blk, *ab


def tau_hirota_grid(cfg: SolitonConfig, rule: CoefficientRule | None, xs) -> tuple:
    """(log_abs, sign) of tau over xs as a^T X b (_split_tables): 2 *
    2^(N/2) exponentials and a matrix product per point; N = 0 gives (0,
    1). log|tau| = m_a + m_b + log|a^T X b|, the half gauges m = const +
    R x at the terms of weight 1 formed and summed compensated, so its
    error is that of the tables and the sum. N <= 24; RangeError beyond."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    k, ce = _effective(cfg.flowed(), rule)
    h, (ca, ra), (cb, rb), xt, cut = _split_tables(k, ce)
    xt = np.exp(xt, out=xt)  # X^T times the signs, [2^(N-h), 2^h]
    xt *= ((-1.0) ** _subset_sums(ce[h:] < 0))[:, None]
    xt *= (-1.0) ** _subset_sums(ce[:h] < 0)
    log_abs, sign = np.empty(xs.shape), np.empty(xs.shape)
    for blk, a, b in _half_blocks(xs, (ca, ra), (cb, rb), cut, 1):
        acc = np.einsum("ap,ap->p", a, xt.T @ b)
        top_a, top_b = np.argmax(a, axis=0), np.argmax(b, axis=0)
        mh, ml = dd._two_prod(np.stack([ra[top_a], rb[top_b]]), xs[blk])
        mh, err = dd._two_sum(mh, np.stack([ca[top_a], cb[top_b]]))
        g, e1 = dd._two_sum(mh[0], mh[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            g, e2 = dd._two_sum(g, np.log(np.abs(acc)))
            log_abs[blk] = np.where(acc != 0.0, g + (e1 + e2 + np.sum(ml + err, axis=0)), -np.inf)
        sign[blk] = np.sign(acc)
    return log_abs, sign


#: 2^N budget for the compensated jet-sum route
_JET_SUM_MAX_N = 12


@dataclass(frozen=True)
class TauGrid:
    """Gauged tau jets over a grid: the true value at xs[p] is
    sign[p] * e^gauge[p] * (jet with coefficients coeffs[p, :])."""

    xs: np.ndarray
    coeffs: np.ndarray
    gauge: np.ndarray
    sign: np.ndarray

    @property
    def order(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def jet(self) -> Jet:
        """The normalized tau jets as one Jet batched over the grid."""
        return Jet(self.xs, self.coeffs)

    @property
    def log_abs(self) -> np.ndarray:
        v = np.abs(self.coeffs[:, 0])
        with np.errstate(divide="ignore"):
            return np.where(v > 0, self.gauge + np.log(v), -np.inf)

    def truncate(self, order: int) -> "TauGrid":
        """The same taus at a lower jet order (bitwise equal to evaluating
        them at that order: no coefficient depends on higher ones)."""
        if order > self.order:
            raise ValueError("cannot extend a tau grid by truncation")
        return TauGrid(self.xs, self.coeffs[:, : order + 1], self.gauge, self.sign)

    def at(self, p: int) -> TauEval:
        x = float(self.xs[p])
        return TauEval(x, Jet(x, self.coeffs[p].copy()), float(self.gauge[p]), float(self.sign[p]))


def _dd_tree_sum(h, l):
    """Accurate sums of double-double vectors along the last axis, whose
    length is a power of two, by pairwise folding."""
    while h.shape[-1] > 1:
        half = h.shape[-1] // 2
        h, l = dd.add(h[..., :half], l[..., :half], h[..., half:], l[..., half:])
    return h[..., 0], l[..., 0]


@functools.lru_cache(maxsize=32)
def _jet_sum_terms(k: tuple, ce: tuple):
    """x-independent data of the 2^N expansion terms, in double-double:
    prefactor prod c_j/(2k_j) * prod pair factors (ph, pl) times 2^pe, its
    log and sign, and the decay rate -2 sum_j k_j (rh, rl). Each factor is
    scaled into [1/2, 1) by the exact frexp, and pe sums their powers of
    two; 2^e commutes with dd.mul among normal doubles, so this is bitwise
    the plain product, folded back where |pe| < 768 (pe = 0 for prefactors
    within e^+-470, leaving dd.exp's scale unused).

    Memoized on the effective (k, c), since the one-point eigenfunction
    reaches the same terms at every point; the arrays are read-only, as
    every caller shares them."""
    n = len(k)
    k = np.asarray(k)
    ce = np.asarray(ce)
    m = 1 << n
    bits = ((np.arange(m, dtype=np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(bool)
    factors = []  # (solitons j <= l of the terms it multiplies, double-double factor, power of two)
    for j in range(n):
        cm, cx = math.frexp(abs(ce[j]))
        factors.append((j, j, dd.div(*dd.from_float(cm), *dd._two_prod(np.float64(2.0), np.float64(k[j]))), cx))
    for j in range(n):
        for l in range(j + 1, n):
            rh, rl = dd.div(*dd._two_sum(np.float64(k[j]), np.float64(-k[l])),
                            *dd._two_sum(np.float64(k[j]), np.float64(k[l])))
            factors.append((j, l, dd.mul(rh, rl, rh, rl), 0))
    ph, pl, expo = np.ones(m), np.zeros(m), np.zeros((n, n))
    for j, l, (fh, fl), fe in factors:
        fh, ex = math.frexp(fh)
        expo[j, l] = fe + ex
        sel = bits[:, j] & bits[:, l]
        mh, ml = dd.mul(ph, pl, fh, math.ldexp(fl, -ex))
        ph = np.where(sel, mh, ph)
        pl = np.where(sel, ml, pl)
    pe = np.sum((bits @ expo) * bits, axis=1).astype(np.int64)  # sums of small integers: exact
    fold = np.where(np.abs(pe) < 768, pe, 0)
    ph, pl, pe = np.ldexp(ph, fold), np.ldexp(pl, fold), pe - fold
    logp = np.log(np.abs(ph)) + pe * math.log(2.0)
    sgn = (-1.0) ** (bits @ (ce < 0).astype(float))
    rh, rl = np.zeros(m), np.zeros(m)
    for j in range(n):  # doubling: the sum with j adds -2 k_j to the one without it
        s = 1 << j
        rh[s : 2 * s], rl[s : 2 * s] = dd.add(rh[:s], rl[:s], *dd._two_prod(np.float64(-2.0), np.float64(k[j])))
    terms = (ph, pl, pe, logp, sgn, rh, rl)
    for a in terms:
        a.flags.writeable = False
    return terms


def _jet_sum_block(terms, xs: np.ndarray, order: int):
    """(coeffs, gauge, sign) of the normalized tau jets at the points xs,
    all terms evaluated as one [len(xs), 2^N] block."""
    ph, pl, pe, logp, sgn, rh, rl = terms
    argh, argl = dd.mul(rh, rl, xs[:, None], np.float64(0.0))
    gauge0 = np.max(argh + logp, axis=1)
    eh, el = dd.exp(*dd.add(argh, argl, -gauge0[:, None], np.float64(0.0)), pe)
    th, tl = dd.mul(ph, pl, eh, el)
    th *= sgn
    tl *= sgn
    sums = []
    cur_h, cur_l = th, tl
    for q in range(order + 1):
        if q:
            cur_h, cur_l = dd.mul(cur_h, cur_l, rh, rl)
            cur_h, cur_l = dd.div(cur_h, cur_l, np.float64(q), np.float64(0.0))
        sums.append(_dd_tree_sum(cur_h, cur_l))
    s0h, s0l = sums[0]
    # a vanishing sum is returned raw, in the gauge e^gauge0 and with sign 1
    zero = s0h == 0.0
    coeffs = np.empty((len(xs), order + 1))
    coeffs[:, 0] = np.where(zero, s0h, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for q in range(1, order + 1):
            coeffs[:, q] = np.where(zero, sums[q][0], dd.div(*sums[q], s0h, s0l)[0])
    gauge = np.where(zero, gauge0, gauge0 + dd.log_abs(s0h, s0l))
    sign = np.where(zero, 1.0, np.copysign(1.0, s0h))
    return coeffs, gauge, sign


def tau_jet_sum_grid(cfg: SolitonConfig, rule: CoefficientRule | None, xs, order: int) -> TauGrid:
    """Tau jets over the grid xs from the 2^N exponential-sum form in
    double-double arithmetic.

    Independent of the determinant route and accurate to ~1e-16 relative
    even for the sign-indefinite rewritten taus, whose term cancellation
    would cost a plain-double evaluation several digits. The x-independent
    term prefactors are computed once per call; the points are then
    evaluated in blocks of at most _HIROTA_CHUNK terms. Every operation
    is elementwise, so each point's result is bitwise independent of the
    grid it sits in. Budget N <= 12; RangeError beyond it.
    """
    if order < 0:
        raise ConfigError("jet order must be non-negative")
    k, ce = _effective(cfg.flowed(), rule)
    n = len(k)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    npts = len(xs)
    if n == 0:
        coeffs = np.zeros((npts, order + 1))
        coeffs[:, 0] = 1.0
        return TauGrid(xs, coeffs, np.zeros(npts), np.ones(npts))
    if n > _JET_SUM_MAX_N:
        raise RangeError(f"2^N jet-sum budget exceeded: N={n} > {_JET_SUM_MAX_N}")
    terms = _jet_sum_terms(tuple(k.tolist()), tuple(ce.tolist()))
    coeffs, gauge, sign = np.empty((npts, order + 1)), np.empty(npts), np.empty(npts)
    step = max(1, _HIROTA_CHUNK >> n)
    for i in range(0, npts, step):
        block = slice(i, i + step)
        coeffs[block], gauge[block], sign[block] = _jet_sum_block(terms, xs[block], order)
    return TauGrid(xs, coeffs, gauge, sign)


def tau_jet_sum(cfg: SolitonConfig, rule: CoefficientRule | None, x: float, order: int) -> TauEval:
    """Tau jet at x from the double-double exponential sum: the one-point
    grid of tau_jet_sum_grid."""
    return tau_jet_sum_grid(cfg, rule, [float(x)], order).at(0)


# ---------------------------------------------------------------------------
# Determinant route over a grid (value only)


def tau_logdet_grid(cfg: SolitonConfig, rule: CoefficientRule | None, xs) -> tuple:
    """(log|u|, sign) of the determinant over a grid of x values.

    Needs every effective c > 0 (ConfigError naming the rule otherwise):
    then u = det(I + E K E), E = diag(e), e_m = sqrt(c_m) e^{-k_m x}, with
    the Cauchy Gram matrix K_mn = 1/(k_m + k_n). Rows and columns with
    e_m > 1 are divided by e_m: H = diag(delta) + K o (g g^T), delta =
    1/max(e, 1)^2, g = min(e, 1), and the gauge sum_{e_m > 1} 2 log e_m is
    summed without rounding error; nothing overflows. Eliminating pivot p
    keeps that form (Gohberg, Kailath & Olshevsky 1995). The pivot
    S = delta_p + a, a = |g_p|^2/(2 k_p), is a sum of positive terms; a
    Householder reflection takes g_p to (-+|g_p|, 0, ...), and the other
    rows' component alpha along g_p becomes alpha sqrt(delta_p/S) plus a
    new column alpha r sqrt(a/S), r_i = (k_i - k_p)/(k_i + k_p) (the
    paper's deletion factor). Each point pivots on the largest ungauged
    diagonal, in float64. The sign is 1, or 0 (log|u| = -inf) where a
    pivot underflows to 0. Measured max |log|u| - tau_hirota_grid| on 401
    points of random_config draws with k in (0.2, 6): 4.5e-13 at N = 13,
    4.0e-12 at N = 14 and 5.5e-12 at N = 16. Past N = 16 the error of the
    generator update grows fast (3e-7 at N = 18, O(1) at N = 24 against a
    300-digit determinant), so RangeError names such an N.
    """
    cfg = cfg.flowed()
    k, ce = _effective(cfg, rule)
    if np.any(ce < 0.0):
        raise ConfigError(f"tau_logdet_grid needs every effective c > 0; {rule!r} gives c = {ce.tolist()}")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n, npts = len(k), len(xs)
    if n > 16:
        raise RangeError(f"tau_logdet_grid is accurate only up to N = 16: N={n}")
    # log e_m = log(sqrt(c_m) exp(-k_m x)) as an unevaluated sum hi + lo, [n, points]
    hi, lo = dd._two_prod(-k[:, None], xs)
    hi, err = dd._two_sum(hi, 0.5 * np.log(ce)[:, None])
    lo += err
    big = hi > 0.0  # rows and columns gauged by 1/e_m
    t = np.exp(-np.abs(hi)) * (1.0 - np.where(big, lo, -lo))  # e^{-|log e_m|}
    delta = np.where(big, t * t, 1.0)
    g = np.zeros((n, max(n, 1), npts))  # generator [rows, cols, points]
    g[:, 0] = np.where(big, 1.0, t)
    up = 2.0 * np.where(big, hi, 0.0)
    kk = np.repeat(k[:, None], npts, axis=1)  # rows are permuted per point
    gauge, ld = np.zeros(npts), 2.0 * np.sum(np.where(big, lo, 0.0), axis=0)
    for m in range(n):  # summed without rounding error: ld takes each one
        gauge, err = dd._two_sum(gauge, up[m])
        ld += err
    pts = np.arange(npts)
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(n, 0, -1):  # m active rows, n - m + 1 generator columns
            cols = n - m + 1
            act = g[:m, :cols]
            diag_a = np.einsum("icp,icp->ip", act, act) / (2.0 * kk[:m])
            p = np.argmax(np.log(delta[:m] + diag_a) + up[:m], axis=0)
            a, dp, kp = diag_a[p, pts], delta[p, pts], kk[p, pts]
            s = dp + a
            ld += np.log(s)
            if m == 1:
                break
            g_p = g[p, :cols, pts].T  # pivot generator row, [cols, points]
            last = m - 1
            for arr in (delta, up, kk):  # the last active row fills the pivot's slot
                arr[p, pts] = arr[last]
            g[p, :cols, pts] = g[last, :cols].T
            rows = g[:last, :cols]
            norm = np.sqrt(2.0 * kp * a)
            alpha = np.einsum("icp,cp->ip", rows, g_p) / np.where(norm > 0.0, norm, 1.0)
            # reflect by v = g_p + sgn |g_p| e_0: rows -= (rows.v) 2/|v|^2 v,
            # with rows.v = |g_p| (alpha + sgn rows_0) and |v|^2 = 2 |g_p| |v_0|
            sgn = np.copysign(1.0, g_p[0])
            v0 = np.abs(g_p[0]) + norm
            rows[:, 1:] -= ((alpha + sgn * rows[:, 0]) / np.where(v0 > 0.0, v0, 1.0))[:, None] * g_p[1:]
            g[:last, cols] = alpha * (kk[:last] - kp) / (kk[:last] + kp) * np.sqrt(a / s)
            rows[:, 0] = alpha * np.sqrt(dp / s)
    ok = gauge + ld > -np.inf  # a pivot that underflowed to 0 leaves -inf or NaN
    return np.where(ok, gauge + ld, -np.inf), ok * 1.0


# ---------------------------------------------------------------------------
# Potential, eigenfunctions, flows


def default_grid(cfg: SolitonConfig, npoints: int = 2001) -> np.ndarray:
    """Uniform grid covering all soliton cores: [-10/k_1, 10/k_1]."""
    half = 10.0 / cfg.k[0] if cfg.n else 10.0
    return np.linspace(-half, half, npoints)


def potential(cfg: SolitonConfig, x: float) -> float:
    """U(x) = -2 (log u)''(x): the one-point potential_fn."""
    return potential_fn(cfg)(float(x))


def _log_tau_cumulants(cfg: SolitonConfig, order: int, joint: bool = False) -> Callable:
    """xs -> [points, order + 1 + joint]: the cumulants kappa_2 ..
    kappa_{order+2} of R, then (if joint) E[(T - Tbar)(R - Rbar)^2], T_S =
    sum_{j in S} 8 k_j^3. log u generates the cumulants of its normalized
    terms, positive as SolitonConfig takes every c > 0: (log u)^(n) =
    kappa_n(R), and d/dt (log u)'' is the joint moment.

    Term A u B of _split_tables weighs a_A X_AB b_B, so the half marginals
    are b (X^T a) and a (X b); dB and dA are R_B and R_A less their
    marginal means. mu_n = E[dB^n] + sum_{i>0} C(n, i) E[dA^i dB^(n-i)]:
    the B marginal gives the first term, one matrix product of X with the
    columns b dB^j (and b eB dB^j, j < 2, eB = T_B alike) the rest. mu_1 is
    the rounding left in the means, which kappa_n = mu_n - sum_{m=1}^{n-1}
    C(n-1, m-1) kappa_m mu_{n-m} removes (kappa_2 = mu_2 - mu_1^2 is the
    corrected two-pass of Chan, Golub & LeVeque 1983). The tables are built
    once, here; N = 0 gives 0. N <= 24; RangeError beyond it."""
    if order < 0:
        raise ConfigError("jet order must be non-negative")
    k, ce = _effective(cfg.flowed(), None)
    h, low, high, xt, cut = _split_tables(k, ce)
    xt = np.exp(xt, out=xt)  # X^T, [2^(N-h), 2^h]
    ra, rb = low[1], high[1]
    if joint:
        ta, tb = _subset_sums(8.0 * k[:h] ** 3), _subset_sums(8.0 * k[h:] ** 3)
    top = order + 2
    powers = max(top, 3) if joint else top  # the columns b dB^j, j < powers
    width = powers + 2 * joint
    binom = np.array([[math.comb(n, i) for n in range(top + 1)] for i in range(top + 1)], dtype=float)[:, :, None]

    def cumulants(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty((len(xs), order + 1 + joint))
        for blk, a, b in _half_blocks(xs, low, high, cut, width + 1):
            wb = (xt @ a) * b
            zb = wb.sum(axis=0)
            db = rb[:, None] - rb @ wb / zb
            cols = np.empty((len(rb), width, len(zb)))
            cols[:, 0] = b
            for j in range(1, powers):
                np.multiply(cols[:, j - 1], db, out=cols[:, j])
            if joint:
                eb = tb[:, None] - tb @ wb / zb
                np.multiply(cols[:, :2], eb[:, None], out=cols[:, powers:])
            # X (column j), as (cols^T X^T)^T: BLAS is several times slower on
            # X^T's transposed layout once cols is skinny (large N, few points)
            y = (cols.reshape(len(rb), -1).T @ xt).T.reshape(len(ra), width, -1)
            wa = a * y[:, 0]
            za = wa.sum(axis=0)
            da = ra[:, None] - ra @ wa / za
            mu, q = [zb], wb * db
            for _ in range(top):
                mu.append(q.sum(axis=0))
                q *= db
            mu = np.array(mu) / zb  # E[dB^n]
            p = a
            for i in range(1, top + 1):  # E[dA^i dB^j], j <= top - i
                p = p * da
                mu[i:] += binom[i, i:] * np.einsum("ap,ajp->jp", p, y[:, : top + 1 - i]) / za
            kappa = list(mu)
            for n in range(2, top + 1):
                kappa[n] = mu[n] - sum(math.comb(n - 1, m - 1) * kappa[m] * mu[n - m] for m in range(1, n))
            out[blk, : order + 1] = np.stack(kappa[2:], axis=1)
            if joint:  # E[(eA + eB)(dA + dB)^2], eA centred with E[eB] and dA with mu_1
                ea = ta[:, None] - ta @ wa / za
                ea -= np.sum(wa * ea, axis=0) / za + np.sum(wb * eb, axis=0) / zb
                da -= mu[1]
                v = ea * (da * (da * y[:, 0] + 2.0 * y[:, 1]) + y[:, 2])
                v += da * (da * y[:, powers] + 2.0 * y[:, powers + 1])
                out[blk, -1] = np.sum(a * v, axis=0) / za + np.sum(wb * eb * db * db, axis=0) / zb
        return out

    return cumulants


def potential_jet(cfg: SolitonConfig, x: float, order: int) -> Jet:
    """Jet of U at x, coeffs U^(n)/n! for n <= order, with U^(n) = -2
    kappa_{n+2}(R) (N <= 24; RangeError beyond, ConfigError if order < 0)."""
    kappa = _log_tau_cumulants(cfg, order)(float(x))[0]
    return Jet(float(x), -2.0 * kappa / [math.factorial(n) for n in range(order + 1)])


def potential_fn(cfg: SolitonConfig) -> Callable:
    """Fast vectorized x -> U(x) closure built on the exponential-sum form.

    The returned callable accepts scalars or arrays and is what the
    independent numerics consume as a black-box potential. U = -2
    kappa_2(R), the order-0 column of _log_tau_cumulants, whose tables are
    built once per config. Budget N <= 24; RangeError beyond it."""
    cumulants = _log_tau_cumulants(cfg, 0)

    def u_potential(x):
        out = -2.0 * cumulants(x)[:, 0]
        return out if np.ndim(x) else float(out[0])

    return u_potential


def eigenfunction(cfg: SolitonConfig, j: int, x: float, order: int) -> Jet:
    """Jet of the j-th bound-state eigenfunction, normalized to the
    asymptote e^{-k_j x} as x -> +infinity: the one-point case of
    eigenfunction_grid."""
    cfg = cfg.flowed()
    return eigenfunction_grid(cfg, j, tau_jet_sum_grid(cfg, None, [float(x)], order)).at(0)


def eigenfunction_grid(cfg: SolitonConfig, j: int, den: TauGrid) -> Jet:
    """Jet of the j-th eigenfunction, (rewritten tau / tau) e^{-k_j x},
    batched over a grid; each point is bitwise eigenfunction(cfg, j, x,
    order).

    den is the config's own tau over the grid, tau_jet_sum_grid(cfg,
    None, xs, order); the grid and the jet order are taken from it, so one
    evaluation also serves the caller's other uses of tau. The rewritten
    tau, whose terms have both signs, comes from the same double-double
    sum (N <= 12; RangeError beyond it)."""
    cfg = cfg.flowed()
    _check_index(cfg, j)
    num = tau_jet_sum_grid(cfg, eigenfunction_rule(cfg, j), den.xs, den.order)
    kj = cfg.k[j - 1]
    log_scale = num.gauge - den.gauge - kj * den.xs
    try:
        scale = _pointwise(math.exp, log_scale)
    except OverflowError as exc:
        raise RangeError(f"eigenfunction scale overflow at x={den.xs[np.argmax(log_scale)]}") from exc
    q = num.jet / den.jet
    return (q * jet_exp(-kj, den.xs, den.order, unit=True)) * (num.sign * den.sign * scale)


def apply_time_flows(cfg: SolitonConfig) -> SolitonConfig:
    """Fold hierarchy times into the norming constants:
    c_j -> c_j exp(sum_n (2 k_j)^(2n+1) t_(2n+1)). Iso-spectral."""
    if not cfg.times:
        return SolitonConfig(cfg.k, cfg.c)
    newc = []
    for kj, cj in zip(cfg.k, cfg.c):
        expo = sum((2.0 * kj) ** n * t for n, t in cfg.times.items())
        if abs(expo) > 700.0 or abs(math.log(cj) + expo) > 700.0:
            raise RangeError(f"time-flow exponent out of range for k={kj}")
        newc.append(cj * math.exp(expo))
    return SolitonConfig(cfg.k, tuple(newc))


def dt_potential(cfg: SolitonConfig, x: float) -> float:
    """dU/dt at x for the lowest flow (c_j rate 8 k_j^3), analytically:
    -2 E[(T - Tbar)(R - Rbar)^2] over the positive-weight sum (N <= 24)."""
    return float(-2.0 * _log_tau_cumulants(cfg, 0, joint=True)(float(x))[0, -1])


# ---------------------------------------------------------------------------
# Random configurations for fuzzing


def random_config(
    rng: np.random.Generator,
    n: int | None = None,
    n_range: tuple = (1, 6),
    k_range: tuple = (0.2, 4.0),
    c_range: tuple = (0.1, 10.0),
    min_gap: float = 0.3,
) -> SolitonConfig:
    """Random valid spectral data with a minimum wavenumber gap (tight
    near-degenerate pairs make every determinant route lose digits and
    teach nothing extra about the identities)."""
    if n is None:
        n = int(rng.integers(n_range[0], n_range[1] + 1))
    lo, hi = k_range
    slack = (hi - lo) - min_gap * n
    if slack <= 0:
        raise ConfigError("k_range too narrow for requested minimum gap")
    u = np.sort(rng.uniform(0.0, slack, n))
    k = lo + u + min_gap * np.arange(1, n + 1)
    c = rng.uniform(c_range[0], c_range[1], n)
    return SolitonConfig(tuple(k), tuple(c))
