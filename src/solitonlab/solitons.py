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
taus for eigenfunctions and tail integrals: tau_jet_sums, the one entry
point, evaluates several rules of one config on one grid, sharing the
factors that do not depend on the rules between them and later calls,
and returns them as one TauGrid stacked over the rules at one jet order.
Every route takes x of any shape, a point being shape (), and gives
results of x's shape; only the four cores (the three tau routes and the
cumulants) flatten it (_points).

Every tilde-variant of u used by the deformation schemes is a pointwise
rewrite c_m -> factor_m * c_m, represented by CoefficientRule; those of
the schemes, deletion_rule and addition_rule, are where their index sets
(_index_set) and parameters are checked. Tau jets carry a log gauge
(TauGrid), as tau spans hundreds of orders of magnitude, and
TauGrid.values is the one place such a gauge is applied.

The eigenfunctions (eigenfunction_grid), the tail-integral matrices int_x^inf
phi_j phi_l (tail_matrix_grid) and the Abraham-Moses overlap matrices
built from them (overlap_rows) each have one builder. Each, and each
right side of the identities, is a rewritten tau over the config's own
times an exponential, TauGrid.over: several eigenfunctions are one
TauGrid over [indices, *x.shape] and a matrix one over [rows, cols,
*x.shape], each from one over of rows of a stack. The caller evaluates
the denominator and the numerators (eigenfunction_rule, tail_pairs,
pair_rule) in its own tau_jet_sums call and hands in rows and slices of
its stack; the builders only index them and evaluate no tau.
eigenfunctions makes that call for the bound states of one config, so
every caller of it, the Darboux engines of transforms included, costs
one core call, as do the identity checks and transforms.generic_am, on
any grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from . import dd
from .jets import ConfigError, Jet, _check_order, _integer, jet_exp

#: enumeration budget for the 2^N exponential-sum oracle
HIROTA_MAX_N = 24

#: [orders, rules, points, terms] elements per block of the double-double
#: jet sum
_HIROTA_CHUNK = 1 << 18

#: [terms, points] elements per block of the plain-double sums: small
#: enough to stay in the heap and the cache, where larger temporaries are
#: mapped and unmapped on every call
_POINT_BLOCK = 1 << 14


class RangeError(ArithmeticError):
    """A valid config beyond the numerical reach of a route: exponent
    overflow that no gauge can absorb, a time flow that takes a norming
    constant beyond exp(+-700), or more solitons than a 2^N enumeration
    budget or the determinant's measured reach allows (names N)."""


def _real(v) -> float:
    # float() would also read a string ("2") or a boolean, and iterating a
    # string gives its characters
    if isinstance(v, (str, bytes, bool, np.bool_)):
        raise TypeError(f"{v!r} is not a real")
    return float(v)


def _time_index(n) -> int:
    """A hierarchy time key as an int (_integer), or a JSON key's digits."""
    return int(n) if isinstance(n, str) and n.isdecimal() else _integer(n, "hierarchy time index")


@dataclass(frozen=True)
class SolitonConfig:
    """Spectral data: ascending positive wavenumbers k, positive norming
    constants c, and optional hierarchy times {odd n: t_n}."""

    k: tuple
    c: tuple
    times: Mapping | None = None

    def __post_init__(self):
        try:
            k, c = (tuple(_real(v) for v in a) for a in (self.k, self.c))
            items = None if self.times is None else [(n, _real(v)) for n, v in self.times.items()]
        except (TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"k and c must be lists of reals and times a map to reals: {exc}") from exc
        t = None if items is None else {_time_index(n): v for n, v in items}
        if not all(map(math.isfinite, k + c + tuple((t or {}).values()))):
            raise ConfigError("wavenumbers, norming constants and times must be finite")
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
        if t is not None:
            if len(t) < len(items) or any(n < 3 or n % 2 == 0 for n in t):
                raise ConfigError(f"hierarchy time keys must be distinct odd integers >= 3: {[n for n, _ in items]}")
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
    kj = cfg.k[_check_index(cfg.n, j) - 1]
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
    for d in _index_set(cfg.n, deleted):
        step = eigenfunction_rule(cfg, d)
        if exponent == 2:
            step = step.compose(step)
        rule = rule.compose(step)
    return rule


def addition_rule(cfg: SolitonConfig, params) -> tuple:
    """(rule, e) of the Abraham-Moses addition with parameters params, a
    mapping j -> e_j or (j, e_j) pairs: the rewrite c_j -> e_j/(e_j+1) c_j
    and {j: e_j} by ascending j, each e_j kept with its own j. ConfigError
    unless there is at least one pair, each j a state index given once
    and each e_j in (0, inf)."""
    items = params.items() if isinstance(params, Mapping) else params
    try:
        pairs = [(_check_index(cfg.n, j), _real(v)) for j, v in items]
    except TypeError as exc:
        raise ConfigError(f"addition parameters must be (index, real) pairs: {exc}") from exc
    e = dict(sorted(pairs))
    if not e or len(e) < len(pairs):
        raise ConfigError(f"addition needs at least one index, each given once: {pairs}")
    if not all(0.0 < v < math.inf for v in e.values()):
        raise ConfigError(f"addition parameters must be positive and finite: {e}")
    return CoefficientRule(tuple(e[m] / (e[m] + 1.0) if m in e else 1.0 for m in range(1, cfg.n + 1))), e


def drop_rule(n: int, j: int) -> CoefficientRule:
    """Rule for u with c_j set to 0 (soliton j absent)."""
    return rescale_rule(n, j, 0.0)


def rescale_rule(n: int, j: int, factor: float) -> CoefficientRule:
    j = _check_index(n, j)
    return CoefficientRule(tuple(factor if m == j else 1.0 for m in range(1, n + 1)))


def _check_index(n: int, j) -> int:
    """The state index j in 1..n as an int (_integer); ConfigError
    otherwise."""
    j = _integer(j, "eigenstate index")
    if not 1 <= j <= n:
        raise ConfigError(f"eigenstate index {j} out of range 1..{n}")
    return j


def _index_set(n: int, indices) -> list:
    """The distinct indices, each by _check_index, ascending; ConfigError
    for none."""
    dset = sorted({_check_index(n, j) for j in indices})
    if not dset:
        raise ConfigError("empty index set")
    return dset


def _effective(cfg: SolitonConfig, rule: CoefficientRule | None):
    if rule is None:
        rule = CoefficientRule.identity(cfg.n)
    ce = rule.apply(cfg)
    k = np.asarray(cfg.k)
    keep = ce != 0.0
    return k[keep], ce[keep]


def _points(xs) -> tuple:
    """(x, flat): xs as a float array and its points flat in C order, a
    view; the cores evaluate flat and reshape their results to x's.
    ConfigError for a NaN or infinite point."""
    x = np.asarray(xs, dtype=float)
    if not np.isfinite(x).all():
        raise ConfigError("evaluation points x must be finite")
    return x, x.reshape(-1)


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
    x, xs = _points(xs)
    k, ce = _effective(cfg.flowed(), rule)
    h, (ca, ra), (cb, rb), xt, cut = _split_tables(k, ce)
    xt = np.exp(xt, out=xt)  # X^T times the signs, [2^(N-h), 2^h]
    xt *= ((-1.0) ** _subset_sums(ce[h:] < 0))[:, None]
    xt *= (-1.0) ** _subset_sums(ce[:h] < 0)
    log_abs, sign = np.empty(xs.shape), np.empty(xs.shape)
    for blk, a, b in _half_blocks(xs, (ca, ra), (cb, rb), cut, 1):
        acc = np.einsum("ap,ap->p", a, (b.T @ xt).T)  # X b as in _log_tau_cumulants
        top_a, top_b = np.argmax(a, axis=0), np.argmax(b, axis=0)
        mh, ml = dd._two_prod(np.stack([ra[top_a], rb[top_b]]), xs[blk])
        mh, err = dd._two_sum(mh, np.stack([ca[top_a], cb[top_b]]))
        g, e1 = dd._two_sum(mh[0], mh[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            g, e2 = dd._two_sum(g, np.log(np.abs(acc)))
            log_abs[blk] = np.where(acc != 0.0, g + (e1 + e2 + np.sum(ml + err, axis=0)), -np.inf)
        sign[blk] = np.sign(acc)
    return log_abs.reshape(x.shape), sign.reshape(x.shape)


#: 2^N budget for the compensated jet-sum route
_JET_SUM_MAX_N = 12


@dataclass(frozen=True)
class TauGrid:
    """Gauged tau jets over xs of any shape: the true value at xs[p] is
    sign[p] * e^gauge[p] * (jet with coefficients coeffs[p])."""

    xs: np.ndarray
    coeffs: np.ndarray
    gauge: np.ndarray
    sign: np.ndarray

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    @property
    def jet(self) -> Jet:
        """The normalized tau jets as one Jet over the grid."""
        return Jet(self.xs, self.coeffs)

    @property
    def log_abs(self) -> np.ndarray:
        v = np.abs(self.coeffs[..., 0])
        with np.errstate(divide="ignore"):
            return np.where(v > 0, self.gauge + np.log(v), -np.inf)

    def truncate(self, order: int) -> "TauGrid":
        """The same taus at a lower jet order (bitwise equal to evaluating
        them at that order: no coefficient depends on higher ones)."""
        if order > self.order:
            raise ValueError("cannot extend a tau grid by truncation")
        return TauGrid(self.xs, self.coeffs[..., : order + 1], self.gauge, self.sign)

    def over(self, den: "TauGrid", rate=0.0) -> "TauGrid":
        """The gauged jets of (self / den) e^{rate x} on their common grid
        and jet order, for self a rewritten tau and den the config's own:
        eigenfunctions, tail integrals and the right sides of the
        identities are all such ratios. self may stack several of them
        over leading axes, den is then broadcast over those, and rate may
        be an array broadcasting against self's grid. The gauges subtract
        and rate x joins them, so the jets stay of order one."""
        xs = self.xs
        d = Jet(xs, np.broadcast_to(den.coeffs, xs.shape + den.coeffs.shape[-1:]))
        q = (self.jet / d) * jet_exp(rate, xs, den.order, unit=True)
        return TauGrid(xs, q.coeffs, self.gauge - den.gauge + rate * xs, self.sign * den.sign)

    def __getitem__(self, p) -> "TauGrid":
        """The taus at the index p of the grid's axes: a row of a stack, a
        slice of rows or the rows a list or array selects (views for the
        first two); a stack unpacks into its rows."""
        return TauGrid(self.xs[p], self.coeffs[p], self.gauge[p], self.sign[p])

    def values(self, shift=0.0) -> Jet:
        """The true jets sign * e^gauge * jet over the grid, times
        e^-shift; RangeError where they overflow."""
        try:
            with np.errstate(over="raise"):
                return self.jet * (self.sign * np.exp(self.gauge - shift))
        except FloatingPointError as exc:
            raise RangeError(f"tau ratio overflow at x={np.ravel(self.xs)[np.argmax(self.gauge - shift)]}") from exc


def _dd_tree_sum(h, l):
    """Accurate sums of double-double vectors along the last axis, whose
    length is a power of two, by pairwise folding."""
    while h.shape[-1] > 1:
        half = h.shape[-1] // 2
        h, l = dd.add(h[..., :half], l[..., :half], h[..., half:], l[..., half:])
    return h[..., 0], l[..., 0]


def _frexp_dd(h, l) -> tuple:
    """(m, ml, e) with h + l = (m + ml) 2^e and |m| in [1/2, 1) (m = 0 for
    h = 0), by the exact frexp."""
    m, e = np.frexp(h)
    return m, np.ldexp(l, -e), e


def _subset_products(h, l, e):
    """prod_{j in S} (h_j + l_j) 2^e_j of the double-double factors [...,
    n] over the subsets S of range(n), bit j of the index marking j: [...,
    2^n] as (mantissa h, l in [1/2, 1), power of two e), by doubling. The
    powers of two are summed as integers; the mantissas, products of at
    most 12 factors in [1/2, sqrt 2], cannot underflow and are renormalised
    by the exact frexp once, at the end."""
    shape = h.shape[:-1] + (1 << h.shape[-1],)
    ph, pl, pe = np.ones(shape), np.zeros(shape), np.zeros(shape, dtype=np.int64)
    ph[..., 1:2], pl[..., 1:2], pe[..., 1:2] = h[..., :1], l[..., :1], e[..., :1]
    for j in range(1, h.shape[-1]):
        s = 1 << j
        ph[..., s : 2 * s], pl[..., s : 2 * s] = dd.mul(ph[..., :s], pl[..., :s], h[..., j, None], l[..., j, None])
        pe[..., s : 2 * s] = pe[..., :s] + e[..., j, None]
    mh, ml, ex = _frexp_dd(ph, pl)
    return mh, ml, pe + ex


@functools.lru_cache(maxsize=32)
def _jet_sum_table(k: tuple):
    """Rule-independent data of the 2^N expansion terms, memoized on the
    wavenumbers: the pair products prod_{j < l in S} ((k_j - k_l)/(k_j +
    k_l))^2 (qh, ql) times 2^qe, each pair factor a double-double quotient,
    the decay rates R_S = -2 sum_{j in S} k_j (rh, rl) and 1/(2 k_j) (ih,
    il). The arrays are read-only, as every caller shares them."""
    k = np.asarray(k)
    m = 1 << len(k)
    fh, fl = dd.div(*dd._two_sum(k[:, None], -k), *dd._two_sum(k[:, None], k))
    fh, fl, ex = _frexp_dd(*dd.mul(fh, fl, fh, fl))  # [N, N]; the diagonal, 0, is never read
    qh, ql, qe = np.ones(m), np.zeros(m), np.zeros(m, dtype=np.int64)
    rh, rl = np.zeros(m), np.zeros(m)
    for j in range(len(k)):  # doubling: the subsets with j from those without
        s = 1 << j
        wh, wl, we = _subset_products(fh[:j, j], fl[:j, j], ex[:j, j])
        qh[s : 2 * s], ql[s : 2 * s] = dd.mul(qh[:s], ql[:s], wh, wl)
        qe[s : 2 * s] = qe[:s] + we
        rh[s : 2 * s], rl[s : 2 * s] = dd.add(rh[:s], rl[:s], *dd._two_prod(np.float64(-2.0), np.float64(k[j])))
    qh, ql, ex = _frexp_dd(qh, ql)
    table = (qh, ql, qe + ex, rh, rl, *dd.div(*dd.from_float(1.0), *dd.from_float(2.0 * k)))
    for a in table:
        a.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _order_weights(k: tuple, top: int):
    """The order weights R_S^q/q!, q = 0..top, [top + 1, 2^N] in
    double-double, memoized on the wavenumbers and top: order q is order q
    - 1 times R_S and the double-double 1/q, so a higher top extends the
    entry below it. Read-only, as every caller shares them."""
    if top == 0:
        out = np.ones((1, 1 << len(k))), np.zeros((1, 1 << len(k)))
    else:
        (lh, ll), (rh, rl) = _order_weights(k, top - 1), _jet_sum_table(k)[3:5]
        ih, il = dd.div(*dd.from_float(1.0), *dd.from_float(float(top)))
        wh, wl = dd.mul(*dd.mul(lh[-1], ll[-1], rh, rl), ih, il)
        out = np.concatenate([lh, wh[None]]), np.concatenate([ll, wl[None]])
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _subset_exps(k: tuple, xs: bytes):
    """The subset exponentials E_S(x) = prod_{j in S} e^{-2 k_j x} as two
    half tables, over the subsets of the low solitons k[:N//2] and of the
    high ones k[N//2:]: [points, 2^(N//2)] and [points, 2^(N - N//2)], each
    in _subset_products' form, from one dd.exp per soliton and point. E_S
    of S = A u B is the low E_A times the high E_B (_joined_exps). Memoized
    on the kept k and the grid's bytes for the checks on one config; the
    full [points, 2^N] table is never held. Read-only, as shared."""
    eh, el, ee = dd.exp(*dd._two_prod(-2.0 * np.asarray(k), np.frombuffer(xs)[:, None]))
    h = len(k) // 2
    halves = tuple(_subset_products(eh[:, p], el[:, p], ee[:, p]) for p in (slice(0, h), slice(h, None)))
    for half in halves:
        for a in half:
            a.flags.writeable = False
    return halves


def _joined_exps(low: tuple, high: tuple, blk: slice) -> tuple:
    """E_S over the points blk, [points, 2^N] as (mantissa in [1/2, 1),
    power of two): one outer double-double product of the half tables of
    _subset_exps, S = A + 2^(N//2) B indexing the low subset A and the high
    B."""
    (ah, al, ae), (bh, bl, be) = ((a[blk] for a in half) for half in (low, high))
    eh, el = dd.mul(ah[:, None, :], al[:, None, :], bh[:, :, None], bl[:, :, None])
    eh, el, ex = _frexp_dd(eh.reshape(len(eh), -1), el.reshape(len(el), -1))
    return eh, el, (ae[:, None, :] + be[:, :, None]).reshape(ex.shape) + ex


def tau_jet_sums(cfg: SolitonConfig, rules, xs, order: int) -> TauGrid:
    """Tau jets of several rewrites of one config over xs at one jet order
    (an integer >= 0, ConfigError otherwise), one TauGrid stacked over
    [len(rules), *x.shape] (rule None is the config's own tau), from the
    2^N exponential-sum form in double-double arithmetic. A rule wanted at
    a lower order is its row's truncate, bitwise the same.

    Independent of the determinant route and accurate to ~1e-16 relative
    even for the sign-indefinite rewritten taus, whose term cancellation
    would cost a plain-double evaluation several digits. Term S of rule r
    at x is A_rS Q_S E_S(x): A_rS the product over j in S of the rewritten
    c_j f_rj / (2 k_j), signs included, Q_S that of the pair factors ((k_j -
    k_l)/(k_j + k_l))^2 and E_S = e^{R_S x} that of e^{-2 k_j x}. Each is a
    double-double mantissa times an integer power of two, built by
    doubling (_subset_products). Jet coefficient q sums the terms times
    R_S^q/q!. Every factor that does not depend on the rules is made once
    and shared read-only: Q_S, R_S and 1/(2 k_j) per k (_jet_sum_table),
    the order weights per k and top order (_order_weights), and E_S per
    kept k and grid as two half tables from P N dd.exp values
    (_subset_exps), joined by one product per block of points. A call then
    pays only for its rules: their A_rS (the rule products times 1/(2 k_j),
    one multiplication, and N - 1 doubling products), the terms A Q E over
    blocks of points holding at most _HIROTA_CHUNK [orders, rules, points,
    2^N] elements, the weights' products, the tree sum and the
    normalization, which an order-0 call skips for its empty higher
    orders. Each rule's gauge at a point is the power of two of its own
    largest term, so a rule far below another loses nothing. Every
    operation is elementwise, so a rule's result is bitwise independent of
    the grid it sits in, the other rules of the call, its order and what
    the memos hold.
    Solitons every rule removes are left out; budget N <= 12 for the rest,
    RangeError beyond it."""
    cfg, top = cfg.flowed(), _check_order(order)
    if not rules:
        raise ConfigError("tau_jet_sums needs at least one rule")
    ce = np.array([cfg.c if rule is None else rule.apply(cfg) for rule in rules]).reshape(len(rules), cfg.n)
    keep = np.any(ce != 0.0, axis=0)
    k, ce = np.asarray(cfg.k)[keep], ce[:, keep]
    if len(k) > _JET_SUM_MAX_N:
        raise RangeError(f"2^N jet-sum budget exceeded: N={len(k)} > {_JET_SUM_MAX_N}")
    x, xs = _points(xs)
    key = tuple(k.tolist())
    qh, ql, qe, _, _, ih, il = _jet_sum_table(key)
    # signed rule products c_j f_rj / 2 k_j, [rules, 2^N]; zero terms never set a gauge
    cm, cx = np.frexp(ce)
    fh, fl, ex = _frexp_dd(*dd.mul(*dd.from_float(cm), ih, il))
    ah, al, ae = _subset_products(fh, fl, cx + ex)
    ah, al, ex = _frexp_dd(*dd.mul(ah, al, qh, ql))
    ae = np.where(ah == 0.0, -(1 << 40), ae + qe + ex)
    wh, wl = _order_weights(key, top)
    coeffs = np.empty((len(rules), len(xs), top + 1))
    gauge, sign = np.empty((len(rules), len(xs))), np.empty((len(rules), len(xs)))
    step = max(1, _HIROTA_CHUNK // ((top + 1) * len(rules) * len(qh)))
    low, high = _subset_exps(key, xs.tobytes())
    for i in range(0, len(xs), step):
        blk = slice(i, i + step)
        eh, el, ee = _joined_exps(low, high, blk)
        th, tl = dd.mul(ah[:, None], al[:, None], eh, el)  # [rules, points, 2^N], |mantissa| in [1/4, 1)
        te = ae[:, None] + ee
        g = te.max(axis=-1)
        te -= g[..., None]
        th, tl = np.ldexp(th, te), np.ldexp(tl, te)
        ch, cl = th[None], tl[None]
        if top:  # the higher orders: the terms times their weights
            wth, wtl = dd.mul(th, tl, wh[1:, None, None], wl[1:, None, None])
            ch, cl = np.concatenate([ch, wth]), np.concatenate([cl, wtl])
        sh, sl = _dd_tree_sum(ch, cl)
        # a vanishing sum is returned raw, in the gauge 2^g and with sign 1;
        # else 2^g joins the power of two that takes |sum| into [1/sqrt 2,
        # sqrt 2), so a tau near 1 gets its small log from the sum alone
        zero = sh[0] == 0.0
        m, ex = np.frexp(np.abs(sh[0]))
        ex = np.where(zero, 0, ex - (m < 0.5**0.5))
        log_sum = dd.log_abs(np.ldexp(sh[0], -ex), np.ldexp(sl[0], -ex))
        gauge[:, blk] = (g + ex) * dd._LN2_HI + np.where(zero, 0.0, log_sum)
        sign[:, blk] = np.where(zero, 1.0, np.copysign(1.0, sh[0]))
        if top:
            with np.errstate(divide="ignore", invalid="ignore"):
                sh[1:] = np.where(zero, sh[1:], dd.div(sh[1:], sl[1:], sh[0], sl[0])[0])
        sh[0] = np.where(zero, sh[0], 1.0)
        coeffs[:, blk] = np.moveaxis(sh, 0, -1)
    shape = (len(rules),) + x.shape
    coeffs, gauge, sign = coeffs.reshape(shape + (top + 1,)), gauge.reshape(shape), sign.reshape(shape)
    return TauGrid(np.broadcast_to(x, shape), coeffs, gauge, sign)


def tau_jet_sum(cfg: SolitonConfig, rule: CoefficientRule | None, x: float, order: int) -> TauGrid:
    """Tau jet at the point x from the double-double exponential sum: the
    one-rule tau_jet_sums, a TauGrid of shape ()."""
    return tau_jet_sums(cfg, [rule], float(x), order)[0]


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
    x, xs = _points(xs)
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
    return np.where(ok, gauge + ld, -np.inf).reshape(x.shape), (ok * 1.0).reshape(x.shape)


# ---------------------------------------------------------------------------
# Potential, eigenfunctions, flows


def default_grid(cfg: SolitonConfig, npoints: int = 2001) -> np.ndarray:
    """Uniform grid covering all soliton cores: [-10/k_1, 10/k_1]."""
    half = 10.0 / cfg.k[0] if cfg.n else 10.0
    return np.linspace(-half, half, npoints)


def potential(cfg: SolitonConfig, x):
    """U(x) = -2 (log u)''(x): potential_fn in one call."""
    return potential_fn(cfg)(x)


def _log_tau_cumulants(cfg: SolitonConfig, order: int, joint: bool = False) -> Callable:
    """xs -> [*xs.shape, order + 1 + joint]: the cumulants kappa_2 ..
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
    order = _check_order(order)
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
        x, xs = _points(xs)
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
        return out.reshape(x.shape + out.shape[1:])

    return cumulants


def potential_jet(cfg: SolitonConfig, x, order: int) -> Jet:
    """Jet of U at x, coeffs U^(n)/n! for n <= order, with U^(n) = -2
    kappa_{n+2}(R) (N <= 24; RangeError beyond, ConfigError if order < 0)."""
    kappa = _log_tau_cumulants(cfg, order)(x)
    return Jet(x, -2.0 * kappa / [math.factorial(n) for n in range(order + 1)])


def potential_fn(cfg: SolitonConfig) -> Callable:
    """Fast vectorized x -> U(x) closure built on the exponential-sum form:
    scalars or arrays of any shape give results of that shape, and it is
    what the independent numerics consume as a black-box potential. U =
    -2 kappa_2(R), the order-0 column of _log_tau_cumulants, whose tables
    are built once per config. The error is absolute, about 1e-15 of
    max|U| (against 40-digit sums on random 2-4 soliton draws, |x| <=
    1000): a far-field value below that is rounding, not U. Budget N <=
    24; RangeError beyond it."""
    cumulants = _log_tau_cumulants(cfg, 0)

    def u_potential(x):
        return -2.0 * cumulants(x)[..., 0]

    return u_potential


def eigenfunctions(cfg: SolitonConfig, indices, x, order: int) -> TauGrid:
    """Gauged jets of the bound states j in indices, normalized to e^{-k_j
    x} as x -> +infinity, at a point or a grid of any shape, stacked over
    [len(indices), *x.shape]: eigenfunction_grid over one tau_jet_sums
    call of the config's tau and the numerators (N <= 12), each row
    bitwise the same whichever share it."""
    taus = tau_jet_sums(cfg, [None] + [eigenfunction_rule(cfg, j) for j in indices], x, order)
    return eigenfunction_grid(cfg, indices, taus[0], taus[1:])


def eigenfunction(cfg: SolitonConfig, j: int, x, order: int) -> Jet:
    """True jet of the j-th eigenfunction at a point or over a grid: the
    one-index eigenfunctions, one two-rule tau_jet_sums call."""
    return eigenfunctions(cfg, [j], x, order)[0].values()


def eigenfunction_grid(cfg: SolitonConfig, indices, den: TauGrid, nums: TauGrid) -> TauGrid:
    """Gauged jets of the eigenfunctions j in indices, (rewritten tau /
    tau) e^{-k_j x}, stacked over [len(indices), *x.shape] as one over:
    den is the config's own tau and nums the stacked rewritten taus
    (eigenfunction_rule(cfg, j), in the order of indices) of one
    tau_jet_sums call; both only read."""
    rate = np.array([-cfg.k[_check_index(cfg.n, j) - 1] for j in indices])
    return nums.over(den, rate.reshape(rate.shape + (1,) * den.xs.ndim))


# ---------------------------------------------------------------------------
# Tail integrals


def tail_pairs(rows, cols) -> list:
    """The unordered index pairs (j, l), j <= l, of the tail entries T_ab,
    a in rows, b in cols, each once, in order of first appearance."""
    return list(dict.fromkeys((min(a, b), max(a, b)) for a in rows for b in cols))


def tail_matrix_grid(cfg: SolitonConfig, rows, cols, den: TauGrid, pair_taus: TauGrid) -> TauGrid:
    """Tail integrals T_ab = int_x^inf phi_a phi_b dy for a in rows, b in
    cols over a grid, with closed form (pair-rewritten tau / tau)
    e^{-(k_a+k_b)x}/(k_a+k_b), as one TauGrid.over of the stacked pair
    taus, over [rows, cols, *x.shape] (its values() are the entries).

    den is the config's own tau over the grid, tau_jet_sums(cfg, [None],
    xs, order)[0]; the grid and the jet order are taken from it, so one
    evaluation serves every entry and the caller's other uses of tau.
    pair_taus stacks the pair taus pair_rule(cfg, j, l) of the pairs of
    tail_pairs(rows, cols), in that order, over den's grid at den's order,
    a slice of the same call; it is only read. pair_rule is symmetric, so
    T_ab is T_ba bitwise."""
    pairs = tail_pairs(rows, cols)
    slot = np.zeros((cfg.n + 1, cfg.n + 1), dtype=int)  # pair (j, l) -> its row of pair_taus
    slot[tuple(np.transpose(pairs))] = np.arange(len(pairs))
    at = slot[np.minimum.outer(rows, cols), np.maximum.outer(rows, cols)]
    ksum = np.array([cfg.k[j - 1] + cfg.k[l - 1] for j, l in pairs])[at].reshape(at.shape + (1,) * den.xs.ndim)
    tail = pair_taus[at].over(den, -ksum)
    return replace(tail, coeffs=tail.coeffs * (1.0 / ksum)[..., None])


def overlap_rows(cfg: SolitonConfig, idx, den: TauGrid, pair_taus: TauGrid, e=None, extra=()) -> tuple:
    """The Abraham-Moses overlap matrix F over the indices idx in one
    symmetric gauge, (rows, h, tails): F_ab = e^(h_a + h_b) rows_ab, rows
    one Jet over [len(idx), len(idx), *x.shape] and h [len(idx),
    *x.shape], and tails the tail matrix over rows idx and columns idx +
    extra it is built from (tail_matrix_grid's, as are den and
    pair_taus). Deletion (e None): F is T up to constant factors sqrt(c_a
    c_b). T is a Gram matrix, |T_ab| <= sqrt(T_aa T_bb), so with h_a half
    the gauge of T_aa rows and det rows stay of order one, also as x ->
    +infinity. Addition: (e_a + 1) delta_ab - sqrt(c_a c_b) T_ab, with the
    flowed c; its diagonal lies in (e_a, e_a + 1], so h = 0."""
    cfg, m = cfg.flowed(), len(idx)
    tails = tail_matrix_grid(cfg, idx, [*idx, *extra], den, pair_taus)
    t, diag = tails[:, :m], np.arange(m)
    h = np.zeros((m,) + den.xs.shape) if e is not None else 0.5 * t.gauge[diag, diag]
    rows = replace(t, gauge=t.gauge - h[:, None]).values(h)
    if e is not None:
        sqc = np.sqrt([cfg.c[j - 1] for j in idx])
        f = np.moveaxis(rows.coeffs, (0, 1), (-2, -1))  # a view, [*x.shape, order + 1, m, m]
        f *= -(sqc[:, None] * sqc)
        f[..., 0, diag, diag] += np.add(e, 1.0)
    return rows, h, tails


def matrix_values(rows: Jet) -> np.ndarray:
    """The values of a matrix of jets (overlap_rows' rows), as an array
    [*x.shape, rows, cols]."""
    return np.moveaxis(rows.value, (0, 1), (-2, -1))


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


def dt_potential(cfg: SolitonConfig, x):
    """dU/dt at x for the lowest flow (c_j rate 8 k_j^3), analytically:
    -2 E[(T - Tbar)(R - Rbar)^2] over the positive-weight sum (N <= 24)."""
    return -2.0 * _log_tau_cumulants(cfg, 0, joint=True)(x)[..., -1]


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
