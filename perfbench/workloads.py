"""Seeded inputs, operations and output checks of the three workloads.

Inputs are plain numbers and tuples drawn here from the seed; the program
receives only those. Each workload is a sequence of passes. A pass is a
list of groups and a group is a list of ops; a timed run stops only at a
group boundary, so every run measures the same mix of sizes. Later passes
draw fresh inputs, so no op repeats an earlier op's arguments.

identity-sweep  one ``verify_*`` call per op, six per config, configs drawn
                the way ``run_identity_suite`` draws them. A pass holds one
                config for each (N, deleted-set size) pair, N in 1..6, so
                the size mix does not vary with the seed.
tau-grid        one config per op, N cycling over 1..12, evaluated on its
                default grid by both tau routes and ``potential_fn``.
cli-cold        one fresh interpreter per op running one CLI subcommand;
                a pass runs all nine subcommands once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("identity-sweep", "tau-grid", "cli-cold")

#: digits reported for a deviation of exactly 0 (beyond double precision)
MAX_DIGITS = 17.0

#: tolerance of the determinant-vs-exponential-sum check (acceptance criterion 01)
TAU_GRID_TOL = 1e-11

#: cli-cold subcommands in pass order, with the N of their config
CLI_MIX = (
    ("potential", 4),
    ("eigen", 3),
    ("evolve", 2),
    ("scatter", 1),
    ("spectrum", 1),
    ("transform", 4),
    ("verify", 3),
    ("hirota-check", 4),
    ("phase-shift", 2),
)

DEFAULT_GRID_POINTS = 2001


@dataclass(frozen=True)
class Op:
    """One benchmark operation: ``kind`` names what runs, ``args`` holds
    its seeded inputs as plain values."""

    workload: str
    kind: str
    args: tuple


def _rng(workload: str, seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(pass_index)])


def digits(dev: float) -> float:
    """-log10 of a non-negative deviation; NaN stays NaN."""
    if not dev == dev:
        return math.nan
    return min(MAX_DIGITS, -math.log10(dev)) if dev > 0 else MAX_DIGITS


def draw_config(rng, n, k_range=(0.2, 4.0), c_range=(0.1, 10.0), min_gap=0.3):
    """(k, c) drawn exactly as ``solitonlab.random_config`` draws them."""
    lo, hi = k_range
    slack = (hi - lo) - min_gap * n
    u = np.sort(rng.uniform(0.0, slack, n))
    k = lo + u + min_gap * np.arange(1, n + 1)
    c = rng.uniform(c_range[0], c_range[1], n)
    return tuple(float(v) for v in k), tuple(float(v) for v in c)


# ---------------------------------------------------------------------------
# input generation


def _identity_pass(rng) -> list:
    # Each (N, deleted-set size) pair once; ordered by diagonal so that a
    # run cut at a group boundary has seen a representative share of sizes.
    pairs = [(n, m) for n in range(1, 7) for m in range(1, min(n, 3) + 1)]
    pairs.sort(key=lambda p: ((p[0] - p[1]) % 3, p[0]))
    groups = []
    for n, msize in pairs:
        k, c = draw_config(rng, n)
        half = 6.0 / k[0]
        dset = tuple(sorted(int(v) for v in rng.choice(np.arange(1, n + 1), size=msize, replace=False)))
        j = int(rng.integers(1, n + 1))
        l = int(rng.integers(1, n + 1))
        e = tuple(float(v) for v in rng.uniform(0.5, 5.0, msize))
        ctilde = tuple(((-1.0) ** i) * float(rng.uniform(0.2, 5.0)) for i in range(n))
        base = (k, c, half)
        groups.append([
            Op("identity-sweep", "wronskian", base + (dset,)),
            Op("identity-sweep", "bilinear", base + (j, l)),
            Op("identity-sweep", "deletion", base + (dset,)),
            Op("identity-sweep", "addition", base + (dset, e)),
            Op("identity-sweep", "tau_split", base + (j,)),
            Op("identity-sweep", "seed_wronskian", base + (ctilde,)),
        ])
    return groups


def _tau_grid_pass(rng) -> list:
    ops = []
    for n in range(1, 13):
        k, c = draw_config(rng, n, k_range=(0.2, 6.0))
        ops.append(Op("tau-grid", "tau_grid", (k, c)))
    return [ops]


def _cli_pass(rng) -> list:
    # k_1 >= 0.5 keeps each subcommand's default domain (+-10/k_1 or
    # +-12/k_1), and so its cost, in a narrow band on every seed.
    ops = []
    for sub, n in CLI_MIX:
        if sub == "phase-shift":
            # the check needs the pair well separated at t = +-3
            k1 = float(rng.uniform(0.8, 1.2))
            k = (k1, k1 + float(rng.uniform(0.8, 1.5)))
            c = tuple(float(v) for v in rng.uniform(0.1, 10.0, 2))
        elif sub in ("scatter", "spectrum"):
            # Both refuse (exit 3) a potential above 1e-8 at +-12/k_1, and
            # scatter cannot widen that domain. A single soliton with
            # k < 1.5 has decayed there for every c in (0.1, 10).
            k, c = draw_config(rng, n, k_range=(0.5, 1.5))
        else:
            k, c = draw_config(rng, n, k_range=(0.5, 4.0))
        if sub == "eigen":
            extra = ("--index", str(int(rng.integers(1, n + 1))))
        elif sub == "evolve":
            t = float(rng.uniform(0.01, 0.1))
            extra = (f"--t-values={-t!r},0.0,{t!r}",)
        elif sub == "scatter":
            extra = ("--k", repr(float(rng.uniform(0.5, 2.0))), "--format", "json")
        elif sub == "spectrum":
            extra = ("--format", "json")
        elif sub == "transform":
            extra = ("--scheme", "krein-adler", "--delete", f"{n - 1},{n}")
        else:
            extra = ()
        ops.append(Op("cli-cold", sub, (k, c, extra)))
    return [ops]


_PASSES = {"identity-sweep": _identity_pass, "tau-grid": _tau_grid_pass, "cli-cold": _cli_pass}


def make_pass(workload: str, seed: int, pass_index: int) -> list:
    """Groups of ops for one pass; the same (workload, seed, pass) always
    gives the same inputs."""
    return _PASSES[workload](_rng(workload, seed, pass_index))


# ---------------------------------------------------------------------------
# in-process ops: run, then check. Each returns (ok, digits).


def run_inprocess(sl, op: Op):
    """Run one identity-sweep or tau-grid op against the solitonlab
    package ``sl`` and check its output."""
    if op.workload == "identity-sweep":
        return _check_report(_identity_call(sl, op))
    return _tau_grid(sl, op)


def _identity_call(sl, op: Op):
    k, c, half = op.args[:3]
    rest = op.args[3:]
    cfg = sl.SolitonConfig(k, c)
    grid = np.linspace(-half, half, 21)
    if op.kind == "wronskian":
        return sl.verify_wronskian_identity(cfg, list(rest[0]), grid)
    if op.kind == "bilinear":
        return sl.verify_bilinear_derivative(cfg, rest[0], rest[1], grid)
    if op.kind == "deletion":
        return sl.verify_deletion_determinant(cfg, list(rest[0]), grid)
    if op.kind == "addition":
        return sl.verify_addition_determinant(cfg, list(rest[0]), list(rest[1]), grid)
    if op.kind == "tau_split":
        return sl.verify_tau_split(cfg, rest[0], grid)
    return sl.verify_seed_wronskian(cfg.k, list(rest[0]), grid)


def report_deviation(report) -> float:
    """The deviation a report is judged on: its constancy measure, or its
    maximum deviation where it has none."""
    dev = report.constancy_measure
    return float(report.max_abs_deviation if dev is None else dev)


def _check_report(report):
    d = digits(report_deviation(report))
    return bool(report.passed) and d == d, d


def _tau_grid(sl, op: Op):
    cfg = sl.SolitonConfig(*op.args)
    xs = sl.default_grid(cfg)
    ld, sd = sl.tau_logdet_grid(cfg, None, xs)
    lh, sh = sl.tau_hirota_grid(cfg, None, xs)
    u = sl.potential_fn(cfg)(xs)
    dev = float(np.max(np.abs(ld - lh)))
    ok = (
        bool(np.array_equal(sd, sh))
        and dev <= TAU_GRID_TOL
        and bool(np.all(np.isfinite(u)))
        and np.shape(u) == np.shape(xs)
    )
    return ok, digits(dev)


# ---------------------------------------------------------------------------
# cli-cold ops: argv and output check


def config_json(op: Op) -> str:
    k, c, _ = op.args
    return json.dumps({"k": list(k), "c": list(c)})


def cli_argv(op: Op, config_path: str) -> list:
    """Subcommand arguments after ``python -m solitonlab.cli``."""
    return [op.kind, config_path, *op.args[2]]


def _csv_block(lines, header):
    if not lines or lines[0] != ",".join(header):
        raise ValueError(f"expected header {header}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if len(rows) != DEFAULT_GRID_POINTS or any(len(r) != len(header) for r in rows):
        raise ValueError("wrong CSV shape")
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite value in CSV")


def check_cli_output(op: Op, returncode: int, stdout: str):
    """(ok, digits) of one CLI run; digits is NaN for subcommands that
    report no deviation. A nonzero exit or unparsable output fails."""
    if returncode != 0:
        return False, math.nan
    try:
        return True, _parse_cli(op, stdout)
    except (ValueError, KeyError, TypeError):
        return False, math.nan


def _parse_cli(op: Op, stdout: str) -> float:
    lines = stdout.splitlines()
    n = len(op.args[0])
    if op.kind == "potential":
        _csv_block(lines, ("x", "U"))
    elif op.kind == "eigen":
        _csv_block(lines, ("x", "phi", "dphi"))
    elif op.kind == "evolve":
        block = DEFAULT_GRID_POINTS + 2
        if len(lines) != 3 * block:
            raise ValueError("expected three time blocks")
        for b in range(3):
            if not lines[b * block].startswith("# t="):
                raise ValueError("missing time marker")
            _csv_block(lines[b * block + 1 : (b + 1) * block], ("x", "U"))
    else:
        data = json.loads(stdout)
        if op.kind == "scatter":
            if not all(math.isfinite(float(data[key])) for key in ("r_re", "r_im", "t_re", "t_im")):
                raise ValueError("non-finite amplitude")
        elif op.kind == "spectrum":
            if len(data["energies"]) != n:
                raise ValueError("wrong number of bound states")
        elif op.kind == "transform":
            if len(data["k"]) != n - 2 or not all(v > 0 for v in data["c"]):
                raise ValueError("unexpected transform output")
        elif op.kind == "verify":
            if data["pass"] is not True:
                raise ValueError("verify reported failure")
            devs = [
                r["max_abs_deviation"] if r["constancy_measure"] is None else r["constancy_measure"]
                for r in data["reports"]
            ]
            return min(digits(float(d)) for d in devs)
        elif op.kind == "hirota-check":
            if data["pass"] is not True:
                raise ValueError("hirota-check reported failure")
            return digits(float(data["max_log_deviation"]))
        elif op.kind == "phase-shift":
            if data["pass"] is not True:
                raise ValueError("phase-shift reported failure")
    return math.nan
