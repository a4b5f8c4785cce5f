"""Command-line interface.

Reads spectral data as JSON ({"k": [...], "c": [...], "times": {"3": t3}})
and emits CSV grids or JSON reports for plotting and verification. Exit
codes: 0 success (and, for verify, all identities passing), 1 verification
failure, 2 usage or validation error, 3 numerical failure.

CSV output uses shortest round-trip float formatting and LF line endings,
so identical inputs produce byte-identical files on one platform.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import identities, numerics, transforms
from .jets import SingularJetError
from .solitons import (
    ConfigError,
    RangeError,
    SolitonConfig,
    default_grid,
    eigenfunction,
    potential_fn,
    tau_hirota_grid,
    tau_logdet_grid,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def parse_config(text: str) -> SolitonConfig:
    """Validated spectral data from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    for key in data:
        if key not in ("k", "c", "times"):
            raise ConfigError(f"unknown config field {key!r}")
    if "k" not in data or "c" not in data:
        raise ConfigError("config requires fields 'k' and 'c'")
    return SolitonConfig(data["k"], data["c"], data.get("times"))


def config_to_json(cfg: SolitonConfig) -> str:
    out = {"k": list(cfg.k), "c": list(cfg.c)}
    if cfg.times:
        out["times"] = {str(n): v for n, v in cfg.times.items()}
    return json.dumps(out)


def _fmt(v) -> str:
    return repr(float(v))


def _csv_rows(out, header, rows):
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _positive(text: str) -> float:
    """A --tol or --T value: a positive finite float, else a usage error."""
    v = float(text)
    if not 0.0 < v < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, not {text}")
    return v


def _grid_from_args(args, cfg: SolitonConfig) -> np.ndarray:
    if args.grid is None:
        return default_grid(cfg)
    xmin, xmax, n = args.grid
    if not (math.isfinite(xmin) and math.isfinite(xmax) and xmin < xmax and n >= 2 and n.is_integer()):
        raise ConfigError("grid requires finite xmin < xmax and an integral npoints >= 2")
    return np.linspace(xmin, xmax, int(n))


def cmd_potential(cfg: SolitonConfig, args, out) -> int:
    xs = _grid_from_args(args, cfg)
    us = potential_fn(cfg)(xs)
    if args.format == "json":
        out.write(json.dumps({"x": xs.tolist(), "U": np.asarray(us).tolist()}) + "\n")
    else:
        _csv_rows(out, ("x", "U"), zip(xs, us))
    return EXIT_OK


def cmd_eigen(cfg: SolitonConfig, args, out) -> int:
    xs = _grid_from_args(args, cfg)
    phi = eigenfunction(cfg, args.index, xs, 1)
    rows = list(zip(xs.tolist(), phi.value.tolist(), phi.deriv(1).tolist()))
    if args.format == "json":
        out.write(json.dumps(
            {"x": [r[0] for r in rows], "phi": [r[1] for r in rows], "dphi": [r[2] for r in rows]}
        ) + "\n")
    else:
        _csv_rows(out, ("x", "phi", "dphi"), rows)
    return EXIT_OK


def cmd_evolve(cfg: SolitonConfig, args, out) -> int:
    xs = _grid_from_args(args, cfg)
    tvals = [float(t) for t in args.t_values.split(",")]
    base = dict(cfg.times or {})
    for t in tvals:
        times = dict(base)
        times[3] = times.get(3, 0.0) + t
        flowed = SolitonConfig(cfg.k, cfg.c, times)
        us = potential_fn(flowed)(xs)
        out.write(f"# t={_fmt(t)}\n")
        _csv_rows(out, ("x", "U"), zip(xs, us))
    return EXIT_OK


#: doublings of the default half-width tried before numerics refuses it
_MAX_DOUBLINGS = 4


def _default_halfwidth(cfg: SolitonConfig, ufn) -> float:
    """12/k_1, doubled until |U(+-L)| is within numerics.DECAY_TOL, at
    most _MAX_DOUBLINGS times; beyond that numerics raises DomainError."""
    L = 12.0 / cfg.k[0] if cfg.n else 12.0
    for _ in range(_MAX_DOUBLINGS):
        if max(abs(float(ufn(-L))), abs(float(ufn(L)))) <= numerics.DECAY_TOL:
            break
        L *= 2.0
    return L


def cmd_scatter(cfg: SolitonConfig, args, out) -> int:
    ufn = potential_fn(cfg)
    res = numerics.scatter(ufn, args.k, _default_halfwidth(cfg, ufn))
    ref = numerics.transmission_product(cfg, args.k)
    report = {
        "k": args.k,
        "r_re": res.reflection_amp.real,
        "r_im": res.reflection_amp.imag,
        "t_re": res.transmission_amp.real,
        "t_im": res.transmission_amp.imag,
        "abs_r": abs(res.reflection_amp),
        "unitarity_defect": res.unitarity_defect,
        "t_phase_error": abs(math.remainder(
            math.atan2(res.transmission_amp.imag, res.transmission_amp.real)
            - math.atan2(ref.imag, ref.real), 2.0 * math.pi)),
    }
    if args.format == "json":
        out.write(json.dumps(report) + "\n")
    else:
        _csv_rows(out, tuple(report), [tuple(report.values())])
    return EXIT_OK


def cmd_spectrum(cfg: SolitonConfig, args, out) -> int:
    ufn = potential_fn(cfg)
    L = args.halfwidth if args.halfwidth is not None else _default_halfwidth(cfg, ufn)
    res = numerics.bound_spectrum(ufn, L, args.step)
    if args.format == "json":
        out.write(json.dumps({
            "energies": list(res.energies),
            "expected": [-kj * kj for kj in cfg.k],
            "grid_step": res.grid_step,
            "domain_halfwidth": res.domain_halfwidth,
        }) + "\n")
    else:
        _csv_rows(out, ("energy",), [(e,) for e in res.energies])
    return EXIT_OK


def cmd_transform(cfg: SolitonConfig, args, out) -> int:
    scheme = args.scheme
    if scheme == "darboux-ground":
        res = transforms.darboux_ground(cfg)
    elif scheme == "krein-adler":
        res = transforms.krein_adler_delete(cfg, _parse_indices(args.delete), unsafe=args.unsafe)
    elif scheme == "am-delete":
        res = transforms.am_delete(cfg, _parse_indices(args.delete))
    else:  # am-add: argparse's choices refuse every other scheme
        res = transforms.am_add(cfg, _parse_eparams(args.e))
    if res.is_regular:
        out.write(config_to_json(res.after) + "\n")
    else:
        out.write(json.dumps({"k": list(res.after_k), "c": list(res.after_c), "singular": True}) + "\n")
    return EXIT_OK


def _parse_indices(text):
    if not text:
        raise ConfigError("--delete requires a comma-separated index list")
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad index list {text!r}") from exc


def _parse_eparams(pairs) -> list:
    """The (j, e_j) of each --e, a repeated j kept for am_add to refuse."""
    if not pairs:
        raise ConfigError("--e j=value required for am-add")
    params = []
    for p in pairs:
        try:
            j, v = p.split("=")
            params.append((int(j), float(v)))
        except ValueError as exc:
            raise ConfigError(f"bad --e argument {p!r}; expected j=value") from exc
    return params


def _config_reports(cfg: SolitonConfig, tol_c: float, tol_p: float):
    grid = np.linspace(-6.0 / cfg.k[0], 6.0 / cfg.k[0], 41)
    dsets = [[cfg.n]]
    if cfg.n >= 2:
        dsets.append([cfg.n - 1, cfg.n])
    reports = []
    for dset in dsets:
        reports.append(identities.verify_wronskian_identity(cfg, dset, grid, tol_c))
        reports.append(identities.verify_deletion_determinant(cfg, dset, grid, tol_c))
        reports.append(identities.verify_addition_determinant(cfg, dset, [2.0] * len(dset), grid, tol_c))
    reports.append(identities.verify_bilinear_derivative(cfg, 1, cfg.n, grid, tol_p))
    reports.append(identities.verify_tau_split(cfg, 1, grid, tol_p))
    ctilde = [((-1.0) ** i) * 1.5 for i in range(cfg.n)]
    reports.append(identities.verify_seed_wronskian(cfg.k, ctilde, grid, tol_c))
    return reports


def cmd_verify(cfg: SolitonConfig, args, out) -> int:
    if cfg.n == 0:
        out.write(json.dumps({"reports": [], "pass": True}) + "\n")
        return EXIT_OK
    tol_c = args.tol if args.tol is not None else identities.CONSTANCY_TOL
    tol_p = args.tol if args.tol is not None else identities.POINTWISE_TOL
    reports = _config_reports(cfg, tol_c, tol_p)
    ok = all(r.passed for r in reports)
    out.write(json.dumps({"reports": [r.to_dict() for r in reports], "pass": ok}, indent=2) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_hirota_check(cfg: SolitonConfig, args, out) -> int:
    xs = _grid_from_args(args, cfg)
    ld, sd = tau_logdet_grid(cfg, None, xs)
    lh, sh = tau_hirota_grid(cfg, None, xs)
    worst = int(np.argmax(np.abs(ld - lh)))
    dev = float(abs(ld[worst] - lh[worst]))
    signs_ok = bool(np.all(sd == sh))
    tol = args.tol if args.tol is not None else 1e-11
    ok = signs_ok and dev <= tol
    out.write(json.dumps({
        "max_log_deviation": dev, "signs_match": signs_ok, "tolerance": tol, "pass": ok,
        "worst_x": float(xs[worst]) if cfg.n else None, "route": "cauchy-elimination",
    }) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_phase_shift(cfg: SolitonConfig, args, out) -> int:
    dev = numerics.phase_shift_check(cfg, (-args.T, args.T))
    tol = args.tol if args.tol is not None else 1e-3
    out.write(json.dumps({"max_deviation": dev, "tolerance": tol, "pass": dev <= tol}) + "\n")
    return EXIT_OK if dev <= tol else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="solitonlab",
                                description="Reflectionless potential workbench")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, grid=True, fmt=False, tol=False):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        sp.add_argument("config", help="JSON config file")
        sp.add_argument("--output", default=None, help="output file (default: stdout)")
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        if grid:
            sp.add_argument("--grid", nargs=3, type=float, metavar=("XMIN", "XMAX", "N"), default=None)
        if tol:
            sp.add_argument("--tol", type=_positive, default=None)
        return sp

    command("potential", cmd_potential, "potential on a grid", fmt=True)
    sp = command("eigen", cmd_eigen, "bound-state eigenfunction on a grid", fmt=True)
    sp.add_argument("--index", type=int, required=True, help="state index j (1..N)")
    sp = command("evolve", cmd_evolve, "potential grids over a series of times")
    sp.add_argument("--t-values", required=True, help="comma-separated t offsets")
    sp = command("scatter", cmd_scatter, "reflection/transmission at one wavenumber", grid=False, fmt=True)
    sp.add_argument("--k", type=float, required=True)
    sp = command("spectrum", cmd_spectrum, "bound-state energies", grid=False, fmt=True)
    sp.add_argument("--halfwidth", type=float, default=None)
    sp.add_argument("--step", type=float, default=0.05,
                    help="starting Magnus step, halved until the energies settle to 1e-10 "
                         "(JSON grid_step reports the accepted step)")
    sp = command("transform", cmd_transform, "apply a deformation scheme", grid=False)
    sp.add_argument("--scheme", required=True, choices=("darboux-ground", "krein-adler", "am-delete", "am-add"))
    sp.add_argument("--delete", default=None, help="comma-separated indices")
    sp.add_argument("--e", action="append", default=None, metavar="J=VALUE")
    sp.add_argument("--unsafe", action="store_true", help="skip the Krein-Adler sign condition")
    command("verify", cmd_verify, "run the identity checks on a config", grid=False, tol=True)
    command("hirota-check", cmd_hirota_check, "determinant vs exponential-sum tau", tol=True)
    sp = command("phase-shift", cmd_phase_shift, "two-soliton collision phase shift", grid=False, tol=True)
    sp.add_argument("--T", type=_positive, default=3.0)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out = sys.stdout
    close = False
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
        if args.output:  # only now: a bad config leaves no empty file behind
            out = open(args.output, "w", encoding="utf-8", newline="")
            close = True
        return args.func(cfg, args, out)
    except (RangeError, SingularJetError, ArithmeticError,
            numerics.SolverError, numerics.DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if close:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
