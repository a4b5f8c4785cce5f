"""solitonlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Each run starts ``SETUP_RUNS`` fresh worker interpreters: all
but the last only set up, the last also runs the ops. ``setup_s`` is the
median set-up time over them. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass instead.
Lines before it are a readable summary. Spans and the full result are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYER_UNITS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_RUNS = 3

#: BLAS/OpenMP threads per worker (no more than nproc on any host)
THREADS = 1

#: the whole run ends within this many seconds of its start
RUN_BUDGET_S = 170.0

#: seed reserved for checking later claims; never used while tuning
HELD_OUT_SEED = 5474

#: op_p90_s has at least ten samples beyond it from this many ops on
P90_MIN_SAMPLES = 100

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "min_digits": "digits",
}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(THREADS)
    return env


def run_worker(args, root, env, deadline, setup_only):
    """Start one worker and return its JSON result. The worker runs in its
    own process group, which is killed if it overruns the deadline."""
    out_dir = root / ".perfbench_out" / args.workload
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--deadline", repr(deadline - 5.0), "--out-dir", str(out_dir),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker overran the run budget") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile: the smallest latency with at least q% of
    the samples at or below it. It is always an observed latency, so a
    run whose op mix has a gap at the q% point (cli-cold's p90 lies
    between ``verify`` and ``eigen``) reads a value from one side of the
    gap instead of a blend that shifts with the number of passes."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100.0 * len(xs)) - 1)]


def end_to_end(setups, main) -> dict:
    lat = main["latencies"]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(lat) / main["wall_s"],
        "op_p50_s": percentile(lat, 50),
        "op_p90_s": percentile(lat, 90),
        "min_digits": main["min_digits"],
    }


def environment(args) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    if not (root / "src" / "solitonlab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/solitonlab; run from a source checkout", file=sys.stderr)
        return 2
    env = worker_env(root)
    try:
        setups = [run_worker(args, root, env, deadline, True) for _ in range(SETUP_RUNS - 1)]
        main_run = run_worker(args, root, env, deadline, False)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(main_run)

    attempted = len(main_run["latencies"])
    failed = attempted - sum(main_run["ok"])
    e2e = end_to_end(setups, main_run)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args), "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "latencies_s": main_run["latencies"]}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"  env {json.dumps(record['env'])}")
    if args.trace:
        layers = dict(main_run["layers"])
        if args.workload != "cli-cold":
            layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        record["layers"] = layers
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        print(f"  pass 0 warm-up, untraced, traced, untraced: {attempted} ops, failed {failed}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
        beyond = attempted - math.ceil(0.9 * attempted)
        note = "" if attempted >= P90_MIN_SAMPLES else f"; fewer than {P90_MIN_SAMPLES} ops"
        print(f"  ops {attempted}, failed {failed}, failed_frac {failed / attempted:.4g} ratio, "
              f"timed {main_run['wall_s']:.3f} s")
        print(f"  op_p90_s from {attempted} samples, {beyond} beyond it{note}")
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}.json").write_text(json.dumps(record, indent=1) + "\n")
    ok = attempted > 0 and failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # keep the line valid JSON; such a run is not correct
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics},
                     allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
