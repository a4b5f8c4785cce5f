"""One benchmark worker: a fresh interpreter that sets up a workload,
then runs its ops in a closed loop with one client.

Started by ``run.py`` with the monotonic time at which it was launched,
so that its set-up time covers interpreter start. It prints one JSON
object as the last line of its standard output.

identity-sweep and tau-grid import solitonlab once and call it in this
process. cli-cold starts one ``python -m solitonlab.cli`` interpreter per
op; its set-up is only drawing the inputs and writing their files.

Timed runs (``--trace 0``) repeat passes until ``--seconds`` have passed,
stopping at a group boundary. Traced runs (``--trace 1``) run pass 0
untraced (warm-up), untraced, traced, then untraced again: the fixed
amount of traced work makes every count repeat exactly for a seed.
"""

# Only the standard library is imported at module level: the in-process
# workloads time ``import solitonlab`` before numpy is loaded, as a user's
# first import would be.
from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: a single CLI op that runs longer than this counts as failed
CLI_OP_TIMEOUT_S = 60.0


def _timed(run_one, op, *extra):
    """(latency, ok, digits, kind) of one op; an op that raises is a
    failed op, never retried."""
    t = time.perf_counter()
    try:
        ok, d = run_one(op, *extra)
    except Exception:  # any exception inside an op counts as its failure
        ok, d = False, math.nan
    return time.perf_counter() - t, bool(ok), d, op.kind


def _run_ops(next_pass, run_one, seconds, deadline):
    """Closed loop over passes until ``seconds`` have passed, stopping at
    a group boundary. Returns per-op records and the loop's wall time."""
    records = []
    t_begin = time.perf_counter()
    pass_index = 0
    while True:
        for group in next_pass(pass_index):
            t_group = time.perf_counter()
            records.extend(_timed(run_one, op) + (pass_index,) for op in group)
            now = time.perf_counter()
            if now - t_begin >= seconds or time.monotonic() + (now - t_group) > deadline:
                return records, now - t_begin
        pass_index += 1


def _run_pass(groups, run_one, tracer=None):
    """Every op of one pass once; with a tracer each op is a root span."""
    records = []
    for op_id, op in enumerate(op for group in groups for op in group):
        if tracer is None:
            records.append(_timed(run_one, op) + (0,))
        else:
            with tracer.op(op_id):
                records.append(_timed(run_one, op) + (0,))
    return records


def _summary(records, wall):
    pass0 = [r[2] for r in records if r[4] == 0 and r[2] == r[2]]
    return {
        "latencies": [r[0] for r in records],
        "ok": [r[1] for r in records],
        "wall_s": wall,
        "min_digits": min(pass0) if pass0 else math.nan,
    }


def _traced_summary(warm, before, traced, after, layer_metrics):
    """Result of a traced run: pass 0 ran untraced to warm up, untraced,
    traced, then untraced again; the overhead compares the traced time with
    the mean of the two measured untraced times. Every op run counts
    towards attempted and failed."""
    untraced_s = (sum(r[0] for r in before) + sum(r[0] for r in after)) / 2.0
    records = warm + before + traced + after
    out = _summary(records, sum(r[0] for r in records))
    out["layers"] = layer_metrics(sum(r[0] for r in traced) / untraced_s - 1.0)
    return out


# ---------------------------------------------------------------------------
# identity-sweep and tau-grid


def inprocess(args):
    t = time.perf_counter()
    import solitonlab as sl

    import_s = time.perf_counter() - t
    import tracer as tr
    import workloads

    first = workloads.make_pass(args.workload, args.seed, 0)
    workloads.run_inprocess(sl, first[0][0])  # untimed warm-up op
    result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
    if args.setup_only:
        return result

    run_one = functools.partial(workloads.run_inprocess, sl)

    def next_pass(p):
        return first if p == 0 else workloads.make_pass(args.workload, args.seed, p)

    if not args.trace:
        result.update(_summary(*_run_ops(next_pass, run_one, args.seconds, args.deadline)))
        return result

    warm = _run_pass(first, run_one)
    before = _run_pass(first, run_one)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = _run_pass(first, run_one, tracer)
    finally:
        tracer.uninstall()
    after = _run_pass(first, run_one)
    tracer.save(Path(args.out_dir) / "spans")
    result.update(_traced_summary(
        warm, before, traced, after,
        lambda overhead: tr.layer_metrics(tracer.spans(), tracer.counters, import_s, {}, overhead),
    ))
    return result


# ---------------------------------------------------------------------------
# cli-cold


def cli_cold(args):
    import tracer as tr
    import workloads

    out_dir = Path(args.out_dir)

    def next_pass(p):
        groups = workloads.make_pass("cli-cold", args.seed, p)
        for op in (op for group in groups for op in group):
            (out_dir / f"{op.kind}.json").write_text(workloads.config_json(op) + "\n", encoding="utf-8")
        return groups

    first = next_pass(0)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        return result

    def run_one(op, traced_stem=None):
        if traced_stem is None:
            cmd = [sys.executable, "-m", "solitonlab.cli"]
        else:
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(traced_stem), "--"]
        cmd += workloads.cli_argv(op, str(out_dir / f"{op.kind}.json"))
        timeout = max(1.0, min(CLI_OP_TIMEOUT_S, args.deadline - time.monotonic()))
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
        return workloads.check_cli_output(op, proc.returncode, proc.stdout)

    if not args.trace:
        records, wall = _run_ops(lambda p: first if p == 0 else next_pass(p), run_one,
                                 args.seconds, args.deadline)
        result.update(_summary(records, wall))
        return result

    warm = _run_pass(first, run_one)
    before = _run_pass(first, run_one)
    ops = [op for group in first for op in group]
    stems = [out_dir / f"spans-{i}" for i in range(len(ops))]
    for stem in stems:
        for suffix in (".npz", ".json"):
            Path(f"{stem}{suffix}").unlink(missing_ok=True)
    traced = []
    for op, stem in zip(ops, stems):
        rec = _timed(run_one, op, stem)
        wrote = Path(f"{stem}.json").is_file()
        traced.append((rec[0], rec[1] and wrote) + rec[2:] + (0,))
    after = _run_pass(first, run_one)
    loaded = [tr.load(stem) for stem in stems if Path(f"{stem}.json").is_file()]
    counters = {}
    for _, c in loaded:
        for key, v in c.items():
            counters[key] = counters.get(key, 0) + v
    imports = [c["cli.import_s"] for _, c in loaded] or [0.0]
    walls = {kind: statistics.median(r[0] for r in before + after if r[3] == kind)
             for kind in {r[3] for r in before}}
    spans = tr.merge([s for s, _ in loaded])
    result.update(_traced_summary(
        warm, before, traced, after,
        lambda overhead: tr.layer_metrics(spans, counters, statistics.median(imports), walls, overhead),
    ))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="monotonic launch time")
    p.add_argument("--deadline", type=float, required=True, help="monotonic time to stop by")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    run = cli_cold if args.workload == "cli-cold" else inprocess
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
