"""Self-tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(workload):
    first = workloads.make_pass(workload, 7, 0)
    assert first == workloads.make_pass(workload, 7, 0)
    assert first != workloads.make_pass(workload, 8, 0)
    assert first != workloads.make_pass(workload, 7, 1)


def test_identity_pass_covers_every_size_pair_once():
    groups = workloads.make_pass("identity-sweep", 3, 0)
    pairs = sorted((len(g[0].args[0]), len(g[0].args[3])) for g in groups)
    assert pairs == [(n, m) for n in range(1, 7) for m in range(1, min(n, 3) + 1)]
    assert all([op.kind for op in g] == [op.kind for op in groups[0]] for g in groups)


def test_benchmark_json_matches_the_printed_metrics():
    spec = _benchmark_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tr.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(trace):
    proc = _run_benchmark(ROOT, "--workload", "tau-grid", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()
    section = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # tau-grid never reaches the jet layer or the identity checks
        assert result["metrics"]["jets.ops"]["value"] == 0
        assert result["metrics"]["identities.verify.self_s"]["value"] == 0


def test_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tau-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def traced_package():
    import solitonlab

    original = solitonlab.tau_jet_sum
    tracer = tr.Tracer()
    tracer.install()
    try:
        yield solitonlab, tracer
    finally:
        tracer.uninstall()
    assert solitonlab.tau_jet_sum is original
    assert solitonlab.identities.tau_jet_sum is original


def test_traced_self_times_fit_in_op_wall_time(traced_package):
    sl, tracer = traced_package
    identity = [op for op in workloads.make_pass("identity-sweep", 2, 0)[1]]
    grid = workloads.make_pass("tau-grid", 2, 0)[0][:4]
    walls = []
    for op_id, op in enumerate(identity + grid):
        t = time.perf_counter()
        with tracer.op(op_id):
            ok, _ = workloads.run_inprocess(sl, op)
        walls.append(time.perf_counter() - t)
        assert ok
    spans = tracer.spans()
    selfs = tr.self_times(spans)
    root = np.array([spans["names"][i] == tr.ROOT for i in spans["name_id"]])
    assert np.all(selfs >= -1e-9)
    for op_id, wall in enumerate(walls):
        inside = (spans["op"] == op_id) & ~root
        assert inside.any()
        assert float(np.sum(selfs[inside])) <= wall
    names = {spans["names"][i] for i in spans["name_id"]}
    assert {"identities.verify_wronskian_identity", "solitons.tau_jet_sum", "dd.exp",
            "jets.Jet.__mul__", "transforms.wronskian", "solitons.tau_logdet_grid",
            "solitons.potential_fn.eval"} <= names


def test_kernel_calls_inside_a_kernel_record_no_span(traced_package):
    sl, tracer = traced_package
    with tracer.op(0):
        sl.dd.div(np.ones(3), np.zeros(3), np.full(3, 3.0), np.zeros(3))
    spans = tracer.spans()
    assert [spans["names"][i] for i in spans["name_id"]] == [tr.ROOT, "dd.div"]
    assert tracer.counters["dd.elements"] == 3


def test_duplicate_tau_evaluations_are_counted_per_op(traced_package):
    sl, tracer = traced_package
    cfg = sl.SolitonConfig((1.0, 2.0), (3.0, 4.0))
    with tracer.op(0):
        sl.tau_jet_sum(cfg, None, 0.5, 2)
        sl.tau_jet_sum(cfg, None, 0.5, 1)  # covered by the order-2 call
        sl.tau_jet_sum(cfg, None, 0.5, 3)  # higher order: new work
    with tracer.op(1):
        sl.tau_jet_sum(cfg, None, 0.5, 2)  # another op starts afresh
    m = tr.layer_metrics(tracer.spans(), tracer.counters, 0.0, {}, 0.0)
    assert m["solitons.tau_jet_sum.calls"] == 4
    assert m["solitons.tau_jet_sum.dup_frac"] == 0.25


def test_self_time_and_merge_arithmetic():
    spans = {
        "names": [tr.ROOT, "solitons.tau_det", "jets.jet_det"],
        "name_id": np.array([0, 1, 2, 2]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 8.0, 4.0, 6.0]),
        "parent": np.array([-1, 0, 1, 1]),
        "op": np.array([0, 0, 0, 0]),
    }
    assert list(tr.self_times(spans)) == [3.0, 4.0, 2.0, 1.0]
    merged = tr.merge([spans, spans])
    assert list(merged["parent"]) == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert list(tr.self_times(merged)) == [3.0, 4.0, 2.0, 1.0] * 2
