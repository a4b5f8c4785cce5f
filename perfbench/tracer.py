"""Span tracer that wraps solitonlab's public functions from outside.

``Tracer.install`` replaces every public function of the seven modules,
and the ``Jet`` arithmetic methods, with a wrapper that records a span:
(name, start, end, parent span, op id). The replacement is made in every
module namespace that holds the function, so names re-imported elsewhere
(``identities.tau_jet_sum``, ``cli.potential_fn``) are traced where their
callers reach them. Nothing in the package's source changes.

In the kernel layers (``dd`` and ``jets``) a call made from inside the same
layer is part of the enclosing kernel call and records no span of its own:
``dd.div`` calling ``dd.mul`` is one ``dd.div`` call. Spans live in memory
as flat arrays and are written with ``save`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("dd", "jets", "solitons", "transforms", "identities", "numerics", "cli")
KERNELS = ("dd", "jets")
JET_METHODS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "derivative", "truncate", "deriv", "constant",
)
ROOT = "bench.op"

CLI_SUBCOMMANDS = (
    "potential", "eigen", "evolve", "scatter", "spectrum", "transform",
    "verify", "hirota-check", "phase-shift",
)

#: per-layer metrics and their units, in the order they are printed
LAYER_UNITS = {
    "dd.calls": "count",
    "dd.elements": "count",
    "dd.self_s": "s",
    "dd.ns_per_element": "ns",
    "dd.bytes_computed": "bytes",
    "dd.slogdet.matrices": "count",
    "dd.slogdet.self_s": "s",
    "dd.exp.elements": "count",
    "dd.exp.self_s": "s",
    "jets.ops": "count",
    "jets.self_s": "s",
    "jets.jet_det.calls": "count",
    "jets.jet_det.self_s": "s",
    "solitons.tau_jet_sum.calls": "count",
    "solitons.tau_jet_sum.self_s": "s",
    "solitons.tau_jet_sum.dup_frac": "ratio",
    "solitons.tau_det.calls": "count",
    "solitons.tau_det.self_s": "s",
    "solitons.tau_logdet_grid.points": "count",
    "solitons.tau_logdet_grid.self_s": "s",
    "solitons.tau_hirota_grid.points": "count",
    "solitons.tau_hirota_grid.self_s": "s",
    "solitons.potential_fn.calls": "count",
    "solitons.potential_fn.points": "count",
    "solitons.potential_fn.self_s": "s",
    "solitons.eigenfunction.calls": "count",
    "solitons.eigenfunction.self_s": "s",
    "transforms.wronskian.calls": "count",
    "transforms.wronskian.self_s": "s",
    "identities.verify.self_s": "s",
    "identities.inner_tail_gauged.calls": "count",
    "identities.inner_tail_gauged.dup_frac": "ratio",
    "identities.points_used_frac": "ratio",
    "identities.reports_failed": "count",
    "numerics.bound_spectrum.self_s": "s",
    "numerics.scatter.self_s": "s",
    "numerics.scatter.potential_calls": "count",
    "numerics.phase_shift_check.self_s": "s",
    "cli.import_s": "s",
    "cli.command.self_s": "s",
    **{f"cli.{sub}.wall_s": "s" for sub in CLI_SUBCOMMANDS},
    "trace.overhead_frac": "ratio",
}


def _nbytes(v) -> int:
    return getattr(v, "nbytes", 8)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries. Create one per traced run; ``install`` and ``uninstall``
    patch and restore the package."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op_ids = array("q")
        self.counters: dict = {}
        self.op_id = -1
        self._stack = [-1]
        self._layers = [None]
        self._seen: dict = {}
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, v=1):
        self.counters[key] = self.counters.get(key, 0) + v

    def _wrap(self, fn, name: str, layer: str, after=None):
        nid = self._nid(name)
        kernel = layer in KERNELS
        stack, layers = self._stack, self._layers
        name_id, start, end, parent, op_ids = self.name_id, self.start, self.end, self.parent, self.op_ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kernel and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_ids.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                layers.pop()
            return out if after is None else after(args, kwargs, out)

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; duplicate-work bookkeeping
        starts empty for each op."""
        self.op_id = op_id
        self._seen = {}
        idx = len(self.start)
        self.name_id.append(self._nid(ROOT))
        self.parent.append(-1)
        self.op_ids.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self._layers.append(None)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._layers.pop()

    # -- counters taken at the boundaries ----------------------------------

    def _dd_after(self, name):
        def after(args, kwargs, out):
            first = out[0] if isinstance(out, tuple) else out
            if name == "slogdet":
                elements = int(np.size(args[0]))
                self.count("dd.slogdet.matrices", int(np.size(first)))
            else:
                elements = int(np.size(first))
            if name == "exp":
                self.count("dd.exp.elements", elements)
            outs = out if isinstance(out, tuple) else (out,)
            self.count("dd.elements", elements)
            self.count("dd.bytes_computed", sum(map(_nbytes, args)) + sum(map(_nbytes, outs)))
            return out
        return after

    def _dup(self, key_name, key, order):
        """Count a call whose key was already evaluated in this op at an
        equal or higher order."""
        seen = self._seen.setdefault(key_name, {})
        prev = seen.get(key)
        if prev is not None and prev >= order:
            self.count(key_name + ".dups")
        else:
            seen[key] = order

    def _hook(self, layer: str, name: str, fn):
        """The counter update made after a call returns, or None."""
        sig = inspect.signature(fn)

        def arguments(args, kwargs):
            return sig.bind(*args, **kwargs).arguments

        def config_key(cfg):
            return cfg.k, cfg.c, tuple(sorted(cfg.times.items())) if cfg.times else None

        if layer == "dd":
            return self._dd_after(name)
        if (layer, name) == ("solitons", "tau_jet_sum"):
            def after(args, kwargs, out):
                a = arguments(args, kwargs)
                rule = a["rule"]
                factors = rule.factors if rule is not None else (1.0,) * a["cfg"].n
                self._dup("solitons.tau_jet_sum", (*config_key(a["cfg"]), factors, float(a["x"])), a["order"])
                return out
            return after
        if (layer, name) == ("identities", "inner_tail_gauged"):
            def after(args, kwargs, out):
                a = arguments(args, kwargs)
                key = (*config_key(a["cfg"]), a["j"], a["l"], float(a["x"]))
                self._dup("identities.inner_tail_gauged", key, a["order"])
                return out
            return after
        if layer == "solitons" and name in ("tau_logdet_grid", "tau_hirota_grid"):
            def after(args, kwargs, out):
                self.count(f"solitons.{name}.points", int(np.size(arguments(args, kwargs)["xs"])))
                return out
            return after
        if (layer, name) == ("solitons", "potential_fn"):
            def after(args, kwargs, u):
                return self._wrap(u, "solitons.potential_fn.eval", "solitons", count_points)

            def count_points(eargs, ekwargs, out):
                self.count("solitons.potential_fn.points", int(np.size(eargs[0] if eargs else ekwargs["x"])))
                return out
            return after
        if layer == "identities" and name.startswith("verify_"):
            def after(args, kwargs, report):
                self.count("identities.points_attempted", len(report.grid))
                self.count("identities.points_used", len(report.grid) - int(report.excluded_points))
                self.count("identities.reports_failed", 0 if report.passed else 1)
                return report
            return after
        return None

    # -- patching ----------------------------------------------------------

    def install(self, package: str = "solitonlab"):
        """Wrap the package's public functions wherever they are bound."""
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}", layer, self._hook(layer, name, obj))
        for ns in (sys.modules[package], *mods.values()):
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(ns, name, wrappers[obj])
                    self._undo.append((ns, name, obj))
        jet = mods["jets"].Jet
        for name in JET_METHODS:
            raw = jet.__dict__[name]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, f"jets.Jet.{name}", "jets"))
            else:
                patched = self._wrap(raw, f"jets.Jet.{name}", "jets")
            setattr(jet, name, patched)
            self._undo.append((jet, name, raw))

    def uninstall(self):
        for ns, name, obj in reversed(self._undo):
            setattr(ns, name, obj)
        self._undo = []

    # -- output --------------------------------------------------------------

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int64).copy(),
        }

    def save(self, stem):
        """Write the spans to ``stem.npz`` and the counters to ``stem.json``."""
        s = self.spans()
        np.savez(f"{stem}.npz", names=np.array(s["names"], dtype=str),
                 **{k: v for k, v in s.items() if k != "names"})
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(self.counters, fh)


def load(stem) -> tuple:
    """(spans, counters) written by ``Tracer.save``."""
    with np.load(f"{stem}.npz") as z:
        spans = {k: z[k] for k in ("name_id", "start", "end", "parent", "op")}
        spans["names"] = [str(v) for v in z["names"]]
    with open(f"{stem}.json", encoding="utf-8") as fh:
        return spans, json.load(fh)


def merge(span_sets) -> dict:
    """Concatenate span sets recorded by separate processes."""
    ids = {}
    parts = {k: [] for k in ("name_id", "start", "end", "parent", "op")}
    offset = 0
    for s in span_sets:
        remap = np.array([ids.setdefault(n, len(ids)) for n in s["names"]], dtype=np.int32)
        parts["name_id"].append(remap[s["name_id"]] if len(s["name_id"]) else s["name_id"])
        parts["parent"].append(np.where(s["parent"] >= 0, s["parent"] + offset, -1))
        for k in ("start", "end", "op"):
            parts[k].append(s[k])
        offset += len(s["start"])
    names = sorted(ids, key=ids.get)
    out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in parts.items()}
    out["names"] = names
    return out


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def _within(spans, target: str) -> np.ndarray:
    """Mask of spans that have an ancestor named ``target``."""
    names = np.array(spans["names"] + [""], dtype=object)
    parent = spans["parent"]
    inside = np.zeros(len(parent), dtype=bool)
    cur = parent.copy()
    while np.any(cur >= 0):
        live = cur >= 0
        inside[live] |= names[spans["name_id"][cur[live]]] == target
        nxt = np.full_like(cur, -1)
        nxt[live] = parent[cur[live]]
        cur = nxt
    return inside


def layer_metrics(spans, counters, import_s: float, wall_s: dict, overhead: float) -> dict:
    """Every per-layer metric as ``{name: value}``.

    ``import_s`` is the median import time of the package, ``wall_s`` the
    untraced median cold wall time per CLI subcommand (empty outside
    cli-cold) and ``overhead`` the traced time over the untraced time of
    the same ops, minus one.
    """
    names = np.array(spans["names"], dtype=object)
    span_names = names[spans["name_id"]] if len(spans["name_id"]) else np.zeros(0, dtype=object)
    selfs = self_times(spans)
    layer = np.array([n.split(".")[0] for n in span_names], dtype=object)

    def self_of(mask):
        return float(np.sum(selfs[mask]))

    def by_name(name):
        return span_names == name

    def calls(name):
        return int(np.sum(by_name(name)))

    def frac(num, den):
        return num / den if den else 0.0

    c = counters.get
    m = {}
    dd_mask = layer == "dd"
    m["dd.calls"] = int(np.sum(dd_mask))
    m["dd.elements"] = int(c("dd.elements", 0))
    m["dd.self_s"] = self_of(dd_mask)
    m["dd.ns_per_element"] = frac(m["dd.self_s"] * 1e9, m["dd.elements"])
    m["dd.bytes_computed"] = int(c("dd.bytes_computed", 0))
    m["dd.slogdet.matrices"] = int(c("dd.slogdet.matrices", 0))
    m["dd.slogdet.self_s"] = self_of(by_name("dd.slogdet"))
    m["dd.exp.elements"] = int(c("dd.exp.elements", 0))
    m["dd.exp.self_s"] = self_of(by_name("dd.exp"))
    jets_mask = layer == "jets"
    m["jets.ops"] = int(np.sum(jets_mask))
    m["jets.self_s"] = self_of(jets_mask)
    m["jets.jet_det.calls"] = calls("jets.jet_det")
    m["jets.jet_det.self_s"] = self_of(by_name("jets.jet_det"))
    tjs = calls("solitons.tau_jet_sum")
    m["solitons.tau_jet_sum.calls"] = tjs
    m["solitons.tau_jet_sum.self_s"] = self_of(by_name("solitons.tau_jet_sum"))
    m["solitons.tau_jet_sum.dup_frac"] = frac(c("solitons.tau_jet_sum.dups", 0), tjs)
    m["solitons.tau_det.calls"] = calls("solitons.tau_det")
    m["solitons.tau_det.self_s"] = self_of(by_name("solitons.tau_det"))
    for route in ("tau_logdet_grid", "tau_hirota_grid"):
        m[f"solitons.{route}.points"] = int(c(f"solitons.{route}.points", 0))
        m[f"solitons.{route}.self_s"] = self_of(by_name(f"solitons.{route}"))
    evals = by_name("solitons.potential_fn.eval")
    m["solitons.potential_fn.calls"] = int(np.sum(evals))
    m["solitons.potential_fn.points"] = int(c("solitons.potential_fn.points", 0))
    m["solitons.potential_fn.self_s"] = self_of(evals | by_name("solitons.potential_fn"))
    m["solitons.eigenfunction.calls"] = calls("solitons.eigenfunction")
    m["solitons.eigenfunction.self_s"] = self_of(by_name("solitons.eigenfunction"))
    m["transforms.wronskian.calls"] = calls("transforms.wronskian")
    m["transforms.wronskian.self_s"] = self_of(by_name("transforms.wronskian"))
    verify = np.array([n.startswith("identities.verify_") for n in span_names], dtype=bool)
    m["identities.verify.self_s"] = self_of(verify)
    itg = calls("identities.inner_tail_gauged")
    m["identities.inner_tail_gauged.calls"] = itg
    m["identities.inner_tail_gauged.dup_frac"] = frac(c("identities.inner_tail_gauged.dups", 0), itg)
    m["identities.points_used_frac"] = frac(c("identities.points_used", 0), c("identities.points_attempted", 0))
    m["identities.reports_failed"] = int(c("identities.reports_failed", 0))
    m["numerics.bound_spectrum.self_s"] = self_of(by_name("numerics.bound_spectrum"))
    m["numerics.scatter.self_s"] = self_of(by_name("numerics.scatter"))
    m["numerics.scatter.potential_calls"] = int(np.sum(evals & _within(spans, "numerics.scatter")))
    m["numerics.phase_shift_check.self_s"] = self_of(by_name("numerics.phase_shift_check"))
    m["cli.import_s"] = float(import_s)
    m["cli.command.self_s"] = self_of(layer == "cli")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.wall_s"] = float(wall_s.get(sub, 0.0))
    m["trace.overhead_frac"] = float(overhead)
    if list(m) != list(LAYER_UNITS):
        raise RuntimeError("layer metrics out of step with LAYER_UNITS")
    if not all(math.isfinite(v) for v in m.values()):
        raise ValueError("non-finite layer metric")
    return m
