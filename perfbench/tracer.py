"""Outside-in span recorder for the pibrake benchmark.

Each public function of a layer is replaced, for the length of a traced
pass, by a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  A function is patched at every name a caller
resolves at call time: each ``pibrake.*`` module attribute bound to the same
object (so ``pibrake.cli.load_csv`` and ``pibrake.dataset.load_csv`` are
both covered) and, for methods, the class attribute.  A target that no
longer exists is reported as missing, and a counter that can no longer read
a call's arguments or result is reported as a counter error; neither is a
crash.

Spans stay in memory; :meth:`Tracer.dump` writes them when the run ends.
Counters are computed from call arguments and returned objects, never from
the clock, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# (module, attribute path, span name).  The span name's first component is
# the layer the call belongs to; every span's self time lands in exactly one
# layer, so the layer self times plus the unattributed time sum to the pass.
TARGETS = (
    ("pibrake.cli", "main", "cli.main"),
    ("pibrake.experiments", "run_matrix", "experiments.run_matrix"),
    ("pibrake.experiments", "audit_no_leakage", "experiments.audit_no_leakage"),
    ("pibrake.experiments", "mae", "experiments.mae"),
    ("pibrake.experiments", "emit_matrix_report", "experiments.emit_matrix_report"),
    ("pibrake.gbt", "fit", "gbt.fit"),
    ("pibrake.gbt", "fit_multi", "gbt.fit_multi"),
    ("pibrake.gbt", "Ensemble.predict", "gbt.predict"),
    ("pibrake.features", "make_pipeline", "features.make_pipeline"),
    ("pibrake.features", "Pipeline.fit", "features.fit"),
    ("pibrake.features", "Pipeline.input_matrix", "features.input_matrix"),
    ("pibrake.features", "Pipeline.target_matrix", "features.target_matrix"),
    ("pibrake.features", "Pipeline.target_scale", "features.target_scale"),
    ("pibrake.features", "Pipeline.inverse_targets", "features.inverse_targets"),
    ("pibrake.dataset", "generate", "dataset.generate"),
    ("pibrake.dataset", "kinematic_grid", "dataset.kinematic_grid"),
    ("pibrake.dataset", "surrogate_grid", "dataset.surrogate_grid"),
    ("pibrake.dataset", "load_csv", "dataset.load_csv"),
    ("pibrake.dataset", "save_csv", "dataset.save_csv"),
    ("pibrake.dataset", "split", "dataset.split"),
    ("pibrake.dataset", "merge", "dataset.merge"),
    ("pibrake.dataset", "Dataset.columns", "dataset.columns"),
    ("pibrake.simulator", "simulate_kinematic_batch", "simulator.simulate_kinematic_batch"),
    ("pibrake.simulator", "simulate_surrogate_batch", "simulator.simulate_surrogate_batch"),
    ("pibrake.simulator", "calibrate_step", "simulator.calibrate_step"),
    ("pibrake.dimensions", "build_dimension_matrix", "dimensions.build_dimension_matrix"),
    ("pibrake.dimensions", "repeated_vars_pi_basis", "dimensions.repeated_vars_pi_basis"),
    ("pibrake.dimensions", "nullspace_pi_basis", "dimensions.nullspace_pi_basis"),
    ("pibrake.dimensions", "kinematic_variables", "dimensions.kinematic_variables"),
    ("pibrake.dimensions", "dynamic_variables", "dimensions.dynamic_variables"),
)

LAYERS = ("cli", "experiments", "gbt", "features", "dataset", "simulator", "dimensions")

# per-layer time metrics: name -> span names whose self times it sums
TIME_METRICS = {
    "gbt.fit_s": ("gbt.fit",),
    "gbt.predict_s": ("gbt.predict",),
    "simulator.kinematic_batch_s": ("simulator.simulate_kinematic_batch",),
    "simulator.surrogate_batch_self_s": ("simulator.simulate_surrogate_batch",),
    "simulator.calibrate_s": ("simulator.calibrate_step",),
    "dataset.grid_build_s": ("dataset.kinematic_grid", "dataset.surrogate_grid"),
    "dataset.load_csv_s": ("dataset.load_csv",),
    "dataset.save_csv_s": ("dataset.save_csv",),
    "dataset.split_s": ("dataset.split",),
    "dataset.merge_s": ("dataset.merge",),
    "dataset.columns_s": ("dataset.columns",),
    "features.fit_s": ("features.fit",),
    "features.input_matrix_s": ("features.input_matrix",),
    "features.target_matrix_s": ("features.target_matrix",),
    "features.inverse_s": ("features.inverse_targets", "features.target_scale"),
    "experiments.run_matrix_self_s": ("experiments.run_matrix",),
    "experiments.audit_s": ("experiments.audit_no_leakage",),
    "experiments.mae_s": ("experiments.mae",),
    "experiments.emit_s": ("experiments.emit_matrix_report",),
}

COUNTERS = (
    "gbt.fits",
    "gbt.trees",
    "gbt.nodes",
    "gbt.fit_rows",
    "gbt.fit_cells",
    "gbt.predict_rows",
    "gbt.predict_tree_rows",
    "simulator.rk4_row_steps",
    "simulator.rk4_loop_iters",
    "dataset.records",
    "dataset.csv_bytes",
    "features.rows",
    "experiments.report_bytes",
    "trace.spans",
    "trace.missing_names",
    "trace.counter_errors",
)

COUNT_UNITS = {"dataset.csv_bytes": "B", "experiments.report_bytes": "B"}

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **dict.fromkeys(TIME_METRICS, "s"),
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: COUNT_UNITS.get(name, "count") for name in COUNTERS},
    "gbt.nodes_per_tree": "nodes/tree",
    "gbt.us_per_node": "us",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the pass's span list, -1 for a top-level span


@dataclass
class PassTrace:
    """Spans and counters of one traced pass."""

    start: float = 0.0
    wall_s: float = 0.0
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    rk4_inputs: list[tuple[np.ndarray, np.ndarray, float]] = field(default_factory=list)


def _resolve(module_name: str, path: str):
    obj = sys.modules.get(module_name)
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def _file_size(path) -> int:
    return os.path.getsize(path)


def rk4_step_counts(v_i: np.ndarray, a: np.ndarray, step: float) -> tuple[int, int]:
    """(row-steps, lockstep iterations) that ``simulate_kinematic_batch`` takes.

    Replays the kernel's speed recurrence in the same float arithmetic: a row
    takes full steps while ``v + a*step > 0`` and then one final partial step.
    """
    v = np.asarray(v_i, dtype=float)
    a = np.asarray(a, dtype=float)
    steps = 0
    iters = 0
    while v.size:
        full = v + a * step > 0.0
        steps += v.size
        iters += 1
        v, a = v[full], a[full]
        v += step * a
    return steps, iters


class Tracer:
    """Patches the layer functions, records spans and counts per pass."""

    def __init__(self):
        self.passes: list[PassTrace] = []
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._current: PassTrace | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        """Wrap every target at each name that resolves to it."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "pibrake" and m]
        for module_name, path, span_name in TARGETS:
            owner, original = _resolve(module_name, path)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, span_name)
            attr = path.rsplit(".", 1)[-1]
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    def _wrap(self, fn, span_name: str):
        tracer = self
        count = _COUNTING.get(span_name)

        def traced(*args, **kwargs):
            pt = tracer._current
            if pt is None:
                return fn(*args, **kwargs)
            idx = len(pt.spans)
            span = Span(span_name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1)
            pt.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                # a counter reads package internals; if they change shape, the
                # counter is reported as broken and the call still returns
                try:
                    bound = inspect.signature(fn).bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(pt, bound.arguments, result)
                except Exception:
                    if span_name not in tracer.counter_errors:
                        tracer.counter_errors.append(span_name)
            return result

        return functools.wraps(fn)(traced)

    # -- passes ---------------------------------------------------------
    def run_pass(self, body) -> tuple[float, object]:
        """Time ``body()`` with spans on; returns (wall seconds, result).

        The wrappers are in place only for the pass, so untraced passes run
        the package's own functions.
        """
        pt = PassTrace()
        self.install()
        self._current, self._stack = pt, []
        pt.start = time.perf_counter()
        try:
            result = body()
        finally:
            pt.wall_s = time.perf_counter() - pt.start
            self._current = None
            self.uninstall()
        for v_i, a, step in pt.rk4_inputs:
            steps, iters = rk4_step_counts(v_i, a, step)
            pt.counts["simulator.rk4_row_steps"] += steps
            pt.counts["simulator.rk4_loop_iters"] += iters
        pt.rk4_inputs = []
        pt.counts["trace.spans"] = len(pt.spans)
        pt.counts["trace.missing_names"] = len(self.missing)
        pt.counts["trace.counter_errors"] = len(self.counter_errors)
        self.passes.append(pt)
        return pt.wall_s, result

    def dump(self, path: Path, meta: dict) -> None:
        doc = {
            **meta,
            "missing": self.missing,
            "counter_errors": self.counter_errors,
            "passes": [
                {
                    "wall_s": pt.wall_s,
                    "counts": pt.counts,
                    "spans": [
                        [s.name, s.start - pt.start, s.end - pt.start, s.parent] for s in pt.spans
                    ],
                }
                for pt in self.passes
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")


def self_times(pt: PassTrace) -> tuple[dict[str, float], float]:
    """Self time per span name, and the pass time no top-level span covers.

    Spans come from one thread, so children of a span are disjoint intervals
    inside it; a span's self time is its duration minus its children's.
    """
    child = [0.0] * len(pt.spans)
    top = 0.0
    for s in pt.spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
        else:
            top += s.end - s.start
    out: dict[str, float] = {}
    for s, c in zip(pt.spans, child):
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - c)
    return out, pt.wall_s - top


def layer_metrics(pt: PassTrace) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in seconds, exact counts)."""
    selfs, unattributed = self_times(pt)
    m: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        m[metric] = sum(selfs.get(n, 0.0) for n in names)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in selfs.items() if n.split(".")[0] == layer)
    m.update(pt.counts)
    m["gbt.nodes_per_tree"] = pt.counts["gbt.nodes"] / pt.counts["gbt.trees"] if pt.counts["gbt.trees"] else 0.0
    m["gbt.us_per_node"] = 1e6 * m["gbt.fit_s"] / pt.counts["gbt.nodes"] if pt.counts["gbt.nodes"] else 0.0
    m["trace.unattributed_s"] = unattributed
    m["trace.wall_s"] = pt.wall_s
    return m


# -- counters: (pass, bound arguments, result) -> None ----------------------


def _count_fit(pt, a, ens):
    x = getattr(a["x"], "values", a["x"])
    pt.counts["gbt.fits"] += 1
    pt.counts["gbt.trees"] += len(ens.trees)
    pt.counts["gbt.nodes"] += sum(len(t.feature) for t in ens.trees)
    pt.counts["gbt.fit_rows"] += x.shape[0]
    pt.counts["gbt.fit_cells"] += x.shape[0] * x.shape[1]


def _count_predict(pt, a, out):
    pt.counts["gbt.predict_rows"] += len(out)
    pt.counts["gbt.predict_tree_rows"] += len(out) * len(a["self"].trees)


def _count_kinematic_batch(pt, a, out):
    pt.rk4_inputs.append((np.array(a["v_i"], dtype=float), np.array(a["a"], dtype=float), a["step"]))


def _count_records(pt, a, result):
    items = result if isinstance(result, tuple) else (result,)
    pt.counts["dataset.records"] += sum(len(d) for d in items)


def _count_load(pt, a, result):
    _count_records(pt, a, result)
    pt.counts["dataset.csv_bytes"] += _file_size(a["path"])


def _count_save(pt, a, path):
    pt.counts["dataset.records"] += len(a["d"])
    pt.counts["dataset.csv_bytes"] += _file_size(path)


def _count_input_matrix(pt, a, m):
    pt.counts["features.rows"] += m.values.shape[0]


def _count_report(pt, a, paths):
    pt.counts["experiments.report_bytes"] += sum(_file_size(p) for p in paths)


_COUNTING = {
    "gbt.fit": _count_fit,
    "gbt.predict": _count_predict,
    "simulator.simulate_kinematic_batch": _count_kinematic_batch,
    "dataset.kinematic_grid": _count_records,
    "dataset.surrogate_grid": _count_records,
    "dataset.split": _count_records,
    "dataset.merge": _count_records,
    "dataset.load_csv": _count_load,
    "dataset.save_csv": _count_save,
    "features.input_matrix": _count_input_matrix,
    "experiments.emit_matrix_report": _count_report,
}
