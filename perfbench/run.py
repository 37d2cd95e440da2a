"""Benchmark entry point: one workload, one fresh process, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload kinematic-matrix --seed 0 --seconds 20 --trace 0

The process imports the package from ``src/``, runs the workload's set-up
several times (fresh temporary output directory each time, so no dataset
cache is shared), then repeats timed passes for about ``--seconds`` seconds
of pass time, checking every pass's outputs outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the median
traced pass, plus the tracing overhead.  The last stdout line is the JSON
result; the lines before it are human-readable details.  A failed check, or
a set-up or pass that raises, is a counted failure: the run still prints its
result (``correct`` false, metrics of the passes that completed) and exits
0.  Exit code 2, with no result, means bad arguments or no package source.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pibrake.cli; "
    "print(time.perf_counter() - t)"
)


def pin_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def import_seconds() -> float:
    """Package import time, measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(out.stdout.strip())


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_seed, default=0, help="workload seed (>= 0), default 0")
    p.add_argument("--seconds", type=float, required=True, help="pass time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pibrake" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'pibrake'} not found", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=SCRATCH))
    try:
        return run(wl, args, tmp, nproc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(wl, args, tmp: Path, nproc: int) -> int:
    import numpy as np

    import tracer as tr

    failures = []

    def emit(attempted: int, failed: int, metrics: dict, info: dict) -> int:
        for label in failures[:20]:
            print(f"FAILED: {label}")
        print("info " + json.dumps(info))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    # set-up: import (fresh interpreter) plus the workload's own preparation
    setups = []
    try:
        for rep in range(SETUP_REPS):
            out = tmp / f"out{rep}"
            imp = import_seconds()
            t0 = time.perf_counter()
            st = wl.setup(out, args.seed)
            setups.append(imp + time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                shutil.rmtree(out, ignore_errors=True)
    except Exception as exc:  # a broken set-up is a counted failure, not a crash
        traceback.print_exc()
        failures.append(f"set-up raised {exc!r}")
        return emit(1, 1, {}, info)

    tracer = tr.Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    work = []
    attempted = failed = 0
    counts_seen = []
    measured = 0.0
    while True:
        traced = bool(tracer) and len(walls[True]) < len(walls[False])
        # every pass starts from the same heap: no garbage or results of the last one
        st.result = None
        gc.collect()
        try:
            if traced:
                wall, units = tracer.run_pass(lambda: wl.run_pass(st))
                counts_seen.append(dict(tracer.passes[-1].counts))
            else:
                t0 = time.perf_counter()
                units = wl.run_pass(st)
                wall = time.perf_counter() - t0
            checks = wl.check(st)
        except Exception as exc:  # a broken pass is a counted failure, not a crash
            traceback.print_exc()
            attempted += 1
            failed += 1
            failures.append(f"{'traced ' if traced else ''}pass raised {exc!r}")
            break
        walls[traced].append(wall)
        work.append(units)
        measured += wall
        for ok, label in checks:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(label)
        done_both = walls[False] and (walls[True] or not tracer)
        if done_both and measured + statistics.median(walls[False] + walls[True]) > args.seconds:
            break
    if len(counts_seen) > 1:
        attempted += 1
        if any(c != counts_seen[0] for c in counts_seen[1:]):
            failed += 1
            failures.append("work counters differ between traced passes")

    # metrics come only from passes that completed; a run whose pass raised
    # still reports what it has, with the failure counted
    info.update(
        passes=len(walls[False]) + len(walls[True]),
        pass_walls_s=[round(w, 4) for w in walls[False]],
        work_per_pass=work[0] if work else None,
        work_unit=wl.work_unit,
        setup_reps_s=[round(s, 4) for s in setups],
        fail_ratio=failed / attempted,
        **st.info,
    )
    metrics = {}
    if tracer:
        info["traced_walls_s"] = [round(w, 4) for w in walls[True]]
        info["missing_names"] = tracer.missing
        info["counter_errors"] = tracer.counter_errors
        if walls[True]:
            order = sorted(range(len(walls[True])), key=walls[True].__getitem__)
            median_pass = tracer.passes[order[(len(order) - 1) // 2]]
            layer = tr.layer_metrics(median_pass)
            layer["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
            metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tr.PER_LAYER_UNITS.items()}
        if tracer.passes:
            spans_path = SCRATCH / "spans" / f"{wl.name}-seed{args.seed}.json"
            tracer.dump(spans_path, {"workload": wl.name, "seed": args.seed})
            info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        if walls[False]:
            wall_s = statistics.median(walls[False])
            metrics["wall_s"] = {"value": wall_s, "unit": "s"}
            metrics["work_per_s"] = {"value": work[0] / wall_s, "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        }
    return emit(attempted, failed, metrics, info)


if __name__ == "__main__":
    sys.exit(main())
