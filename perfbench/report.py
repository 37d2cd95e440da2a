"""Run every workload in its own fresh process and print all metrics.

Usage (from the root of a checkout)::

    python3 perfbench/report.py            # end-to-end metrics, seed 0
    python3 perfbench/report.py --trace    # plus the per-layer breakdown

Each workload of ``BENCHMARK.json`` runs as ``perfbench/run.py`` in a new
interpreter, for the file's ``run_seconds``, so its set-up time and peak
memory are its own.  Besides the end-to-end metrics of the
result line, the report prints the quality figures each run states in its
``info`` line (MAE, RK4 error, failure ratio with its base).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
CONFIG = HERE.parent / "BENCHMARK.json"

# quality figures a workload states in its info line, with their units
INFO_METRICS = {"mae_xy_m": "m", "mae_theta_rad": "rad", "rk4_err_max": "m, rad"}


def run_one(workload: str, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    failures = [l for l in lines if l.startswith("FAILED: ")]
    return {"result": json.loads(lines[-1]), "info": info, "failures": failures}


def show(workload: str, run: dict, traced: dict | None) -> None:
    res, info = run["result"], run["info"]
    print(f"== {workload}  seed {info['seed']}  ({info.get('passes', 0)} passes of {info.get('work_per_pass')} "
          f"{info.get('work_unit')}; nproc {info['nproc']}, Python {info['python']}, numpy {info['numpy']})")
    notes = {
        "wall_s": f"median of {len(info.get('pass_walls_s', []))} passes",
        "setup_s": f"median of {len(info.get('setup_reps_s', []))} set-ups",
    }
    for name, m in res["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']:<10} {notes.get(name, '')}")
    for name, unit in INFO_METRICS.items():
        if name in info:
            print(f"  {name:<34} {info[name]:>14.6g} {unit}")
    print(f"  {'fail_ratio':<34} {res['failed'] / res['attempted']:>14.6g} "
          f"{'ratio':<10} {res['failed']} failed / {res['attempted']} operations")
    for line in run["failures"]:
        print(f"  {line}")
    if traced is None:
        return
    for line in traced["failures"]:
        print(f"  traced run {line}")
    if not traced["result"]["metrics"]:
        return
    m = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    units = {k: v["unit"] for k, v in traced["result"]["metrics"].items()}
    print(f"  -- traced run ({traced['info']['passes']} passes; layer breakdown of the median traced pass)")
    for name in sorted(m):
        if m[name] or name.startswith("trace."):
            print(f"  {name:<34} {m[name]:>14.6g} {units[name]}")
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.unattributed_s"]
    print(f"  layer self times + unattributed = {total:.6f} s; traced wall_s = {m['trace.wall_s']:.6f} s")
    for key, label in (("missing_names", "missing trace targets"), ("counter_errors", "counters that failed")):
        if traced["info"].get(key):
            print(f"  {label}: {traced['info'][key]}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = p.parse_args(argv)
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    for wl in (w["name"] for w in config["workloads"]):
        run = run_one(wl, config["run_seconds"], 0)
        traced = run_one(wl, config["run_seconds"], 1) if args.trace else None
        show(wl, run, traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())
