"""Record the seed-0 reference outputs that the benchmark's checks compare to.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/make_reference.py              # write reference.json
    python3 perfbench/make_reference.py --drift 3    # measure the MAE tolerance

The first form writes ``perfbench/reference.json``: the 12 MAE cells of both
matrix studies and the feature-matrix fingerprints of the featurize workload.
The second writes nothing.  It runs each matrix study N times with every
training target of every ``gbt.fit`` moved by at most one ulp at random, the
kind of last-bit change a reworked split search makes, and prints how far
the MAE cells move from the reference.  ``workloads.MAE_REL_TOL`` is set
from that figure.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from pibrake import gbt  # noqa: E402

MATRIX = ("kinematic-matrix", "surrogate-matrix")


def matrix_cells(name: str, tmp: Path) -> list[list]:
    wl = w.WORKLOADS[name]
    st = wl.setup(tmp / name, 0)
    wl.run_pass(st)
    rc, text = st.result
    if rc != 0:
        raise RuntimeError(text)
    return [list(c) for c in wl.cells(st)]


def record(tmp: Path) -> None:
    ref = {name: {"cells": matrix_cells(name, tmp)} for name in MATRIX}
    wl = w.WORKLOADS["featurize"]
    st = wl.setup(tmp / wl.name, 0)
    wl.run_pass(st)
    results, _ = st.result
    ref[wl.name] = {
        f"{src}/{scheme}": w.feature_sums(xs, ys) for (src, scheme), (_, xs, ys, _) in results.items()
    }
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {w.REFERENCE_PATH}")


def drift(tmp: Path, draws: int) -> None:
    fit = gbt.fit
    rng = np.random.default_rng(0)

    def nudged_fit(x, y, *args, **kwargs):
        y = np.asarray(y, dtype=float)
        step = rng.integers(-1, 2, y.shape)
        y = np.where(step > 0, np.nextafter(y, np.inf), np.where(step < 0, np.nextafter(y, -np.inf), y))
        return fit(x, y, *args, **kwargs)

    gbt.fit = nudged_fit
    ref = w.load_reference()
    for name in MATRIX:
        worst = 0.0
        for draw in range(draws):
            cells = matrix_cells(name, tmp / str(draw))
            for got, want in zip(cells, ref[name]["cells"]):
                worst = max(worst, *(abs(g - r) / abs(r) for g, r in zip(got[2:], want[2:])))
        print(f"{name}: largest relative MAE cell drift over {draws} draws {worst:.3g} "
              f"(tolerance {w.MAE_REL_TOL})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--drift", type=int, metavar="N", help="measure the cell drift over N draws instead")
    args = p.parse_args(argv)
    scratch = HERE.parent / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        if args.drift:
            drift(Path(tmp), args.drift)
        else:
            record(Path(tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main())
