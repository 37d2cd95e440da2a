"""The four benchmark workloads.

Each workload has a set-up (run before any timed pass, several times, so
its median is stable), a pass (the timed unit, which returns the amount of
work it did) and a check (run after each pass, outside the timed region,
returning one (ok, label) pair per checked operation).  Everything reaches
the package through its public entry points, resolved as module attributes
at call time so that a traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pibrake import cli, dataset, dimensions, experiments, features, simulator

SOURCES = ("kinematic", "surrogate")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Seed-0 outputs recorded at the commit that added the benchmark.  Tree
# fitting may change in the last bits (summation order).  Moving every
# training target by at most one ulp moved surrogate MAE cells by up to 1.1%
# and kinematic cells by under 1e-10 (``make_reference.py --drift``), so a
# cell may move by 3%.
MAE_REL_TOL = 0.03
FEATURE_REL_TOL = 1e-9
INVERSE_REL_TOL = 1e-12
RK4_ERR_LIMIT = 1e-6  # acceptance criterion 3


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``pibrake.cli.main`` with its stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def gen(out: Path, source: str, seed: int) -> None:
    rc, text = call_cli(["gen", "--source", source, "--seed", str(seed), "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"pibrake gen --source {source} failed ({rc}): {text}")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass
class State:
    """What a workload's set-up produced and its passes left behind."""

    seed: int
    out: Path
    result: object = None
    first: object = None
    info: dict = field(default_factory=dict)


class Workload:
    """Reasons for each workload: README.md and BENCHMARK.json."""

    name = ""
    work_unit = ""

    def setup(self, out: Path, seed: int) -> State:
        return State(seed, out)

    def run_pass(self, st: State) -> int:
        raise NotImplementedError

    def check(self, st: State) -> list[tuple[bool, str]]:
        raise NotImplementedError


# -- matrix studies ----------------------------------------------------------


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


class MatrixWorkload(Workload):
    work_unit = "ensembles fitted"
    source = ""

    def setup(self, out: Path, seed: int) -> State:
        gen(out, self.source, seed)
        return State(seed, out)

    def argv(self, st: State) -> list[str]:
        return [
            "matrix", "--source", self.source, "--scheme", "pi",
            "--seed", str(st.seed), "--out", str(st.out),
        ]

    def run_pass(self, st: State) -> int:
        st.result = call_cli(self.argv(st))
        # one model per vehicle plus the merged one, one ensemble per output
        return (len(dataset.DEFAULT_VEHICLES) + 1) * 3

    def cells(self, st: State) -> list[tuple[str, str, float, float, float]]:
        path = st.out / self.source / "pi" / "matrix.csv"
        rows = path.read_text(encoding="utf-8").splitlines()[1:]
        out = []
        for line in rows:
            model, data, _kind, x, y, th = line.split(",")
            out.append((model, data, float(x), float(y), float(th)))
        return out

    def check(self, st: State) -> list[tuple[bool, str]]:
        rc, text = st.result
        ops = [(rc == 0, f"pibrake {' '.join(self.argv(st)[:5])} exit code {rc}: {text.strip()[-300:]}")]
        if rc != 0:
            return ops
        # an independent audit of the split the study makes, on the same files
        loaded = {
            name: dataset.load_csv(st.out / "data" / self.source / f"{name}.csv")
            for name in dataset.DEFAULT_VEHICLES
        }
        trains, tests = {}, {}
        for name, ds in loaded.items():
            trains[name], tests[name] = dataset.split(ds, experiments.TRAIN_FRACTION, st.seed)
        trains[experiments.MERGED] = dataset.merge(list(trains.values()))
        violations = experiments.audit_no_leakage(trains, tests)
        ops.append((not violations, f"leakage audit: {violations}"))

        cells = self.cells(st)
        ref = load_reference()[self.name]["cells"] if st.seed == 0 else None
        ops.append((len(cells) == 12, f"{len(cells)} matrix cells, expected 12"))
        for i, (model, data, x, y, th) in enumerate(cells):
            ok = all(math.isfinite(v) for v in (x, y, th))
            label = f"cell {model}/{data}: MAE {x}, {y}, {th}"
            if ok and ref is not None:
                r = ref[i]
                ok = (r[0], r[1]) == (model, data) and all(
                    _close(g, w, MAE_REL_TOL) for g, w in zip((x, y, th), r[2:])
                )
                label += f" vs reference {r}"
            ops.append((ok, label))
        st.info["mae_xy_m"] = float(np.mean([c[2:4] for c in cells]))
        st.info["mae_theta_rad"] = float(np.mean([c[4] for c in cells]))
        return ops


class KinematicMatrix(MatrixWorkload):
    name = "kinematic-matrix"
    source = "kinematic"


class SurrogateMatrix(MatrixWorkload):
    name = "surrogate-matrix"
    source = "surrogate"


# -- grid simulation -----------------------------------------------------------


def rk4_errors(ds) -> np.ndarray:
    """|RK4 - analytic_arc_oracle| per record and pose component."""
    err = np.empty((len(ds), 3))
    for i, r in enumerate(ds):
        ref = simulator.analytic_arc_oracle(r.vehicle, r.inputs)
        err[i] = (abs(r.outcome.X - ref.X), abs(r.outcome.Y - ref.Y), abs(r.outcome.theta - ref.theta))
    return err


def _poses(ds) -> np.ndarray:
    c = ds.columns()
    return np.column_stack([c["X"], c["Y"], c["theta"]])


class Simulate(Workload):
    name = "simulate"
    work_unit = "maneuvers simulated"

    def run_pass(self, st: State) -> int:
        vehicles = list(dataset.DEFAULT_VEHICLES.values())
        st.result = {src: dataset.generate(vehicles, src, st.seed) for src in SOURCES}
        return sum(len(d) for by_vehicle in st.result.values() for d in by_vehicle.values())

    def check(self, st: State) -> list[tuple[bool, str]]:
        kin, sur = st.result["kinematic"], st.result["surrogate"]
        poses = {src: np.vstack([_poses(d) for d in st.result[src].values()]) for src in SOURCES}
        ops = []
        n_kin = sum(len(d) for d in kin.values())
        n_sur = sum(len(d) for d in sur.values())
        ops.append((n_kin == 16500 and n_sur == 1620, f"{n_kin} kinematic and {n_sur} surrogate records"))
        ops.append((bool(np.isfinite(poses["surrogate"]).all()), "surrogate poses finite"))
        if st.first is None:
            err = np.vstack([rk4_errors(d) for d in kin.values()])
            st.info["rk4_err_max"] = float(err.max())
            ops.append((st.info["rk4_err_max"] <= RK4_ERR_LIMIT, f"rk4_err_max {err.max()} <= {RK4_ERR_LIMIT}"))
            st.first = poses
        else:
            same = all(np.array_equal(st.first[s], poses[s]) for s in SOURCES)
            ops.append((same, "pass reproduces the first pass bit for bit"))
        return ops


# -- featurization -------------------------------------------------------------


class Featurize(Workload):
    name = "featurize"
    work_unit = "rows featurized"

    def setup(self, out: Path, seed: int) -> State:
        for src in SOURCES:
            gen(out, src, seed)
        return State(seed, out)

    def run_pass(self, st: State) -> int:
        rows = 0
        results = {}
        for src in SOURCES:
            loaded = {}
            for name in dataset.DEFAULT_VEHICLES:
                ds = dataset.load_csv(st.out / "data" / src / f"{name}.csv")
                dataset.save_csv(ds, st.out / "resave" / src / f"{name}.csv")
                loaded[name] = ds
            trains, tests = {}, {}
            for name, ds in loaded.items():
                trains[name], tests[name] = dataset.split(ds, experiments.TRAIN_FRACTION, st.seed)
            merged = dataset.merge(list(trains.values()))
            parts = [merged] + list(tests.values())
            for scheme in features.SCHEME_NAMES:
                pipe = features.make_pipeline(scheme).fit(merged)
                xs = [pipe.input_matrix(d) for d in parts]
                ys = [pipe.target_matrix(d) for d in parts]
                inv = [pipe.inverse_targets(y, d) for y, d in zip(ys, parts)]
                rows += sum(x.values.shape[0] for x in xs)
                results[src, scheme] = (parts, xs, ys, inv)
        bases = {}
        for var_set, variables in (
            ("kinematic", dimensions.kinematic_variables),
            ("dynamic", dimensions.dynamic_variables),
        ):
            matrix = dimensions.build_dimension_matrix(variables())
            bases[var_set] = (
                matrix,
                dimensions.repeated_vars_pi_basis(matrix, list(dimensions.DEFAULT_REPEATED[var_set])),
                dimensions.nullspace_pi_basis(matrix),
            )
        st.result = (results, bases)
        return rows

    def check(self, st: State) -> list[tuple[bool, str]]:
        results, bases = st.result
        ops = []
        for src in SOURCES:
            for name in dataset.DEFAULT_VEHICLES:
                a = (st.out / "data" / src / f"{name}.csv").read_bytes()
                b = (st.out / "resave" / src / f"{name}.csv").read_bytes()
                ops.append((a == b, f"{src}/{name}.csv re-save is byte-identical"))
        ref = load_reference()[self.name] if st.seed == 0 else None
        for (src, scheme), (parts, xs, ys, inv) in results.items():
            ok = all(
                np.allclose(y_inv, _poses(d), rtol=INVERSE_REL_TOL, atol=0.0)
                for y_inv, d in zip(inv, parts)
            )
            label = f"{src}/{scheme}: inverse_targets recovers the poses"
            if ok and ref is not None:
                want = ref[f"{src}/{scheme}"]
                sums = feature_sums(xs, ys)
                ok = len(want) == len(sums) and all(
                    len(w) == len(g) and np.allclose(g, w, rtol=FEATURE_REL_TOL, atol=0.0)
                    for g, w in zip(sums, want)
                )
                label += " and feature sums match the reference"
            ops.append((ok, label))
        for var_set, (matrix, repeated, nullspace) in bases.items():
            expected = len(matrix.variables) - matrix.rank
            ok = len(repeated.groups) == expected == len(nullspace.groups)
            ops.append((ok, f"{var_set} pi basis has N - P = {expected} groups"))
        return ops


def feature_sums(xs, ys) -> list[list[float]]:
    """Per-matrix column sums of |value|: a sign-safe fingerprint of the features."""
    return [np.abs(m).sum(axis=0).tolist() for m in [x.values for x in xs] + list(ys)]


WORKLOADS = {w.name: w for w in (KinematicMatrix(), SurrogateMatrix(), Simulate(), Featurize())}
