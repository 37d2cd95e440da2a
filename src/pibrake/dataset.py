"""Maneuver datasets: input grids, simulation runs, persistence, splits.

The kinematic grid is the full Cartesian product of 50 initial speeds x
10 braking levels x 11 steering angles (5500 maneuvers per vehicle); the
surrogate grid covers 3 friction coefficients x 6 speeds x 10 braking
levels x 3 steering angles (540 per vehicle).  Grid axes are generated by
index arithmetic from their endpoints, never by repeated float addition.

Records persist to plain CSV (UTF-8, comma separated, mandatory header);
float fields round-trip exactly through ``repr``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .simulator import (
    DEFAULT_STEP,
    INPUT_RULES,
    STANDARD_GRAVITY,
    FinalPose,
    ManeuverInput,
    VehicleSpec,
    add_surrogate_noise,
    calibrate_step,
    check_inputs,
    saturate_batch,
    simulate_kinematic_batch,
)

CSV_HEADER = [
    "vehicle", "v_i", "a", "delta", "mu", "g", "l", "Nf", "Nr", "X", "Y", "theta", "source",
]

DEFAULT_VEHICLES = {
    "small": VehicleSpec("small", wheelbase_l=0.345, front_normal_Nf=37.77, rear_normal_Nr=28.84),
    "long": VehicleSpec("long", wheelbase_l=0.853, front_normal_Nf=22.74, rear_normal_Nr=52.89),
    "large": VehicleSpec("large", wheelbase_l=0.475, front_normal_Nf=71.12, rear_normal_Nr=71.12),
}

# source -> grid axis -> default, the axes in product order (outer to inner).
# An axis in LISTED_AXES lists its values; any other is a linspace over
# (start, stop, count).  a_g is the deceleration magnitude in multiples of g.
GRIDS = {
    "kinematic": {"v_i": (0.1, 5.0, 50), "a_g": (0.1, 1.0, 10), "delta": (0.0, 0.7854, 11)},
    "surrogate": {
        "mu": (0.2, 0.4, 0.9), "v_i": (1.0, 3.5, 6), "a_g": (0.1, 1.0, 10), "delta": (0.0, 0.3927, 0.7854),
    },
}
LISTED_AXES = {("surrogate", "mu"), ("surrogate", "delta")}

SOURCES = tuple(GRIDS)

# Dataset.columns() keys, in CSV order; the vehicle geometry (l, Nf, Nr)
# comes from the vehicle table, every other column is stored per row
FLOAT_COLUMNS = tuple(CSV_HEADER[1:-1])
VEHICLE_COLUMNS = ("l", "Nf", "Nr")
ROW_COLUMNS = tuple(c for c in FLOAT_COLUMNS if c not in VEHICLE_COLUMNS)


@dataclass(frozen=True)
class ManeuverRecord:
    """A view of one maneuver: vehicle, inputs, and resulting final pose."""

    vehicle: VehicleSpec
    inputs: ManeuverInput
    outcome: FinalPose


class Dataset:
    """Maneuvers from a single source, stored as numpy columns.

    ``vehicles`` lists each distinct vehicle once and ``vehicle_index`` maps
    every row to its entry.  ``columns`` holds the ``ROW_COLUMNS`` arrays,
    with ``mu`` NaN where a maneuver has none; every row is checked against
    the input rules (``mu`` on surrogate rows only; kinematic rows must have
    NaN ``mu``) and for a finite pose.  :meth:`columns` adds the vehicle
    geometry.  Iteration yields each row as a :class:`ManeuverRecord`.
    """

    def __init__(
        self,
        vehicles: Sequence[VehicleSpec],
        vehicle_index: np.ndarray,
        columns: dict[str, np.ndarray],
        source: str | None,
    ):
        vehicles = tuple(vehicles)
        vehicle_index = np.asarray(vehicle_index, dtype=np.intp)
        if len(vehicle_index) and source not in SOURCES:
            raise ValueError(f"unknown source {source!r}")
        c = {name: np.asarray(columns[name], dtype=float) for name in ROW_COLUMNS}
        for name in ROW_COLUMNS:
            if c[name].shape != vehicle_index.shape:
                raise ValueError(f"column {name!r} has shape {c[name].shape}, expected {vehicle_index.shape}")
        check_inputs(**{name: c[name] for name in INPUT_RULES if name != "mu" or source == "surrogate"})
        if source == "kinematic" and not np.isnan(c["mu"]).all():
            raise ValueError(f"mu must be empty on kinematic rows, got mu={c['mu'][~np.isnan(c['mu'])][0]}")
        for name in ("X", "Y", "theta"):
            bad = ~np.isfinite(c[name])
            if bad.any():
                raise ValueError(f"non-finite final pose {name}, got {c[name][bad][0]}")
        geometry = np.array(
            [(v.wheelbase_l, v.front_normal_Nf, v.rear_normal_Nr) for v in vehicles], dtype=float
        ).reshape(-1, 3)[vehicle_index]
        c.update(zip(VEHICLE_COLUMNS, geometry.T.copy()))
        self.vehicles = vehicles
        self.vehicle_index = vehicle_index
        self._source = source if len(vehicle_index) else None
        self._columns = {name: c[name] for name in FLOAT_COLUMNS}

    def __len__(self) -> int:
        return len(self.vehicle_index)

    def __iter__(self) -> Iterator[ManeuverRecord]:
        c = self._columns
        for k, v_i, a, delta, mu, g, x, y, theta in zip(
            self.vehicle_index.tolist(), *(c[name].tolist() for name in ROW_COLUMNS)
        ):
            inputs = ManeuverInput(v_i, a, delta, None if math.isnan(mu) else mu, g)
            yield ManeuverRecord(self.vehicles[k], inputs, FinalPose(x, y, theta))

    @property
    def source(self) -> str:
        if self._source is None:
            raise ValueError("empty dataset has no source")
        return self._source

    def keys(self) -> list[tuple]:
        """The identity of every row's experiment, for leakage audits."""
        c = self._columns
        names = [self.vehicles[k].name for k in self.vehicle_index.tolist()]
        mu = [None if math.isnan(m) else m for m in c["mu"].tolist()]
        fields = ("l", "Nf", "Nr", "v_i", "a", "delta")
        return list(zip(names, *(c[f].tolist() for f in fields), mu, c["g"].tolist()))

    def columns(self) -> dict[str, np.ndarray]:
        """The float fields as numpy columns (shared storage; do not mutate)."""
        return self._columns

    def take(self, rows: np.ndarray) -> Dataset:
        """The dataset of the given row indices, in that order."""
        columns = {name: self._columns[name][rows] for name in ROW_COLUMNS}
        return Dataset(self.vehicles, self.vehicle_index[rows], columns, self._source)


def _product(axes: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Flattened Cartesian product of the axes, the first one outermost."""
    return dict(zip(axes, (m.ravel() for m in np.meshgrid(*axes.values(), indexing="ij"))))


def axis_input(source: str, axis: str, spec: tuple) -> tuple[str, np.ndarray]:
    """The input name and values of one grid axis of the source; an a_g axis
    gives the braking deceleration a = -g * a_g, -inf where that overflows
    (for the range check to reject)."""
    values = np.array(spec, dtype=float) if (source, axis) in LISTED_AXES else np.linspace(*spec)
    if axis == "a_g":
        with np.errstate(over="ignore"):
            return "a", -STANDARD_GRAVITY * values
    return axis, values


def _grid_inputs(source: str, grid: dict | None) -> dict[str, np.ndarray]:
    """The input columns of one vehicle's grid of the source (the same for every vehicle)."""
    if source not in GRIDS:
        raise ValueError(f"unknown source {source!r}")
    grid = grid or GRIDS[source]
    c = _product(dict(axis_input(source, axis, grid[axis]) for axis in GRIDS[source]))
    n = len(c["v_i"])
    c.setdefault("mu", np.full(n, math.nan))
    c["g"] = np.full(n, STANDARD_GRAVITY)
    return c


Poses = tuple[np.ndarray, np.ndarray, np.ndarray]


def _simulate_grids(
    source: str, vehicles: Sequence[VehicleSpec], steps: Sequence[float], seed: int, c: dict[str, np.ndarray]
) -> list[Poses]:
    """Final poses (X, Y, theta) of each vehicle's grid ``c``, vehicle ``k`` at ``steps[k]``.

    The vehicles sharing a step run as one lockstep RK4 batch with a
    wheelbase per row; a row's pose does not depend on its batch.  The
    surrogate saturates each vehicle's inputs first and adds its noise last.
    """
    n = len(c["v_i"])
    if source == "surrogate":
        inputs = [saturate_batch(v, c["mu"], c["v_i"], c["a"], c["delta"], c["g"]) for v in vehicles]
    else:
        inputs = [(c["a"], c["delta"])] * len(vehicles)
    poses: dict[int, Poses] = {}
    for step in dict.fromkeys(steps):
        group = [k for k, s in enumerate(steps) if s == step]
        X, Y, TH = simulate_kinematic_batch(
            np.repeat([vehicles[k].wheelbase_l for k in group], n),
            np.tile(c["v_i"], len(group)),
            np.concatenate([inputs[k][0] for k in group]),
            np.concatenate([inputs[k][1] for k in group]),
            step,
        )
        for j, k in enumerate(group):
            rows = slice(j * n, (j + 1) * n)
            poses[k] = (X[rows], Y[rows], TH[rows])
    if source == "surrogate":
        for k, v in enumerate(vehicles):
            add_surrogate_noise(v.name, seed, *poses[k])
    return [poses[k] for k in range(len(vehicles))]


def _grid_dataset(
    source: str, vehicle: VehicleSpec, step: float, seed: int, grid: dict | None, poses: Poses | None
) -> Dataset:
    c = _grid_inputs(source, grid)
    if poses is None:
        (poses,) = _simulate_grids(source, [vehicle], [step], seed, c)
    c["X"], c["Y"], c["theta"] = poses
    return Dataset((vehicle,), np.zeros(len(c["v_i"]), dtype=np.intp), c, source)


def kinematic_grid(
    vehicle: VehicleSpec, step: float | None = None, grid: dict | None = None, *, poses: Poses | None = None
) -> Dataset:
    """Simulate the full 5500-point braking grid for one vehicle.

    Axis order (outer to inner): v_i, deceleration level, steering angle.
    The RK4 step is calibrated against the analytic oracle unless given.
    ``poses`` are the grid's final poses when a batch over several vehicles
    (:func:`generate`) has simulated them already.
    """
    if step is None:
        step = calibrate_step(vehicle)
    return _grid_dataset("kinematic", vehicle, step, 0, grid, poses)


def surrogate_grid(
    vehicle: VehicleSpec,
    seed: int,
    step: float = DEFAULT_STEP,
    grid: dict | None = None,
    *,
    poses: Poses | None = None,
) -> Dataset:
    """Simulate the 540-point friction-limited grid for one vehicle.

    Axis order (outer to inner): mu, v_i, deceleration level, steering angle.
    Deceleration levels are stored as negative (braking) values.  ``poses``
    are the grid's final noisy poses when :func:`generate` has simulated
    them already.
    """
    return _grid_dataset("surrogate", vehicle, step, seed, grid, poses)


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seeded-shuffle partition into (train, test)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(d)
    n_train = int(round(train_fraction * n))
    perm = np.random.default_rng(seed).permutation(n)
    return d.take(np.sort(perm[:n_train])), d.take(np.sort(perm[n_train:]))


def merge(datasets: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets of the same source kind, keeping row order."""
    if not datasets:
        raise ValueError("nothing to merge")
    kinds = {d.source for d in datasets}
    if len(kinds) > 1:
        raise ValueError(f"cannot merge mixed sources {sorted(kinds)}")
    table: dict[VehicleSpec, int] = {}
    index = np.concatenate(
        [
            np.array([table.setdefault(v, len(table)) for v in d.vehicles], dtype=np.intp)[d.vehicle_index]
            for d in datasets
        ]
    )
    columns = {name: np.concatenate([d.columns()[name] for d in datasets]) for name in ROW_COLUMNS}
    return Dataset(table, index, columns, kinds.pop())


def save_csv(d: Dataset, path: str | Path) -> Path:
    """Write the rows to CSV; floats are written with full `repr` precision."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    c = d.columns()
    text = {name: list(map(repr, c[name].tolist())) for name in FLOAT_COLUMNS}
    text["mu"] = ["" if math.isnan(mu) else repr(mu) for mu in c["mu"].tolist()]
    names = [d.vehicles[k].name for k in d.vehicle_index.tolist()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_HEADER)
        w.writerows(zip(names, *(text[name] for name in FLOAT_COLUMNS), repeat(d._source)))
    return path


def load_csv(path: str | Path) -> Dataset:
    """Read a dataset written by :func:`save_csv`; round-trips bit-exactly."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"{path}, line {line}: expected {len(CSV_HEADER)} fields, got {len(row)}")
    fields = dict(zip(CSV_HEADER, zip(*rows))) if rows else dict.fromkeys(CSV_HEADER, ())
    table: dict[tuple, int] = {}
    vehicle_fields = zip(*(fields[f] for f in ("vehicle", "l", "Nf", "Nr")))
    index = [table.setdefault(k, len(table)) for k in vehicle_fields]
    vehicles = [VehicleSpec(name, float(l), float(nf), float(nr)) for name, l, nf, nr in table]
    columns = {name: np.array([float(t) for t in fields[name]]) for name in ROW_COLUMNS if name != "mu"}
    columns["mu"] = np.array([float(t) if t else math.nan for t in fields["mu"]])
    sources = sorted(set(fields["source"]))
    if len(sources) > 1:
        raise ValueError(f"dataset mixes sources {sources}")
    return Dataset(vehicles, index, columns, sources[0] if sources else None)


def generate(
    vehicles: Iterable[VehicleSpec], source: str, seed: int = 0, grid: dict | None = None
) -> dict[str, Dataset]:
    """Build the per-vehicle grid datasets for one source kind.

    All vehicles are simulated together: one lockstep RK4 pass per distinct
    step (each vehicle's calibrated step for the kinematic grid,
    ``DEFAULT_STEP`` for the surrogate).
    """
    vehicles = list(vehicles)
    c = _grid_inputs(source, grid)
    if source == "kinematic":
        steps = [calibrate_step(v) for v in vehicles]
        poses = _simulate_grids(source, vehicles, steps, seed, c)
        return {v.name: kinematic_grid(v, s, grid, poses=p) for v, s, p in zip(vehicles, steps, poses)}
    poses = _simulate_grids(source, vehicles, [DEFAULT_STEP] * len(vehicles), seed, c)
    return {v.name: surrogate_grid(v, seed, grid=grid, poses=p) for v, p in zip(vehicles, poses)}
