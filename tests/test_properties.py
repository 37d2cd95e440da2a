"""Property tests of the dataset layer on tiny grids."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pibrake.dataset import (  # noqa: E402
    FLOAT_COLUMNS,
    kinematic_grid,
    load_csv,
    merge,
    save_csv,
    split,
    surrogate_grid,
)
from pibrake.simulator import VehicleSpec  # noqa: E402

KIN_GRID = {"v_i": (0.5, 2.0, 3), "a_g": (0.5, 1.0, 2), "delta": (0.0, 0.5, 2)}
SUR_GRID = {"mu": (0.3, 0.9), "v_i": (1.0, 2.0, 2), "a_g": (0.5, 1.0, 2), "delta": (0.0, 0.5)}
FEW = settings(max_examples=15, deadline=None)

positive = st.floats(min_value=0.05, max_value=100.0, allow_nan=False, allow_infinity=False)
vehicles = st.builds(VehicleSpec, st.sampled_from(["a", "b", "c,d"]), positive, positive, positive)


def grid(vehicle: VehicleSpec, source: str, seed: int):
    if source == "kinematic":
        return kinematic_grid(vehicle, step=1e-2, grid=KIN_GRID)
    return surrogate_grid(vehicle, seed, step=1e-2, grid=SUR_GRID)


@FEW
@given(vehicles, st.sampled_from(["kinematic", "surrogate"]), st.integers(0, 2**32 - 1))
def test_csv_write_load_write_is_byte_identical(vehicle, source, seed):
    ds = grid(vehicle, source, seed)
    with tempfile.TemporaryDirectory() as tmp:
        first = save_csv(ds, Path(tmp) / "one.csv")
        loaded = load_csv(first)
        second = save_csv(loaded, Path(tmp) / "two.csv")
        assert first.read_bytes() == second.read_bytes()
    assert loaded.records == ds.records


@FEW
@given(vehicles, st.floats(min_value=0.05, max_value=0.95), st.integers(0, 2**32 - 1))
def test_split_is_disjoint_exhaustive_partition(vehicle, fraction, seed):
    ds = grid(vehicle, "surrogate", seed)
    train, test = split(ds, fraction, seed)
    keys = ds.keys()
    assert len(set(keys)) == len(ds)
    assert len(train) + len(test) == len(ds)
    assert set(train.keys()).isdisjoint(test.keys())
    assert set(train.keys()) | set(test.keys()) == set(keys)


@FEW
@given(st.lists(vehicles, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_merge_keeps_row_order(parts_vehicles, seed):
    parts = [split(grid(v, "kinematic", seed), 0.5, seed + i)[0] for i, v in enumerate(parts_vehicles)]
    merged = merge(parts)
    assert merged.records == tuple(r for p in parts for r in p.records)
    for name in FLOAT_COLUMNS:
        want = np.concatenate([p.columns()[name] for p in parts])
        np.testing.assert_array_equal(merged.columns()[name], want)
