"""Property tests on tiny inputs: the dataset layer, the leakage audit, pi bases and similarity, and the learner."""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from pibrake import gbt  # noqa: E402
from pibrake.dataset import (  # noqa: E402
    FLOAT_COLUMNS,
    ROW_COLUMNS,
    Dataset,
    kinematic_grid,
    load_csv,
    merge,
    save_csv,
    split,
    surrogate_grid,
)
from pibrake.dimensions import (  # noqa: E402
    DimensionVector,
    VariableDecl,
    build_dimension_matrix,
    repeated_vars_pi_basis,
)
from pibrake.experiments import audit_no_leakage  # noqa: E402
from pibrake.features import make_pipeline  # noqa: E402
from pibrake.simulator import ManeuverInput, VehicleSpec, simulate_kinematic  # noqa: E402

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
    assert loaded.vehicles == ds.vehicles and loaded.source == ds.source
    assert np.array_equal(loaded.vehicle_index, ds.vehicle_index)
    for name in FLOAT_COLUMNS:
        assert np.array_equal(loaded.columns()[name], ds.columns()[name], equal_nan=True)


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
    row_vehicles = [p.vehicles[k] for p in parts for k in p.vehicle_index]
    assert [merged.vehicles[k] for k in merged.vehicle_index] == row_vehicles
    assert merged.source == "kinematic"
    for name in FLOAT_COLUMNS:
        want = np.concatenate([p.columns()[name] for p in parts])
        np.testing.assert_array_equal(merged.columns()[name], want)


@FEW
@given(
    st.lists(vehicles, min_size=2, max_size=2, unique=True),
    st.sampled_from(["kinematic", "surrogate"]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_audit_flags_exactly_the_leaked_vehicle(pair, source, seed, data):
    trains, tests = {}, {}
    for name, vehicle in zip(("one", "two"), pair):
        trains[name], tests[name] = split(grid(vehicle, source, seed), 0.8, seed)
    models = {**trains, "merged": merge(list(trains.values()))}
    assert audit_no_leakage(models, tests) == []
    row = [data.draw(st.integers(0, len(tests["one"]) - 1))]
    leaked = merge([trains["two"], tests["one"].take(row)])
    assert audit_no_leakage({"m": leaked}, tests) == [("m", "one")]
    # the same inputs on the same name with another wheelbase are another experiment
    other = replace(pair[0], wheelbase_l=2 * pair[0].wheelbase_l)
    _, moved = split(grid(other, source, seed), 0.8, seed)
    moved_in = merge([trains["two"], moved.take(row)])
    assert audit_no_leakage({"m": moved_in}, {"one": tests["one"]}) == []


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=7),
    st.permutations(range(7)),
    st.one_of(st.none(), st.integers(0, 4)),
)
@example(dims=[(0, 0, 0), (0, 0, 0)], order=list(range(7)), size=None)
def test_repeated_vars_basis_contract(dims, order, size):
    # the oracle is numpy's rank of the integer dimension matrix; size None draws rank-many
    variables = [VariableDecl(f"q{i}", DimensionVector(*d)) for i, d in enumerate(dims)]
    names = [v.name for v in variables]
    rank = int(np.linalg.matrix_rank(np.array(dims, dtype=float)))
    repeated = [names[i] for i in order if i < len(names)][: rank if size is None else size]
    matrix = build_dimension_matrix(variables)
    if len(repeated) != rank:
        message = f"has {len(repeated)} variables but the dimension matrix has rank {rank}"
        with pytest.raises(ValueError, match=message):
            repeated_vars_pi_basis(matrix, repeated)
        return
    rep_dims = np.array([dims[names.index(n)] for n in repeated], dtype=float).reshape(-1, 3)
    if np.linalg.matrix_rank(rep_dims) < rank:
        with pytest.raises(ValueError, match="dimensionally dependent"):
            repeated_vars_pi_basis(matrix, repeated)
        return
    basis = repeated_vars_pi_basis(matrix, repeated)
    carried = [n for n in names if n not in repeated]
    assert len(basis.groups) == len(names) - rank == len(carried)
    for group, own in zip(basis.groups, carried):
        assert group.dimension().is_dimensionless
        exponent = dict(zip(names, group.exponents))
        assert [exponent[n] for n in carried] == [int(n == own) for n in carried]


@FEW
@given(
    st.floats(min_value=0.2, max_value=1.0),
    st.floats(min_value=0.2, max_value=1.0),
    st.floats(min_value=0.5, max_value=3.0),
    st.floats(min_value=1.0, max_value=9.81),
    st.floats(min_value=0.0, max_value=0.7854),
)
def test_pi_similarity(l_one, l_two, v_i, decel, delta):
    # equal a l / v_i^2 and delta on two wheelbases: equal pi inputs and pi outcomes
    rows = []
    for l, a in ((l_one, -decel), (l_two, -decel * l_one / l_two)):
        vehicle = VehicleSpec(f"l={l}", l, 30.0, 30.0)
        inputs = ManeuverInput(v_i, a, delta)
        pose = simulate_kinematic(vehicle, inputs)
        values = (v_i, a, delta, np.nan, inputs.g, pose.X, pose.Y, pose.theta)
        columns = {name: np.array([value]) for name, value in zip(ROW_COLUMNS, values)}
        rows.append(Dataset([vehicle], np.zeros(1, dtype=np.intp), columns, "kinematic"))
    both = merge(rows)
    pipe = make_pipeline("pi")
    x = pipe.input_matrix(both).values
    np.testing.assert_allclose(x[1], x[0], rtol=1e-12)
    y = pipe.target_matrix(both)
    np.testing.assert_allclose(y[1], y[0], rtol=0, atol=1e-6)


@FEW
@given(st.integers(0, 2**32 - 1), st.integers(20, 60))
def test_gbt_fit_is_row_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, 3)), 1)  # rounding makes tied feature values common
    y = np.round(x[:, 0] - 2 * x[:, 1] * x[:, 2] + rng.normal(size=n), 1)
    perm = rng.permutation(n)
    cfg = gbt.GbtConfig(n_rounds=5, max_depth=3, min_samples_leaf=2)
    model = gbt.fit(x, y, cfg)
    shuffled = gbt.fit(x[perm], y[perm], cfg)
    probe = rng.normal(size=(50, 3))
    assert np.array_equal(shuffled.predict(probe), model.predict(probe))
