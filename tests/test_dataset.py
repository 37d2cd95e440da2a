import numpy as np
import pytest

from pibrake.dataset import (
    CSV_HEADER,
    DEFAULT_VEHICLES,
    FLOAT_COLUMNS,
    Dataset,
    ManeuverRecord,
    generate,
    kinematic_grid,
    load_csv,
    merge,
    save_csv,
    split,
    surrogate_grid,
)
from pibrake.simulator import FinalPose, ManeuverInput, VehicleSpec, calibrate_step


SMALL = DEFAULT_VEHICLES["small"]
LARGE = DEFAULT_VEHICLES["large"]

TINY_KIN_GRID = {"v_i": (0.5, 2.0, 4), "a_g": (0.2, 1.0, 3), "delta": (0.0, 0.7854, 3)}
TINY_SUR_GRID = {"mu": (0.2, 0.9), "v_i": (1.0, 3.0, 3), "a_g": (0.2, 1.0, 3), "delta": (0.0, 0.7854)}


@pytest.fixture(scope="module")
def small_grid():
    return kinematic_grid(SMALL)


def same_rows(a, b):
    """Whether two datasets hold the same rows in the same order, compared on their columns."""
    return (
        np.array_equal(a.vehicles, b.vehicles)
        and np.array_equal(a.vehicle_index, b.vehicle_index)
        and a.source == b.source
        and all(np.array_equal(a.columns()[n], b.columns()[n], equal_nan=True) for n in FLOAT_COLUMNS)
    )


def test_default_vehicle_registry():
    assert set(DEFAULT_VEHICLES) == {"small", "long", "large"}
    assert DEFAULT_VEHICLES["long"].wheelbase_l == 0.853
    assert DEFAULT_VEHICLES["large"].front_normal_Nf == DEFAULT_VEHICLES["large"].rear_normal_Nr


def test_kinematic_grid_size_and_axes(small_grid):
    assert len(small_grid) == 5500
    cols = small_grid.columns()
    assert len(np.unique(cols["v_i"])) == 50
    assert len(np.unique(cols["a"])) == 10
    assert len(np.unique(cols["delta"])) == 11
    assert cols["v_i"].min() == pytest.approx(0.1) and cols["v_i"].max() == pytest.approx(5.0)
    assert cols["a"].min() == pytest.approx(-9.81) and cols["a"].max() == pytest.approx(-0.981)
    assert cols["delta"].min() == 0.0 and cols["delta"].max() == pytest.approx(0.7854)
    assert (cols["v_i"] > 0).all()


def test_kinematic_grid_first_point(small_grid):
    first = next(iter(small_grid))
    assert first.inputs.v_i == pytest.approx(0.1)
    assert first.inputs.a == pytest.approx(-0.981)
    assert first.inputs.delta == 0.0
    # straight stop: X = v_i^2 / (2 |a|)
    assert first.outcome.X == pytest.approx(0.1**2 / (2 * 0.981), abs=1e-9)
    assert first.outcome.Y == 0.0


def test_surrogate_grid_size_and_determinism(tmp_path):
    a = surrogate_grid(SMALL, seed=7, grid=None)
    assert len(a) == 540
    cols = a.columns()
    assert sorted(np.unique(cols["mu"])) == [0.2, 0.4, 0.9]
    assert len(np.unique(cols["v_i"])) == 6
    assert (cols["a"] < 0).all()
    b = surrogate_grid(SMALL, seed=7)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    save_csv(a, pa)
    save_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert next(iter(surrogate_grid(SMALL, seed=8))) != next(iter(a))


def test_surrogate_gentle_row_is_kinematic_plus_noise():
    from pibrake.simulator import simulate_kinematic

    ds = surrogate_grid(SMALL, seed=3)
    for r in ds:
        if r.inputs.mu == 0.9 and r.inputs.delta == 0.0 and abs(r.inputs.a) == pytest.approx(0.981):
            plain = simulate_kinematic(r.vehicle, r.inputs)
            assert r.outcome.X == pytest.approx(plain.X, abs=0.05)
            assert r.outcome.X != plain.X  # noise is on
            break
    else:
        raise AssertionError("expected gentle row in grid")


def test_split_sizes(small_grid):
    train, test = split(small_grid, 0.8, seed=0)
    assert len(train) == 4400 and len(test) == 1100
    keys = set(small_grid.keys())
    assert set(train.keys()) | set(test.keys()) == keys
    assert not (set(train.keys()) & set(test.keys()))


def test_split_two_records():
    ds = kinematic_grid(SMALL, grid=TINY_KIN_GRID)
    two = ds.take(np.arange(2))
    one, other = split(two, 0.5, seed=1)
    assert len(one) == 1 and len(other) == 1


def test_split_seeded_and_validated(small_grid):
    t1, _ = split(small_grid, 0.8, seed=5)
    t2, _ = split(small_grid, 0.8, seed=5)
    t3, _ = split(small_grid, 0.8, seed=6)
    assert same_rows(t1, t2)
    assert not same_rows(t1, t3)
    with pytest.raises(ValueError):
        split(small_grid, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(small_grid, 0.0, seed=0)


def test_merge_counts_and_identity():
    parts = [kinematic_grid(v, grid=TINY_KIN_GRID) for v in DEFAULT_VEHICLES.values()]
    trains = [split(p, 0.8, seed=0)[0] for p in parts]
    merged = merge(trains)
    assert len(merged) == sum(len(t) for t in trains)
    assert same_rows(merge([parts[0]]), parts[0])
    wheelbases = {r.vehicle.wheelbase_l for r in merged}
    assert wheelbases == {0.345, 0.853, 0.475}


def test_merge_rejects_mixed_sources():
    kin = kinematic_grid(SMALL, grid=TINY_KIN_GRID)
    sur = surrogate_grid(SMALL, seed=0, grid=TINY_SUR_GRID)
    with pytest.raises(ValueError, match="mixed"):
        merge([kin, sur])


def test_dataset_rejects_mixed_sources(tmp_path):
    kin = save_csv(kinematic_grid(SMALL, grid=TINY_KIN_GRID), tmp_path / "kin.csv")
    sur = save_csv(surrogate_grid(SMALL, seed=0, grid=TINY_SUR_GRID), tmp_path / "sur.csv")
    # the kinematic file, then the surrogate rows without their header
    mixed = tmp_path / "mixed.csv"
    mixed.write_bytes(kin.read_bytes() + sur.read_bytes().split(b"\n", 1)[1])
    with pytest.raises(ValueError, match="mixes"):
        load_csv(mixed)


def test_csv_round_trip_bit_exact(tmp_path):
    ds = surrogate_grid(LARGE, seed=9, grid=TINY_SUR_GRID)
    p1 = save_csv(ds, tmp_path / "one.csv")
    loaded = load_csv(p1)
    assert same_rows(loaded, ds)
    p2 = save_csv(loaded, tmp_path / "two.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_round_trip_kinematic_mu_empty(tmp_path):
    ds = kinematic_grid(SMALL, grid=TINY_KIN_GRID)
    loaded = load_csv(save_csv(ds, tmp_path / "kin.csv"))
    assert same_rows(loaded, ds)
    assert next(iter(loaded)).inputs.mu is None


def test_load_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_csv(path)


def test_grid_override():
    ds = kinematic_grid(SMALL, grid=TINY_KIN_GRID)
    assert len(ds) == 4 * 3 * 3


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("v_i", "0.0", "initial speed"),
        ("a", "2.5", "deceleration must be negative"),
        ("a", "0.0", "deceleration must be negative"),
        ("delta", "1.6", "steering angle"),
        ("g", "-9.81", "gravity"),
        ("X", "nan", "non-finite"),
        ("theta", "inf", "non-finite"),
        ("l", "0.0", "must all be positive"),
        ("source", "surrogate", "mixes sources"),
        ("source", "lidar", "unknown source"),
        ("mu", "5.0", "friction coefficient mu in"),
        ("mu", "0.0", "friction coefficient mu in"),
        ("mu", "", "friction coefficient mu in"),
        ("mu", "5.0", "mu must be empty on kinematic rows"),
    ],
)
def test_load_rejects_invalid_rows(tmp_path, field, value, message):
    # mu is checked against its rule on surrogate rows, and must be empty on kinematic rows
    if field == "mu" and "kinematic" not in message:
        ds = surrogate_grid(SMALL, seed=0, grid=TINY_SUR_GRID)
    else:
        ds = kinematic_grid(SMALL, grid=TINY_KIN_GRID)
    path = save_csv(ds, tmp_path / "data.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    row = lines[2].split(",")
    row[CSV_HEADER.index(field)] = value
    lines[2] = ",".join(row)
    if field == "source" and value == "lidar":
        lines = [lines[0], lines[2]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_csv(path)


def test_generate_batches_vehicles_by_step_without_changing_bytes(tmp_path):
    # a 5 mm wheelbase calibrates to a shorter RK4 step than the other two
    tiny = VehicleSpec("tiny", 0.005, 10.0, 10.0)
    registry = [SMALL, tiny, LARGE]
    assert calibrate_step(tiny) < calibrate_step(SMALL) == calibrate_step(LARGE)
    for source, grid in (("kinematic", TINY_KIN_GRID), ("surrogate", TINY_SUR_GRID)):
        together = generate(registry, source, seed=3, grid=grid)
        for v in registry:
            alone = generate([v], source, seed=3, grid=grid)[v.name]
            a = save_csv(together[v.name], tmp_path / "together.csv").read_bytes()
            b = save_csv(alone, tmp_path / "alone.csv").read_bytes()
            assert a == b, (source, v.name)


def test_columns_must_match_the_rows():
    c = kinematic_grid(SMALL, grid=TINY_KIN_GRID).columns()
    short = {name: c[name][:-1] if name == "theta" else c[name] for name in c}
    with pytest.raises(ValueError, match=r"column 'theta' has shape \(35,\), expected \(36,\)"):
        Dataset([SMALL], np.zeros(36, dtype=np.intp), short, "kinematic")
    with pytest.raises(ValueError, match="column 'X'"):
        kinematic_grid(SMALL, step=1e-3, grid=TINY_KIN_GRID, poses=(c["X"][:5], c["Y"], c["theta"]))


@pytest.mark.parametrize(
    "source, grid", [("kinematic", TINY_KIN_GRID), ("surrogate", TINY_SUR_GRID)], ids=["kinematic", "surrogate"]
)
def test_iteration_yields_each_row_built_from_the_columns(source, grid):
    ds = merge(list(generate([SMALL, LARGE], source, seed=2, grid=grid).values()))
    records = list(ds)
    assert len(records) == len(ds)
    c = ds.columns()
    for i, r in enumerate(records):
        mu = None if source == "kinematic" else c["mu"][i]
        inputs = ManeuverInput(c["v_i"][i], c["a"][i], c["delta"][i], mu, c["g"][i])
        pose = FinalPose(c["X"][i], c["Y"][i], c["theta"][i])
        assert r == ManeuverRecord(ds.vehicles[ds.vehicle_index[i]], inputs, pose)
    assert all(r.inputs.mu is None for r in records) == (source == "kinematic")
