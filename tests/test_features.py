import math

import numpy as np
import pytest

from pibrake import features as features_module
from pibrake.dataset import ROW_COLUMNS, Dataset, kinematic_grid, merge, surrogate_grid
from pibrake.dimensions import DIMENSIONLESS, PiGroup
from pibrake.features import (
    FeatureMatrix,
    LATERAL_RATIO_CAP,
    MaxAbsNormalizer,
    PcaTransform,
    SCHEME_NAMES,
    make_pipeline,
)
from pibrake.simulator import VehicleSpec

SMALL = VehicleSpec("small", 0.345, 37.77, 28.84)
LONG = VehicleSpec("long", 0.853, 22.74, 52.89)
LARGE = VehicleSpec("large", 0.475, 71.12, 71.12)


def _one_row(vehicle, source, values):
    """A one-row dataset of the ``ROW_COLUMNS`` values."""
    columns = {name: np.array([v], dtype=float) for name, v in zip(ROW_COLUMNS, values)}
    return Dataset([vehicle], np.zeros(1, dtype=np.intp), columns, source)


def kin_row(vehicle, v_i, a, delta, pose=(1.0, 0.2, 0.1)):
    return _one_row(vehicle, "kinematic", (v_i, a, delta, math.nan, 9.81, *pose))


def dyn_row(vehicle, mu, v_i, a, delta, pose=(1.0, 0.2, 0.1), g=9.81):
    return _one_row(vehicle, "surrogate", (v_i, a, delta, mu, g, *pose))


def features(scheme, d):
    """Input vector of a one-row dataset under a stateless scheme."""
    return make_pipeline(scheme).input_matrix(d).values[0].tolist()


def test_baseline_vectors():
    r = kin_row(SMALL, 1.0, -0.981, 0.0)
    assert features("baseline", r) == [1.0, -0.981, 0.0, 0.345]
    d = dyn_row(LONG, 0.4, 2.0, -1.962, 0.3)
    assert features("baseline", d) == [0.4, 2.0, 9.81, -1.962, 0.3, 22.74, 52.89, 0.853]
    assert len(features("baseline", r)) == 4
    assert len(features("baseline", d)) == 8


def test_baseline_targets_are_raw_pose():
    pipe = make_pipeline("baseline")
    ds = kin_row(SMALL, 1.0, -1.0, 0.1, pose=(0.5, 0.05, 0.02))
    y = pipe.target_matrix(ds)
    assert y.tolist() == [[0.5, 0.05, 0.02]]


def test_pi_features_values():
    r = kin_row(LONG, 2.0, -1.962, 0.3)
    got = features("pi", r)
    assert got[0] == pytest.approx(-1.962 * 0.853 / 4.0, rel=1e-12)  # -0.4183965
    assert got[1] == 0.3
    d = dyn_row(LARGE, 0.4, 2.0, -1.962, 0.3)
    vals = features("pi", d)
    assert vals == pytest.approx(
        [-1.962 * 0.475 / 4.0, 0.3, 1.0, 0.4, 9.81 * 0.475 / 4.0], rel=1e-12
    )


def test_pi_targets_scaled_by_wheelbase():
    pipe = make_pipeline("pi")
    ds = kin_row(LONG, 2.0, -1.962, 0.3, pose=(0.0, 0.853, 0.1))
    y = pipe.target_matrix(ds)
    assert y[0, 0] == 0.0
    assert y[0, 1] == pytest.approx(1.0, rel=1e-12)
    assert y[0, 2] == 0.1


def test_pi_similarity_equal_inputs_across_vehicles():
    a_small = -3.0
    a_long = a_small * SMALL.wheelbase_l / LONG.wheelbase_l
    r1 = kin_row(SMALL, 2.0, a_small, 0.25)
    r2 = kin_row(LONG, 2.0, a_long, 0.25)
    assert features("pi", r1) == features("pi", r2)


def test_pi_augmented_kinematic():
    r = kin_row(SMALL, 2.0, -3.0, 0.0)
    assert features("pi-aug", r)[-1] == 0.0  # tan 0 = 0
    r2 = kin_row(SMALL, 2.0, -3.0, 0.4)
    vecs = features("pi-aug", r2)
    # cross-check: pi6 * pi4 = tan(delta)
    assert vecs[-1] * vecs[0] == pytest.approx(math.tan(0.4), rel=1e-12)


def test_pi_augmented_dynamic_ratios():
    # Nf = Nr on the large vehicle: ratio reduces to mu g / (2 |a|) * 2
    d = dyn_row(LARGE, 0.4, 2.0, -2 * 0.981, 0.3)
    vals = features("pi-aug", d)
    longitudinal = vals[-2]
    assert longitudinal == pytest.approx(
        71.12 * 0.4 * 9.81 / ((71.12 + 71.12) * 1.962), rel=1e-12
    )
    assert longitudinal == pytest.approx(1.0, rel=1e-12)
    lateral = vals[-1]
    assert lateral == pytest.approx(9.81 * 0.4 * 0.475 / (4.0 * math.tan(0.3)), rel=1e-12)


def test_pi_augmented_lateral_cap_at_zero_steering():
    d = dyn_row(LARGE, 0.4, 2.0, -1.0, 0.0)
    assert features("pi-aug", d)[-1] == LATERAL_RATIO_CAP
    tiny = dyn_row(LARGE, 1.4, 1.0, -1.0, 1e-9)
    assert features("pi-aug", tiny)[-1] == LATERAL_RATIO_CAP


def test_pi_augmented_rejects_zero_deceleration():
    with pytest.raises(ValueError, match="deceleration must be negative"):
        features("pi-aug", kin_row(SMALL, 1.0, 0.0, 0.1, pose=(0, 0, 0)))


def test_pi_fillers():
    r = kin_row(SMALL, 2.0, -3.0, 0.25)
    vals = features("pi-fillers", r)
    assert len(vals) == 4
    assert vals[-2:] == [2.0, 0.345]
    assert vals[:-2] == features("pi", r)
    # fillers break the cross-vehicle coincidence
    a_long = -3.0 * SMALL.wheelbase_l / LONG.wheelbase_l
    assert features("pi-fillers", kin_row(LONG, 2.0, a_long, 0.25)) != vals


def test_augmented_features():
    r = kin_row(SMALL, 2.0, -3.0, 0.0)
    vals = features("augmented", r)
    assert vals[-1] == 0.0
    assert len(vals) == len(features("baseline", r)) + 1
    r2 = kin_row(SMALL, 2.0, -3.0, 0.4)
    appended = features("augmented", r2)[-1]
    assert appended * SMALL.wheelbase_l / 2.0 == pytest.approx(math.tan(0.4), rel=1e-12)


def test_normalizer():
    m = FeatureMatrix(np.array([[1.0, 0.0], [-2.0, 0.0], [0.5, 0.0]]))
    norm = MaxAbsNormalizer().fit(m)
    out = norm.apply(m)
    assert out.values[:, 0].tolist() == [0.5, -1.0, 0.25]
    assert out.values[:, 1].tolist() == [0.0, 0.0, 0.0]
    assert np.abs(out.values[:, 0]).max() == 1.0
    # test-time value beyond the training max is allowed to leave [-1, 1]
    probe = FeatureMatrix(np.array([[4.0, 1.0]]))
    assert norm.apply(probe).values[0, 0] == 2.0
    with pytest.raises(RuntimeError):
        MaxAbsNormalizer().apply(m)


def test_pca_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
    m = FeatureMatrix(x)
    pca = PcaTransform(4).fit(m)
    z = pca.apply(m).values
    x_rec = (z @ pca.components.T) * pca.scale + pca.mean
    rms = np.sqrt(np.mean((x_rec - x) ** 2))
    assert rms <= 1e-10


def test_pca_line_in_2d():
    t = np.linspace(-1, 1, 50)
    m = FeatureMatrix(np.column_stack([t, 3 * t]))
    pca = PcaTransform(1).fit(m)
    z = pca.apply(m).values
    x_rec = (z @ pca.components.T) * pca.scale + pca.mean
    assert np.abs(x_rec - m.values).max() <= 1e-12


def test_pca_validation_and_sign():
    m = FeatureMatrix(np.random.default_rng(1).normal(size=(50, 3)))
    with pytest.raises(ValueError):
        PcaTransform(0).fit(m)
    with pytest.raises(ValueError):
        PcaTransform(4).fit(m)
    with pytest.raises(RuntimeError):
        PcaTransform(2).apply(m)
    pca = PcaTransform(3).fit(m)
    for j in range(3):
        lead = np.argmax(np.abs(pca.components[:, j]))
        assert pca.components[lead, j] > 0


def test_pipeline_fit_required_only_for_stateful():
    ds = merge([kin_row(SMALL, 1.0 + i * 0.5, -1.0 - i, 0.1 * i) for i in range(6)])
    for scheme in ("baseline", "augmented", "pi", "pi-aug", "pi-fillers"):
        make_pipeline(scheme).input_matrix(ds)  # stateless: no fit needed
    with pytest.raises(RuntimeError, match="fit"):
        make_pipeline("normalized").input_matrix(ds)
    with pytest.raises(RuntimeError, match="fit"):
        make_pipeline("pca2").input_matrix(ds)
    got = make_pipeline("normalized").fit(ds).input_matrix(ds)
    assert np.abs(got.values).max() == 1.0


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        make_pipeline("autoencoder")


def _rescaled(d: Dataset, lam: float, tau: float, mass: float) -> Dataset:
    """The same physical experiments expressed in rescaled units."""
    (v,) = d.vehicles
    force = mass * lam / tau**2
    vehicle = VehicleSpec(v.name, v.wheelbase_l * lam, v.front_normal_Nf * force, v.rear_normal_Nr * force)
    scale = {"v_i": lam / tau, "a": lam / tau**2, "g": lam / tau**2, "X": lam, "Y": lam}
    columns = {name: d.columns()[name] * scale.get(name, 1.0) for name in ROW_COLUMNS}
    return Dataset([vehicle], d.vehicle_index, columns, d.source)


@pytest.mark.parametrize("scheme", ["pi", "pi-aug", "pi-fillers"])
def test_pi_schemes_unit_rescale_invariance(scheme):
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = dyn_row(
            LONG,
            float(rng.uniform(0.1, 1.0)),
            float(rng.uniform(0.5, 4.0)),
            -float(rng.uniform(0.5, 9.0)),
            float(rng.uniform(0.01, 0.7)),
        )
        lam, tau, mass = (float(rng.uniform(0.2, 5.0)) for _ in range(3))
        twin = _rescaled(r, lam, tau, mass)
        a = np.array(features(scheme, r))
        b = np.array(features(scheme, twin))
        if scheme == "pi-fillers":  # the fillers are dimensional by design
            a, b = a[:-2], b[:-2]
        np.testing.assert_allclose(b, a, rtol=1e-10)


def test_inverse_targets():
    ds = kin_row(LARGE, 2.0, -3.0, 0.2)
    pi_pipe = make_pipeline("pi")
    out = pi_pipe.inverse_targets(np.array([[2.0, 1.0, 0.3]]), ds)
    np.testing.assert_allclose(out, [[0.95, 0.475, 0.3]], rtol=1e-12)
    base_pipe = make_pipeline("baseline")
    raw = np.array([[2.0, 1.0, 0.3]])
    np.testing.assert_array_equal(base_pipe.inverse_targets(raw, ds), raw)
    with pytest.raises(ValueError, match="shape"):
        pi_pipe.inverse_targets(np.array([[1.0, 2.0]]), ds)


def test_inverse_round_trips_targets():
    ds = merge([kin_row(LONG, 1.0 + i, -2.0, 0.1, pose=(0.3 * i, 0.1 * i, 0.05 * i)) for i in range(1, 5)])
    pipe = make_pipeline("pi")
    y = pipe.target_matrix(ds)
    np.testing.assert_allclose(
        pipe.inverse_targets(y, ds),
        np.column_stack([ds.columns()["X"], ds.columns()["Y"], ds.columns()["theta"]]),
        rtol=1e-12,
    )


def test_features_match_dimension_engine():
    """Dual route: hand-coded features vs the pi-basis transform."""
    from pibrake.dimensions import (
        build_dimension_matrix,
        dynamic_variables,
        repeated_vars_pi_basis,
    )

    m = build_dimension_matrix(dynamic_variables())
    basis = repeated_vars_pi_basis(m, ["l", "v_i", "N_f"])
    ds = dyn_row(LONG, 0.4, 2.5, -3.3, 0.2, pose=(1.1, 0.4, 0.3))
    (r,) = ds
    row = {
        "X": r.outcome.X,
        "Y": r.outcome.Y,
        "theta": r.outcome.theta,
        "mu": r.inputs.mu,
        "v_i": r.inputs.v_i,
        "g": r.inputs.g,
        "a": r.inputs.a,
        "delta": r.inputs.delta,
        "N_f": r.vehicle.front_normal_Nf,
        "N_r": r.vehicle.rear_normal_Nr,
        "l": r.vehicle.wheelbase_l,
    }
    vals = features("pi", ds)
    assert vals[0] == pytest.approx(basis.group_for("a")(row), rel=1e-12)
    assert vals[1] == pytest.approx(basis.group_for("delta")(row), rel=1e-12)
    # engine emits the axle ratio as N_r/N_f; the feature uses the reciprocal
    assert vals[2] == pytest.approx(1.0 / basis.group_for("N_r")(row), rel=1e-12)
    assert vals[3] == pytest.approx(basis.group_for("mu")(row), rel=1e-12)
    assert vals[4] == pytest.approx(basis.group_for("g")(row), rel=1e-12)
    pipe = make_pipeline("pi")
    y = pipe.target_matrix(ds)[0]
    assert y[0] == pytest.approx(basis.group_for("X")(row), rel=1e-12)
    assert y[1] == pytest.approx(basis.group_for("Y")(row), rel=1e-12)
    assert y[2] == pytest.approx(basis.group_for("theta")(row), rel=1e-12)


def small_grid(source, vehicle):
    if source == "kinematic":
        grid = {"v_i": (0.5, 3.0, 4), "a_g": (0.2, 1.0, 3), "delta": (0.0, 0.7854, 3)}
        return kinematic_grid(vehicle, step=1e-2, grid=grid)
    grid = {"mu": (0.2, 0.9), "v_i": (1.0, 3.0, 3), "a_g": (0.2, 1.0, 3), "delta": (0.0, 0.7854)}
    return surrogate_grid(vehicle, 0, step=1e-2, grid=grid)


@pytest.mark.parametrize("source", ["kinematic", "surrogate"])
def test_derived_pi_columns_are_the_closed_forms_bit_for_bit(source):
    d = merge([small_grid(source, v) for v in (SMALL, LONG, LARGE)])
    c = d.columns()
    pi_inputs = [c["a"] * c["l"] / c["v_i"] ** 2, c["delta"]]
    if source == "surrogate":
        pi_inputs += [c["Nf"] / c["Nr"], c["mu"], c["g"] * c["l"] / c["v_i"] ** 2]
    pi_inputs = np.column_stack(pi_inputs)
    pi_targets = np.column_stack([c["X"] / c["l"], c["Y"] / c["l"], c["theta"]])
    k = pi_inputs.shape[1]
    for scheme in ("pi", "pi-aug", "pi-fillers"):
        pipe = make_pipeline(scheme)
        assert np.array_equal(pipe.input_matrix(d).values[:, :k], pi_inputs)
        y = pipe.target_matrix(d)
        assert np.array_equal(y, pi_targets)
        physical = np.column_stack([y[:, 0] * c["l"], y[:, 1] * c["l"], y[:, 2]])
        assert np.array_equal(pipe.inverse_targets(y, d), physical)
        columns = features_module._SCHEME_INPUTS[scheme][source].values()
        groups = [f for f in columns if isinstance(f, PiGroup)]
        assert len(groups) == k
        assert all(g.dimension() == DIMENSIONLESS for g in groups)
    fillers = make_pipeline("pi-fillers").input_matrix(d).values[:, k:]
    assert np.array_equal(fillers, np.column_stack([c["v_i"], c["l"]]))


def test_scheme_registry_complete():
    assert SCHEME_NAMES == ("baseline", "normalized", "pca2", "pca3", "augmented", "pi", "pi-aug", "pi-fillers")
