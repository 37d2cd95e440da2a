import math
import re
import time

import numpy as np
import pytest

from pibrake import simulator
from pibrake.config import load_run_config
from pibrake.dataset import DEFAULT_VEHICLES, ROW_COLUMNS, Dataset, generate
from pibrake.simulator import (
    INPUT_RULES,
    FinalPose,
    ManeuverInput,
    VehicleSpec,
    analytic_arc_oracle,
    calibrate_step,
    record_noise_seed,
    simulate_dynamic_surrogate,
    simulate_kinematic,
    simulate_kinematic_batch,
    simulate_surrogate_batch,
    _integrate_kinematic,
)

SMALL = VehicleSpec("small", 0.345, 37.77, 28.84)
LONG = VehicleSpec("long", 0.853, 22.74, 52.89)
LARGE = VehicleSpec("large", 0.475, 71.12, 71.12)


def test_validation():
    with pytest.raises(ValueError):
        VehicleSpec("bad", -1.0, 10.0, 10.0)
    with pytest.raises(ValueError):
        ManeuverInput(v_i=0.0, a=-1.0, delta=0.0)
    with pytest.raises(ValueError):
        ManeuverInput(v_i=1.0, a=-1.0, delta=1.6)
    with pytest.raises(ValueError):
        FinalPose(math.nan, 0.0, 0.0)


def test_straight_line_stop():
    pose = simulate_kinematic(LARGE, ManeuverInput(v_i=1.0, a=-0.5, delta=0.0))
    assert pose.X == pytest.approx(1.0, abs=1e-9)
    assert pose.Y == 0.0
    assert pose.theta == 0.0


def test_rejects_non_braking():
    with pytest.raises(ValueError, match="terminat"):
        simulate_kinematic(LARGE, ManeuverInput(v_i=1.0, a=0.0, delta=0.0))
    with pytest.raises(ValueError, match="terminat"):
        analytic_arc_oracle(LARGE, ManeuverInput(v_i=1.0, a=0.5, delta=0.0))
    with pytest.raises(ValueError, match="step"):
        simulate_kinematic(LARGE, ManeuverInput(v_i=1.0, a=-0.5, delta=0.0), step=0.0)


def test_oracle_straight_and_full_circle():
    assert analytic_arc_oracle(LARGE, ManeuverInput(v_i=1.0, a=-0.5, delta=0.0)) == FinalPose(1.0, 0.0, 0.0)
    # arc length exactly one full circle: 2*pi*R with R = l / tan(delta)
    delta = math.pi / 4
    radius = LARGE.wheelbase_l / math.tan(delta)
    v_i = 2.0
    a = -(v_i**2) / (2 * (2 * math.pi * radius))
    pose = analytic_arc_oracle(LARGE, ManeuverInput(v_i=v_i, a=a, delta=delta))
    assert pose.X == pytest.approx(0.0, abs=1e-12)
    assert pose.Y == pytest.approx(0.0, abs=1e-12)
    assert pose.theta == pytest.approx(2 * math.pi, rel=1e-12)


def test_rk4_matches_oracle_hard_case():
    m = ManeuverInput(v_i=2.0, a=-4.905, delta=0.7854)
    got = simulate_kinematic(LARGE, m)
    ref = analytic_arc_oracle(LARGE, m)
    assert got.X == pytest.approx(ref.X, abs=1e-6)
    assert got.Y == pytest.approx(ref.Y, abs=1e-6)
    assert got.theta == pytest.approx(ref.theta, abs=1e-6)
    # the arc formulas pin the reference values themselves
    s = m.v_i**2 / (2 * abs(m.a))
    r = LARGE.wheelbase_l / math.tan(m.delta)
    assert ref.theta == pytest.approx(s / r, rel=1e-12)
    assert ref.X == pytest.approx(r * math.sin(s / r), rel=1e-12)
    assert ref.Y == pytest.approx(r * (1 - math.cos(s / r)), rel=1e-12)


def test_rk4_matches_oracle_long_gentle_case():
    m = ManeuverInput(v_i=5.0, a=-0.981, delta=0.0785)
    got = simulate_kinematic(SMALL, m)
    ref = analytic_arc_oracle(SMALL, m)
    for attr in ("X", "Y", "theta"):
        assert getattr(got, attr) == pytest.approx(getattr(ref, attr), abs=1e-6)


def test_mirror_symmetry():
    m_pos = ManeuverInput(v_i=3.0, a=-2.0, delta=0.4)
    m_neg = ManeuverInput(v_i=3.0, a=-2.0, delta=-0.4)
    p = simulate_kinematic(SMALL, m_pos)
    q = simulate_kinematic(SMALL, m_neg)
    assert q.X == pytest.approx(p.X, abs=1e-12)
    assert q.Y == pytest.approx(-p.Y, abs=1e-12)
    assert q.theta == pytest.approx(-p.theta, abs=1e-12)


def test_terminal_speed_within_tolerance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        v_i = rng.uniform(0.1, 5.0)
        a = -rng.uniform(0.981, 9.81)
        delta = rng.uniform(0.0, 0.7854)
        *_, v_end = _integrate_kinematic(0.475, v_i, a, delta, 1e-3)
        assert -1e-9 <= v_end <= 0.0


def test_path_chord_bounded_by_arc_length():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = ManeuverInput(
            v_i=rng.uniform(0.1, 5.0), a=-rng.uniform(0.981, 9.81), delta=rng.uniform(0, 0.7854)
        )
        pose = simulate_kinematic(LONG, m)
        s = m.v_i**2 / (2 * abs(m.a))
        assert math.hypot(pose.X, pose.Y) <= s + 1e-9


def test_batch_matches_scalar():
    rng = np.random.default_rng(7)
    n = 40
    v = rng.uniform(0.1, 5.0, n)
    a = -rng.uniform(0.981, 9.81, n)
    d = rng.uniform(0.0, 0.7854, n)
    X, Y, TH = simulate_kinematic_batch(LONG.wheelbase_l, v, a, d)
    for i in range(n):
        p = simulate_kinematic(LONG, ManeuverInput(float(v[i]), float(a[i]), float(d[i])))
        assert abs(p.X - X[i]) <= 1e-12
        assert abs(p.Y - Y[i]) <= 1e-12
        assert abs(p.theta - TH[i]) <= 1e-12


def test_batch_with_a_wheelbase_per_row_matches_one_vehicle_batches():
    rng = np.random.default_rng(9)
    n = 30
    vehicles = (SMALL, LONG, LARGE)
    v = rng.uniform(0.1, 5.0, 3 * n)
    a = -rng.uniform(0.981, 9.81, 3 * n)
    d = rng.uniform(-0.7854, 0.7854, 3 * n)
    l = np.repeat([veh.wheelbase_l for veh in vehicles], n)
    together = simulate_kinematic_batch(l, v, a, d)
    for k, vehicle in enumerate(vehicles):
        rows = slice(k * n, (k + 1) * n)
        alone = simulate_kinematic_batch(vehicle.wheelbase_l, v[rows], a[rows], d[rows])
        for got, want in zip(together, alone):
            np.testing.assert_array_equal(got[rows], want)


def test_pi_similarity_across_vehicles():
    # equal (a l / v_i^2, delta) must give equal (X/l, Y/l, theta)
    cases = [(2.0, -3.0, 0.3), (1.5, -1.2, 0.0), (4.0, -6.0, 0.7), (0.8, -0.981, 0.15)]
    for v_i, a_small, delta in cases:
        a_long = a_small * SMALL.wheelbase_l / LONG.wheelbase_l
        p_small = simulate_kinematic(SMALL, ManeuverInput(v_i, a_small, delta))
        p_long = simulate_kinematic(LONG, ManeuverInput(v_i, a_long, delta))
        assert p_small.X / SMALL.wheelbase_l == pytest.approx(p_long.X / LONG.wheelbase_l, abs=1e-8)
        assert p_small.Y / SMALL.wheelbase_l == pytest.approx(p_long.Y / LONG.wheelbase_l, abs=1e-8)
        assert p_small.theta == pytest.approx(p_long.theta, abs=1e-8)


def test_calibrate_step_accepts_default():
    assert calibrate_step(SMALL) == pytest.approx(1e-3)


def test_surrogate_no_saturation_equals_kinematic():
    # high friction, gentle braking: both adherence ratios above 1
    m = ManeuverInput(v_i=1.0, a=-0.981, delta=0.3927, mu=0.9)
    limit = m.mu * m.g * SMALL.rear_normal_Nr / (SMALL.front_normal_Nf + SMALL.rear_normal_Nr)
    radius = SMALL.wheelbase_l / math.tan(m.delta)
    assert abs(m.a) < limit and m.mu * m.g * radius > m.v_i**2
    plain = simulate_kinematic(SMALL, m)
    quiet = simulate_dynamic_surrogate(SMALL, m, noise_seed=1, sigma_xy=0.0, sigma_theta=0.0)
    assert (quiet.X, quiet.Y, quiet.theta) == (plain.X, plain.Y, plain.theta)


def test_surrogate_longitudinal_saturation_stop_distance():
    m = ManeuverInput(v_i=2.0, a=-9.81, delta=0.0, mu=0.2)
    limit = m.mu * m.g * SMALL.rear_normal_Nr / (SMALL.front_normal_Nf + SMALL.rear_normal_Nr)
    assert abs(m.a) > limit
    pose = simulate_dynamic_surrogate(SMALL, m, noise_seed=1, sigma_xy=0.0, sigma_theta=0.0)
    assert pose.X == pytest.approx(m.v_i**2 / (2 * limit), abs=1e-6)
    assert pose.Y == 0.0


def test_surrogate_lateral_saturation_widens_radius():
    m = ManeuverInput(v_i=3.0, a=-0.981, delta=0.7854, mu=0.2)
    radius = SMALL.wheelbase_l / math.tan(m.delta)
    assert m.mu * m.g * radius < m.v_i**2
    pose = simulate_dynamic_surrogate(SMALL, m, noise_seed=1, sigma_xy=0.0, sigma_theta=0.0)
    widened = ManeuverInput(
        v_i=m.v_i,
        a=max(m.a, -m.mu * m.g * SMALL.rear_normal_Nr / (SMALL.front_normal_Nf + SMALL.rear_normal_Nr)),
        delta=math.atan(SMALL.wheelbase_l / (m.v_i**2 / (m.mu * m.g))),
    )
    ref = simulate_kinematic(SMALL, widened)
    assert (pose.X, pose.Y, pose.theta) == (ref.X, ref.Y, ref.theta)
    # less curved than the no-slip trajectory would be
    no_slip = analytic_arc_oracle(SMALL, ManeuverInput(m.v_i, widened.a, m.delta))
    assert abs(pose.theta) < abs(no_slip.theta)


def test_surrogate_determinism_and_noise():
    m = ManeuverInput(v_i=2.0, a=-3.0, delta=0.3, mu=0.4)
    a = simulate_dynamic_surrogate(SMALL, m, noise_seed=42)
    b = simulate_dynamic_surrogate(SMALL, m, noise_seed=42)
    c = simulate_dynamic_surrogate(SMALL, m, noise_seed=43)
    assert (a.X, a.Y, a.theta) == (b.X, b.Y, b.theta)
    assert (a.X, a.Y, a.theta) != (c.X, c.Y, c.theta)


def test_surrogate_rejects_bad_mu():
    with pytest.raises(ValueError, match="mu"):
        simulate_dynamic_surrogate(SMALL, ManeuverInput(1.0, -1.0, 0.0, mu=0.0), 0)
    with pytest.raises(ValueError, match="mu"):
        simulate_dynamic_surrogate(SMALL, ManeuverInput(1.0, -1.0, 0.0, mu=None), 0)
    with pytest.raises(ValueError, match="mu"):
        simulate_dynamic_surrogate(SMALL, ManeuverInput(1.0, -1.0, 0.0, mu=2.0), 0)
    for mu in (0.0, 2.0):
        with pytest.raises(ValueError, match=r"mu in \(0, 1\.5\]"):
            simulate_surrogate_batch(SMALL, *(np.array([v]) for v in (mu, 1.0, -1.0, 0.0, 9.81)), seed=0)


def test_surrogate_batch_matches_scalar():
    rng = np.random.default_rng(8)
    n = 12
    mu = rng.choice([0.2, 0.4, 0.9], n)
    v = rng.uniform(1.0, 3.5, n)
    a = -rng.uniform(0.981, 9.81, n)
    d = rng.choice([0.0, 0.3927, 0.7854], n)
    g = np.full(n, 9.81)
    X, Y, TH = simulate_surrogate_batch(LARGE, mu, v, a, d, g, seed=11)
    for i in range(n):
        m = ManeuverInput(float(v[i]), float(a[i]), float(d[i]), mu=float(mu[i]))
        p = simulate_dynamic_surrogate(LARGE, m, record_noise_seed(11, LARGE.name, i))
        assert (p.X, p.Y, p.theta) == (X[i], Y[i], TH[i])


def test_generated_surrogate_rows_match_scalar():
    # the path `generate` runs: all vehicles in one lockstep batch, then saturation and noise
    grid = {"mu": (0.2, 0.9), "v_i": (1.0, 3.5, 2), "a_g": (0.2, 1.0, 3), "delta": (0.0, 0.7854)}
    datasets = generate(DEFAULT_VEHICLES.values(), "surrogate", seed=5, grid=grid)
    for v in DEFAULT_VEHICLES.values():
        c = datasets[v.name].columns()
        assert len(c["v_i"]) == 24
        for i in range(24):
            m = ManeuverInput(float(c["v_i"][i]), float(c["a"][i]), float(c["delta"][i]), mu=float(c["mu"][i]))
            p = simulate_dynamic_surrogate(v, m, record_noise_seed(5, v.name, i))
            assert (p.X, p.Y, p.theta) == (c["X"][i], c["Y"][i], c["theta"][i])


def test_step_budget_rejects_endless_maneuver():
    # 50 m/s at 1 mm/s^2 needs 5e7 steps of 1 ms: a hang without the budget
    pattern = r"v_i=50\.0, a=-0\.001 needs 50000000 RK4 steps of step=0\.001"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=pattern):
        simulate_kinematic(LONG, ManeuverInput(50.0, -1e-3, 0.2))
    with pytest.raises(ValueError, match=pattern):
        simulate_kinematic_batch(LONG.wheelbase_l, np.array([2.0, 50.0]), np.array([-1.0, -1e-3]), np.zeros(2))
    assert time.perf_counter() - start < 1.0


def test_calibrate_step_fails_clearly_at_the_budget(monkeypatch):
    # the default probe needs 510 steps of 1e-2 s, and 1020 once the step halves
    monkeypatch.setattr(simulator, "MAX_RK4_STEPS", 1000)
    with pytest.raises(RuntimeError, match="failed to converge"):
        calibrate_step(SMALL, tol=1e-300, initial=1e-2)


VALID_INPUTS = {"v_i": 1.0, "a": -1.0, "delta": 0.1, "mu": 0.4, "g": 9.81}
# per input: a value that breaks its rule, and the [grid.surrogate] line that
# gives it (g has no grid axis; a_g is the braking level, a = -g * a_g)
BROKEN_INPUTS = {
    "v_i": (0.0, "v_i = 0.0, 3.0, 3"),
    "a": (0.0, "a_g = 0.0, 1.0, 3"),
    "delta": (1.6, "delta = 1.6"),
    "mu": (5.0, "mu = 5.0"),
    "g": (-9.81, None),
}


@pytest.mark.parametrize("name", INPUT_RULES)
def test_every_boundary_that_takes_an_input_enforces_its_rule(tmp_path, name):
    value, grid_line = BROKEN_INPUTS[name]
    inputs = {**VALID_INPUTS, name: value}
    rule = re.escape(INPUT_RULES[name][1])
    with pytest.raises(ValueError, match=rule):
        ManeuverInput(**inputs)
    if name in ("v_i", "a", "delta"):
        with pytest.raises(ValueError, match=rule):
            simulate_kinematic_batch(SMALL.wheelbase_l, *(np.array([inputs[k]]) for k in ("v_i", "a", "delta")))
    columns = {k: np.array([inputs.get(k, 0.0)]) for k in ROW_COLUMNS}
    with pytest.raises(ValueError, match=rule):
        Dataset([SMALL], np.zeros(1, dtype=np.intp), columns, "surrogate")
    if grid_line is not None:
        path = tmp_path / "run.conf"
        path.write_text(f"[grid.surrogate]\n{grid_line}\n")
        with pytest.raises(ValueError, match=rule):
            load_run_config(path)
