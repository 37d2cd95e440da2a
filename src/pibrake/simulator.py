"""Final-pose simulation of constant-input braking maneuvers.

The vehicle follows the planar kinematic bicycle model with state
(X, Y, theta, v) and derivatives (v cos(theta), v sin(theta),
v tan(delta)/l, a), starting at the origin with speed v_i and braking at a
constant rate until v reaches zero.  Three generators are provided:

* ``simulate_kinematic``  -- fixed-step RK4 with the stop event (v = 0)
  resolved by linear interpolation inside the final step;
* ``analytic_arc_oracle`` -- closed-form reference: with constant inputs the
  path is a circular arc of radius l/tan(delta) and length v_i^2/(2|a|);
* ``simulate_dynamic_surrogate`` -- a synthetic friction-limited variant
  standing in for physical test data: commanded deceleration saturates at
  the rear-axle adherence limit, the turn radius widens when the lateral
  adherence limit is exceeded, and seeded Gaussian noise is added to the
  final pose.  It is a labeled stand-in, not calibrated to any real robot.

Batch variants integrate whole input grids in lockstep with numpy.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

STANDARD_GRAVITY = 9.81

DEFAULT_STEP = 1e-3
# RK4 steps one maneuver may take; the default grids need at most 5097
MAX_RK4_STEPS = 10**6
SURROGATE_SIGMA_XY = 0.005
SURROGATE_SIGMA_THETA = 0.01
DELTA_LIMIT = math.pi / 2
MU_MAX = 1.5

# maneuver input -> (test on a number or a numpy column, rule); every boundary
# that takes an input checks this rule: ManeuverInput, the batch kernel, the
# surrogate's saturation, Dataset and the config grid axes
INPUT_RULES = {
    "v_i": (lambda v: v > 0, "initial speed must be positive"),
    "a": (lambda a: a < 0, "deceleration must be negative: a maneuver that does not brake never terminates"),
    "delta": (lambda d: abs(d) < DELTA_LIMIT, "steering angle must satisfy |delta| < pi/2"),
    "mu": (
        lambda mu: (0 < mu) & (mu <= MU_MAX),
        f"the surrogate needs a friction coefficient mu in (0, {MU_MAX}]",
    ),
    "g": (lambda g: g > 0, "gravity must be positive"),
}


def check_inputs(**values) -> None:
    """Raise ``ValueError`` naming the first value that breaks its input's rule
    in :data:`INPUT_RULES`; each value is a number, a numpy column, or None
    (a missing value, which breaks every rule)."""
    for name, value in values.items():
        ok, rule = INPUT_RULES[name]
        value = np.asarray(value, dtype=float)
        good = ok(value)
        if not good.all():
            raise ValueError(f"{rule}, got {name}={value[~good].flat[0]}")


@dataclass(frozen=True)
class VehicleSpec:
    """Geometry and static axle loads of one car-like vehicle."""

    name: str
    wheelbase_l: float
    front_normal_Nf: float
    rear_normal_Nr: float

    def __post_init__(self):
        if self.wheelbase_l <= 0 or self.front_normal_Nf <= 0 or self.rear_normal_Nr <= 0:
            raise ValueError(f"vehicle {self.name!r}: l, Nf, Nr must all be positive")


@dataclass(frozen=True)
class ManeuverInput:
    """Constant control inputs and environment for one braking maneuver."""

    v_i: float
    a: float
    delta: float
    mu: float | None = None
    g: float = STANDARD_GRAVITY

    def __post_init__(self):
        check_inputs(**{name: value for name, value in vars(self).items() if value is not None})


@dataclass(frozen=True)
class FinalPose:
    """Pose of the vehicle once it has come to rest."""

    X: float
    Y: float
    theta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.X, self.Y, self.theta)):
            raise ValueError(f"non-finite final pose {(self.X, self.Y, self.theta)}")


def _require_step_budget(v_i: np.ndarray, a: np.ndarray, step: float) -> None:
    """Reject any maneuver whose stop takes ceil(v_i / |a| / step) > ``MAX_RK4_STEPS`` steps."""
    steps = np.ceil(v_i / np.abs(a) / step)
    over = np.flatnonzero(steps > MAX_RK4_STEPS)
    if over.size:
        i = over[0]
        raise ValueError(
            f"maneuver v_i={v_i[i]}, a={a[i]} needs {steps[i]:.0f} RK4 steps of step={step}, "
            f"over the budget of {MAX_RK4_STEPS}"
        )


def _integrate_kinematic(
    l: float, v_i: float, a: float, delta: float, step: float
) -> tuple[float, float, float, float]:
    """RK4 trajectory until v crosses 0; returns (X, Y, theta, terminal speed)."""
    _require_step_budget(np.array([v_i]), np.array([a]), step)
    tl = math.tan(delta) / l
    x = y = th = 0.0
    v = v_i
    h = step
    while True:
        if v + a * h <= 0.0:
            h = -v / a  # linear in time: the zero crossing is exact
        k1x, k1y, k1t = v * math.cos(th), v * math.sin(th), v * tl
        v2 = v + 0.5 * h * a
        th2 = th + 0.5 * h * k1t
        k2x, k2y, k2t = v2 * math.cos(th2), v2 * math.sin(th2), v2 * tl
        th3 = th + 0.5 * h * k2t
        k3x, k3y, k3t = v2 * math.cos(th3), v2 * math.sin(th3), v2 * tl
        v4 = v + h * a
        th4 = th + h * k3t
        k4x, k4y, k4t = v4 * math.cos(th4), v4 * math.sin(th4), v4 * tl
        x += h / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y += h / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        th += h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        v += h * a
        if h < step:
            break
        if v <= 0.0:
            break
    if 0.0 < v < 1e-12:
        v = 0.0
    return x, y, th, v


def simulate_kinematic(
    vehicle: VehicleSpec, m: ManeuverInput, step: float = DEFAULT_STEP
) -> FinalPose:
    """Integrate one braking maneuver with RK4 until the vehicle stops."""
    if not step > 0:
        raise ValueError(f"step must be positive, got {step}")
    x, y, th, _ = _integrate_kinematic(vehicle.wheelbase_l, m.v_i, m.a, m.delta, step)
    return FinalPose(x, y, th)


def analytic_arc_oracle(vehicle: VehicleSpec, m: ManeuverInput) -> FinalPose:
    """Closed-form final pose: arc of radius l/tan(delta), length v_i^2/(2|a|)."""
    s = m.v_i * m.v_i / (2.0 * abs(m.a))
    if m.delta == 0.0:
        return FinalPose(s, 0.0, 0.0)
    r = vehicle.wheelbase_l / math.tan(m.delta)
    theta_f = s / r
    return FinalPose(r * math.sin(theta_f), r * (1.0 - math.cos(theta_f)), theta_f)


def _add_k(sx: np.ndarray, sy: np.ndarray, v: np.ndarray, th: np.ndarray, weight: float) -> None:
    """Add weight * (v cos(th), v sin(th)) to (sx, sy) in place."""
    for acc, k in ((sx, np.cos(th)), (sy, np.sin(th))):
        np.multiply(v, k, out=k)
        if weight != 1.0:
            np.multiply(weight, k, out=k)
        np.add(acc, k, out=acc)


def simulate_kinematic_batch(
    wheelbase_l: float | np.ndarray,
    v_i: np.ndarray,
    a: np.ndarray,
    delta: np.ndarray,
    step: float = DEFAULT_STEP,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized RK4 over many maneuvers in lockstep.

    ``wheelbase_l`` is one value for every row or one per row, so the grids
    of several vehicles sharing a step run as one batch.  Rows are sorted by
    stopping time internally so the active set shrinks to a slice; each row
    takes full steps of ``step`` and one final partial step solving v = 0.
    Every row's arithmetic is that of :func:`simulate_kinematic` and does not
    depend on the other rows, so a row's pose is the same in any batch.
    """
    v_i = np.asarray(v_i, dtype=float)
    a = np.asarray(a, dtype=float)
    delta = np.asarray(delta, dtype=float)
    wheelbase_l = np.broadcast_to(np.asarray(wheelbase_l, dtype=float), v_i.shape)
    check_inputs(v_i=v_i, a=a, delta=delta)
    if np.any(wheelbase_l <= 0):
        raise ValueError("all wheelbases must be positive")
    _require_step_budget(v_i, a, step)
    n = len(v_i)
    order = np.argsort(-(v_i / -a), kind="stable")
    V = v_i[order].copy()
    A = a[order].copy()
    TL = np.tan(delta[order]) / wheelbase_l[order]
    X = np.zeros(n)
    Y = np.zeros(n)
    TH = np.zeros(n)
    pos = order.copy()
    X_out, Y_out, TH_out = np.zeros(n), np.zeros(n), np.zeros(n)
    # work arrays, sliced to the active rows each iteration; one block per
    # column, since a single (9, n) block left the peak RSS of a kinematic
    # matrix run 3 MB higher in 3 of 12 runs
    full_buf = np.empty(n, dtype=bool)
    h_buf, half_buf, v2_buf, v4_buf, th_buf, kt_buf, sx_buf, sy_buf, st_buf = (np.empty(n) for _ in range(9))

    end = n
    while end > 0:
        v, th, tl, aa = V[:end], TH[:end], TL[:end], A[:end]
        full, h, half = full_buf[:end], h_buf[:end], half_buf[:end]
        v2, v4, thk, kt = v2_buf[:end], v4_buf[:end], th_buf[:end], kt_buf[:end]
        sx, sy, st = sx_buf[:end], sy_buf[:end], st_buf[:end]
        # full = v + a*step > 0; h = step, or -v/a on a row's last step
        np.multiply(aa, step, out=h)
        np.add(v, h, out=h)
        np.greater(h, 0.0, out=full)
        np.negative(v, out=h)
        np.divide(h, aa, out=h)
        np.copyto(h, step, where=full)
        np.multiply(0.5, h, out=half)
        # k1 starts the running sums ((k1 + 2 k2) + 2 k3) + k4
        c = np.cos(th)
        np.multiply(v, c, out=sx)
        np.sin(th, out=c)
        np.multiply(v, c, out=sy)
        np.multiply(v, tl, out=st)
        # v2 = v + 0.5*h*a, th2 = th + 0.5*h*k1t
        np.multiply(half, aa, out=v2)
        np.add(v, v2, out=v2)
        np.multiply(half, st, out=thk)
        np.add(th, thk, out=thk)
        _add_k(sx, sy, v2, thk, 2.0)
        np.multiply(v2, tl, out=kt)  # k2t
        np.multiply(half, kt, out=thk)  # th3 = th + 0.5*h*k2t
        np.add(th, thk, out=thk)
        np.multiply(2.0, kt, out=kt)
        np.add(st, kt, out=st)
        _add_k(sx, sy, v2, thk, 2.0)
        np.multiply(v2, tl, out=kt)  # k3t
        np.multiply(h, kt, out=thk)  # th4 = th + h*k3t
        np.add(th, thk, out=thk)
        np.multiply(2.0, kt, out=kt)
        np.add(st, kt, out=st)
        np.multiply(h, aa, out=v4)  # v4 = v + h*a
        np.add(v, v4, out=v4)
        _add_k(sx, sy, v4, thk, 1.0)
        np.multiply(v4, tl, out=kt)  # k4t
        np.add(st, kt, out=st)
        # X += h/6 * sum, likewise Y and theta; v += h*a is v4
        np.divide(h, 6.0, out=half)
        for acc, s in ((X[:end], sx), (Y[:end], sy), (th, st)):
            np.multiply(half, s, out=s)
            np.add(acc, s, out=acc)
        np.copyto(v, v4)
        if not full.all():
            done = np.nonzero(~full)[0]
            X_out[pos[done]] = X[done]
            Y_out[pos[done]] = Y[done]
            TH_out[pos[done]] = TH[done]
            keep = np.nonzero(full)[0]
            m = len(keep)
            for arr in (X, Y, TH, V, A, TL, pos):
                arr[:m] = arr[keep]
            end = m
    return X_out, Y_out, TH_out


def calibrate_step(vehicle: VehicleSpec, tol: float = 1e-6, initial: float = DEFAULT_STEP) -> float:
    """Halve the RK4 step until a demanding probe maneuver agrees with the
    analytic oracle to within ``tol`` on every pose component."""
    probe = ManeuverInput(v_i=5.0, a=-0.981, delta=0.7854)
    step = initial
    while True:
        got = simulate_kinematic(vehicle, probe, step)
        ref = analytic_arc_oracle(vehicle, probe)
        err = max(abs(got.X - ref.X), abs(got.Y - ref.Y), abs(got.theta - ref.theta))
        if err <= tol:
            return step
        step /= 2.0
        if step < 1e-7 or probe.v_i / -probe.a / step > MAX_RK4_STEPS:
            raise RuntimeError(f"RK4 step calibration failed to converge: error {err} > tol {tol}")


def _saturated_inputs(
    vehicle: VehicleSpec, mu: float, v_i: float, a: float, delta: float, g: float
) -> tuple[float, float]:
    """Apply rear-axle and lateral adherence limits to (a, delta); the caller checks ``mu``."""
    limit = mu * g * vehicle.rear_normal_Nr / (vehicle.front_normal_Nf + vehicle.rear_normal_Nr)
    a_eff = -min(abs(a), limit)
    delta_eff = delta
    tan_d = math.tan(delta)
    if tan_d != 0.0:
        radius = vehicle.wheelbase_l / abs(tan_d)
        if mu * g * radius < v_i * v_i:
            radius_eff = v_i * v_i / (mu * g)
            delta_eff = math.copysign(math.atan(vehicle.wheelbase_l / radius_eff), delta)
    return a_eff, delta_eff


def record_noise_seed(seed: int, vehicle_name: str, index: int) -> int:
    """Stable per-record noise seed derived from a dataset seed."""
    ss = np.random.SeedSequence([seed, zlib.crc32(vehicle_name.encode()), index])
    return int(ss.generate_state(1, np.uint64)[0])


def simulate_dynamic_surrogate(
    vehicle: VehicleSpec,
    m: ManeuverInput,
    noise_seed: int,
    sigma_xy: float = SURROGATE_SIGMA_XY,
    sigma_theta: float = SURROGATE_SIGMA_THETA,
) -> FinalPose:
    """Friction-limited braking outcome with measurement-like noise.

    The kinematic trajectory is integrated with effective inputs: the
    deceleration saturates at mu*g*Nr/(Nf+Nr) and, when the lateral
    adherence limit is exceeded, the turn radius widens to v_i^2/(mu*g).
    Gaussian noise (``sigma_xy`` on X and Y, ``sigma_theta`` on theta) is
    drawn from ``noise_seed``; pass zero sigmas to disable it.
    """
    check_inputs(mu=m.mu)
    a_eff, delta_eff = _saturated_inputs(vehicle, m.mu, m.v_i, m.a, m.delta, m.g)
    x, y, th, _ = _integrate_kinematic(vehicle.wheelbase_l, m.v_i, a_eff, delta_eff, DEFAULT_STEP)
    rng = np.random.default_rng(noise_seed)
    dx = float(rng.normal(0.0, sigma_xy))
    dy = float(rng.normal(0.0, sigma_xy))
    dth = float(rng.normal(0.0, sigma_theta))
    return FinalPose(x + dx, y + dy, th + dth)


def saturate_batch(
    vehicle: VehicleSpec, mu: np.ndarray, v_i: np.ndarray, a: np.ndarray, delta: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Effective (a, delta) of every row under the adherence limits, row by row as the scalar surrogate."""
    check_inputs(mu=mu)
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in (mu, v_i, a, delta, g)))
    pairs = np.array([_saturated_inputs(vehicle, *row) for row in rows], dtype=float).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def add_surrogate_noise(
    vehicle_name: str,
    seed: int,
    X: np.ndarray,
    Y: np.ndarray,
    TH: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Add the measurement noise in place; row i draws from ``record_noise_seed(seed, vehicle_name, i)``."""
    for i in range(len(X)):
        rng = np.random.default_rng(record_noise_seed(seed, vehicle_name, i))
        X[i] += rng.normal(0.0, SURROGATE_SIGMA_XY)
        Y[i] += rng.normal(0.0, SURROGATE_SIGMA_XY)
        TH[i] += rng.normal(0.0, SURROGATE_SIGMA_THETA)
    return X, Y, TH


def simulate_surrogate_batch(
    vehicle: VehicleSpec,
    mu: np.ndarray,
    v_i: np.ndarray,
    a: np.ndarray,
    delta: np.ndarray,
    g: np.ndarray,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized surrogate over a grid: saturation, the lockstep kernel, then the noise."""
    a_eff, delta_eff = saturate_batch(vehicle, mu, v_i, a, delta, g)
    X, Y, TH = simulate_kinematic_batch(vehicle.wheelbase_l, v_i, a_eff, delta_eff)
    return add_surrogate_noise(vehicle.name, seed, X, Y, TH)
