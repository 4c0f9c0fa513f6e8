"""Coordinated-flight fixed-wing simulator.

Point-mass kinematics on (position, airspeed, velocity-frame rotation)
with a lift/drag/thrust acceleration model, kinematic wind advection,
quasi-static angle of attack, and a first-order stand-in for the autopilot
attitude inner loop. The translational velocity is x_dot = V_a R e1 + w,
so the coordinated-flight constraint (zero lateral velocity in the frame)
holds on the air-relative velocity by construction. The tick's kernels
and `AircraftState` carry Python floats, so no tick builds a numpy array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flatness import GRAVITY, V_EPS, CommandedInput

RHO_SEA_LEVEL = 1.225
DENSITY_SCALE_HEIGHT = 8500.0
ALTITUDE_RANGE = (-500.0, 10000.0)  # m, where the atmosphere model holds
ALPHA_LIMIT = 0.3
RATE_LIMIT = 2.0


class IntegrationFault(RuntimeError):
    """A step produced a non-finite position or airspeed."""


@dataclass
class AeroParams:
    """Airframe constants for a small powered glider."""

    mass: float = 1.1  # kg
    wing_area: float = 0.3  # m^2
    c_l0: float = 0.28
    c_l_alpha: float = 4.5  # per rad
    c_d0: float = 0.04
    k_induced: float = 0.05
    a_l0: float = 0.0  # m/s^2 baseline lift acceleration
    thrust_max: float = 8.0  # N
    phi_limit: float = 1.0  # rad

    def __post_init__(self):
        for name in ("mass", "wing_area", "c_l_alpha", "thrust_max", "phi_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("c_d0", "k_induced", "a_l0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def a_T_max(self) -> float:
        return self.thrust_max / self.mass


@dataclass
class WindField:
    """Mean wind, three floats, plus a deterministic sinusoidal horizontal gust."""

    mean: tuple = (0.0, 0.0, 0.0)
    gust_amplitude: float = 0.0
    gust_period: float = 60.0
    seed: int = 0

    def __post_init__(self):
        try:
            mean = tuple(map(float, self.mean))
        except (TypeError, ValueError):
            mean = ()
        if len(mean) != 3 or not all(map(math.isfinite, mean)):
            raise ValueError(f"mean must be 3 finite numbers, got {self.mean!r}")
        self.mean = mean
        if self.gust_amplitude < 0:
            raise ValueError("gust_amplitude must be non-negative")
        if not self.gust_period > 0:
            raise ValueError("gust_period must be positive")
        rng = np.random.default_rng(self.seed)
        self._phases = tuple(rng.uniform(0.0, 2.0 * math.pi, size=2).tolist())


def wind_at(wind: WindField, t: float) -> tuple:
    """Wind velocity (east, north, up) at time t, as three floats."""
    if not wind.gust_amplitude > 0.0:
        return wind.mean
    wx, wy, wz = wind.mean
    arg = 2.0 * math.pi * t / wind.gust_period
    return (wx + wind.gust_amplitude * math.sin(arg + wind._phases[0]),
            wy + wind.gust_amplitude * math.sin(arg + wind._phases[1]), wz)


@dataclass(slots=True)
class AircraftState:
    """Inertial position and velocity, three floats each; the velocity-frame
    rotation, row-major as 9 floats; and the air data."""

    x: tuple
    v: tuple
    R: tuple
    alpha: float
    V_a: float


def air_density(x_z: float) -> float:
    """Exponential-atmosphere density at altitude x_z meters."""
    lo, hi = ALTITUDE_RANGE
    if not lo <= x_z <= hi:
        raise ValueError(f"altitude {x_z} m outside supported range [{lo:g}, {hi:g}]")
    return RHO_SEA_LEVEL * math.exp(-x_z / DENSITY_SCALE_HEIGHT)


def _k_dyn(params: AeroParams, V_a: float, x_z: float) -> float:
    """rho V_a^2 S / (2 m) at airspeed V_a and altitude x_z.

    Lift and drag accelerations are this times the lift and drag
    coefficients; only the coefficients depend on the angle of attack.
    """
    return air_density(x_z) * V_a**2 * params.wing_area / (2.0 * params.mass)


def dynamic_accel(params: AeroParams, v, wind, x_z: float) -> float:
    """`_k_dyn` for the air-relative velocity v - wind (three floats each)."""
    (vx, vy, vz), (wx, wy, wz) = v, wind
    vx, vy, vz = vx - wx, vy - wy, vz - wz
    return _k_dyn(params, math.sqrt(vx * vx + vy * vy + vz * vz), x_z)


def aero_accels(params: AeroParams, k_dyn: float, alpha: float):
    """Lift and drag accelerations (a_L, a_D) from `dynamic_accel` and alpha."""
    c_l = params.c_l0 + params.c_l_alpha * alpha
    c_d = params.c_d0 + params.k_induced * c_l**2
    return k_dyn * c_l + params.a_l0, k_dyn * c_d


def input_accels(a_T: float, a_D: float, a_L: float, alpha: float):
    """Axial and normal acceleration inputs from thrust, drag, lift."""
    return a_T * math.cos(alpha) - a_D, -a_T * math.sin(alpha) - a_L


def solve_alpha(params: AeroParams, V_a: float, x_z: float, a_T: float,
                a_vz_req: float) -> float:
    """Quasi-static angle of attack producing the required normal acceleration.

    Solves -a_T*alpha - (k_dyn*(c_l0 + c_l_alpha*alpha) + a_l0) = a_vz_req
    in the small-angle approximation, clamped to +/- ALPHA_LIMIT.
    """
    k_dyn = _k_dyn(params, V_a, x_z)
    denom = a_T + k_dyn * params.c_l_alpha
    if abs(denom) < 1e-9:
        return 0.0
    alpha = (-a_vz_req - k_dyn * params.c_l0 - params.a_l0) / denom
    return min(max(alpha, -ALPHA_LIMIT), ALPHA_LIMIT)


def coordinated_trim(params: AeroParams, V_a: float, a_n_mag: float = 9.81,
                     x_z: float = 0.0):
    """Trim (alpha, a_T) holding airspeed against a normal load of a_n_mag.

    Fixed-point iteration over the drag polar: thrust cancels drag along
    the axis, lift plus the thrust normal component carries the load.
    """
    alpha, a_T = 0.0, 0.0
    k_dyn = _k_dyn(params, V_a, x_z)
    for _ in range(6):
        alpha = solve_alpha(params, V_a, x_z, a_T, -a_n_mag)
        _, a_D = aero_accels(params, k_dyn, alpha)
        a_T = min(max(a_D / math.cos(alpha), 0.0), params.a_T_max)
    return alpha, a_T


def _skew(w):
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


_EYE_1_5 = 1.5 * np.eye(3)


def _orthonormalize(R):
    """Two Newton iterations of the polar projection R(3I - R'R)/2."""
    for _ in range(2):
        R = R @ (_EYE_1_5 - 0.5 * (R.T @ R))
    return R


def _expm_skew(omega_v, h):
    """exp(skew(omega_v)*h) in closed form (Rodrigues), row-major.

    With theta = |omega_v|*h and u = omega_v*h the result is
    cos(theta) I + (sin(theta)/theta) skew(u) + ((1-cos(theta))/theta^2) u u'.
    The coefficients take their Taylor series below theta = 1e-4, so
    theta = 0 needs no division; above it, (1-cos)/theta^2 is formed from
    sin(theta/2) to avoid cancellation.
    """
    wx, wy, wz = omega_v
    ux, uy, uz = wx * h, wy * h, wz * h
    th2 = ux * ux + uy * uy + uz * uz
    if th2 < 1e-8:
        a = 1.0 - th2 / 6.0 + th2 * th2 / 120.0
        b = 0.5 - th2 / 24.0 + th2 * th2 / 720.0
        c = 1.0 - 0.5 * th2 + th2 * th2 / 24.0
    else:
        th = math.sqrt(th2)
        sh = math.sin(0.5 * th) / th
        a = math.sin(th) / th
        b = 2.0 * sh * sh
        c = math.cos(th)
    bxy, bxz, byz = b * ux * uy, b * ux * uz, b * uy * uz
    return (c + b * ux * ux, bxy - a * uz, bxz + a * uy,
            bxy + a * uz, c + b * uy * uy, byz - a * ux,
            bxz - a * uy, byz + a * ux, c + b * uz * uz)


def _matmul3(A, B):
    """Product of two row-major 3x3 matrices."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = A
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = B
    return (a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22)


def _rotation_step(R, omega_v, dt):
    """Exact step of R_dot = R*skew(omega_v) for omega_v held over dt.

    R and the results are row-major 9-tuples, omega_v three floats. Returns
    (Rn, Rh): the new rotation R exp(skew(omega_v) dt), formed as two half
    steps, and the midpoint rotation R exp(skew(omega_v) dt/2). The RK4
    stages of the full state step evaluate the translational derivatives at
    R, Rh, Rh and Rn. A product of exact rotations loses orthonormality only
    through rounding, so no projection follows.
    """
    E = _expm_skew(omega_v, 0.5 * dt)
    Rh = _matmul3(R, E)
    return _matmul3(Rh, E), Rh


def step(state: AircraftState, omega_v, a_vx: float, wind_vec,
         dt: float) -> AircraftState:
    """One integration step of the coordinated kinematics.

    The rotation R_dot = R*skew(omega_v) is advanced exactly for the held
    omega_v (`_rotation_step`); x_dot = V_a R e1 + w and
    V_a_dot = a_vx + (R'g)_x are integrated by RK4 along that exact
    rotation, which keeps the step fourth order. omega_v and the wind w
    are three floats each, as `attitude_inner_loop` and `wind_at` return
    them, and the new state holds floats as the old one does. The normal
    acceleration is realized through the pitch rate omega_v[1] under the
    coordinated constraint, so it has no argument of its own.
    """
    if not 0.0 < dt <= 0.02:
        raise ValueError(f"dt={dt} outside (0, 0.02]")
    if state.V_a <= 1e-9:
        raise ValueError("coordinated model requires positive airspeed")
    wx, wy, wz = wind_vec
    gz = GRAVITY[2]

    R = state.R
    Rn, Rh = _rotation_step(R, omega_v, dt)
    # Velocity axes: the first columns of the stage rotations R, Rh and Rn.
    a0, a1, a2 = R[0::3]
    b0, b1, b2 = Rh[0::3]
    c0, c1, c2 = Rn[0::3]

    # RK4 stages; stages 2 and 3 share the midpoint rotation Rh, so their
    # airspeed derivatives coincide. V_a_dot depends only on the rotation.
    vd1 = a_vx + gz * a2
    vd2 = a_vx + gz * b2
    vd4 = a_vx + gz * c2
    V = state.V_a
    V2 = V + 0.5 * dt * vd1
    V3 = V + 0.5 * dt * vd2
    V4 = V + dt * vd2
    h6 = dt / 6.0
    Vn = V + h6 * (vd1 + 4.0 * vd2 + vd4)
    V23 = 2.0 * (V2 + V3)
    x0, x1, x2 = state.x
    xn = (x0 + h6 * (V * a0 + V23 * b0 + V4 * c0 + 6.0 * wx),
          x1 + h6 * (V * a1 + V23 * b1 + V4 * c1 + 6.0 * wy),
          x2 + h6 * (V * a2 + V23 * b2 + V4 * c2 + 6.0 * wz))

    if not all(map(math.isfinite, (Vn, *xn))):
        raise IntegrationFault("non-finite state after integration step")
    return AircraftState(xn, (Vn * c0 + wx, Vn * c1 + wy, Vn * c2 + wz), Rn,
                         state.alpha, Vn)


def attitude_inner_loop(R, euler, alpha: float, V_a: float, cmd: CommandedInput,
                        tau_att: float, dt: float) -> tuple:
    """First-order attitude tracking: commanded rates plus error feedback.

    R is the row-major velocity-frame rotation and euler its `euler_zyx`
    angles. The yaw-axis rate is not commanded; it follows the
    coordinated-flight constraint at the current state. All rates clamp to
    +/- RATE_LIMIT.
    """
    if tau_att <= 0.0:
        raise ValueError("tau_att must be positive")
    phi, theta_frame, _ = euler
    theta_body = theta_frame + alpha
    tau = max(tau_att, dt)
    p = cmd.omega_vx + (cmd.phi_c - phi) / tau
    q = cmd.omega_vy + (cmd.theta_c - theta_body) / tau
    gx, gy, gz = GRAVITY
    r = (R[1] * gx + R[4] * gy + R[7] * gz) / max(V_a, V_EPS)  # (R'g)_y / V_a
    lim = RATE_LIMIT
    return min(max(p, -lim), lim), min(max(q, -lim), lim), min(max(r, -lim), lim)


# ---------------------------------------------------------------------------
# Reduced flat model: the open-loop plant matching the flatness inversion.


@dataclass
class ReducedState:
    """State of the reduced coordinated model driven by flat inputs."""

    x: np.ndarray
    v: np.ndarray
    R: np.ndarray
    a_vx: float
    a_vz: float


def reduced_derivs(v, R, a_vx: float, a_vz: float, omega_vx: float):
    """(v_dot, R_dot) of the reduced model; x_dot is v itself.

    The pitch and yaw rates are the ones coordination fixes at (v, R, a_vz).
    """
    V = math.sqrt(v @ v)
    g_v = R.T @ GRAVITY
    omega = (omega_vx, -(a_vz + g_v[2]) / V, g_v[1] / V)
    return GRAVITY + R @ np.array([a_vx, 0.0, a_vz]), R @ _skew(omega)


def reduced_step(rs: ReducedState, inputs, dt: float) -> ReducedState:
    """RK4 step of the reduced model under constant flat inputs.

    The acceleration channels a_vx, a_vz have constant rates, on which RK4
    is exact, so their stage values are written in closed form. The new
    rotation is re-orthonormalized.
    """
    a_vx_dot, omega_vx, a_vz_dot = inputs
    h = 0.5 * dt
    x, v, R = rs.x, rs.v, rs.R
    a_vx_h, a_vz_h = rs.a_vx + h * a_vx_dot, rs.a_vz + h * a_vz_dot
    a_vx_n, a_vz_n = rs.a_vx + dt * a_vx_dot, rs.a_vz + dt * a_vz_dot

    dv1, dR1 = reduced_derivs(v, R, rs.a_vx, rs.a_vz, omega_vx)
    v2 = v + h * dv1
    dv2, dR2 = reduced_derivs(v2, R + h * dR1, a_vx_h, a_vz_h, omega_vx)
    v3 = v + h * dv2
    dv3, dR3 = reduced_derivs(v3, R + h * dR2, a_vx_h, a_vz_h, omega_vx)
    v4 = v + dt * dv3
    dv4, dR4 = reduced_derivs(v4, R + dt * dR3, a_vx_n, a_vz_n, omega_vx)
    c = dt / 6.0
    return ReducedState(
        x + c * (v + 2.0 * (v2 + v3) + v4),
        v + c * (dv1 + 2.0 * (dv2 + dv3) + dv4),
        _orthonormalize(R + c * (dR1 + 2.0 * (dR2 + dR3) + dR4)),
        a_vx_n,
        a_vz_n,
    )
