"""Differential-flatness maps for coordinated fixed-wing flight.

Everything here is a pure algebraic function of the flat output (position
and its derivatives): velocity-frame reconstruction, inversion from
commanded jerk to the model inputs, the cascade feedback jerk law, the
coordinated-turn rate constraints, and the arc-length-parameterized
inversion through the 3x3 decoupling matrix. The 100 Hz tick's records
(`FlatState`, `CommandedInput`, `CommandState`) are named tuples of floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GRAVITY = (0.0, 0.0, -9.81)

# Singularity guards: minimum speed, minimum normal acceleration magnitude,
# and minimum axial component of the path tangent in the velocity frame.
V_EPS = 1.0
A_EPS = 0.5
M_EPS = 0.1

# 1/s pull of the integrated acceleration commands toward the reference trim.
_LEAK = 0.5

# Cascade gains k0, k1, k2 on (e, e_dot, e_ddot): all three poles at -2.
CASCADE_GAINS = (8.0, 12.0, 6.0)


class FlatnessSingularityError(RuntimeError):
    """The flat map is not invertible at this state (slow flight or zero normal load)."""


class FlatState(NamedTuple):
    """Flat output sample: position and its first three time derivatives, 3 floats each."""

    position: tuple
    velocity: tuple
    acceleration: tuple
    jerk: tuple


@dataclass(frozen=True)
class CoordinatedFrame:
    """Velocity-frame rotation and the accelerations/rates fixed by coordination."""

    R: np.ndarray  # columns r_x, r_y, r_z: velocity frame -> inertial
    a_vx: float
    a_vz: float
    V: float
    omega_vy: float
    omega_vz: float


class CommandedInput(NamedTuple):
    theta_c: float
    phi_c: float
    omega_vx: float
    omega_vy: float
    a_T: float


@dataclass(frozen=True)
class PathParamState:
    s: float
    s_dot: float
    s_ddot: float

    def __post_init__(self):
        if self.s_dot <= 0.0:
            raise ValueError("path parameterization requires forward progress (s_dot > 0)")


class CommandState(NamedTuple):
    """Integrated axial/normal acceleration commands carried between ticks."""

    a_vx: float
    a_vz: float


# The per-tick kernels below work on Python floats. A rotation is carried as
# its 9 entries in row-major order, (r00, r01, r02, r10, ..., r22).


def _frame(v, a, g):
    """(R, a_vx, a_vz, V, omega_vy, omega_vz) of frame_from_flat, R row-major."""
    vx, vy, vz = v
    ax, ay, az = a
    gx, gy, gz = g
    V = math.sqrt(vx * vx + vy * vy + vz * vz)
    if V < V_EPS:
        raise FlatnessSingularityError(f"speed {V:.3f} m/s below {V_EPS} m/s")
    x0, x1, x2 = vx / V, vy / V, vz / V
    dx, dy, dz = ax - gx, ay - gy, az - gz
    a_vx = x0 * dx + x1 * dy + x2 * dz
    n0, n1, n2 = dx - a_vx * x0, dy - a_vx * x1, dz - a_vx * x2
    n = math.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    if n < A_EPS:
        raise FlatnessSingularityError(f"normal acceleration {n:.3f} m/s^2 below {A_EPS}")
    a_vz = -n
    z0, z1, z2 = n0 / a_vz, n1 / a_vz, n2 / a_vz
    y0, y1, y2 = z1 * x2 - z2 * x1, z2 * x0 - z0 * x2, z0 * x1 - z1 * x0  # r_z x r_x
    # Gravity in the velocity frame: (R'g)_y and (R'g)_z.
    g_y = y0 * gx + y1 * gy + y2 * gz
    g_z = z0 * gx + z1 * gy + z2 * gz
    return ((x0, y0, z0, x1, y1, z1, x2, y2, z2), a_vx, a_vz, V,
            -(a_vz + g_z) / V, g_y / V)


def _jerk_inputs(R, a_vx, a_vz, omega_vy, omega_vz, jerk):
    """(a_vx_dot, omega_vx, a_vz_dot) of flat_inputs for a row-major R."""
    if abs(a_vz) < A_EPS:
        raise FlatnessSingularityError(f"normal acceleration {a_vz:.3f} too small")
    jx, jy, jz = jerk
    x0, y0, z0, x1, y1, z1, x2, y2, z2 = R
    w0 = x0 * jx + x1 * jy + x2 * jz  # R' jerk
    w1 = y0 * jx + y1 * jy + y2 * jz
    w2 = z0 * jx + z1 * jy + z2 * jz
    return (-omega_vy * a_vz + w0,
            omega_vz * a_vx / a_vz - w1 / a_vz,
            omega_vy * a_vx + w2)


def tracking_jerk(rp, rv, ra, rj, p, v, a, gains):
    """Cascade feedback jerk x_c''' = x_r''' + k2*e_dd + k1*e_d + k0*e, per axis.

    rp, rv, ra, rj are the reference position to jerk and p, v, a the
    actual position to acceleration, each three floats; gains is (k0, k1, k2).
    """
    k0, k1, k2 = gains
    (p0, p1, p2), (v0, v1, v2), (a0, a1, a2) = p, v, a
    return [rj[0] + k2 * (ra[0] - a0) + k1 * (rv[0] - v0) + k0 * (rp[0] - p0),
            rj[1] + k2 * (ra[1] - a1) + k1 * (rv[1] - v1) + k0 * (rp[1] - p1),
            rj[2] + k2 * (ra[2] - a2) + k1 * (rv[2] - v2) + k0 * (rp[2] - p2)]


def euler_zyx(R) -> tuple:
    """Roll, pitch, yaw of a velocity/body frame R (row-major) given in ENU axes.

    The frame is re-expressed in north-east-down axes first, so yaw is a
    compass heading, pitch is positive nose-up, and roll is positive
    right-wing-down. The NED rows of R are R[1], R[0] and -R[2].
    """
    r00, r01, _, r10, r11, _, r20, r21, r22 = R
    s_pitch = min(max(r20, -1.0), 1.0)
    theta = math.asin(s_pitch)
    if abs(s_pitch) > 1.0 - 1e-9:
        # Gimbal-degenerate; fold everything into yaw.
        return 0.0, theta, math.atan2(-r11, r01)
    return math.atan2(-r21, -r22), theta, math.atan2(r00, r10)


def frame_from_flat(velocity, acceleration, g=GRAVITY) -> CoordinatedFrame:
    """Reconstruct the coordinated velocity frame from flat derivatives.

    r_x is the unit velocity; the normal acceleration a_n = xdd - g - a_vx r_x
    must be bounded away from zero for the aircraft to be controllable, and
    its direction fixes r_z through a_vz = -|a_n|. The pitch and yaw rates
    omega_vy, omega_vz are the ones coordination then fixes, which keep the
    lateral velocity-frame dynamics consistent.
    """
    R, *rest = _frame(*(np.asarray(u, dtype=float).tolist()
                        for u in (velocity, acceleration, g)))
    return CoordinatedFrame(np.array(R).reshape(3, 3), *rest)


def flat_inputs(flat: FlatState, frame: CoordinatedFrame):
    """Invert the jerk map: returns (a_vx_dot, omega_vx, a_vz_dot).

    The affine part depends only on the frame; the jerk enters through
    diag(1, -1/a_vz, 1) applied to the frame-resolved jerk, so the
    inversion is exact wherever a_vz stays away from zero.
    """
    return _jerk_inputs(np.asarray(frame.R, dtype=float).ravel().tolist(), frame.a_vx,
                        frame.a_vz, frame.omega_vy, frame.omega_vz, flat.jerk)


def forward_jerk(frame: CoordinatedFrame, a_vx_dot, omega_vx, a_vz_dot):
    """Forward jerk map x''' = R (omega_v x a_v + a_v_dot); inverse of flat_inputs."""
    omega = np.array([omega_vx, frame.omega_vy, frame.omega_vz])
    a_v = np.array([frame.a_vx, 0.0, frame.a_vz])
    return frame.R @ (np.cross(omega, a_v) + np.array([a_vx_dot, 0.0, a_vz_dot]))


def command_from_flat(ref: FlatState, position, velocity, acceleration,
                      phi_limit: float, state: CommandState | None = None,
                      dt: float = 0.01, drag_accel: float = 0.0,
                      alpha_est: float = 0.0, a_T_max: float = math.inf):
    """Full command synthesis: returns (CommandedInput, CommandState).

    The reference's vectors and the vehicle's position, velocity and
    acceleration are three floats each, as `tracking_jerk` takes them. The
    commanded frame is built from the reference flat derivatives, the
    feedback enters through the commanded jerk, and the axial/normal
    acceleration channels are integrated (with a slow leak toward the
    reference trim values) to produce thrust and pitch-rate commands. The
    feedback gains are `CASCADE_GAINS`, and the bank command is clamped to
    +/- phi_limit.
    """
    rp, rv, ra, rj = ref
    R, a_vx, a_vz, V, omega_vy, omega_vz = _frame(rv, ra, GRAVITY)
    jerk_c = tracking_jerk(rp, rv, ra, rj, position, velocity, acceleration,
                           CASCADE_GAINS)
    a_vx_dot, omega_vx, a_vz_dot = _jerk_inputs(R, a_vx, a_vz, omega_vy, omega_vz, jerk_c)

    if state is None:
        state = CommandState(a_vx, a_vz)
    a_vx_i = state.a_vx + dt * (a_vx_dot + _LEAK * (a_vx - state.a_vx))
    a_vz_i = state.a_vz + dt * (a_vz_dot + _LEAK * (a_vz - state.a_vz))

    gx, gy, gz = GRAVITY
    omega_vy_c = -(a_vz_i + (R[2] * gx + R[5] * gy + R[8] * gz)) / V
    a_T = (a_vx_i + drag_accel) / math.cos(alpha_est)
    a_T = min(max(a_T, 0.0), a_T_max)

    phi, theta_frame, _ = euler_zyx(R)
    cmd = CommandedInput(theta_frame + alpha_est, min(max(phi, -phi_limit), phi_limit),
                         omega_vx, omega_vy_c, a_T)
    return cmd, CommandState(a_vx_i, a_vz_i)


def path_param_inputs(pp: PathParamState, dx_ds, d2x_ds2, d3x_ds3,
                      x_ref, position, velocity, acceleration,
                      frame: CoordinatedFrame, gains=CASCADE_GAINS,
                      a_vx_dot: float = 0.0):
    """Arc-length-parameterized inversion: returns (s_dddot, omega_vx, a_vz_dot).

    Solves the lower-triangular decoupling system whose columns are
    R' dx/ds, (0, a_vz, 0), and (0, 0, -1). The axial acceleration rate
    a_vx_dot is treated as a known input (zero for constant-thrust cruise).
    """
    tangent = frame.R.T @ np.asarray(dx_ds, dtype=float)
    if abs(tangent[0]) < M_EPS:
        raise FlatnessSingularityError(
            f"path tangent nearly perpendicular to the vehicle axis ({tangent[0]:.3f})"
        )
    if frame.a_vz > -A_EPS:
        raise FlatnessSingularityError(f"normal acceleration {frame.a_vz:.3f} too small")

    k0, k1, k2 = gains
    d1 = np.asarray(dx_ds, dtype=float)
    d2 = np.asarray(d2x_ds2, dtype=float)
    d3 = np.asarray(d3x_ds3, dtype=float)
    e = np.asarray(x_ref, dtype=float) - np.asarray(position, dtype=float)
    ed = d1 * pp.s_dot - np.asarray(velocity, dtype=float)
    edd = d2 * pp.s_dot**2 + d1 * pp.s_ddot - np.asarray(acceleration, dtype=float)

    known = 3.0 * d2 * pp.s_dot * pp.s_ddot + d3 * pp.s_dot**3 + k2 * edd + k1 * ed + k0 * e
    rhs = np.array([
        a_vx_dot + frame.omega_vy * frame.a_vz,
        frame.omega_vz * frame.a_vx,
        -frame.omega_vy * frame.a_vx,
    ]) - frame.R.T @ known

    s_dddot = rhs[0] / tangent[0]
    omega_vx = (rhs[1] - tangent[1] * s_dddot) / frame.a_vz
    a_vz_dot = -(rhs[2] - tangent[2] * s_dddot)
    return float(s_dddot), float(omega_vx), float(a_vz_dot)


def decoupling_matrix(frame: CoordinatedFrame, dx_ds) -> np.ndarray:
    """The 3x3 matrix relating (s_dddot, omega_vx, a_vz_dot) to the frame jerk."""
    tangent = frame.R.T @ np.asarray(dx_ds, dtype=float)
    M = np.zeros((3, 3))
    M[:, 0] = tangent
    M[1, 1] = frame.a_vz
    M[2, 2] = -1.0
    return M
