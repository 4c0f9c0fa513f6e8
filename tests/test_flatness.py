import inspect
import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from flatwing import flatness as fl
from oracles import euler_zyx_matrix, frame_from_flat_matrix

G = np.array([0.0, 0.0, -9.81])
V = 14.0
R_TURN = 45.0
A_CENTRIP = V**2 / R_TURN  # 4.3556 m/s^2
PHI_LIMIT = 1.0  # rad, AeroParams' default


def level_frame():
    return fl.frame_from_flat(np.array([V, 0.0, 0.0]), np.zeros(3))


def turn_frame():
    # counter-clockwise level circle, heading +x at the sample instant
    return fl.frame_from_flat(
        np.array([V, 0.0, 0.0]), np.array([0.0, A_CENTRIP, 0.0])
    )


def circle_flat_state():
    jerk = np.array([-((V / R_TURN) ** 2) * V, 0.0, 0.0])
    return fl.FlatState(
        np.array([R_TURN, 0.0, 60.0]),
        np.array([V, 0.0, 0.0]),
        np.array([0.0, A_CENTRIP, 0.0]),
        jerk,
    )


# ---------------------------------------------------------------- frame


def test_level_flight_frame():
    fr = level_frame()
    assert fr.a_vx == pytest.approx(0.0, abs=1e-12)
    assert fr.a_vz == pytest.approx(-9.81, abs=1e-12)
    assert np.allclose(fr.R[:, 2], [0, 0, -1])
    assert fr.omega_vy == pytest.approx(0.0, abs=1e-12)
    assert fr.omega_vz == pytest.approx(0.0, abs=1e-12)


def test_level_turn_normal_acceleration():
    fr = turn_frame()
    assert fr.a_vx == pytest.approx(0.0, abs=1e-12)
    assert fr.a_vz == pytest.approx(-np.hypot(A_CENTRIP, 9.81), abs=1e-9)
    phi, theta, _ = fl.euler_zyx(fr.R.ravel())
    assert abs(phi) == pytest.approx(np.arctan(A_CENTRIP / 9.81), abs=1e-12)
    assert theta == pytest.approx(0.0, abs=1e-12)


def test_turn_rates_close_the_circle():
    fr = turn_frame()
    # total constrained rate equals V/r for a level coordinated turn, and the
    # yaw component matches g*sin(phi)/V
    assert np.hypot(fr.omega_vy, fr.omega_vz) == pytest.approx(V / R_TURN, abs=1e-9)
    phi = abs(fl.euler_zyx(fr.R.ravel())[0])
    assert abs(fr.omega_vz) == pytest.approx(9.81 * np.sin(phi) / V, abs=1e-9)
    period = 2 * np.pi * R_TURN / V
    assert period == pytest.approx(20.2, abs=0.01)


def test_frame_first_column_is_velocity_direction():
    rng = np.random.default_rng(30)
    for _ in range(50):
        v = rng.normal(size=3) * 8
        v[0] += 16  # keep speed and normal accel away from the guards
        a = rng.normal(size=3) * 3
        fr = fl.frame_from_flat(v, a)
        assert np.abs(fr.R[:, 0] - v / np.linalg.norm(v)).max() <= 1e-9
        assert np.abs(fr.R.T @ fr.R - np.eye(3)).max() <= 1e-9
        assert np.linalg.det(fr.R) == pytest.approx(1.0, abs=1e-9)
        assert fr.a_vz < 0


def test_frame_singularity_guards():
    with pytest.raises(fl.FlatnessSingularityError):
        fl.frame_from_flat(np.array([0.5, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(fl.FlatnessSingularityError):
        # free fall: acceleration equal to gravity leaves no normal accel
        fl.frame_from_flat(np.array([V, 0.0, 0.0]), G.copy())


def test_scalar_frame_matches_matrix_formulas():
    rng = np.random.default_rng(21)
    checked = 0
    for k in range(400):
        v = rng.normal(size=3) * 15.0
        a = rng.normal(size=3) * 8.0
        g = G if k % 2 else rng.normal(size=3) * 10.0
        try:
            fr = fl.frame_from_flat(v, a, g)
        except fl.FlatnessSingularityError:
            continue
        R, a_vx, a_vz, speed, omega_vy, omega_vz = frame_from_flat_matrix(v, a, g)
        assert np.abs(fr.R - R).max() <= 1e-13
        for new, old in ((fr.a_vx, a_vx), (fr.a_vz, a_vz), (fr.V, speed),
                         (fr.omega_vy, omega_vy), (fr.omega_vz, omega_vz)):
            assert abs(new - old) <= 1e-13 * max(1.0, abs(old))
        checked += 1
    assert checked > 350
    # Sequences are accepted as well as arrays.
    assert np.array_equal(fl.frame_from_flat([14, 0, 0], [0, 3, 0]).R,
                          fl.frame_from_flat(np.array([14.0, 0, 0]), np.array([0, 3.0, 0])).R)


# ---------------------------------------------------------------- inputs


def test_flat_inputs_vanish_at_trim():
    st = fl.FlatState(np.zeros(3), np.array([V, 0, 0]), np.zeros(3), np.zeros(3))
    out = fl.flat_inputs(st, level_frame())
    assert np.abs(np.array(out)).max() <= 1e-12


def test_flat_inputs_steady_turn_has_constant_bank():
    a_vx_dot, omega_vx, a_vz_dot = fl.flat_inputs(circle_flat_state(), turn_frame())
    assert a_vx_dot == pytest.approx(0.0, abs=1e-12)
    assert omega_vx == pytest.approx(0.0, abs=1e-12)
    assert a_vz_dot == pytest.approx(0.0, abs=1e-12)


def test_forward_jerk_and_flat_inputs_are_inverses():
    rng = np.random.default_rng(31)
    for _ in range(40):
        v = rng.normal(size=3) * 6
        v[0] += 15
        a = rng.normal(size=3) * 3
        fr = fl.frame_from_flat(v, a)
        u = rng.normal(size=3)
        jerk = fl.forward_jerk(fr, u[0], u[1], u[2])
        st = fl.FlatState(np.zeros(3), v, a, jerk)
        back = np.array(fl.flat_inputs(st, fr))
        assert np.abs(back - u).max() <= 1e-10


# ---------------------------------------------------------------- feedback


def test_tracking_jerk_zero_error_passthrough():
    ref = circle_flat_state()
    p, v, a, j = (u.tolist() for u in (ref.position, ref.velocity, ref.acceleration, ref.jerk))
    out = fl.tracking_jerk(p, v, a, j, p, v, a, fl.CASCADE_GAINS)
    assert np.array_equal(out, ref.jerk)


def test_tracking_jerk_position_term():
    zero = [0.0, 0.0, 0.0]
    out = fl.tracking_jerk(zero, zero, zero, zero, [-1.0, 0.0, 0.0], zero, zero,
                           gains=(8.0, 12.0, 6.0))
    assert np.allclose(out, [8.0, 0, 0])


def test_default_gains_place_all_poles_at_minus_two():
    # s^3 + k2 s^2 + k1 s + k0 = (s + 2)^3 = s^3 + 6 s^2 + 12 s + 8
    k0, k1, k2 = fl.CASCADE_GAINS
    assert np.allclose(np.poly([-2.0, -2.0, -2.0]), [1.0, k2, k1, k0])
    assert inspect.signature(fl.path_param_inputs).parameters["gains"].default == fl.CASCADE_GAINS


def test_error_dynamics_match_critically_damped_solution():
    # triple integrator under the cascade law from rest with unit position
    # error: e(t) = (1 + 2t + 2t^2) exp(-2t)
    k = (8.0, 12.0, 6.0)
    state = np.array([1.0, 0.0, 0.0])  # e, e_dot, e_ddot
    A = np.array([[0, 1, 0], [0, 0, 1], [-k[0], -k[1], -k[2]]])
    dt = 1e-3
    for i in range(1, 4001):
        k1v = A @ state
        k2v = A @ (state + 0.5 * dt * k1v)
        k3v = A @ (state + 0.5 * dt * k2v)
        k4v = A @ (state + dt * k3v)
        state = state + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        if i % 1000 == 0:
            t = i * dt
            exact = (1 + 2 * t + 2 * t**2) * np.exp(-2 * t)
            assert state[0] == pytest.approx(exact, abs=1e-9)
    assert abs(state[0]) < 0.02  # settled by t = 4 s


# ---------------------------------------------------------------- euler angles


def test_euler_heading_convention():
    # level flight east gives compass yaw pi/2, north gives zero; both are
    # wings-level, nose-level attitudes
    east = fl.frame_from_flat(np.array([V, 0.0, 0.0]), np.zeros(3))
    phi, theta, psi = fl.euler_zyx(east.R.ravel())
    assert (phi, theta) == (pytest.approx(0.0, abs=1e-12),) * 2
    assert psi == pytest.approx(np.pi / 2, abs=1e-12)
    north = fl.frame_from_flat(np.array([0.0, V, 0.0]), np.zeros(3))
    phi, theta, psi = fl.euler_zyx(north.R.ravel())
    assert (phi, theta) == (pytest.approx(0.0, abs=1e-12),) * 2
    assert psi == pytest.approx(0.0, abs=1e-12)


def test_euler_left_turn_banks_negative():
    # counter-clockwise (left) level turn carries negative roll
    phi, _, _ = fl.euler_zyx(turn_frame().R.ravel())
    assert phi == pytest.approx(-np.arctan(A_CENTRIP / 9.81), abs=1e-12)


def test_euler_climb_pitches_up():
    v = np.array([13.0, 0.0, 2.0])
    fr = fl.frame_from_flat(v, np.zeros(3))
    _, theta, _ = fl.euler_zyx(fr.R.ravel())
    assert theta == pytest.approx(np.arctan2(2.0, 13.0), abs=1e-9)


def _vertical_frame(psi, up=True):
    """ENU frame whose velocity axis is vertical: the gimbal-degenerate case."""
    r_x = np.array([0.0, 0.0, 1.0 if up else -1.0])
    r_y = np.array([math.cos(psi), math.sin(psi), 0.0])
    return np.column_stack([r_x, r_y, np.cross(r_x, r_y)])


def test_scalar_euler_matches_matrix_formula():
    frames = list(Rotation.random(300, random_state=5).as_matrix())
    for psi in (0.3, -2.0, 3.0):
        for up in (True, False):
            R = _vertical_frame(psi, up)
            frames.append(R)
            # Tipped just inside (1e-5 rad) and just outside (1e-3 rad) the
            # degenerate branch, which starts at |sin(pitch)| > 1 - 1e-9.
            for eps in (1e-5, 1e-3):
                frames.append(R @ Rotation.from_rotvec([0.0, eps, 0.0]).as_matrix())
    degenerate = 0
    for R in frames:
        diff = np.subtract(fl.euler_zyx(R.ravel().tolist()), euler_zyx_matrix(R))
        # Compared modulo 2*pi: where an entry of R is exactly zero the
        # scalar kernel keeps its sign, which the permutation-matrix product
        # lost, so the same roll can come out as -pi instead of +pi.
        assert np.abs(np.remainder(diff + np.pi, 2 * np.pi) - np.pi).max() <= 1e-13
        degenerate += abs(R[2, 0]) > 1.0 - 1e-9
    assert degenerate == 12


# ---------------------------------------------------------------- commands


def test_command_perfect_tracking_straight_line():
    ref = fl.FlatState(np.zeros(3), np.array([V, 0, 0]), np.zeros(3), np.zeros(3))
    cmd, cs = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, PHI_LIMIT
    )
    assert cmd.phi_c == pytest.approx(0.0, abs=1e-12)
    assert cmd.omega_vx == pytest.approx(0.0, abs=1e-12)
    assert cmd.omega_vy == pytest.approx(0.0, abs=1e-12)
    assert abs(cmd.phi_c) < PHI_LIMIT  # not clamped
    assert cs.a_vz == pytest.approx(-9.81, abs=1e-12)


def test_command_steady_circle_bank():
    ref = circle_flat_state()
    cmd, _ = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, PHI_LIMIT
    )
    assert np.tan(abs(cmd.phi_c)) == pytest.approx(V**2 / (R_TURN * 9.81), abs=1e-9)
    assert cmd.phi_c < 0  # left turn


def test_command_bank_clamps_at_phi_limit():
    ref = circle_flat_state()
    free, _ = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, PHI_LIMIT
    )
    cmd, _ = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, 0.3
    )
    assert abs(free.phi_c) > 0.3  # the bank the turn asks for is clamped
    assert abs(cmd.phi_c) == 0.3


def test_command_thrust_inverse_includes_drag_and_alpha():
    ref = fl.FlatState(np.zeros(3), np.array([V, 0, 0]), np.zeros(3), np.zeros(3))
    cmd, _ = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, PHI_LIMIT,
        drag_accel=0.8, alpha_est=0.05,
    )
    # level cruise needs a_vx = 0, so a_T cos(alpha) = drag
    assert cmd.a_T == pytest.approx(0.8 / np.cos(0.05), rel=1e-12)
    capped, _ = fl.command_from_flat(
        ref, ref.position, ref.velocity, ref.acceleration, PHI_LIMIT,
        drag_accel=50.0, a_T_max=8.0,
    )
    assert capped.a_T == 8.0


# ---------------------------------------------------------------- path inversion


def straight_path_setup():
    fr = level_frame()
    pp = fl.PathParamState(0.0, V, 0.0)
    dx = np.array([1.0, 0.0, 0.0])
    return fr, pp, dx


def test_path_inputs_vanish_on_path_at_trim():
    fr, pp, dx = straight_path_setup()
    out = fl.path_param_inputs(
        pp, dx, np.zeros(3), np.zeros(3),
        np.array([0.0, 0.0, 60.0]), np.array([0.0, 0.0, 60.0]),
        np.array([V, 0, 0]), np.zeros(3), fr,
    )
    assert np.abs(np.array(out)).max() <= 1e-12


def test_decoupling_matrix_determinant_identity():
    fr, _, dx = straight_path_setup()
    M = fl.decoupling_matrix(fr, dx)
    tangent = fr.R.T @ dx
    assert np.linalg.det(M) == pytest.approx(-fr.a_vz * tangent[0], abs=1e-12)
    # unit-speed parameterization: first column has unit norm
    assert np.linalg.norm(M[:, 0]) == pytest.approx(1.0, abs=1e-12)


def test_path_inversion_satisfies_defining_equation():
    # the returned triple must reproduce the commanded jerk through the
    # forward model: omega x a_v + a_v_dot == R'(d1*s''' + known terms)
    rng = np.random.default_rng(32)
    for _ in range(20):
        v = rng.normal(size=3) * 4
        v[0] += 15
        a = rng.normal(size=3) * 2
        fr = fl.frame_from_flat(v, a)
        d1 = v / np.linalg.norm(v) + rng.normal(size=3) * 0.05
        d2 = rng.normal(size=3) * 0.01
        d3 = rng.normal(size=3) * 0.001
        pp = fl.PathParamState(0.0, float(np.linalg.norm(v)), rng.normal() * 0.5)
        x_ref = rng.normal(size=3)
        pos = x_ref + rng.normal(size=3) * 0.5
        vel = v + rng.normal(size=3) * 0.3
        acc = a + rng.normal(size=3) * 0.2
        a_vx_dot = rng.normal() * 0.1

        s3, wx, azd = fl.path_param_inputs(
            pp, d1, d2, d3, x_ref, pos, vel, acc, fr, a_vx_dot=a_vx_dot
        )

        k0, k1, k2 = 8.0, 12.0, 6.0
        e = x_ref - pos
        ed = d1 * pp.s_dot - vel
        edd = d2 * pp.s_dot**2 + d1 * pp.s_ddot - acc
        known = 3 * d2 * pp.s_dot * pp.s_ddot + d3 * pp.s_dot**3
        known = known + k2 * edd + k1 * ed + k0 * e
        commanded = fr.R.T @ (d1 * s3 + known)

        omega = np.array([wx, fr.omega_vy, fr.omega_vz])
        a_v = np.array([fr.a_vx, 0.0, fr.a_vz])
        produced = np.cross(omega, a_v) + np.array([a_vx_dot, 0.0, azd])
        assert np.abs(produced - commanded).max() <= 1e-9


def test_path_inversion_singularities():
    fr, pp, _ = straight_path_setup()
    with pytest.raises(fl.FlatnessSingularityError):
        fl.path_param_inputs(
            pp, np.array([0.0, 1.0, 0.0]), np.zeros(3), np.zeros(3),
            np.zeros(3), np.zeros(3), np.array([V, 0, 0]), np.zeros(3), fr,
        )
