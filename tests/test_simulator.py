import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from flatwing import flatness as fl
from flatwing import simulator as sim
from oracles import attitude_rates_matrix, coordinated_step_matrix

V = 14.0
R_TURN = 45.0
CALM = (0.0, 0.0, 0.0)
NO_RATES = (0.0, 0.0, 0.0)


def level_frame():
    return fl.frame_from_flat(np.array([V, 0.0, 0.0]), np.zeros(3))


def state(x, v, R, alpha, V_a):
    """An AircraftState from arrays: x, v and the row-major R as floats."""
    return sim.AircraftState(*(tuple(np.ravel(u).tolist()) for u in (x, v, R)), alpha, V_a)


def level_state(fr=None):
    fr = fr or level_frame()
    return state(np.zeros(3), fr.R[:, 0] * V, fr.R, 0.0, V)


def state_aero(st, p, wind=CALM):
    """(a_L, a_D) at the state's air-relative velocity, altitude and alpha."""
    return sim.aero_accels(p, sim.dynamic_accel(p, st.v, wind, st.x[2]), st.alpha)


def rates(st, cmd, tau_att=0.1, dt=0.01):
    """attitude_inner_loop on a state, as the executive calls it."""
    return sim.attitude_inner_loop(st.R, fl.euler_zyx(st.R), st.alpha, st.V_a, cmd,
                                   tau_att, dt)


# ---------------------------------------------------------------- atmosphere


def test_air_density_sea_level_and_scale_height():
    assert sim.air_density(0.0) == 1.225
    assert sim.air_density(8500.0) == pytest.approx(1.225 / math.e, rel=1e-12)
    assert sim.air_density(100.0) == pytest.approx(1.21067, abs=1e-4)


def test_air_density_rejects_out_of_range_altitude():
    with pytest.raises(ValueError):
        sim.air_density(-501.0)
    with pytest.raises(ValueError):
        sim.air_density(10001.0)


# ---------------------------------------------------------------- aero model


def test_aero_params_validation():
    with pytest.raises(ValueError):
        sim.AeroParams(mass=0.0)
    with pytest.raises(ValueError):
        sim.AeroParams(a_l0=-0.1)
    assert sim.AeroParams(thrust_max=8.0, mass=1.1).a_T_max == pytest.approx(
        8.0 / 1.1
    )


def test_aero_accels_vanish_at_zero_airspeed():
    st = state(np.zeros(3), np.zeros(3), np.eye(3), 0.05, 0.0)
    a_L, a_D = state_aero(st, sim.AeroParams())
    assert (a_L, a_D) == (0.0, 0.0)
    a_L, _ = state_aero(st, sim.AeroParams(a_l0=1.5))
    assert a_L == 1.5


def test_aero_accels_scale_with_dynamic_pressure():
    p = sim.AeroParams()
    s1 = state(np.zeros(3), np.array([10.0, 0, 0]), np.eye(3), 0.03, 10.0)
    s2 = state(np.zeros(3), np.array([20.0, 0, 0]), np.eye(3), 0.03, 20.0)
    l1, d1 = state_aero(s1, p)
    l2, d2 = state_aero(s2, p)
    assert l2 / l1 == pytest.approx(4.0, rel=1e-12)
    assert d2 / d1 == pytest.approx(4.0, rel=1e-12)


def test_aero_accels_use_air_relative_speed():
    st = state(np.zeros(3), np.array([14.0, 0, 0]), np.eye(3), 0.02, 14.0)
    still = state_aero(st, sim.AeroParams())
    headwind = state_aero(st, sim.AeroParams(), wind=(-2.0, 0.0, 0.0))
    assert headwind[0] > still[0]  # more lift into the wind
    calm = state_aero(st, sim.AeroParams(), wind=(14.0, 0.0, 0.0))
    assert calm == (0.0, 0.0)


def test_input_accels_sign_convention():
    a_vx, a_vz = sim.input_accels(2.0, 0.5, 9.81, 0.0)
    assert a_vx == pytest.approx(1.5)
    assert a_vz == pytest.approx(-9.81)
    _, a_vz = sim.input_accels(2.0, 0.5, 9.81, 0.1)
    assert a_vz == pytest.approx(-2.0 * math.sin(0.1) - 9.81)


def test_solve_alpha_meets_required_normal_accel():
    p = sim.AeroParams()
    alpha = sim.solve_alpha(p, 14.0, 0.0, 1.5, -9.81)
    k_dyn = sim.air_density(0.0) * 14.0**2 * p.wing_area / (2 * p.mass)
    a_vz = -1.5 * alpha - (k_dyn * (p.c_l0 + p.c_l_alpha * alpha) + p.a_l0)
    assert a_vz == pytest.approx(-9.81, abs=1e-9)


def test_solve_alpha_clamps_at_stall_limit():
    alpha = sim.solve_alpha(sim.AeroParams(), 6.0, 0.0, 1.0, -60.0)
    assert alpha == sim.ALPHA_LIMIT


def test_coordinated_trim_level_cruise():
    alpha, a_T = sim.coordinated_trim(sim.AeroParams(), V)
    assert alpha == pytest.approx(0.004318, abs=1e-5)
    assert a_T == pytest.approx(1.4564, abs=1e-3)
    # closing the loop: the trim pair reproduces straight-and-level loads
    st = level_state()
    st.alpha = alpha
    a_L, a_D = state_aero(st, sim.AeroParams())
    a_vx, a_vz = sim.input_accels(a_T, a_D, a_L, alpha)
    assert a_vx == pytest.approx(0.0, abs=1e-6)
    assert a_vz == pytest.approx(-9.81, abs=1e-6)


def test_coordinated_trim_banked_needs_more_of_everything():
    p = sim.AeroParams()
    a_n = math.hypot(9.81, V**2 / R_TURN)
    alpha_l, a_T_l = sim.coordinated_trim(p, V)
    alpha_t, a_T_t = sim.coordinated_trim(p, V, a_n_mag=a_n)
    assert alpha_t > alpha_l
    assert a_T_t > a_T_l


def test_coordinated_trim_thrust_saturates():
    p = sim.AeroParams(thrust_max=0.5)
    _, a_T = sim.coordinated_trim(p, 25.0)
    assert a_T == p.a_T_max


# ---------------------------------------------------------------- wind


def test_wind_mean_only():
    w = sim.WindField(mean=np.array([1.4, 1.4, 0.0]))
    assert np.array_equal(sim.wind_at(w, 0.0), [1.4, 1.4, 0.0])
    assert np.array_equal(sim.wind_at(w, 37.2), [1.4, 1.4, 0.0])


def test_wind_gust_is_bounded_and_horizontal():
    w = sim.WindField(mean=np.zeros(3), gust_amplitude=0.8, gust_period=20.0, seed=3)
    for t in np.linspace(0.0, 60.0, 400):
        g = sim.wind_at(w, t)
        assert abs(g[0]) <= 0.8 + 1e-12
        assert abs(g[1]) <= 0.8 + 1e-12
        assert g[2] == 0.0


def test_wind_seed_determinism():
    a = sim.WindField(mean=np.zeros(3), gust_amplitude=1.0, seed=7)
    b = sim.WindField(mean=np.zeros(3), gust_amplitude=1.0, seed=7)
    c = sim.WindField(mean=np.zeros(3), gust_amplitude=1.0, seed=8)
    assert np.array_equal(sim.wind_at(a, 5.3), sim.wind_at(b, 5.3))
    assert not np.array_equal(sim.wind_at(a, 5.3), sim.wind_at(c, 5.3))


def test_wind_rejects_negative_gust():
    with pytest.raises(ValueError):
        sim.WindField(gust_amplitude=-0.1)
    for period in (0.0, -60.0, float("nan")):
        with pytest.raises(ValueError, match="gust_period"):
            sim.WindField(gust_amplitude=0.5, gust_period=period)


@pytest.mark.parametrize("mean", [[1.0, 2.0], [math.nan, 0.0, 0.0]],
                         ids=["two-numbers", "nan"])
def test_wind_rejects_malformed_mean(mean):
    with pytest.raises(ValueError, match="mean must be 3 finite numbers"):
        sim.WindField(mean=mean)


# ---------------------------------------------------------------- integrator


def test_step_argument_guards():
    st = level_state()
    with pytest.raises(ValueError):
        sim.step(st, NO_RATES, 0.0, CALM, 0.05)
    with pytest.raises(ValueError):
        sim.step(st, NO_RATES, 0.0, CALM, 0.0)
    dead = level_state()
    dead.V_a = 0.0
    with pytest.raises(ValueError):
        sim.step(dead, NO_RATES, 0.0, CALM, 0.01)


def test_step_faults_on_non_finite_state():
    st = level_state()
    st.x = (0.0, 0.0, math.nan)
    with pytest.raises(sim.IntegrationFault):
        sim.step(st, NO_RATES, 0.0, CALM, 0.01)


def test_step_trim_hold_flies_straight():
    st = level_state()
    for _ in range(1000):
        st = sim.step(st, NO_RATES, 0.0, CALM, 0.01)
    assert st.V_a == pytest.approx(V, abs=1e-12)
    assert np.abs(np.subtract(st.x, [V * 10.0, 0.0, 0.0])).max() <= 1e-9


def test_step_quasi_static_aero_trim_holds_speed():
    p = sim.AeroParams()
    alpha, a_T = sim.coordinated_trim(p, V)
    st = level_state()
    st.alpha = alpha
    for _ in range(1000):
        a_L, a_D = state_aero(st, p)
        a_vx, _ = sim.input_accels(a_T, a_D, a_L, alpha)
        st = sim.step(st, CALM, a_vx, CALM, 0.01)
    assert abs(st.V_a - V) <= 0.05
    assert abs(st.x[2]) <= 0.1


def test_step_level_circle_closes():
    st = state(np.zeros(3), np.array([V, 0, 0]), np.eye(3), 0.0, V)
    wz = V / R_TURN
    period = 2.0 * math.pi / wz
    n = int(round(period / 0.01))
    for _ in range(n):
        st = sim.step(st, (0.0, 0.0, wz), 0.0, CALM, period / n)
    assert np.linalg.norm(st.x) <= 1e-6
    assert st.V_a == pytest.approx(V, abs=1e-9)


def test_step_energy_conserved_without_thrust():
    # a_vx = 0 and no wind: kinetic plus potential energy is an invariant of
    # the exact flow regardless of the pitch-rate history
    st = level_state()
    E0 = 0.5 * V**2
    t = 0.0
    for _ in range(1000):
        wy = 0.02 * math.sin(2.0 * math.pi * t / 5.0)
        st = sim.step(st, (0.0, wy, 0.0), 0.0, CALM, 0.01)
        t += 0.01
    E = 0.5 * st.V_a**2 + 9.81 * st.x[2]
    assert abs(E - E0) / E0 <= 1e-9


def test_step_constant_wind_advects_exactly():
    st1 = level_state()
    st2 = level_state()
    w = np.array([1.2, -0.7, 0.3])
    om = (0.1, 0.05, -0.2)
    for _ in range(100):
        st1 = sim.step(st1, om, 0.0, CALM, 0.01)
        st2 = sim.step(st2, om, 0.0, tuple(w.tolist()), 0.01)
    assert np.abs(np.subtract(st2.x, st1.x) - w * 1.0).max() <= 1e-10
    assert st2.V_a == st1.V_a  # airspeed is wind-invariant here


def test_step_keeps_air_relative_velocity_coordinated():
    st = level_state()
    w = np.array([2.0, 1.0, 0.0])
    for _ in range(50):
        st = sim.step(st, (0.05, 0.1, 0.2), 0.1, tuple(w.tolist()), 0.01)
        body_vel = np.reshape(st.R, (3, 3)).T @ (st.v - w)
        assert abs(body_vel[1]) <= 1e-12
        assert abs(body_vel[2]) <= 1e-12
        assert body_vel[0] == pytest.approx(st.V_a, abs=1e-12)


def rotation_step(R, omega_v, dt):
    """sim._rotation_step on arrays: (new rotation, midpoint rotation) as 3x3."""
    Rn, Rh = sim._rotation_step(tuple(R.ravel().tolist()), omega_v.tolist(), dt)
    return np.reshape(Rn, (3, 3)), np.reshape(Rh, (3, 3))


def test_rotation_step_matches_matrix_exponential():
    w = np.array([0.4, -0.3, 0.5])
    Rn, _ = rotation_step(np.eye(3), w, 0.01)
    assert np.abs(Rn - expm(sim._skew(w) * 0.01)).max() <= 1e-11
    # Small-angle series branch: |omega|*dt = 0, ~1e-9, and just below 1e-4.
    u = np.array([0.6, -0.48, 0.64])  # unit vector
    for scale in (0.0, 1e-7, 0.99e-2):
        Rn, Rh = rotation_step(np.eye(3), scale * u, 0.01)
        assert np.isfinite(Rn).all() and np.isfinite(Rh).all()
        assert np.abs(Rn - expm(sim._skew(scale * u) * 0.01)).max() <= 1e-15


def test_scalar_step_matches_matrix_formula():
    rng = np.random.default_rng(23)
    rotations = Rotation.random(300, random_state=11).as_matrix()
    for k, R in enumerate(rotations):
        x = rng.uniform(-100.0, 100.0, size=3)
        V_a = float(rng.uniform(5.0, 30.0))
        omega = rng.uniform(-sim.RATE_LIMIT, sim.RATE_LIMIT, size=3)
        if k % 10 == 0:
            omega *= 1e-4  # inside the small-angle series of the rotation
        a_vx = float(rng.normal(0.0, 3.0))
        dt = float(rng.uniform(0.001, 0.02))
        wind = CALM if k % 2 else tuple(rng.normal(0.0, 3.0, size=3).tolist())
        st = state(x, V_a * R[:, 0], R, 0.05, V_a)
        new = sim.step(st, tuple(omega.tolist()), a_vx, wind, dt)
        old = coordinated_step_matrix(x, R, V_a, omega, a_vx, np.array(wind), dt, fl.GRAVITY)
        for got, want in zip((new.x, new.v, np.reshape(new.R, (3, 3)), new.V_a), old):
            assert np.abs(np.subtract(got, want)).max() <= 1e-13
        assert (len(new.x), len(new.v), len(new.R)) == (3, 3, 9)
        assert all(type(c) is float for c in (*new.x, *new.v, *new.R, new.V_a))
        assert new.alpha == st.alpha


def test_rotation_stays_orthonormal_over_long_runs():
    st = state(np.zeros(3), np.array([V, 0, 0]), np.eye(3), 0.0, V)
    t = 0.0
    for _ in range(20000):
        om = (
            0.3 * math.sin(0.7 * t),
            0.2 * math.cos(1.3 * t),
            0.25 * math.sin(0.4 * t + 1.0),
        )
        st = sim.step(st, om, 9.81 * st.R[6], CALM, 0.01)
        t += 0.01
    R = np.reshape(st.R, (3, 3))
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-12
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- inner loop


def test_attitude_loop_passthrough_at_command():
    st = level_state()
    cmd = fl.CommandedInput(
        theta_c=0.0, phi_c=0.0, omega_vx=0.3, omega_vy=0.1, a_T=1.0,
    )
    p, q, r = rates(st, cmd, tau_att=0.1)
    assert p == pytest.approx(0.3, abs=1e-12)
    assert q == pytest.approx(0.1, abs=1e-12)
    assert r == pytest.approx(0.0, abs=1e-12)  # wings level: no coordination yaw


def test_attitude_loop_proportional_error_and_clamp():
    st = level_state()
    cmd = fl.CommandedInput(0.0, 0.15, 0.0, 0.0, 1.0)
    p, _, _ = rates(st, cmd, tau_att=0.1)
    assert p == pytest.approx(1.5, abs=1e-12)
    big = fl.CommandedInput(0.0, 3.0, 0.0, 0.0, 1.0)
    p, _, _ = rates(st, big, tau_att=0.1)
    assert p == sim.RATE_LIMIT


def test_attitude_loop_pitch_error_uses_body_angle():
    # body pitch = frame pitch + alpha, so a command equal to alpha at level
    # frame attitude produces no pitch rate
    st = level_state()
    st.alpha = 0.05
    cmd = fl.CommandedInput(0.05, 0.0, 0.0, 0.0, 1.0)
    _, q, _ = rates(st, cmd, tau_att=0.1)
    assert q == pytest.approx(0.0, abs=1e-12)


def test_scalar_attitude_loop_matches_matrix_formula():
    rng = np.random.default_rng(17)
    clamped = 0
    for R in Rotation.random(300, random_state=9).as_matrix():
        st = state(np.zeros(3), np.zeros(3), R, float(rng.uniform(-0.3, 0.3)),
                   float(rng.uniform(0.2, 30.0)))
        cmd = fl.CommandedInput(theta_c=float(rng.normal()), phi_c=float(rng.normal()),
                                omega_vx=float(rng.normal()), omega_vy=float(rng.normal()),
                                a_T=1.0)
        tau = float(rng.uniform(0.005, 0.5))
        new = rates(st, cmd, tau_att=tau, dt=0.01)
        old = attitude_rates_matrix(R, st.alpha, st.V_a, cmd, tau, 0.01, fl.GRAVITY,
                                    fl.V_EPS, sim.RATE_LIMIT)
        assert len(new) == 3 and all(type(r) is float for r in new)
        assert np.abs(np.subtract(new, old)).max() <= 1e-13
        clamped += np.count_nonzero(np.abs(old) == sim.RATE_LIMIT)
    assert clamped > 100


def test_attitude_loop_rejects_bad_time_constant():
    st = level_state()
    cmd = fl.CommandedInput(0.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rates(st, cmd, tau_att=0.0)


def test_attitude_loop_first_order_roll_response():
    st = level_state()
    cmd = fl.CommandedInput(0.0, 0.15, 0.0, 0.0, 1.0)
    for _ in range(30):  # 3 time constants
        om = rates(st, cmd, tau_att=0.1, dt=0.01)
        st = sim.step(st, om, 0.0, CALM, 0.01)
    phi = fl.euler_zyx(st.R)[0]
    assert phi == pytest.approx(0.15 * (1.0 - math.exp(-3.0)), abs=0.01)


# ---------------------------------------------------------------- reduced model


def test_reduced_model_holds_level_trim():
    fr = level_frame()
    rs = sim.ReducedState(np.zeros(3), fr.R[:, 0] * V, fr.R.copy(), 0.0, -9.81)
    for _ in range(200):
        rs = sim.reduced_step(rs, (0.0, 0.0, 0.0), 0.01)
    assert np.abs(rs.x - [2.0 * V, 0.0, 0.0]).max() <= 1e-9
    assert np.abs(rs.v - [V, 0.0, 0.0]).max() <= 1e-9


def test_reduced_model_flies_analytic_circle():
    fr = fl.frame_from_flat(
        np.array([V, 0.0, 0.0]), np.array([0.0, V**2 / R_TURN, 0.0])
    )
    rs = sim.ReducedState(np.zeros(3), fr.R[:, 0] * V, fr.R.copy(), 0.0, fr.a_vz)
    w = V / R_TURN
    for i in range(1, 201):
        rs = sim.reduced_step(rs, (0.0, 0.0, 0.0), 0.01)
        t = i * 0.01
        exact = [R_TURN * math.sin(w * t), R_TURN * (1 - math.cos(w * t)), 0.0]
        assert np.abs(rs.x - exact).max() <= 1e-8


def test_reduced_rates_agree_with_flat_frame():
    fr = fl.frame_from_flat(
        np.array([V, 0.0, 0.0]), np.array([0.0, V**2 / R_TURN, 0.0])
    )
    g_v = fr.R.T @ np.array([0.0, 0.0, -9.81])
    assert -(fr.a_vz + g_v[2]) / V == pytest.approx(fr.omega_vy, abs=1e-12)
    assert g_v[1] / V == pytest.approx(fr.omega_vz, abs=1e-12)


def test_reduced_step_rotation_stays_orthonormal():
    fr = level_frame()
    rs = sim.ReducedState(np.zeros(3), fr.R[:, 0] * V, fr.R.copy(), 0.0, -9.81)
    for _ in range(500):
        rs = sim.reduced_step(rs, (0.05, 0.02, -0.03), 0.01)
    assert np.abs(rs.R.T @ rs.R - np.eye(3)).max() <= 1e-12
