"""End-to-end behavioral guarantees for the whole toolkit.

Each test pins one externally observable promise (tracking quality,
solver agreement, scaling, reproducibility) together with its runtime
budget, using only public entry points. Unit-level coverage lives in the
per-module test files; failures here mean a user-visible regression.
"""

import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from flatwing import cli
from flatwing import flatness as fl
from flatwing import mission as ms
from flatwing import planner as pl
from flatwing import qp
from flatwing import simulator as sim
from flatwing.bernstein import (
    PiecewiseTrajectory,
    basis_row,
    gram_matrix,
)

from oracles import (
    active_set_qp,
    fd_richardson,
    gram_by_quadrature,
    random_box_qp,
)

# Central-difference steps sized per derivative order: the k-th difference
# quotient loses ~eps/h^k to rounding, so h must grow with k.
FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 1e-3}

V = 14.0
R_LOITER = 45.0
CALM = (0.0, 0.0, 0.0)
MISSION_FILE = Path(__file__).resolve().parents[1] / "missions" / "two_loiter_survey.txt"
PARAMS_FILE = Path(__file__).resolve().parents[1] / "missions" / "breezy_northeast.txt"


def mission_csv_bytes():
    plan = ms.parse_mission(MISSION_FILE.read_text())
    aero, wind, mcfg = ms.build_setup(ms.parse_params(PARAMS_FILE.read_text()))
    result = ms.run_mission(plan, params=aero, wind=wind, mcfg=mcfg)
    buf = io.StringIO()
    ms.write_csv(result.log, buf)
    return plan, result, buf.getvalue().encode()


@pytest.fixture(scope="module")
def survey_mission():
    t0 = time.perf_counter()
    plan, result, blob = mission_csv_bytes()
    return plan, result, blob, time.perf_counter() - t0


def test_replanning_drives_curvature_within_limits():
    """A sharp dogleg whose first plan overshoots the curvature limit is
    pulled inside it by a handful of 10 Hz replans, monotonically."""
    t_begin = time.perf_counter()
    cfg = pl.PlannerConfig()
    leg = 120.0
    corner = np.array([[-leg, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, leg, 0.0]])
    wps = pl.WaypointSequence(
        corner,
        pl.BoundaryState(corner[0], [V, 0.0, 0.0], np.zeros(3)),
        pl.BoundaryState(corner[2], [0.0, V, 0.0], np.zeros(3)),
    )

    def lookahead_kappa(traj, t_from, dist=120.0):
        t_to = min(traj.t_end, t_from + dist / V)
        worst = 0.0
        for t in np.linspace(max(t_from, traj.t_start), t_to, 400):
            _, vel, acc, _ = traj.eval(t)
            k, _ = pl.curvature(vel[:2], acc[:2])
            worst = max(worst, abs(k))
        return worst

    first = pl.plan(wps, cfg)
    assert first.ok
    traj, warm = first.trajectory, first.qp_solution
    history = [lookahead_kappa(traj, 0.0)]
    assert history[0] > cfg.kappa_max  # cold start genuinely overshoots

    for i in range(1, 6):  # replans at 10 Hz with a 50 ms handoff budget
        if history[-1] <= 0.021:
            break
        res = pl.replan(traj, 0.1 * i, 0.05, corner[1:], cfg, wps.boundary_end, warm=warm)
        assert res.ok, res.status
        traj, warm = res.trajectory, res.qp_solution
        history.append(lookahead_kappa(traj, 0.1 * i + 0.05))

    assert history[-1] <= 0.021
    assert all(b <= a for a, b in zip(history, history[1:]))
    assert time.perf_counter() - t_begin < 5.0


def test_two_loiter_mission_tracks_through_wind(survey_mission):
    """The bundled survey (two 45 m loiters, ~1.1 km, 2 m/s NE wind) flies
    closed-loop within the advertised tracking envelope."""
    plan, result, _, wall = survey_mission
    assert wall < 60.0

    centers = {tuple(lo.center) for lo in plan.loiters}
    assert len(centers) == 2  # two loiter sites, revisiting the first to land
    assert len(plan.legs) == 2
    assert all(lo.radius == R_LOITER for lo in plan.loiters)
    assert plan.cruise_speed == V

    assert not result.aborted, result.abort_reason
    m = result.metrics
    assert 1000.0 <= m["path_length"] <= 1250.0
    assert m["rmse_pos"] <= 8.0
    assert m["rmse_vel"] <= 4.0
    assert max(abs(m["roll_min"]), abs(m["roll_max"])) <= 0.9
    assert result.abort_reason == ""  # no singularity ever tripped the loop


def test_terminal_replans_stop_early(survey_mission):
    """Each leg's last replans before the freeze, short single-segment
    problems, stop once the active set settles instead of running ADMM for
    thousands of iterations. An iteration cap holds on any host."""
    _, result, _, _ = survey_mission
    assert result.metrics["n_replans"] == 441
    assert result.metrics["qp_iterations_max"] <= 500


def test_most_replans_hot_start(survey_mission):
    """Consecutive replans of a leg mostly end on the same active set, so
    the previous answer's active set, polished, is accepted before any
    ADMM iteration; a replan whose segment count changed has no warm
    start, and its equality rows, polished, are accepted (441 of 441
    replans on this host)."""
    _, result, _, _ = survey_mission
    assert len(result.events) == 441
    hot = sum(e.iterations == 0 for e in result.events)
    assert hot >= 0.9 * 441, hot
    assert all(e.accepted for e in result.events)


def test_inverted_inputs_reproduce_reference_motion():
    """Feeding the flatness-inverted inputs open-loop through the reduced
    model reproduces straight, circling, and climbing references."""
    t_begin = time.perf_counter()
    w = V / R_LOITER
    climb = 1.0
    wh = math.sqrt(V * V - climb * climb) / R_LOITER

    def line(t):
        return fl.FlatState(
            np.array([V * t, 0.0, 60.0]), np.array([V, 0.0, 0.0]),
            np.zeros(3), np.zeros(3),
        )

    def circle(t):
        c, s = math.cos(w * t), math.sin(w * t)
        return fl.FlatState(
            np.array([R_LOITER * c, R_LOITER * s, 60.0]),
            np.array([-R_LOITER * w * s, R_LOITER * w * c, 0.0]),
            np.array([-R_LOITER * w * w * c, -R_LOITER * w * w * s, 0.0]),
            np.array([R_LOITER * w**3 * s, -R_LOITER * w**3 * c, 0.0]),
        )

    def helix(t):
        c, s = math.cos(wh * t), math.sin(wh * t)
        return fl.FlatState(
            np.array([R_LOITER * c, R_LOITER * s, 60.0 + climb * t]),
            np.array([-R_LOITER * wh * s, R_LOITER * wh * c, climb]),
            np.array([-R_LOITER * wh * wh * c, -R_LOITER * wh * wh * s, 0.0]),
            np.array([R_LOITER * wh**3 * s, -R_LOITER * wh**3 * c, 0.0]),
        )

    dt = 1e-3
    for ref in (line, circle, helix):
        start = ref(0.0)
        frame = fl.frame_from_flat(start.velocity, start.acceleration)
        state = sim.ReducedState(
            start.position.copy(), start.velocity.copy(), frame.R.copy(),
            frame.a_vx, frame.a_vz,
        )
        for k in range(2000):  # 2 s
            r_k = ref(k * dt)
            f_k = fl.frame_from_flat(r_k.velocity, r_k.acceleration)
            state = sim.reduced_step(state, fl.flat_inputs(r_k, f_k), dt)
            err = np.abs(state.x - ref((k + 1) * dt).position).max()
            assert err <= 1e-3
    assert time.perf_counter() - t_begin < 1.0


def test_commanded_bank_matches_coordinated_turn_identity():
    """Tracking a level 45 m circle at 14 m/s settles on the coordinated
    bank angle tan(phi) = V^2/(r g), commanded and flown."""
    t_begin = time.perf_counter()
    loiter = ms.Loiter(np.array([0.0, 0.0, 60.0]), R_LOITER, ccw=True)
    params = sim.AeroParams()

    ref0 = ms.loiter_reference(loiter, V, 0.0)
    frame0 = fl.frame_from_flat(ref0.velocity, ref0.acceleration)
    alpha0, _ = sim.coordinated_trim(params, V, -frame0.a_vz, 60.0)
    st = sim.AircraftState(
        ref0.position, ref0.velocity, tuple(frame0.R.ravel().tolist()), alpha0, V
    )
    prev_omega = np.array(
        [fl.flat_inputs(ref0, frame0)[1], frame0.omega_vy, frame0.omega_vz]
    )
    prev_a_vx = frame0.a_vx
    cmd_state = None
    dt = 0.01
    banks, rolls = [], []
    for k in range(2000):  # 20 s: two laps, transient long gone
        ref = ms.loiter_reference(loiter, V, k * dt)
        vdot = prev_a_vx - 9.81 * st.R[6]
        a_est = np.reshape(st.R, (3, 3)) @ np.array(
            [vdot, st.V_a * prev_omega[2], -st.V_a * prev_omega[1]]
        )
        k_dyn = sim.dynamic_accel(params, st.v, CALM, st.x[2])
        _, a_D = sim.aero_accels(params, k_dyn, st.alpha)
        cmd, cmd_state = fl.command_from_flat(
            ref, st.x, st.v, a_est, params.phi_limit, cmd_state, dt,
            drag_accel=a_D, alpha_est=st.alpha, a_T_max=params.a_T_max,
        )
        st.alpha = sim.solve_alpha(
            params, st.V_a, st.x[2], cmd.a_T, cmd_state.a_vz
        )
        omega_v = sim.attitude_inner_loop(st.R, fl.euler_zyx(st.R), st.alpha, st.V_a,
                                          cmd, 0.1, dt)
        a_L, a_D = sim.aero_accels(params, k_dyn, st.alpha)
        a_vx, _ = sim.input_accels(cmd.a_T, a_D, a_L, st.alpha)
        st = sim.step(st, omega_v, a_vx, CALM, dt)
        prev_omega, prev_a_vx = omega_v, a_vx
        if k * dt >= 15.0:
            banks.append(cmd.phi_c)
            rolls.append(fl.euler_zyx(st.R)[0])

    ideal = V**2 / (R_LOITER * 9.81)
    for phi_c in banks:
        assert abs(math.tan(abs(phi_c)) - ideal) <= 1e-6
    assert np.mean(np.abs(banks)) == pytest.approx(0.418, abs=5e-4)
    for phi in rolls:  # the airframe actually holds that bank
        assert abs(abs(phi) - math.atan(ideal)) <= 1e-6
    assert time.perf_counter() - t_begin < 10.0


def test_solver_agrees_with_active_set_oracle():
    """100 random boxed QPs: the first-order solver lands on the oracle's
    primal point and meets its own configured tolerances every time."""
    t_begin = time.perf_counter()
    rng = np.random.default_rng(2024)
    eps = 1e-6
    settings = qp.QpSettings(eps_abs=eps, eps_rel=eps)
    for _ in range(100):
        Q, q, A, lo, hi, x_feas = random_box_qp(rng)
        prob = qp.QpProblem(Q, q, A, lo, hi)
        sol = qp.solve_qp(prob, settings)
        assert sol.status == "solved"

        x_ref, _ = active_set_qp(Q, q, A, lo, hi, x_feas)
        assert np.abs(sol.x - x_ref).max() <= 1e-5

        prim, dual = qp.kkt_residuals(prob, sol.x, sol.y)
        ax = A @ sol.x
        eps_prim = eps + eps * max(
            np.abs(ax).max(), np.abs(np.clip(ax, lo, hi)).max()
        )
        eps_dual = eps + eps * max(
            np.abs(Q @ sol.x).max(), np.abs(A.T @ sol.y).max(), np.abs(q).max()
        )
        assert prim <= eps_prim
        assert dual <= eps_dual
    assert time.perf_counter() - t_begin < 10.0


def test_planner_time_scales_linearly_with_waypoints():
    """Mean planning time grows linearly in the waypoint count, and a
    16-waypoint kilometre-scale plan stays under a second."""
    sizes = [4, 8, 16, 32, 64]
    cli.bench_planner([8])  # warm the caches before timing
    means = []
    plan_16 = None
    for n in sizes:
        walls = []
        for _ in range(3):
            tic = time.perf_counter()
            (res,) = cli.bench_planner([n])
            walls.append(time.perf_counter() - tic)
            assert res.ok
            if n == 16:
                plan_16 = (res, walls[-1])
        means.append(float(np.mean(walls)))
    _, _, r2 = cli.linear_fit_r2(sizes, means)
    assert r2 >= 0.9, (means, r2)

    res16, wall16 = plan_16
    assert wall16 < 1.0
    field = cli.waypoint_field(16)
    span = np.linalg.norm(np.diff(field, axis=0), axis=1).sum()
    assert 0.8e3 <= span <= 1.3e3  # genuinely a ~1 km problem


def test_bernstein_basis_property_suite():
    """Partition of unity, convex hull, endpoint interpolation, exact
    derivatives, and exact Gram matrices across all supported degrees."""
    t_begin = time.perf_counter()
    rng = np.random.default_rng(77)
    u_grid = np.linspace(0.0, 1.0, 23)
    for n in range(3, 13):
        for u in u_grid:
            row = basis_row(n, float(u))
            assert abs(row.sum() - 1.0) <= 1e-12
            assert row.min() >= -1e-15

        dur = 2.0 + 0.3 * n
        cps = rng.normal(size=(n + 1, 3))
        curve = PiecewiseTrajectory([cps], [0.0, dur])
        assert np.abs(curve.eval(0.0)[0] - cps[0]).max() <= 1e-12
        assert np.abs(curve.eval(dur)[0] - cps[-1]).max() <= 1e-12
        for t in np.linspace(0.0, dur, 17):
            val = curve.eval(float(t))[0]
            assert np.all(val <= cps.max(axis=0) + 1e-12)
            assert np.all(val >= cps.min(axis=0) - 1e-12)

        traj = PiecewiseTrajectory([0.3 * cps], [0.0, dur])
        for k in (1, 2, 3):
            for t in (0.31 * dur, 0.77 * dur):
                exact = traj.eval(t)[k]
                approx = fd_richardson(
                    lambda s: np.array(traj.eval(s)[0]), t, k, FD_STEPS[k]
                )
                assert np.abs(exact - approx).max() <= 1e-5

        G = gram_matrix(n, dur)
        assert np.abs(G - gram_by_quadrature(n, dur)).max() <= 1e-10
    assert time.perf_counter() - t_begin < 5.0


def test_integrator_order_and_rotation_drift():
    """Fourth-order convergence against the closed-form level turn, and no
    measurable orthonormality loss over a million rotation updates."""
    t_begin = time.perf_counter()
    wz = V / R_LOITER
    Wm = np.array([[0.0, -wz, 0.0], [wz, 0.0, 0.0], [0.0, 0.0, 0.0]])
    W2 = Wm @ Wm
    e1 = np.array([1.0, 0.0, 0.0])

    def exact_pos(t):
        lever = (
            t * np.eye(3)
            + (1.0 - math.cos(wz * t)) / wz**2 * Wm
            + (t - math.sin(wz * t) / wz) / wz**2 * W2
        )
        return V * lever @ e1

    def endpoint_error(dt, horizon=2.0):
        st = sim.AircraftState((0.0, 0.0, 0.0), (V, 0.0, 0.0),
                               tuple(np.eye(3).ravel().tolist()), 0.0, V)
        for _ in range(int(round(horizon / dt))):
            st = sim.step(st, (0.0, 0.0, wz), 0.0, CALM, dt)
        return float(np.abs(np.subtract(st.x, exact_pos(horizon))).max())

    ratio = endpoint_error(0.02) / endpoint_error(0.01)
    assert 8.0 <= ratio <= 32.0  # fourth order: halving dt gains ~16x

    omegas = np.column_stack([
        0.3 * np.sin(0.0007 * np.arange(1_000_000)),
        np.full(1_000_000, 0.2),
        0.25 * np.cos(0.0004 * np.arange(1_000_000)),
    ])
    R = tuple(np.eye(3).ravel().tolist())  # row-major, as _rotation_step carries it
    for om in omegas.tolist():
        R, _ = sim._rotation_step(R, om, 0.002)
    R = np.reshape(R, (3, 3))
    assert np.abs(R.T @ R - np.eye(3)).max() <= 1e-9
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)
    assert time.perf_counter() - t_begin < 30.0


def test_mission_logs_are_byte_reproducible(survey_mission):
    """Two full closed-loop runs of the same mission produce identical CSV
    logs, byte for byte."""
    _, _, first_blob, _ = survey_mission
    _, _, second_blob = mission_csv_bytes()
    assert hashlib.sha256(first_blob).hexdigest() == hashlib.sha256(second_blob).hexdigest()
    assert first_blob == second_blob
