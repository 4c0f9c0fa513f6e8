import math

import numpy as np
import pytest

from flatwing import planner as pl
from flatwing import qp
from flatwing.flatness import FlatnessSingularityError

CRUISE = 14.0


def seq(waypoints, v0=None, v1=None):
    w = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if v0 is None:
        v0 = CRUISE * (w[1] - w[0]) / np.linalg.norm(w[1] - w[0])
    if v1 is None:
        v1 = CRUISE * (w[-1] - w[-2]) / np.linalg.norm(w[-1] - w[-2])
    return pl.WaypointSequence(
        w,
        pl.BoundaryState(w[0], v0, np.zeros(3)),
        pl.BoundaryState(w[-1], v1, np.zeros(3)),
    )


def dogleg(angle_deg, leg=120.0):
    a = math.radians(angle_deg)
    return seq([[-leg, 0, 0], [0, 0, 0], [leg * math.cos(a), leg * math.sin(a), 0]])


def max_curvature(traj, t_lo=None, t_hi=None, samples=400):
    lo = traj.t_start if t_lo is None else t_lo
    hi = traj.t_end if t_hi is None else t_hi
    worst = 0.0
    for t in np.linspace(lo, hi, samples):
        _, v, a, _ = traj.eval(t)
        k, _ = pl.curvature(v[:2], a[:2])
        worst = max(worst, abs(k))
    return worst


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        pl.PlannerConfig(degree=4)
    with pytest.raises(ValueError):
        pl.PlannerConfig(degree=13)
    with pytest.raises(ValueError):
        pl.PlannerConfig(kappa_min=0.03, kappa_max=0.02)
    with pytest.raises(ValueError):
        pl.PlannerConfig(v_min=0.0)
    with pytest.raises(ValueError):
        pl.PlannerConfig(cruise_speed=-1.0)
    with pytest.raises(ValueError):
        pl.PlannerConfig(degree=5, continuity_order=5)


def test_waypoint_sequence_validation():
    with pytest.raises(ValueError):
        pl.WaypointSequence(
            np.array([[0.0, 0, 0]]),
            pl.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3)),
            pl.BoundaryState(np.zeros(3), np.zeros(3), np.zeros(3)),
        )
    with pytest.raises(ValueError):
        seq([[0, 0, 0], [0.5, 0, 0]])  # closer than 1 m
    w = np.array([[0.0, 0, 0], [100.0, 0, 0]])
    with pytest.raises(ValueError):
        pl.WaypointSequence(
            w,
            pl.BoundaryState(w[0] + 5.0, np.zeros(3), np.zeros(3)),
            pl.BoundaryState(w[1], np.zeros(3), np.zeros(3)),
        )


# ---------------------------------------------------------------- timing


def test_allocate_times_distance_over_speed():
    times = pl.allocate_times(seq([[0, 0, 0], [140, 0, 0]]), CRUISE)
    assert np.allclose(times, [10.0])
    times = pl.allocate_times(seq([[0, 0, 0], [70, 0, 0], [140, 0, 0]]), CRUISE)
    assert np.allclose(times, [5.0, 10.0])


def test_allocate_times_scales_inversely_with_speed():
    s = seq([[0, 0, 0], [60, 80, 0], [120, 160, 0]])
    assert np.allclose(pl.allocate_times(s, 28.0), pl.allocate_times(s, 14.0) / 2.0)
    with pytest.raises(ValueError):
        pl.allocate_times(s, 0.0)


# ---------------------------------------------------------------- cost


def test_cost_is_positive_semidefinite():
    Q = pl.build_cost(pl.PlannerConfig(), [5.0, 7.0])
    assert np.allclose(Q, Q.T)
    assert np.linalg.eigvalsh(Q).min() >= -1e-8


def test_cost_vanishes_for_straight_uniform_motion():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    Q = pl.build_cost(cfg, [10.0])
    # equally spaced control points along a line: zero jerk
    line = np.linspace(0.0, 140.0, n + 1)
    p = np.concatenate([line, 0.3 * line, np.zeros(n + 1)])
    assert p @ Q @ p <= 1e-12 * (1.0 + p @ p)


def test_cost_equals_integrated_squared_jerk():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    rng = np.random.default_rng(5)
    dur = 3.7
    cps = rng.normal(size=(3, n + 1)) * 10.0
    Q = pl.build_cost(cfg, [dur])
    p = cps.reshape(-1)
    quad_form = p @ Q @ p

    from flatwing.bernstein import BernsteinSegment, PiecewiseTrajectory

    traj = PiecewiseTrajectory([BernsteinSegment(cps.T, 0.0, dur)])
    nodes, weights = np.polynomial.legendre.leggauss(2 * n)
    t = 0.5 * dur * (nodes + 1.0)
    total = 0.0
    for ti, wi in zip(t, weights):
        _, _, _, j = traj.eval(ti)
        total += wi * float(j @ j)
    total *= 0.5 * dur
    assert quad_form == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------- constraints


def test_endpoint_constraint_shape_and_equality():
    cfg = pl.PlannerConfig()
    s = seq([[0, 0, 0], [70, 0, 0], [140, 0, 0]])
    durations = [5.0, 5.0]
    A, lo, hi = pl.build_endpoint_constraints(s, cfg, durations)
    # 3 boundary derivatives x 3 axes at each end, plus one interior waypoint
    assert A.shape == (18 + 3, 3 * 2 * (cfg.degree + 1))
    assert np.array_equal(lo, hi)


def test_continuity_constraint_shape():
    cfg = pl.PlannerConfig()
    A, lo, hi = pl.build_continuity_constraints(cfg, [5.0, 5.0, 5.0])
    assert A.shape[0] == 3 * (cfg.continuity_order + 1) * 2
    assert not lo.any() and not hi.any()
    A_single, _, _ = pl.build_continuity_constraints(cfg, [5.0])
    assert A_single.shape[0] == 0


def test_derivative_bounds_rows():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    A, lo, hi = pl.build_derivative_bounds(cfg, [10.0])
    assert A.shape[0] == 3 * n + 3 * (n - 1)
    free = pl.PlannerConfig(v_max=np.inf, a_max=np.inf)
    A0, _, _ = pl.build_derivative_bounds(free, [10.0])
    assert A0.shape == (0, 3 * (n + 1))
    chords = np.array([[1.0, 0.0, 0.0]])
    Ac, loc, hic = pl.build_derivative_bounds(cfg, [10.0], chords)
    assert Ac.shape[0] == A.shape[0] + n
    assert loc[-n:].min() == cfg.v_min and np.isinf(hic[-n:]).all()
    with pytest.raises(ValueError):
        pl.build_derivative_bounds(pl.PlannerConfig(a_max=-1.0), [10.0])


def test_solved_plan_respects_acceleration_bound():
    cfg = pl.PlannerConfig(a_max=2.5)
    res = pl.plan(dogleg(30.0), cfg)
    assert res.ok
    for t in np.linspace(res.trajectory.t_start, res.trajectory.t_end, 500):
        _, _, a, _ = res.trajectory.eval(t)
        assert np.abs(a).max() <= 2.5 + 1e-6


# ---------------------------------------------------------------- curvature


def test_curvature_of_coordinated_turn():
    k, _ = pl.curvature([14.0, 0.0], [0.0, 14.0**2 / 45.0])
    assert k == pytest.approx(1.0 / 45.0, rel=1e-12)
    k, _ = pl.curvature([14.0, 0.0], [3.0, 0.0])  # collinear accel
    assert k == 0.0
    k_cw, _ = pl.curvature([14.0, 0.0], [0.0, -14.0**2 / 45.0])
    assert k_cw == pytest.approx(-1.0 / 45.0, rel=1e-12)


def test_curvature_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = np.concatenate([
            [14.0 + rng.uniform(-4, 4), rng.uniform(-6, 6)],
            rng.normal(size=2) * 3.0,
        ])
        _, grad = pl.curvature(z[:2], z[2:])
        h = 1e-6
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            kp, _ = pl.curvature(zp[:2], zp[2:])
            km, _ = pl.curvature(zm[:2], zm[2:])
            assert grad[i] == pytest.approx((kp - km) / (2 * h), rel=2e-5, abs=1e-9)


def test_curvature_rejects_low_speed():
    with pytest.raises(FlatnessSingularityError):
        pl.curvature([0.1, 0.0], [0.0, 1.0])


def test_straight_line_reference_geometry():
    traj = pl.straight_line_reference([[0, 0, 0], [70, 0, 0], [70, 70, 0]], CRUISE, t0=2.0)
    assert traj.t_start == 2.0
    assert traj.t_end == pytest.approx(12.0)
    p, v, a, _ = traj.eval(4.5)
    assert np.allclose(p, [35.0, 0.0, 0.0])
    assert np.allclose(v, [14.0, 0.0, 0.0])
    assert np.allclose(a, 0.0)


def test_curvature_rows_one_per_sample():
    cfg = pl.PlannerConfig(n_curv_samples=8)
    prev = pl.straight_line_reference([[0, 0, 0], [140, 0, 0]], CRUISE)
    A, lo, hi = pl.build_curvature_constraints(prev, cfg, [10.0])
    assert A.shape[0] == 8
    assert np.all(lo < hi)
    unbounded = pl.PlannerConfig(kappa_min=-np.inf, kappa_max=np.inf)
    A0, _, _ = pl.build_curvature_constraints(prev, unbounded, [10.0])
    assert A0.shape[0] == 0


def scalar_curvature_rows(prev, cfg, durations, t0):
    """One row per sample from curvature(), basis_row and derivative_map."""
    from flatwing.bernstein import basis_row, derivative_map

    n = cfg.degree
    N = 3 * len(durations) * (n + 1)
    rows, lo, hi = [], [], []
    seg_start = t0
    for m, d in enumerate(durations):
        D1 = derivative_map(n, 1, d).matrix
        D2 = derivative_map(n, 2, d).matrix
        for k in range(cfg.n_curv_samples):
            u = (k + 0.5) / cfg.n_curv_samples
            t = min(max(seg_start + u * d, prev.t_start), prev.t_end)
            _, vel, acc, _ = prev.eval(t)
            kbar, grad = pl.curvature(vel[:2], acc[:2], cfg.v_eps)
            w_v = basis_row(n - 1, u) @ D1
            w_a = basis_row(n - 2, u) @ D2
            row = np.zeros(N)
            i0 = m * 3 * (n + 1)
            row[i0 : i0 + n + 1] = grad[0] * w_v + grad[2] * w_a
            row[i0 + n + 1 : i0 + 2 * (n + 1)] = grad[1] * w_v + grad[3] * w_a
            c0 = kbar - (grad[0] * vel[0] + grad[1] * vel[1]
                         + grad[2] * acc[0] + grad[3] * acc[1])
            rows.append(row)
            lo.append(cfg.kappa_min - c0)
            hi.append(cfg.kappa_max - c0)
        seg_start += d
    return np.array(rows), np.array(lo), np.array(hi)


def test_batched_curvature_rows_match_scalar_reference():
    turn = pl.plan(dogleg(60.0), pl.PlannerConfig(kappa_min=-np.inf, kappa_max=np.inf))
    prev = turn.trajectory
    # a horizon starting mid-turn and running past the trajectory's end, so
    # the last samples clamp to its domain
    durations = [3.0, 2.5, 15.0]
    for cfg in (pl.PlannerConfig(), pl.PlannerConfig(degree=9, n_curv_samples=7)):
        A, lo, hi = pl.build_curvature_constraints(prev, cfg, durations, t0=7.3)
        A_ref, lo_ref, hi_ref = scalar_curvature_rows(prev, cfg, durations, 7.3)
        assert A.shape == A_ref.shape == (3 * cfg.n_curv_samples, 9 * (cfg.degree + 1))
        assert np.abs(A - A_ref).max() <= 1e-12
        assert np.abs(lo - lo_ref).max() <= 1e-12
        assert np.abs(hi - hi_ref).max() <= 1e-12
        # the reference turns: the linearization varies from sample to sample
        assert np.ptp(lo_ref) > 1e-3


def test_batched_curvature_rows_reject_a_slow_reference():
    slow = pl.straight_line_reference([[0, 0, 0], [10, 0, 0], [10, 1, 0]], 0.2)
    with pytest.raises(FlatnessSingularityError, match="planar speed 0.200 m/s"):
        pl.build_curvature_constraints(slow, pl.PlannerConfig(), [20.0])


def test_batched_curvature_matches_scalar_calls():
    rng = np.random.default_rng(3)
    ang = rng.uniform(-np.pi, np.pi, 50)
    v = rng.uniform(2.0, 25.0, 50)[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    a = rng.normal(size=(50, 2)) * 3
    kappa, grad = pl.curvature(v, a)
    assert kappa.shape == (50,) and grad.shape == (50, 4)
    for i in range(50):
        k_i, g_i = pl.curvature(v[i], a[i])
        assert abs(kappa[i] - k_i) <= 1e-15 * max(1.0, abs(k_i))
        assert np.abs(grad[i] - g_i).max() <= 1e-15 * max(1.0, np.abs(g_i).max())
    v[[7, 30]] = [[0.1, 0.0], [0.0, 0.05]]
    with pytest.raises(FlatnessSingularityError, match="planar speed 0.100 m/s"):
        pl.curvature(v, a)


# ---------------------------------------------------------------- plan


def test_plan_straight_leg_is_a_straight_line():
    res = pl.plan(seq([[0, 0, 0], [140, 0, 0]]), pl.PlannerConfig())
    assert res.status == "solved" and res.ok
    assert res.objective <= 1e-9
    for t in np.linspace(0.0, 10.0, 101):
        p, v, _, _ = res.trajectory.eval(t)
        assert np.abs(p - [CRUISE * t, 0.0, 0.0]).max() <= 1e-6
        assert np.abs(v - [CRUISE, 0.0, 0.0]).max() <= 1e-5
    assert "status=solved" in res.summary()


def test_plan_s_curve_is_point_symmetric():
    res = pl.plan(seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]]), pl.PlannerConfig())
    assert res.ok
    tr = res.trajectory
    half = (tr.t_end - tr.t_start) / 2.0
    center = np.array([60.0, 20.0, 0.0])
    for s in np.linspace(0.0, half, 40):
        pa, _, _, _ = tr.eval(tr.t_start + s)
        pb, _, _, _ = tr.eval(tr.t_end - s)
        assert np.abs(pa + pb - 2.0 * center).max() <= 1e-6


def test_plan_translation_equivariance():
    base = np.array([[0, 0, 0], [60, 20, 0], [120, 40, 0]], dtype=float)
    shift = np.array([1234.5, -987.25, 55.0])
    r0 = pl.plan(seq(base), pl.PlannerConfig())
    r1 = pl.plan(seq(base + shift), pl.PlannerConfig())
    assert r0.ok and r1.ok
    for t in np.linspace(r0.trajectory.t_start, r0.trajectory.t_end, 60):
        a, _, _, _ = r0.trajectory.eval(t)
        b, _, _, _ = r1.trajectory.eval(t)
        assert np.abs(b - a - shift).max() <= 1e-9


def test_plan_satisfies_boundary_and_waypoints():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    res = pl.plan(s, pl.PlannerConfig())
    tr = res.trajectory
    p, v, a, _ = tr.eval(tr.t_start)
    assert np.abs(p - s.boundary_start.position).max() <= 1e-6
    assert np.abs(v - s.boundary_start.velocity).max() <= 1e-6
    assert np.abs(a).max() <= 1e-6
    p, v, a, _ = tr.eval(tr.t_end)
    assert np.abs(p - s.boundary_end.position).max() <= 1e-6
    assert np.abs(v - s.boundary_end.velocity).max() <= 1e-6
    times = pl.allocate_times(s, CRUISE)
    p, _, _, _ = tr.eval(times[0])
    assert np.abs(p - [60.0, 20.0, 0.0]).max() <= 1e-6


def test_plan_junctions_are_smooth():
    from flatwing.bernstein import derivative_segment, eval_segment

    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    res = pl.plan(s, pl.PlannerConfig())
    first, second = res.trajectory.segments
    t_j = first.tf
    for k in range(4):  # continuity through jerk
        left = np.asarray(eval_segment(derivative_segment(first, k), t_j))
        right = np.asarray(eval_segment(derivative_segment(second, k), t_j))
        assert np.abs(left - right).max() <= 1e-9


def test_plan_sharp_turn_converges_within_curvature_limit():
    cfg = pl.PlannerConfig()
    s = dogleg(90.0)
    res = pl.plan(s, cfg)
    assert res.ok
    cold = max_curvature(res.trajectory)
    assert cold > cfg.kappa_max  # straight-line linearization overshoots
    for _ in range(4):
        res = pl.plan(s, cfg, prev_traj=res.trajectory)
        assert res.ok
    assert max_curvature(res.trajectory) <= cfg.kappa_max * 1.05
    assert max_curvature(res.trajectory) < cold / 2.0


def test_plan_reports_failure_without_trajectory():
    # contradictory bounds: forward progress requires more speed than allowed
    cfg = pl.PlannerConfig(v_min=10.0, v_max=0.5, a_max=1.0)
    res = pl.plan(seq([[0, 0, 0], [140, 0, 0]]), cfg)
    assert not res.ok
    assert res.trajectory is None
    assert res.status != "solved"


# ---------------------------------------------------------------- replan


def test_replan_hands_off_continuously():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    t_now, t_opt = 2.0, 0.5
    re = pl.replan(first.trajectory, t_now, t_opt, s.waypoints[1:], pl.PlannerConfig())
    assert re.ok
    t_h = t_now + t_opt
    assert re.trajectory.t_start == pytest.approx(t_h)
    p0, v0, a0, _ = first.trajectory.eval(t_h)
    p1, v1, a1, _ = re.trajectory.eval(t_h)
    assert np.abs(p1 - p0).max() <= 1e-6
    assert np.abs(v1 - v0).max() <= 1e-6
    assert np.abs(a1 - a0).max() <= 1e-5


def test_replan_of_optimal_plan_is_a_fixed_point():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    re = pl.replan(first.trajectory, 4.0, 0.3, [[140.0, 0.0, 0.0]], pl.PlannerConfig())
    assert re.ok
    for t in np.linspace(4.3, 10.0, 50):
        a, _, _, _ = first.trajectory.eval(t)
        b, _, _, _ = re.trajectory.eval(t)
        assert np.abs(b - a).max() <= 1e-3


def test_replan_rejects_handoff_outside_domain():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    re = pl.replan(first.trajectory, 100.0, 0.5, [[140.0, 0.0, 0.0]], pl.PlannerConfig())
    assert re.status == "rejected"
    assert not re.ok and re.trajectory is None


def test_replan_rejects_when_target_reached():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    # handoff lands within a meter of the leg end
    re = pl.replan(first.trajectory, 9.95, 0.05, [[140.0, 0.0, 0.0]], pl.PlannerConfig())
    assert re.status == "rejected"


def test_replan_warm_start_converges_faster():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    cold = pl.replan(first.trajectory, 2.0, 0.5, s.waypoints[1:], pl.PlannerConfig())
    warm = pl.replan(
        first.trajectory, 2.0, 0.5, s.waypoints[1:], pl.PlannerConfig(),
        warm=cold.qp_solution,
    )
    assert warm.ok
    assert warm.iterations <= cold.iterations


# ---------------------------------------------------------------- scaling


def test_stacked_problem_dimensions():
    cfg = pl.PlannerConfig()
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    prob, durations, shift = pl.assemble(s, cfg)
    n = cfg.degree
    assert durations.size == 2
    assert prob.n == 3 * 2 * (n + 1)
    assert np.array_equal(shift, [0.0, 0.0, 0.0])
    assert isinstance(prob, qp.QpProblem)
    res = pl.plan(s, cfg)
    assert res.n_vars == prob.n
    assert res.n_constraints == prob.m
