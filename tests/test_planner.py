import math

import numpy as np
import pytest
import scipy.sparse as sp

from flatwing import planner as pl
from flatwing import qp
from flatwing.bernstein import PiecewiseTrajectory
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
    # Each of these used to plan with a bound dropped, or fail deep inside
    # the assembly or the solver; now the field is named at construction.
    for field, value in (("a_max", np.nan), ("v_max", (25.0, np.nan, 20.0)),
                         ("a_max", (6.0, 6.0)), ("n_curv_samples", 0),
                         ("n_curv_samples", 2.5), ("continuity_order", -1),
                         ("degree", 7.5), ("kappa_max", np.nan), ("kappa_min", np.nan),
                         ("kappa_min", np.inf), ("v_min", np.inf),
                         ("cruise_speed", np.nan)):
        with pytest.raises(ValueError, match=field):
            pl.PlannerConfig(**{field: value})
    cfg = pl.PlannerConfig(degree=7.0, n_curv_samples=np.int64(8), continuity_order=3.0)
    assert type(cfg.degree) is type(cfg.n_curv_samples) is type(cfg.continuity_order) is int
    assert pl.plan(seq([[0, 0, 0], [140, 0, 0]]), cfg).status == "solved"
    # +inf drops a bound and stays legal
    pl.PlannerConfig(v_max=(25.0, np.inf, 20.0), a_max=np.inf,
                     kappa_min=-np.inf, kappa_max=np.inf)


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


LINE3 = [[0.0, 0, 0], [60.0, 0, 0], [120.0, 0, 0]]


@pytest.mark.parametrize("waypoints, start, end, message", [
    ([[0, 0, 0], [60, np.nan, 0], [120, 0, 0]], {}, {}, "waypoint 1 is not finite"),
    (LINE3, {"velocity": [np.inf, 0, 0]}, {}, "boundary start state is not finite"),
    (LINE3, {}, {"position": [np.nan, 0, 0]}, "boundary end state is not finite"),
    ([[0, 0], [60, 0], [120, 0]], {}, {}, r"waypoints must be \(N, 3\) points, got shape \(3, 2\)"),
    ([[0, 0, 0, 1], [60, 0, 0, 1]], {}, {}, r"waypoints must be \(N, 3\) points"),
    (LINE3, {"acceleration": [0.0, 0.0]}, {}, "must be 3-vectors"),
], ids=["waypoint-nan", "start-velocity-inf", "end-position-nan", "two-columns",
        "four-columns", "start-acceleration-2-vector"])
def test_waypoint_sequence_refuses_malformed_input(waypoints, start, end, message):
    # Each of these used to construct and fail later, deep in the planner or
    # the solver, or not at all; now the sequence names the bad input.
    w = np.asarray(waypoints, dtype=float)
    v = np.zeros(w.shape[1])
    v[0] = CRUISE
    bnd = [pl.BoundaryState(**{"position": p, "velocity": v, "acceleration": np.zeros(3), **o})
           for p, o in ((w[0], start), (w[-1], end))]
    with pytest.raises(ValueError, match=message):
        pl.WaypointSequence(w, *bnd)


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
    G = pl.build_cost(pl.PlannerConfig(), [5.0, 7.0])
    assert G.shape == (2, 8, 8)
    for g in G:
        assert np.allclose(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-8


def test_cost_vanishes_for_straight_uniform_motion():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    (G,) = pl.build_cost(cfg, [10.0])
    # equally spaced control points along a line: zero jerk
    line = np.linspace(0.0, 140.0, n + 1)
    p = np.stack([line, 0.3 * line, np.zeros(n + 1)])
    assert sum(pa @ G @ pa for pa in p) <= 1e-12 * (1.0 + (p * p).sum())


def test_cost_equals_integrated_squared_jerk():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    rng = np.random.default_rng(5)
    dur = 3.7
    cps = rng.normal(size=(3, n + 1)) * 10.0
    (G,) = pl.build_cost(cfg, [dur])
    quad_form = sum(p @ G @ p for p in cps)

    traj = PiecewiseTrajectory([cps.T], [0.0, dur])
    nodes, weights = np.polynomial.legendre.leggauss(2 * n)
    t = 0.5 * dur * (nodes + 1.0)
    total = 0.0
    for ti, wi in zip(t, weights):
        _, _, _, j = np.array(traj.eval(ti))
        total += wi * float(j @ j)
    total *= 0.5 * dur
    assert quad_form == pytest.approx(total, rel=1e-8)


# ---------------------------------------------------------------- constraints


def dense_rows(W, seg, M):
    """Weight blocks (R, 3, n+1) as rows over every control point, ordered
    segment, axis, point: row r holds W[r] on segment seg[r]."""
    rows = np.zeros((len(W), M) + W.shape[1:])
    rows[np.arange(len(W)), seg] = W
    return rows.reshape(len(W), -1)


def test_derivative_bounds_rows():
    cfg = pl.PlannerConfig()
    n = cfg.degree
    W, seg, lo, hi = pl.build_derivative_bounds(cfg, [10.0])
    assert W.shape == (3 * n + 3 * (n - 1), 3, n + 1)
    assert not seg.any() and seg.shape == lo.shape == hi.shape == (len(W),)
    free = pl.PlannerConfig(v_max=np.inf, a_max=np.inf)
    W0, seg0, _, _ = pl.build_derivative_bounds(free, [10.0])
    assert W0.shape == (0, 3, n + 1) and seg0.shape == (0,)
    chords = np.array([[1.0, 0.0, 0.0]])
    Wc, _, loc, hic = pl.build_derivative_bounds(cfg, [10.0], chords)
    assert Wc.shape[0] == W.shape[0] + n
    assert loc[-n:].min() == cfg.v_min and np.isinf(hic[-n:]).all()
    with pytest.raises(ValueError):
        pl.build_derivative_bounds(pl.PlannerConfig(a_max=-1.0), [10.0])


def scalar_linear_rows(cfg, durations, chords):
    """Derivative-bound rows, one row at a time.

    Each row is a zero vector with derivative-map rows written at explicit
    column offsets: control point i of axis a on segment m is column
    m*3*(n+1) + a*(n+1) + i.
    """
    from flatwing.bernstein import derivative_scale, difference_stencil

    n = cfg.degree
    M = len(durations)
    N = 3 * M * (n + 1)

    def col(m, axis):
        return m * 3 * (n + 1) + axis * (n + 1)

    def row(*terms):
        r = np.zeros(N)
        for m, axis, w in terms:
            r[col(m, axis) : col(m, axis) + n + 1] = w
        return r

    A_db, lo, hi = [], [], []
    for m, d in enumerate(durations):
        D1 = derivative_scale(n, 1, d) * difference_stencil(n, 1)
        D2 = derivative_scale(n, 2, d) * difference_stencil(n, 2)
        for axis in range(3):
            for D, lim in ((D1, cfg.v_max_vec()[axis]), (D2, cfg.a_max_vec()[axis])):
                if np.isfinite(lim):
                    for w in D:
                        A_db.append(row((m, axis, w)))
                        lo.append(-lim)
                        hi.append(lim)
        if chords is not None:
            for w in D1:
                A_db.append(row(*[(m, axis, chords[m][axis] * w) for axis in range(3)]))
                lo.append(cfg.v_min)
                hi.append(np.inf)
    return np.array(A_db).reshape(-1, N), np.array(lo), np.array(hi)


@pytest.mark.parametrize("n_seg", [1, 2, 5])
@pytest.mark.parametrize("cfg", [
    pl.PlannerConfig(),
    pl.PlannerConfig(degree=9, v_max=(25.0, np.inf, 20.0), a_max=(np.inf, 6.0, 5.0)),
    pl.PlannerConfig(degree=9, continuity_order=2, v_max=np.inf, a_max=(4.0, np.inf, 3.0)),
], ids=["deg7", "deg9-mixed-inf", "deg9-no-speed-bound"])
def test_constraint_builders_match_row_by_row_reference(cfg, n_seg):
    rng = np.random.default_rng(n_seg)
    w = np.cumsum(rng.uniform(20.0, 90.0, size=(n_seg + 1, 3)) * [1.0, 0.6, 0.1], axis=0)
    durations = rng.uniform(0.7, 9.0, n_seg)
    chords = np.diff(w, axis=0)
    chords /= np.linalg.norm(chords, axis=1)[:, None]
    for ch in (chords, None):
        W, seg, lo, hi = pl.build_derivative_bounds(cfg, durations, ch)
        for r, o in zip(scalar_linear_rows(cfg, durations, ch),
                        (dense_rows(W, seg, n_seg), lo, hi)):
            assert r.shape == o.shape
            assert np.array_equal(r, o)


def test_junction_maps_return_the_junction_derivatives():
    # Segment m's control points T[m] @ window have, at the start, the
    # derivatives 0..c the window opens with, and at the end those it
    # closes with; the middle points pass through unchanged. Each error is
    # measured against the magnitude of the terms its product sums.
    from flatwing.bernstein import derivative_scale, difference_stencil

    rng = np.random.default_rng(12)
    for n in range(5, 13):
        for c in range(2, (n - 1) // 2 + 1):
            durations = rng.uniform(0.2, 30.0, 4)
            T = pl.build_continuity_constraints(
                pl.PlannerConfig(degree=n, continuity_order=c), durations)
            assert T.shape == (4, n + 1, n + 1)
            for Tm, d in zip(T, durations):
                window = rng.normal(size=n + 1) * 10.0 ** rng.uniform(-2, 2, n + 1)
                p = Tm @ window
                assert np.array_equal(p[c + 1 : n - c], window[c + 1 : n - c])
                for k in range(c + 1):
                    D = derivative_scale(n, k, d) * difference_stencil(n, k)
                    for row, want in ((D[0], window[k]), (D[-1], window[n - c + k])):
                        assert abs(row @ p - want) <= 1e-12 * (np.abs(row) @ np.abs(p))


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


def test_curvature_rows_one_per_sample():
    cfg = pl.PlannerConfig(n_curv_samples=8)
    prev = PiecewiseTrajectory([[[0, 0, 0], [140, 0, 0]]], [0.0, 140.0 / CRUISE])
    W, seg, lo, hi = pl.build_curvature_constraints(prev, cfg, [10.0])
    assert W.shape[0] == seg.size == 8
    assert np.all(lo < hi)
    unbounded = pl.PlannerConfig(kappa_min=-np.inf, kappa_max=np.inf)
    W0, seg0, _, _ = pl.build_curvature_constraints(prev, unbounded, [10.0])
    assert W0.shape[0] == seg0.size == 0


def scalar_curvature_rows(prev, cfg, durations, t0):
    """One row per sample from curvature(), basis_row and the derivative maps."""
    from flatwing.bernstein import basis_row, derivative_scale, difference_stencil

    n = cfg.degree
    N = 3 * len(durations) * (n + 1)
    rows, lo, hi = [], [], []
    seg_start = t0
    for m, d in enumerate(durations):
        D1 = derivative_scale(n, 1, d) * difference_stencil(n, 1)
        D2 = derivative_scale(n, 2, d) * difference_stencil(n, 2)
        for k in range(cfg.n_curv_samples):
            u = (k + 0.5) / cfg.n_curv_samples
            t = min(max(seg_start + u * d, prev.t_start), prev.t_end)
            _, vel, acc, _ = prev.eval(t)
            kbar, grad = pl.curvature(vel[:2], acc[:2])
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
        W, seg, lo, hi = pl.build_curvature_constraints(prev, cfg, durations, t0=7.3)
        A = dense_rows(W, seg, len(durations))
        A_ref, lo_ref, hi_ref = scalar_curvature_rows(prev, cfg, durations, 7.3)
        assert A.shape == A_ref.shape == (3 * cfg.n_curv_samples, 9 * (cfg.degree + 1))
        assert np.abs(A - A_ref).max() <= 1e-12
        assert np.abs(lo - lo_ref).max() <= 1e-12
        assert np.abs(hi - hi_ref).max() <= 1e-12
        # the reference turns: the linearization varies from sample to sample
        assert np.ptp(lo_ref) > 1e-3


def test_batched_curvature_rows_reject_a_slow_reference():
    slow = PiecewiseTrajectory([[[0, 0, 0], [10, 0, 0]], [[10, 0, 0], [10, 1, 0]]],
                               [0.0, 50.0, 55.0])  # 0.2 m/s
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
        p, v, _, _ = np.array(res.trajectory.eval(t))
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
        pa, _, _, _ = np.array(tr.eval(tr.t_start + s))
        pb, _, _, _ = np.array(tr.eval(tr.t_end - s))
        assert np.abs(pa + pb - 2.0 * center).max() <= 1e-6


def test_plan_translation_equivariance():
    base = np.array([[0, 0, 0], [60, 20, 0], [120, 40, 0]], dtype=float)
    shift = np.array([1234.5, -987.25, 55.0])
    r0 = pl.plan(seq(base), pl.PlannerConfig())
    r1 = pl.plan(seq(base + shift), pl.PlannerConfig())
    assert r0.ok and r1.ok
    for t in np.linspace(r0.trajectory.t_start, r0.trajectory.t_end, 60):
        a, _, _, _ = np.array(r0.trajectory.eval(t))
        b, _, _, _ = np.array(r1.trajectory.eval(t))
        assert np.abs(b - a - shift).max() <= 1e-9


def test_plan_satisfies_boundary_and_waypoints():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    res = pl.plan(s, pl.PlannerConfig())
    tr = res.trajectory
    p, v, a, _ = np.array(tr.eval(tr.t_start))
    assert np.abs(p - s.boundary_start.position).max() <= 1e-6
    assert np.abs(v - s.boundary_start.velocity).max() <= 1e-6
    assert np.abs(a).max() <= 1e-6
    p, v, a, _ = np.array(tr.eval(tr.t_end))
    assert np.abs(p - s.boundary_end.position).max() <= 1e-6
    assert np.abs(v - s.boundary_end.velocity).max() <= 1e-6
    times = pl.allocate_times(s, CRUISE)
    p, _, _, _ = np.array(tr.eval(times[0]))
    assert np.abs(p - [60.0, 20.0, 0.0]).max() <= 1e-6


def test_plan_junctions_are_smooth():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    res = pl.plan(s, pl.PlannerConfig())
    (t0, t_j, t1), (first, second) = res.trajectory.knots, res.trajectory.control_points
    # One-segment trajectories, so that the first segment owns t_j too.
    left = np.array(PiecewiseTrajectory([first], [t0, t_j]).eval(t_j))
    right = np.array(PiecewiseTrajectory([second], [t_j, t1]).eval(t_j))
    for k in range(4):  # continuity through jerk
        assert np.abs(left[k] - right[k]).max() <= 1e-9


def test_plan_junctions_and_waypoints_are_exact():
    # Neighbouring segments read a junction's points from the same QP
    # entries, and waypoints are fixed entries, not rows the solver meets
    # to its tolerance.
    rng = np.random.default_rng(7)
    far = np.array([5.0e4, -3.0e4, 1.0e3])
    for cfg, w in ((pl.PlannerConfig(), dogleg(60.0).waypoints),
                   (pl.PlannerConfig(degree=9), dogleg(120.0).waypoints + far),
                   (pl.PlannerConfig(degree=9, continuity_order=2),
                    np.cumsum(rng.uniform(40.0, 90.0, (6, 3)) * [1.0, 0.7, 0.05], axis=0))):
        s = seq(w)
        res = pl.plan(s, cfg)
        assert res.ok
        pts = res.trajectory.control_points
        assert len(pts) == len(w) - 1
        assert np.array_equal(pts[:-1, -1], pts[1:, 0])
        times = res.trajectory.t_start + pl.allocate_times(s, CRUISE)
        for t, wp in zip(times[:-1], w[1:-1]):
            assert np.abs(res.trajectory.eval(t)[0] - wp).max() <= 1e-9


def test_planner_qp_has_no_equality_rows():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 80, 5], [200, 60, 5]])
    first = pl.plan(s, pl.PlannerConfig())
    for cfg in (pl.PlannerConfig(), pl.PlannerConfig(degree=9, continuity_order=2),
                pl.PlannerConfig(v_max=np.inf, kappa_min=-np.inf, kappa_max=np.inf)):
        for prev in (None, first.trajectory):
            prob, _, _ = pl.assemble(s, cfg, prev)
            assert prob.m > 0 and not np.any(prob.l == prob.u)


def test_config_bounds_continuity_order():
    # Order 2 lets the end junctions fix the boundary velocity and
    # acceleration; above (degree-1)//2 the two ends overlap.
    for kw in ({"continuity_order": 1}, {"degree": 7, "continuity_order": 4},
               {"degree": 12, "continuity_order": 6}):
        with pytest.raises(ValueError, match="continuity_order"):
            pl.PlannerConfig(**kw)
    for degree in range(5, 13):
        pl.PlannerConfig(degree=degree, continuity_order=(degree - 1) // 2)


def test_fully_determined_segment_plans_without_variables():
    # At degree 5 and order 2 the boundary states fix all six control
    # points of a one-segment plan: the QP has no variables, only the
    # rows that check the fixed points.
    cfg = pl.PlannerConfig(degree=5, continuity_order=2)
    res = pl.plan(seq([[0, 0, 0], [140, 0, 0]]), cfg)
    assert res.ok and res.n_vars == 0 and res.n_constraints > 0
    (pts,) = res.trajectory.control_points
    assert np.allclose(pts[:, 0], np.linspace(0.0, 140.0, 6), atol=1e-12)
    tight = pl.PlannerConfig(degree=5, continuity_order=2, v_max=10.0)
    assert pl.plan(seq([[0, 0, 0], [140, 0, 0]]), tight).status == "primal-infeasible-detected"


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
    assert res.problem is not None  # the QP was solved; the solver said why not


def test_plan_rejects_a_vertical_leg():
    # No planar speed to linearize the curvature rows about: the assembly
    # raises FlatnessSingularityError inside plan, which returns it.
    res = pl.plan(seq([[0, 0, 50], [0, 0, 70]], v0=(0, 0, 5), v1=(0, 0, 5)), pl.PlannerConfig())
    assert res.status == "rejected: planar speed 0.000 m/s below 1.0 m/s"
    assert not res.ok and res.problem is None


def test_plan_rejects_a_solve_that_raises(monkeypatch):
    def ill_posed(*args, **kwargs):
        raise qp.IllPosedProblem("cost not positive semidefinite on purpose")

    monkeypatch.setattr(pl.qp, "solve_qp", ill_posed)
    res = pl.plan(seq([[0, 0, 0], [140, 0, 0]]), pl.PlannerConfig())
    assert res.status == "rejected: cost not positive semidefinite on purpose"
    assert not res.ok and res.problem is None


def test_plan_rejects_a_solved_segment_too_short_to_store():
    # 1.5 m at 1e7 m/s solves, but its 0.15 us segment is below
    # PiecewiseTrajectory's MIN_DURATION, which refuses it.
    cfg = pl.PlannerConfig(cruise_speed=1e7, v_max=1e9, a_max=1e15)
    res = pl.plan(seq([[0, 0, 0], [1.5, 0, 0]], v0=(1e7, 0, 0), v1=(1e7, 0, 0)), cfg)
    assert res.status.startswith("rejected: segment duration 1.5e-07 below minimum 1e-06")
    assert not res.ok


# ---------------------------------------------------------------- replan


def test_replan_hands_off_continuously():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    t_now, t_opt = 2.0, 0.5
    re = pl.replan(first.trajectory, t_now, t_opt, s.waypoints[1:], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.ok
    t_h = t_now + t_opt
    assert re.trajectory.t_start == pytest.approx(t_h)
    p0, v0, a0, _ = np.array(first.trajectory.eval(t_h))
    p1, v1, a1, _ = np.array(re.trajectory.eval(t_h))
    assert np.abs(p1 - p0).max() <= 1e-6
    assert np.abs(v1 - v0).max() <= 1e-6
    assert np.abs(a1 - a0).max() <= 1e-5


def test_replan_of_optimal_plan_is_a_fixed_point():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    re = pl.replan(first.trajectory, 4.0, 0.3, [[140.0, 0.0, 0.0]], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.ok
    for t in np.linspace(4.3, 10.0, 50):
        a, _, _, _ = np.array(first.trajectory.eval(t))
        b, _, _, _ = np.array(re.trajectory.eval(t))
        assert np.abs(b - a).max() <= 1e-3


def test_replan_rejects_handoff_outside_domain():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    re = pl.replan(first.trajectory, 100.0, 0.5, [[140.0, 0.0, 0.0]], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.status == ("rejected: handoff t=100.500 s outside the current "
                         "trajectory [0.000, 10.000] s")
    assert not re.ok and re.trajectory is None


def test_replan_rejects_when_target_reached():
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    # handoff lands within a meter of the leg end
    re = pl.replan(first.trajectory, 9.95, 0.05, [[140.0, 0.0, 0.0]], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.status == "rejected: handoff within 1 m of the leg end"


@pytest.mark.parametrize("remaining, status", [
    ([[100.0, 0, 0], [100.5, 0, 0], [140.0, 0, 0]],
     "rejected: consecutive waypoints closer than 1 m (min 0.500)"),
    ([[100.0, 0, 0], [139.0, 0, 0]],
     "rejected: boundary end position disagrees with the end waypoint"),
], ids=["close-waypoints", "end-mismatch"])
def test_replan_rejects_a_refused_handoff_sequence(remaining, status):
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    re = pl.replan(first.trajectory, 2.0, 0.5, remaining, pl.PlannerConfig(), s.boundary_end)
    assert re.status == status
    assert not re.ok


def test_replan_rejects_a_reference_too_slow_to_linearize():
    # Linearizing the curvature rows about a 0.5 m/s reference raises
    # FlatnessSingularityError inside plan; replan returns it as a rejection.
    s = seq([[0, 0, 0], [140, 0, 0]])
    slow = PiecewiseTrajectory([s.waypoints], [0.0, 280.0])  # 0.5 m/s
    re = pl.replan(slow, 2.0, 0.5, [[140.0, 0.0, 0.0]], pl.PlannerConfig(), s.boundary_end)
    assert re.status == "rejected: planar speed 0.500 m/s below 1.0 m/s"
    assert not re.ok


def test_replan_rejects_a_solve_that_raises(monkeypatch):
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())

    def ill_posed(*args, **kwargs):
        raise qp.IllPosedProblem("cost not positive semidefinite on purpose")

    monkeypatch.setattr(pl.qp, "solve_qp", ill_posed)
    re = pl.replan(first.trajectory, 2.0, 0.5, [[140.0, 0.0, 0.0]], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.status == "rejected: cost not positive semidefinite on purpose"
    assert not re.ok


def test_replan_passes_a_solver_status_through():
    # Contradictory bounds: the solver certifies infeasibility, and the
    # status is the solver's, not a rejection.
    s = seq([[0, 0, 0], [140, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    bad = pl.PlannerConfig(v_min=10.0, v_max=0.5, a_max=1.0)
    re = pl.replan(first.trajectory, 2.0, 0.5, [[140.0, 0.0, 0.0]], bad, s.boundary_end)
    assert re.status == "primal-infeasible-detected"
    assert not re.ok and re.iterations > 0


def test_replan_drops_the_waypoints_within_reach_but_not_the_last():
    s = seq([[0, 0, 0], [60, 0, 0], [120, 0, 0], [180, 0, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    # The handoff point lies about 3 m short of the first interior waypoint
    # (reach: half the cruise speed, 7 m), so the replan starts there and
    # plans through the other two.
    t_h = 57.0 / CRUISE
    re = pl.replan(first.trajectory, t_h - 0.05, 0.05, s.waypoints[1:], pl.PlannerConfig(),
                   s.boundary_end)
    assert re.ok and len(re.trajectory.control_points) == 2
    # Only the last waypoint is left when the others are within reach.
    re = pl.replan(first.trajectory, t_h - 0.05, 0.05, [[60.0, 0, 0], [62.0, 0, 0], [180.0, 0, 0]],
                   pl.PlannerConfig(), s.boundary_end)
    assert re.ok and len(re.trajectory.control_points) == 1
    assert np.allclose(re.trajectory.eval(re.trajectory.t_end)[0], [180.0, 0, 0])


def test_replan_warm_start_converges_faster(monkeypatch):
    # A replan into the 60-degree turn meets its curvature rows: cold, the
    # equality rows' polish is not the optimum and ADMM runs (without the
    # curvature rows it would end there, with no iteration). Warm-started
    # from that answer, the same replan takes fewer iterations and polishes.
    polishes, polish = [], qp._polish
    monkeypatch.setattr(qp, "_polish", lambda *a: polishes.append(1) or polish(*a))
    s = dogleg(60.0)
    first = pl.plan(s, pl.PlannerConfig())
    polishes.clear()
    cold = pl.replan(first.trajectory, 2.0, 0.5, s.waypoints[1:], pl.PlannerConfig(),
                     s.boundary_end)
    cold_polishes = len(polishes)
    polishes.clear()
    warm = pl.replan(
        first.trajectory, 2.0, 0.5, s.waypoints[1:], pl.PlannerConfig(), s.boundary_end,
        warm=cold.qp_solution,
    )
    assert cold.ok and warm.ok
    assert cold.iterations > 0
    assert warm.iterations < cold.iterations
    assert len(polishes) < cold_polishes
    straight = pl.PlannerConfig(kappa_min=-np.inf, kappa_max=np.inf)
    assert pl.replan(first.trajectory, 2.0, 0.5, s.waypoints[1:], straight,
                     s.boundary_end).iterations == 0


def test_plan_drops_a_warm_start_of_another_size():
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    first = pl.plan(s, pl.PlannerConfig())
    single = pl.plan(seq([[0, 0, 0], [120, 40, 0]]), pl.PlannerConfig())
    again = pl.plan(s, pl.PlannerConfig(), warm=single.qp_solution)
    assert again.ok and again.iterations == first.iterations


# ---------------------------------------------------------------- shape cache


def test_cached_shape_arrays_are_read_only():
    shape = pl._shape_of(pl.PlannerConfig(), 2)
    arrays = [v for v in vars(shape).values() if isinstance(v, np.ndarray)]
    assert len(arrays) > 10
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1


def test_configs_differing_in_infinite_bounds_get_their_own_layout():
    # One process, the same degree, order, samples and segment count; only
    # the set of finite bounds differs, and so do the rows.
    s = seq([[0, 0, 0], [60, 20, 5], [120, 40, 0]])
    sizes = {}
    for v_max in (25.0, (25.0, np.inf, 20.0), (np.inf, 25.0, 20.0), np.inf):
        cfg = pl.PlannerConfig(v_max=v_max)
        prob, _, _ = pl.assemble(s, cfg)
        W, _, _, _ = pl.build_derivative_bounds(cfg, [5.0, 5.0])
        finite = int(np.isfinite(cfg.v_max_vec()).sum())
        # Per segment, n-1 acceleration rows per axis and n velocity rows
        # per finite speed bound.
        assert len(W) == 2 * (3 * (cfg.degree - 1) + finite * cfg.degree)
        assert prob.m == len(W) + 2 * (cfg.degree + cfg.n_curv_samples)
        sizes[finite] = sizes.get(finite, ()) + (prob.A.tobytes(),)
    assert sorted(sizes) == [0, 2, 3]
    assert len(set(sizes[2])) == 2  # the infinite bound sits on another axis


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_warm_cache_assembles_bit_for_bit_like_a_cold_one(M):
    rng = np.random.default_rng(M)
    cfg = pl.PlannerConfig(v_max=(25.0, np.inf, 20.0))
    pts = np.cumsum(rng.uniform(40.0, 80.0, size=(M + 1, 3)) * [1.0, 1.0, 0.1], axis=0)
    s = seq(pts)
    prev = pl.plan(s, cfg).trajectory
    warm = pl.assemble(s, cfg, prev, 0.3)
    pl._shape.cache_clear()
    cold = pl.assemble(s, cfg, prev, 0.3)
    for a, b in zip(warm, cold):
        fields = vars(a) if hasattr(a, "__dict__") else {"": a}
        for name, val in fields.items():
            other = vars(b)[name] if name else b
            assert np.asarray(val).tobytes() == np.asarray(other).tobytes(), name


def test_cold_assemble_builds_no_trajectory(monkeypatch):
    # A cold plan linearizes its curvature rows about its chords in closed
    # form: no reference trajectory is made up to be sampled. plan builds
    # one trajectory, its answer's.
    built = []
    monkeypatch.setattr(pl, "PiecewiseTrajectory",
                        lambda *a: built.append(1) or PiecewiseTrajectory(*a))
    s, cfg = dogleg(30.0), pl.PlannerConfig()
    prob, durations, _ = pl.assemble(s, cfg)
    flat = pl.PlannerConfig(kappa_min=-np.inf, kappa_max=np.inf)
    assert prob.m == pl.assemble(s, flat)[0].m + durations.size * cfg.n_curv_samples
    assert built == []
    assert pl.plan(s, cfg).ok and built == [1]


def test_large_plan_is_built_in_csr_equal_to_the_dense_assembly(monkeypatch):
    # Above the size threshold assemble builds Q and A in CSR directly,
    # with the bits `sp.csr_array` stores for the dense assembly: exact
    # zeros in the data, such as the curvature rows' velocity weights on a
    # cold plan (a straight reference has no velocity gradient), are
    # dropped, and each position of Q sums its Gram entries (at most two,
    # from the segments that share a junction) as the dense bincount does.
    # The problem stores what the planner built, converting nothing.
    rng = np.random.default_rng(20)
    pts = np.cumsum(rng.uniform(40.0, 80.0, size=(21, 3)) * [1.0, 1.0, 0.1], axis=0)
    s, cfg = seq(pts), pl.PlannerConfig()
    built, matrix = [], pl._matrix
    monkeypatch.setattr(pl, "_matrix", lambda *a: built.append(matrix(*a)) or built[-1])
    prob, _, _ = pl.assemble(s, cfg)
    assert qp.csr_form(prob.m, prob.n)
    assert [M.format for M in built] == ["csr", "csr"]
    assert np.shares_memory(prob._A.data, built[1].data)
    with monkeypatch.context() as mp:
        mp.setattr(qp, "_SPARSE_ABOVE", math.inf)
        dense, _, _ = pl.assemble(s, cfg)
    for got, want in ((prob._Q, dense._Q), (prob._A, dense._A)):
        assert isinstance(want, np.ndarray) and got.format == "csr"
        want = sp.csr_array(want)
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    x, y = np.ones(prob.n), np.ones(prob.m)
    assert qp.kkt_residuals(prob, x, y) == qp.kkt_residuals(dense, x, y)


def reference_assembly(wps, cfg, prev, t0):
    """The planner QP composed from the public builders at the real
    durations: the derivative-bound and curvature rows times
    build_continuity_constraints' T, the cost through T'GT, placed by the
    planner's window layout. Returns Q, q, A, l, u, T and the jerk offset,
    each with the magnitude of the terms it sums where that is not its
    largest entry, and the fixed window entries."""
    d = np.diff(np.concatenate([[0.0], pl.allocate_times(wps, cfg.cruise_speed)]))
    M, n, c = d.size, cfg.degree, cfg.continuity_order
    shift = wps.waypoints[0]
    # The fixed window entries: boundary states at both ends, each interior
    # waypoint at the junction two segments share.
    fixed = np.zeros((M, 3, n + 1))
    for m, col, b in ((0, 0, wps.boundary_start), (M - 1, n - c, wps.boundary_end)):
        fixed[m, :, col:col + 3] = np.stack([b.position - shift, b.velocity, b.acceleration]).T
    for m, w in enumerate(wps.waypoints[1:-1], start=1):
        fixed[m, :, 0] = fixed[m - 1, :, n - c] = w - shift
    cols = pl._shape_of(cfg, M).cols
    assert np.all((cols < 0) | (fixed == 0))
    N = int(cols.max()) + 1

    T = pl.build_continuity_constraints(cfg, d)
    Gx = np.swapaxes(T, 1, 2) @ pl.build_cost(cfg, d) @ T
    Q, q, q_terms, jerk, jerk_terms = np.zeros((N, N)), np.zeros(N), np.zeros(N), 0.0, 0.0
    for m in range(M):
        for a in range(3):
            idx, f = cols[m, a], fixed[m, a]
            var = idx >= 0
            Q[np.ix_(idx[var], idx[var])] += Gx[m][np.ix_(var, var)]
            q[idx[var]] += Gx[m][var] @ f
            q_terms[idx[var]] += np.abs(Gx[m][var]) @ np.abs(f)
            jerk += f @ Gx[m] @ f
            jerk_terms += np.abs(f) @ np.abs(Gx[m]) @ np.abs(f)

    chords = np.diff(wps.waypoints, axis=0) / wps.gaps[:, None]
    W_db, seg_db, l_db, u_db = pl.build_derivative_bounds(cfg, d, chords)
    W_cv, seg_cv, l_cv, u_cv = pl.build_curvature_constraints(prev, cfg, d, t0)
    seg = np.concatenate([seg_db, seg_cv])
    Wx = np.concatenate([W_db, W_cv]) @ T[seg]
    A, offset, terms = np.zeros((seg.size, N)), np.zeros(seg.size), np.zeros(seg.size)
    for r, m in enumerate(seg):
        for a in range(3):
            var = cols[m, a] >= 0
            A[r, cols[m, a][var]] += Wx[r, a, var]
            offset[r] += Wx[r, a] @ fixed[m, a]
            terms[r] += np.abs(Wx[r, a]) @ np.abs(fixed[m, a])
    l, u = np.concatenate([l_db, l_cv]), np.concatenate([u_db, u_cv])
    return {"Q": (0.5 * (Q + Q.T), None), "q": (q, q_terms), "A": (A, None),
            "l": (l - offset, np.abs(l) + terms), "u": (u - offset, np.abs(u) + terms),
            "T": (T, None), "jerk_offset": (jerk, jerk_terms), "fixed": fixed}


def assert_close(got, want, terms=None):
    """Equal within 1e-12 of the magnitude of the terms each entry sums,
    by default the largest finite entry; infinities match."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    if terms is None:
        terms = np.abs(want[finite]).max(initial=0.0)
    else:
        terms = np.broadcast_to(terms, want.shape)[finite]
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * terms)


@pytest.mark.parametrize("n, c, cold", [
    pytest.param(n, c, cold, id=f"{n}-{c}" + "-cold" * cold)
    for cold in (False, True) for n in range(5, 13) for c in range(2, (n - 1) // 2 + 1)])
def test_unit_blocks_assemble_like_the_builders_at_the_real_durations(n, c, cold, monkeypatch):
    # Every block is a cached unit-duration block times powers of the
    # durations; composed from the public builders at the durations
    # themselves, the problem and its coordinates must agree. The rows
    # are laid out from their structural nonzeros only: with generic
    # chords and a curved reference no value handed to `_matrix` for A is
    # an exact zero, dense or CSR, with a bound dropped or no curvature.
    # A cold plan (no reference) must assemble as the builders do about
    # the straight line through its waypoints at cruise speed; that line
    # has no velocity gradient, so its curvature rows hold exact zeros.
    rng = np.random.default_rng(100 * n + c)
    t0 = 3.1
    matrix = pl._matrix
    # A planar-moving reference for the curvature linearization.
    prev = PiecewiseTrajectory([[[0, 0, 0], [90, 40, 5], [180, -30, 0], [270, 20, 10]]],
                               [t0 - 1.0, t0 + 40.0])
    configs = {
        1: dict(v_max=(25.0, np.inf, 20.0), a_max=6.0),
        2: dict(v_max=np.inf, a_max=(4.0, np.inf, 3.0), kappa_min=-np.inf, kappa_max=np.inf),
        5: dict(v_max=25.0, a_max=(np.inf, 6.0, 5.0), kappa_min=-np.inf),
    }
    for M, bounds in configs.items():
        cfg = pl.PlannerConfig(degree=n, continuity_order=c, **bounds)
        pts = np.cumsum(rng.uniform(20.0, 90.0, (M + 1, 3)) * [1.0, 0.5, 0.1], axis=0)
        s = pl.WaypointSequence(
            pts, pl.BoundaryState(pts[0], rng.normal(size=3) * 8, rng.normal(size=3)),
            pl.BoundaryState(pts[-1], rng.normal(size=3) * 8, rng.normal(size=3)))
        ref_traj = (PiecewiseTrajectory(np.stack([pts[:-1], pts[1:]], axis=1),
                                        t0 + np.append(0.0, np.cumsum(s.gaps / cfg.cruise_speed)))
                    if cold else prev)
        ref = reference_assembly(s, cfg, ref_traj, t0)
        for threshold in (math.inf, -1):  # dense, then CSR
            values = []
            with monkeypatch.context() as mp:
                mp.setattr(qp, "_SPARSE_ABOVE", threshold)
                mp.setattr(pl, "_matrix", lambda v, *a: values.append(v) or matrix(v, *a))
                prob, durations, coords = pl.assemble(s, cfg, None if cold else prev, t0)
            assert sp.issparse(prob._A) == (threshold < 0)
            if not (cold and pl._curved(cfg)):
                assert np.all(values[1] != 0.0)  # A's, after Q's
            for name, got in (("Q", prob.Q), ("q", prob.q), ("A", prob.A), ("l", prob.l),
                              ("u", prob.u), ("T", coords.T), ("jerk_offset", coords.jerk_offset)):
                assert_close(got, *ref[name])
            assert np.array_equal(coords.shift, pts[0])
            assert np.array_equal(coords.fixed, ref["fixed"])
            assert np.array_equal(coords.cols, pl._shape_of(cfg, M).cols)


# ---------------------------------------------------------------- scaling


def test_stacked_problem_dimensions():
    cfg = pl.PlannerConfig()
    s = seq([[0, 0, 0], [60, 20, 0], [120, 40, 0]])
    prob, durations, coords = pl.assemble(s, cfg)
    c = cfg.continuity_order
    assert durations.size == 2
    # Three junctions carry derivatives 0..c on each axis, and degree 7
    # leaves no middle points; the boundary position, velocity and
    # acceleration and the interior waypoint are fixed.
    assert prob.n == 3 * (3 * (c + 1) - 2 * 3 - 1) == 15
    assert np.array_equal(coords.shift, [0.0, 0.0, 0.0])
    assert isinstance(prob, qp.QpProblem)
    res = pl.plan(s, cfg)
    assert res.n_vars == prob.n
    assert res.n_constraints == prob.m


@pytest.mark.parametrize("s", [2.0, 0.5, 3.0])
def test_planner_is_equivariant_under_time_scaling(s):
    # Flying the same path s times slower divides every velocity by s and
    # every acceleration by s**2: the durations grow by s, the control
    # points stay and the squared-jerk integral shrinks by s**-5. The
    # velocity and acceleration bounds are off, since they do not scale
    # with s. So are the curvature rows: with them the solve can stop at
    # an unpolished iterate, within a tolerance set by the m/s rows, which
    # do scale with s. v_min = 1e-3 keeps the chord rows but leaves them
    # inactive.
    pts = np.array([[0, 0, 50], [80, 30, 52], [160, -10, 50], [240, 40, 55]], dtype=float)
    v0, a0 = np.array([14.0, 3.0, 0.0]), np.array([0.0, 1.0, 0.0])
    v1, a1 = np.array([12.0, 6.0, 0.5]), np.array([0.3, -0.5, 0.0])

    def plan_at(scale):
        cfg = pl.PlannerConfig(cruise_speed=CRUISE / scale, v_max=np.inf, a_max=np.inf,
                               v_min=1e-3, kappa_min=-np.inf, kappa_max=np.inf)
        wps = pl.WaypointSequence(pts, pl.BoundaryState(pts[0], v0 / scale, a0 / scale**2),
                                  pl.BoundaryState(pts[-1], v1 / scale, a1 / scale**2))
        res = pl.plan(wps, cfg)
        assert res.status == "solved"
        return res

    base, slow = plan_at(1.0), plan_at(s)
    diff = slow.trajectory.control_points - base.trajectory.control_points
    assert np.abs(diff).max() <= 1e-12
    assert slow.objective == pytest.approx(base.objective * s**-5, rel=1e-12)
    assert slow.trajectory.t_end == pytest.approx(s * base.trajectory.t_end, rel=1e-14)
