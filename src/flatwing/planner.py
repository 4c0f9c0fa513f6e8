"""Minimum-jerk piecewise-Bernstein trajectory planner.

Assembles one stacked QP over all segments and axes: jerk-integral cost,
endpoint and junction-continuity equalities, convex-hull derivative box
bounds, and planar-curvature inequalities linearized about the previous
trajectory. Replanning re-solves from a handoff state a short horizon
ahead so the swap is continuous.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qp
from .bernstein import (
    BernsteinSegment,
    PiecewiseTrajectory,
    basis_row,
    derivative_map,
    difference_stencil,
    derivative_scale,
    gram_matrix,
)
from .flatness import FlatnessSingularityError, V_EPS


@dataclass
class PlannerConfig:
    degree: int = 7
    cruise_speed: float = 14.0
    v_min: float = 1.0  # lower bound on the along-chord velocity component
    v_max: float | tuple = 25.0  # componentwise speed bound
    a_max: float | tuple = 6.0  # componentwise acceleration bound
    kappa_min: float = -0.02  # 1/m
    kappa_max: float = 0.02
    n_curv_samples: int = 20
    continuity_order: int = 3
    v_eps: float = V_EPS

    def __post_init__(self):
        # Coerce first, as QpSettings does; each `not` test also rejects NaN.
        for name in ("degree", "n_curv_samples", "continuity_order"):
            v = getattr(self, name)
            if not float(v).is_integer():
                raise ValueError(f"{name} must be an integer, got {v!r}")
            setattr(self, name, int(v))
        for name in ("cruise_speed", "v_min", "kappa_min", "kappa_max", "v_eps"):
            setattr(self, name, float(getattr(self, name)))
        for name, ok, rule in (
            ("degree", 5 <= self.degree <= 12, "lie in the supported range [5, 12]"),
            ("continuity_order", 0 <= self.continuity_order < self.degree,
             "lie in [0, degree)"),
            ("n_curv_samples", self.n_curv_samples >= 1, "be at least 1"),
            ("cruise_speed", 0.0 < self.cruise_speed < np.inf, "be positive and finite"),
            ("v_min", 0.0 < self.v_min < np.inf, "be positive and finite (forward flight)"),
            ("v_eps", 0.0 < self.v_eps < np.inf, "be positive and finite"),
            ("kappa_min", self.kappa_min < np.inf, "be a number below +inf"),
            ("kappa_max", -np.inf < self.kappa_max and self.kappa_max >= self.kappa_min,
             "be a number above -inf and at least kappa_min"),
        ):
            if not ok:
                raise ValueError(f"{name} must {rule}, got {getattr(self, name)!r}")
        for name in ("v_max", "a_max"):  # +inf drops the bound
            lim = getattr(self, name)
            if np.shape(lim) not in ((), (1,), (3,)) or not np.all(np.asarray(lim) > 0.0):
                raise ValueError(f"{name} must be positive, one value or three, got {lim!r}")

    def v_max_vec(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.v_max, dtype=float), (3,)).copy()

    def a_max_vec(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.a_max, dtype=float), (3,)).copy()


@dataclass
class BoundaryState:
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.acceleration = np.asarray(self.acceleration, dtype=float)


@dataclass
class WaypointSequence:
    waypoints: np.ndarray
    boundary_start: BoundaryState
    boundary_end: BoundaryState

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if self.waypoints.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        gaps = np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)
        if np.any(gaps < 1.0):
            raise ValueError(f"consecutive waypoints closer than 1 m (min {gaps.min():.3f})")
        for bnd, wp, name in ((self.boundary_start, self.waypoints[0], "start"),
                              (self.boundary_end, self.waypoints[-1], "end")):
            if np.linalg.norm(bnd.position - wp) > 1e-3:
                raise ValueError(f"boundary {name} position disagrees with the {name} waypoint")


@dataclass
class PlanResult:
    trajectory: PiecewiseTrajectory | None
    status: str
    iterations: int = 0
    objective: float = 0.0  # integral of squared jerk
    solve_time: float = 0.0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    n_vars: int = 0
    n_constraints: int = 0
    qp_solution: qp.QpSolution | None = None

    @property
    def ok(self) -> bool:
        return self.trajectory is not None

    def summary(self) -> str:
        return (f"status={self.status} iterations={self.iterations} "
                f"objective={self.objective:.9g} solve_time={self.solve_time:.9g} "
                f"primal_residual={self.primal_residual:.3g} "
                f"dual_residual={self.dual_residual:.3g} "
                f"n_vars={self.n_vars} n_constraints={self.n_constraints}")


def allocate_times(wps: WaypointSequence, cruise_speed: float) -> np.ndarray:
    """Cumulative junction times: per-segment duration is distance/cruise."""
    if cruise_speed <= 0:
        raise ValueError("cruise_speed must be positive")
    gaps = np.linalg.norm(np.diff(wps.waypoints, axis=0), axis=1)
    if np.any(gaps <= 0):
        raise ValueError("zero-length segment in waypoint sequence")
    return np.cumsum(gaps / cruise_speed)


def _durations(wps: WaypointSequence, config: PlannerConfig) -> np.ndarray:
    times = allocate_times(wps, config.cruise_speed)
    return np.diff(np.concatenate([[0.0], times]))


def _layout(W, seg, M: int) -> np.ndarray:
    """Dense QP rows from per-segment weight blocks.

    W holds (3, n+1) blocks, axis by control point, under any leading
    shape; row r holds the r-th block (in C order) on the control points of
    segment seg[r], and zeros elsewhere. The decision vector runs segment,
    axis, control point; this and `plan`'s unpacking are the only code that
    knows it.
    """
    n1 = W.shape[-1]
    W = W.reshape(-1, 3, n1)
    rows = np.zeros((len(W), M, 3, n1))
    rows[np.arange(len(W)), seg] = W
    return rows.reshape(len(W), M * 3 * n1)


def _on_each_axis(w) -> np.ndarray:
    """Weight rows w, (..., P, n+1), as blocks (..., 3, P, 3, n+1).

    Block [..., a, p] holds w[..., p] on axis a and zeros on the others.
    """
    W = np.zeros(w.shape[:-2] + (3,) + w.shape[-2:-1] + (3, w.shape[-1]))
    for axis in range(3):
        W[..., axis, :, axis, :] = w
    return W


def _maps(n: int, k: int, durations) -> np.ndarray:
    """derivative_map of every segment, stacked to (M, n+1-k, n+1).

    One scalar call per segment: numpy's power on arrays does not round
    like its scalar power on every host, and the maps must equal
    derivative_map's bit for bit.
    """
    return np.array([derivative_map(n, k, d) for d in durations])


def build_cost(config: PlannerConfig, durations) -> np.ndarray:
    """Block-diagonal jerk Gram cost; p'Qp equals the squared-jerk integral."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    S3 = difference_stencil(n, 3)
    scale2 = np.array([derivative_scale(n, 3, d) ** 2 for d in durations])  # as in _maps
    blocks = scale2[:, None, None] * (S3.T @ gram_matrix(n - 3, durations) @ S3)
    # Row (m, axis, i) of Q is Gram row i on segment m's axis: the rows
    # come in the columns' order.
    return _layout(_on_each_axis(blocks), np.repeat(np.arange(M), 3 * (n + 1)), M)


def build_endpoint_constraints(wps: WaypointSequence, config: PlannerConfig, durations):
    """Equalities pinning boundary pos/vel/acc and interior waypoint positions."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    # A segment's k-th derivative at its start or finish is the first or
    # last row of its derivative map; an interior waypoint pins the last
    # control point of the segment that ends there.
    w = np.vstack([[derivative_map(n, k, durations[0])[0] for k in range(3)],
                   [derivative_map(n, k, durations[-1])[-1] for k in range(3)],
                   np.eye(n + 1)[[-1] * (M - 1)]])
    seg = np.concatenate([[0] * 3, [M - 1] * 3, np.arange(M - 1)])
    b0, b1 = wps.boundary_start, wps.boundary_end
    v = np.concatenate([b0.position, b0.velocity, b0.acceleration,
                        b1.position, b1.velocity, b1.acceleration,
                        wps.waypoints[1:-1].ravel()])
    return _layout(_on_each_axis(w[:, None]), np.repeat(seg, 3), M), v, v.copy()


def build_continuity_constraints(config: PlannerConfig, durations):
    """Equalities matching derivatives 0..continuity_order across junctions."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    maps = [_maps(n, k, durations) for k in range(config.continuity_order + 1)]
    # w[0, m, k] is order k at segment m's end, w[1, m, k] at segment m+1's start.
    w = np.array([[D[:-1, -1] for D in maps], [D[1:, 0] for D in maps]]).transpose(0, 2, 1, 3)
    # Rows by junction, order, axis: the end minus the start.
    seg = np.repeat(np.arange(M - 1), 3 * len(maps))
    A = _layout(_on_each_axis(w[..., None, :]), np.concatenate([seg, seg + 1]), M)
    R = len(seg)
    return A[:R] - A[R:], np.zeros(R), np.zeros(R)


def build_derivative_bounds(config: PlannerConfig, durations, chords=None):
    """Box bounds on velocity/acceleration control points (convex-hull sound).

    When per-segment unit chord directions are supplied, an additional row
    per velocity control point keeps the along-chord speed component above
    v_min, encoding forward progress.
    """
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    v_max = config.v_max_vec()
    a_max = config.a_max_vec()
    D1 = _maps(n, 1, durations)
    # Per segment and axis: n velocity then n-1 acceleration rows, less
    # those whose bound is infinite.
    W = _on_each_axis(np.concatenate([D1, _maps(n, 2, durations)], axis=1))
    lim = np.hstack([np.tile(v_max[:, None], n), np.tile(a_max[:, None], n - 1)]).ravel()
    keep = np.isfinite(lim)
    W = W.reshape(M, -1, 3, n + 1)[:, keep]
    lo, hi = -lim[keep], lim[keep]
    if chords is not None:
        W_chord = np.asarray(chords, dtype=float)[:, None, :, None] * D1[:, :, None, :]
        W = np.concatenate([W, W_chord], axis=1)
        lo = np.concatenate([lo, np.full(n, config.v_min)])
        hi = np.concatenate([hi, np.full(n, np.inf)])
    A = _layout(W, np.repeat(np.arange(M), W.shape[1]), M)
    return A, np.tile(lo, M), np.tile(hi, M)


def curvature(v_xy, a_xy, v_eps: float = V_EPS):
    """Planar curvature and its gradient wrt (vx, vy, ax, ay).

    Takes one sample as 2-vectors, giving a scalar curvature and a (4,)
    gradient, or S samples as (S, 2) arrays, giving (S,) and (S, 4).
    """
    v = np.asarray(v_xy, dtype=float)
    a = np.asarray(a_xy, dtype=float)
    vx, vy = v[..., 0], v[..., 1]
    ax, ay = a[..., 0], a[..., 1]
    s2 = vx * vx + vy * vy
    slow = np.flatnonzero(s2 < v_eps * v_eps)
    if slow.size:
        raise FlatnessSingularityError(
            f"planar speed {np.sqrt(np.ravel(s2)[slow[0]]):.3f} m/s below {v_eps} m/s"
        )
    c = vx * ay - vy * ax
    s15 = s2**1.5
    s25 = s2**2.5
    kappa = c / s15
    grad = np.stack([
        ay / s15 - 3.0 * vx * c / s25,
        -ax / s15 - 3.0 * vy * c / s25,
        -vy / s15,
        vx / s15,
    ], axis=-1)
    return kappa, grad


def straight_line_reference(waypoints, cruise_speed: float, t0: float = 0.0):
    """Degree-1 piecewise trajectory through the waypoints at cruise speed."""
    waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
    segs = []
    t = t0
    for a, b in zip(waypoints, waypoints[1:]):
        d = float(np.linalg.norm(b - a)) / cruise_speed
        segs.append(BernsteinSegment(np.stack([a, b]), t, t + d))
        t += d
    return PiecewiseTrajectory(segs)


@functools.lru_cache(maxsize=None)
def _curvature_basis(n: int, n_samples: int):
    """Sample parameters and unscaled velocity/acceleration rows, read-only.

    At u_k = (k + 1/2)/n_samples, row k of the two (n_samples, n+1) arrays
    is basis_row(n-1, u_k) @ S1 and basis_row(n-2, u_k) @ S2, with S_j the
    difference stencils; a segment's rows are these times derivative_scale.
    """
    u = (np.arange(n_samples) + 0.5) / n_samples
    w_v = np.array([basis_row(n - 1, uk) for uk in u]) @ difference_stencil(n, 1)
    w_a = np.array([basis_row(n - 2, uk) for uk in u]) @ difference_stencil(n, 2)
    for arr in (u, w_v, w_a):
        arr.setflags(write=False)
    return u, w_v, w_a


def build_curvature_constraints(prev_traj: PiecewiseTrajectory, config: PlannerConfig,
                                durations, t0: float = 0.0):
    """Taylor-linearized curvature rows at collocation times per segment.

    Linearization points come from the previous trajectory evaluated at the
    matching absolute times (clamped to its domain), all in one batch.
    """
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    K = config.n_curv_samples
    if not (np.isfinite(config.kappa_min) or np.isfinite(config.kappa_max)):
        return _layout(np.zeros((0, 3, n + 1)), [], M), np.zeros(0), np.zeros(0)
    u, w_v, w_a = _curvature_basis(n, K)
    seg_start = np.cumsum(np.concatenate([[t0], durations]))[:-1]
    t_abs = seg_start[:, None] + u * durations[:, None]
    t_prev = np.minimum(np.maximum(t_abs, prev_traj.t_start), prev_traj.t_end)
    vel, acc = prev_traj.velocity_acceleration(t_prev.ravel())
    kbar, grad = curvature(vel[:, :2], acc[:, :2], config.v_eps)
    c0 = kbar - (grad[:, 0] * vel[:, 0] + grad[:, 1] * vel[:, 1]
                 + grad[:, 2] * acc[:, 0] + grad[:, 3] * acc[:, 1])

    # Row (segment m, sample k) touches only segment m's x and y points.
    g = grad.reshape(M, K, 4, 1)
    W_v = derivative_scale(n, 1, durations)[:, None, None] * w_v
    W_a = derivative_scale(n, 2, durations)[:, None, None] * w_a
    W = np.zeros((M, K, 3, n + 1))
    W[:, :, 0] = g[:, :, 0] * W_v + g[:, :, 2] * W_a
    W[:, :, 1] = g[:, :, 1] * W_v + g[:, :, 3] * W_a
    A = _layout(W, np.repeat(np.arange(M), K), M)
    return A, config.kappa_min - c0, config.kappa_max - c0


def assemble(wps: WaypointSequence, config: PlannerConfig,
             prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0):
    """Build the stacked QP for a waypoint sequence.

    Returns (problem, durations, shift): the problem is posed in coordinates
    translated by -shift (the first waypoint), which makes the planner
    exactly translation-equivariant regardless of solver tolerances.
    """
    durations = _durations(wps, config)

    shift = wps.waypoints[0].copy()
    wps_local = WaypointSequence(
        wps.waypoints - shift,
        BoundaryState(wps.boundary_start.position - shift,
                      wps.boundary_start.velocity, wps.boundary_start.acceleration),
        BoundaryState(wps.boundary_end.position - shift,
                      wps.boundary_end.velocity, wps.boundary_end.acceleration),
    )

    if prev_traj is None:
        prev_traj = straight_line_reference(wps.waypoints, config.cruise_speed, t0)

    chords = np.diff(wps.waypoints, axis=0)
    chords /= np.linalg.norm(chords, axis=1)[:, None]

    Q = build_cost(config, durations)
    A_eq, l_eq, u_eq = build_endpoint_constraints(wps_local, config, durations)
    A_ct, l_ct, u_ct = build_continuity_constraints(config, durations)
    A_db, l_db, u_db = build_derivative_bounds(config, durations, chords)
    A_cv, l_cv, u_cv = build_curvature_constraints(prev_traj, config, durations, t0)

    A = np.vstack([A_eq, A_ct, A_db, A_cv])
    l = np.concatenate([l_eq, l_ct, l_db, l_cv])
    u = np.concatenate([u_eq, u_ct, u_db, u_cv])
    return qp.QpProblem(Q, None, A, l, u), durations, shift


def plan(wps: WaypointSequence, config: PlannerConfig,
         prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0,
         warm: qp.QpSolution | None = None) -> PlanResult:
    """Assemble and solve the stacked trajectory QP.

    Returns a PlanResult; solver failures come back as a non-ok result so
    callers can keep flying the previous trajectory.
    """
    n = config.degree
    prob, durations, shift = assemble(wps, config, prev_traj, t0)
    if warm is not None and (warm.x.shape[0] != prob.n or warm.y.shape[0] != prob.m):
        warm = None
    sol = qp.solve_qp(prob, warm_start=warm)

    result = PlanResult(
        trajectory=None,
        status=sol.status,
        iterations=sol.iterations,
        objective=2.0 * sol.objective,
        solve_time=sol.solve_time,
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        n_vars=prob.n,
        n_constraints=prob.m,
        qp_solution=sol,
    )
    if sol.status != "solved":
        return result

    # sol.x in _layout's order: segment, axis, control point.
    pts = sol.x.reshape(-1, 3, n + 1).transpose(0, 2, 1) + shift
    # Junction control points are duplicated across segments and tied by
    # equality rows the solver meets only to its own tolerance; the spline
    # representation needs them identical, with the later segment owning
    # the junction value.
    if np.abs(pts[:-1, -1] - pts[1:, 0]).max(initial=0.0) > 1e-3:
        result.status = "imprecise"
        return result
    pts[:-1, -1] = pts[1:, 0]

    t = np.cumsum(np.concatenate([[t0], durations]))
    result.trajectory = PiecewiseTrajectory(
        [BernsteinSegment(p, a, b) for p, a, b in zip(pts, t[:-1], t[1:])])
    return result


def replan(current: PiecewiseTrajectory, t_now: float, t_opt_est: float,
           wps_remaining, config: PlannerConfig,
           boundary_end: BoundaryState | None = None,
           warm: qp.QpSolution | None = None) -> PlanResult:
    """Re-solve from the state the reference will occupy after t_opt_est.

    wps_remaining holds the waypoints still ahead (the last one is the leg
    end). Waypoints the handoff point has effectively reached are dropped;
    if the handoff time falls outside the current trajectory, the replan is
    rejected and the caller keeps the current trajectory.
    """
    t_h = t_now + t_opt_est
    if t_h > current.t_end or t_h < current.t_start:
        return PlanResult(trajectory=None, status="rejected")

    pos, vel, acc, _ = current.eval(t_h)
    remaining = [np.asarray(w, dtype=float) for w in np.atleast_2d(wps_remaining)]
    while remaining and np.linalg.norm(remaining[0] - pos) < max(
        1.0, 0.5 * config.cruise_speed
    ) and len(remaining) > 1:
        remaining.pop(0)
    if not remaining or np.linalg.norm(remaining[-1] - pos) < 1.0:
        return PlanResult(trajectory=None, status="rejected")

    if boundary_end is None:
        tail = remaining[-1] - (remaining[-2] if len(remaining) > 1 else pos)
        tail = tail / np.linalg.norm(tail)
        boundary_end = BoundaryState(remaining[-1], config.cruise_speed * tail,
                                     np.zeros(3))
    try:
        wps = WaypointSequence(np.vstack([pos[None, :], remaining]),
                               BoundaryState(pos, vel, acc), boundary_end)
    except ValueError:
        return PlanResult(trajectory=None, status="rejected")
    return plan(wps, config, prev_traj=current, t0=t_h, warm=warm)
