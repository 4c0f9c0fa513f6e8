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
        if not 5 <= self.degree <= 12:
            raise ValueError(f"degree {self.degree} outside supported range [5, 12]")
        if self.kappa_min > self.kappa_max:
            raise ValueError("kappa_min exceeds kappa_max")
        if self.v_min <= 0:
            raise ValueError("v_min must be strictly positive (forward flight)")
        if self.degree < self.continuity_order + 1:
            raise ValueError("degree must exceed the junction continuity order")
        if self.cruise_speed <= 0:
            raise ValueError("cruise_speed must be positive")

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


def _idx(m: int, axis: int, i: int, n: int) -> int:
    return m * 3 * (n + 1) + axis * (n + 1) + i


def _deriv_row(n: int, k: int, duration: float, u: float) -> np.ndarray:
    """Row over a segment's control points giving the k-th derivative at u."""
    dmat = derivative_map(n, k, duration).matrix
    if u == 0.0:
        return dmat[0]
    if u == 1.0:
        return dmat[-1]
    return basis_row(n - k, u) @ dmat


def build_cost(config: PlannerConfig, durations) -> np.ndarray:
    """Block-diagonal jerk Gram cost; p'Qp equals the squared-jerk integral."""
    n = config.degree
    if n < 3:
        raise ValueError("jerk cost needs degree >= 3")
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    N = 3 * M * (n + 1)
    Q = np.zeros((N, N))
    S3 = difference_stencil(n, 3)
    for m, d in enumerate(durations):
        scale = derivative_scale(n, 3, d)
        block = scale**2 * (S3.T @ gram_matrix(n - 3, d) @ S3)
        for axis in range(3):
            i0 = _idx(m, axis, 0, n)
            Q[i0 : i0 + n + 1, i0 : i0 + n + 1] = block
    return Q


def build_endpoint_constraints(wps: WaypointSequence, config: PlannerConfig, durations):
    """Equalities pinning boundary pos/vel/acc and interior waypoint positions."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    N = 3 * M * (n + 1)
    rows, vals = [], []

    def pin(m, u, k, target):
        w = _deriv_row(n, k, durations[m], u)
        for axis in range(3):
            row = np.zeros(N)
            i0 = _idx(m, axis, 0, n)
            row[i0 : i0 + n + 1] = w
            rows.append(row)
            vals.append(target[axis])

    b0, b1 = wps.boundary_start, wps.boundary_end
    for k, target in enumerate((b0.position, b0.velocity, b0.acceleration)):
        pin(0, 0.0, k, target)
    for k, target in enumerate((b1.position, b1.velocity, b1.acceleration)):
        pin(M - 1, 1.0, k, target)
    for m in range(M - 1):
        pin(m, 1.0, 0, wps.waypoints[m + 1])

    A = np.array(rows) if rows else np.zeros((0, N))
    v = np.array(vals)
    return A, v.copy(), v.copy()


def build_continuity_constraints(config: PlannerConfig, durations):
    """Equalities matching derivatives 0..continuity_order across junctions."""
    n = config.degree
    if config.continuity_order >= n:
        raise ValueError("continuity order must be below the segment degree")
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    N = 3 * M * (n + 1)
    rows = []
    for m in range(M - 1):
        for k in range(config.continuity_order + 1):
            w_end = _deriv_row(n, k, durations[m], 1.0)
            w_start = _deriv_row(n, k, durations[m + 1], 0.0)
            for axis in range(3):
                row = np.zeros(N)
                i0 = _idx(m, axis, 0, n)
                i1 = _idx(m + 1, axis, 0, n)
                row[i0 : i0 + n + 1] = w_end
                row[i1 : i1 + n + 1] -= w_start
                rows.append(row)
    A = np.array(rows) if rows else np.zeros((0, N))
    z = np.zeros(A.shape[0])
    return A, z.copy(), z.copy()


def build_derivative_bounds(config: PlannerConfig, durations, chords=None):
    """Box bounds on velocity/acceleration control points (convex-hull sound).

    When per-segment unit chord directions are supplied, an additional row
    per velocity control point keeps the along-chord speed component above
    v_min, encoding forward progress.
    """
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    N = 3 * M * (n + 1)
    v_max = config.v_max_vec()
    a_max = config.a_max_vec()
    if np.any(v_max <= 0) or np.any(a_max <= 0):
        raise ValueError("derivative bounds must be positive")
    rows, lo, hi = [], [], []
    for m, d in enumerate(durations):
        D1 = derivative_map(n, 1, d).matrix
        D2 = derivative_map(n, 2, d).matrix
        for axis in range(3):
            if np.isfinite(v_max[axis]):
                for r in D1:
                    row = np.zeros(N)
                    i0 = _idx(m, axis, 0, n)
                    row[i0 : i0 + n + 1] = r
                    rows.append(row)
                    lo.append(-v_max[axis])
                    hi.append(v_max[axis])
            if np.isfinite(a_max[axis]):
                for r in D2:
                    row = np.zeros(N)
                    i0 = _idx(m, axis, 0, n)
                    row[i0 : i0 + n + 1] = r
                    rows.append(row)
                    lo.append(-a_max[axis])
                    hi.append(a_max[axis])
        if chords is not None:
            c = np.asarray(chords[m], dtype=float)
            for r in D1:
                row = np.zeros(N)
                for axis in range(3):
                    i0 = _idx(m, axis, 0, n)
                    row[i0 : i0 + n + 1] = c[axis] * r
                rows.append(row)
                lo.append(config.v_min)
                hi.append(np.inf)
    A = np.array(rows) if rows else np.zeros((0, N))
    return A, np.array(lo), np.array(hi)


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
    N = 3 * M * (n + 1)
    if not (np.isfinite(config.kappa_min) or np.isfinite(config.kappa_max)):
        return np.zeros((0, N)), np.zeros(0), np.zeros(0)
    u, w_v, w_a = _curvature_basis(n, K)
    seg_start = np.cumsum(np.concatenate([[t0], durations]))[:-1]
    t_abs = seg_start[:, None] + u * durations[:, None]
    t_prev = np.minimum(np.maximum(t_abs, prev_traj.t_start), prev_traj.t_end)
    vel, acc = prev_traj.velocity_acceleration(t_prev.ravel())
    kbar, grad = curvature(vel[:, :2], acc[:, :2], config.v_eps)
    c0 = kbar - (grad[:, 0] * vel[:, 0] + grad[:, 1] * vel[:, 1]
                 + grad[:, 2] * acc[:, 0] + grad[:, 3] * acc[:, 1])

    # Block (segment m, sample k) of A touches only segment m's x and y
    # control points: A viewed as (M, K, M, 3, n+1) is zero off m == m'.
    g = grad.reshape(M, K, 4, 1)
    W_v = derivative_scale(n, 1, durations)[:, None, None] * w_v
    W_a = derivative_scale(n, 2, durations)[:, None, None] * w_a
    A = np.zeros((M, K, M, 3, n + 1))
    seg = np.arange(M)
    A[seg, :, seg, 0] = g[:, :, 0] * W_v + g[:, :, 2] * W_a
    A[seg, :, seg, 1] = g[:, :, 1] * W_v + g[:, :, 3] * W_a
    return A.reshape(M * K, N), config.kappa_min - c0, config.kappa_max - c0


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
         settings: qp.QpSettings | None = None,
         warm: qp.QpSolution | None = None) -> PlanResult:
    """Assemble and solve the stacked trajectory QP.

    Returns a PlanResult; solver failures come back as a non-ok result so
    callers can keep flying the previous trajectory.
    """
    n = config.degree
    prob, durations, shift = assemble(wps, config, prev_traj, t0)
    M = durations.size
    N = 3 * M * (n + 1)
    if warm is not None and (warm.x.shape[0] != N or warm.y.shape[0] != prob.m):
        warm = None
    sol = qp.solve_qp(prob, settings, warm_start=warm)

    result = PlanResult(
        trajectory=None,
        status=sol.status,
        iterations=sol.iterations,
        objective=2.0 * sol.objective,
        solve_time=sol.solve_time,
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        n_vars=N,
        n_constraints=prob.m,
        qp_solution=sol,
    )
    if sol.status != "solved":
        return result

    blocks = []
    for m in range(M):
        i0 = m * 3 * (n + 1)
        blocks.append(sol.x[i0 : i0 + 3 * (n + 1)].reshape(3, n + 1).T + shift)
    # Junction control points are duplicated across segments and tied by
    # equality rows the solver meets only to its own tolerance; the spline
    # representation needs them identical, with the later segment owning
    # the junction value.
    for m in range(M - 1):
        gap = float(np.abs(blocks[m][-1] - blocks[m + 1][0]).max())
        if gap > 1e-3:
            result.status = "imprecise"
            return result
        blocks[m][-1] = blocks[m + 1][0]

    segs = []
    t = t0
    for pts, d in zip(blocks, durations):
        segs.append(BernsteinSegment(pts, t, t + d))
        t += d
    result.trajectory = PiecewiseTrajectory(segs)
    return result


def replan(current: PiecewiseTrajectory, t_now: float, t_opt_est: float,
           wps_remaining, config: PlannerConfig,
           boundary_end: BoundaryState | None = None,
           settings: qp.QpSettings | None = None,
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
    return plan(wps, config, prev_traj=current, t0=t_h, settings=settings, warm=warm)
