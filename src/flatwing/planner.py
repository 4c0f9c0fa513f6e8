"""Minimum-jerk piecewise-Bernstein trajectory planner.

Assembles one stacked QP over all segments and axes: jerk-integral cost,
convex-hull derivative box bounds, and planar-curvature inequalities
linearized about the previous trajectory. The QP's variables are the
junctions' derivatives 0..continuity_order on each axis and each segment's
middle control points (Richter, Bry & Roy, ISRR 2013). A segment's control
points are a fixed map of its junctions and middle points, and neighbouring
segments share a junction, so continuity holds by construction. Waypoints
and the boundary velocity and acceleration are fixed entries, substituted
out, so the QP has no equality rows. Replanning re-solves from a handoff
state a short horizon ahead so the swap is continuous.
"""

from __future__ import annotations

import functools
import math
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
            # Order 2 lets the end junctions carry the boundary velocity
            # and acceleration; order (degree-1)//2 leaves no middle point.
            ("continuity_order", 2 <= self.continuity_order <= (self.degree - 1) // 2,
             f"lie in [2, {(self.degree - 1) // 2}] at degree {self.degree}"),
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


@dataclass(frozen=True)
class Coordinates:
    """How a planner QP's variables give control points.

    Segment m's window holds, on each axis, the derivatives 0..c at its
    start junction, its middle control points and the derivatives 0..c at
    its end junction. Entry (m, axis, i) of the window is the QP variable
    x[cols[m, axis, i]], or the value fixed[m, axis, i] where cols is -1.
    The segment's control points on that axis are T[m] applied to the
    window, plus shift: the QP is posed relative to the first waypoint.
    The squared-jerk integral of those points is x'Qx + 2q'x + jerk_offset.
    """

    T: np.ndarray
    cols: np.ndarray
    fixed: np.ndarray
    shift: np.ndarray
    jerk_offset: float

    def control_points(self, x) -> np.ndarray:
        """Control points, (M, n+1, 3), of the QP variables x."""
        # A fixed entry's column -1 reads the appended zero, then is replaced.
        window = np.where(self.cols >= 0, np.append(x, 0.0)[self.cols], self.fixed)
        return (window @ np.swapaxes(self.T, 1, 2)).transpose(0, 2, 1) + self.shift


def _coordinates(wps: WaypointSequence, shift, config: PlannerConfig, M: int):
    """The window layout of `Coordinates`: cols and fixed.

    The full decision vector runs junction 0, segment 0's middle points,
    junction 1, ..., junction M, each by axis and then by order or point, so
    a segment's variables lie together and a long plan's QP stays banded.
    Fixed are the boundary position, velocity and acceleration at both ends
    and the waypoint position at each interior junction; the rest become
    the QP's variables, in the same order.
    """
    n, c1 = config.degree, config.continuity_order + 1
    mid = n + 1 - 2 * c1
    step = 3 * (c1 + mid)  # one junction and one segment's middle points
    axis = np.arange(3)[:, None]
    jct = np.arange(M + 1)[:, None, None] * step + axis * c1 + np.arange(c1)
    mids = np.arange(M)[:, None, None] * step + 3 * c1 + axis * mid + np.arange(mid)
    window = np.concatenate([jct[:-1], mids, jct[1:]], axis=2)

    value = np.zeros(M * step + 3 * c1)
    is_fixed = np.zeros(value.size, dtype=bool)
    for j, bnd in ((0, wps.boundary_start), (M, wps.boundary_end)):
        is_fixed[jct[j, :, :3]] = True
        value[jct[j, :, :3]] = np.column_stack(
            [bnd.position - shift, bnd.velocity, bnd.acceleration])
    is_fixed[jct[1:-1, :, 0]] = True
    value[jct[1:-1, :, 0]] = wps.waypoints[1:-1] - shift
    var = np.cumsum(~is_fixed) - 1
    var[is_fixed] = -1
    return var[window], value[window]


def _layout(W, seg, T, cols, fixed):
    """Dense QP rows, and their offsets, from per-segment weight blocks.

    W holds (R, 3, n+1) blocks, axis by control point: row r weighs the
    control points of segment seg[r]. Through T[seg[r]] the block weighs
    that segment's window (laid out by cols and fixed as in
    `Coordinates`); its variable entries fill the row's columns and its
    fixed entries sum to the row's offset, which the bounds lose.
    """
    Wx = W @ T[seg]
    offset = (Wx * fixed[seg]).sum(axis=(1, 2))
    at = cols[seg]
    var = at >= 0
    rows = np.zeros((len(W), _n_vars(cols)))
    rows[np.nonzero(var)[0], at[var]] = Wx[var]
    return rows, offset


def _quadratic(G, T, cols, fixed):
    """Q, q and the offset for which the Gram blocks G, summed over segments
    and axes, give x'Qx + 2q'x + offset. Each segment adds T'GT on each
    axis: between its variables to Q, and where fixed entries take part to
    q and the offset."""
    N = _n_vars(cols)
    Gx = np.swapaxes(T, 1, 2) @ G @ T
    g = (Gx[:, None] @ fixed[..., None])[..., 0]  # Gx times the fixed entries
    row, col = cols[..., :, None], cols[..., None, :]
    pair = (row >= 0) & (col >= 0)
    Q = np.bincount((row * N + col)[pair], np.broadcast_to(Gx[:, None], pair.shape)[pair],
                    minlength=N * N)
    var = cols >= 0
    q = np.bincount(cols[var], g[var], minlength=N)
    return Q.reshape(N, N), q, float(fixed.ravel() @ g.ravel())


def _n_vars(cols) -> int:
    """The QP's variable count: one past the largest column."""
    return int(cols.max(initial=-1)) + 1


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
    """Jerk Gram block of each segment, (M, n+1, n+1): p'G[m]p is the
    squared-jerk integral of segment m's control points p on one axis."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    S3 = difference_stencil(n, 3)
    scale2 = np.array([derivative_scale(n, 3, d) ** 2 for d in durations])  # as in _maps
    return scale2[:, None, None] * (S3.T @ gram_matrix(n - 3, durations) @ S3)


def build_continuity_constraints(config: PlannerConfig, durations) -> np.ndarray:
    """Maps T, (M, n+1, n+1), that impose C0..Cc across the junctions.

    T[m] takes segment m's window on one axis (the derivatives 0..c at its
    start junction, its n+1-2(c+1) middle control points, the derivatives
    0..c at its end junction) to its control points: the inverses of the
    first and last c+1 rows of derivative_map 0..c at the ends, the
    identity in the middle. Segments that share a junction share its
    derivatives, so they agree to order c.
    """
    n, c = config.degree, config.continuity_order
    durations = np.asarray(durations, dtype=float)
    k = np.arange(c + 1)
    # The unscaled inverses are binomial: the first points are
    # p_j = sum_k C(j, k) D^k p_0 and the last p_(n-j) = sum_k (-1)^k C(j, k)
    # B^k p_n, with D and B the forward and backward differences. Column k
    # then divides by derivative_scale(n, k, d) = n!/(n-k)!/d**k.
    binom = np.array([[math.comb(j, i) for i in k] for j in k], dtype=float)
    inv_scale = (durations[:, None] ** k / [math.perm(n, i) for i in k])[:, None, :]
    T = np.zeros((durations.size, n + 1, n + 1))
    T[:, : c + 1, : c + 1] = binom * inv_scale
    T[:, n - c :, n - c :] = (binom * (-1.0) ** k)[::-1] * inv_scale
    mid = np.arange(c + 1, n - c)
    T[:, mid, mid] = 1.0
    return T


def build_derivative_bounds(config: PlannerConfig, durations, chords=None):
    """Box bounds on velocity/acceleration control points (convex-hull sound).

    When per-segment unit chord directions are supplied, an additional row
    per velocity control point keeps the along-chord speed component above
    v_min, encoding forward progress. Returns weight blocks (R, 3, n+1)
    over control points, the segment of each and the bounds.
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
    return (W.reshape(-1, 3, n + 1), np.repeat(np.arange(M), W.shape[1]),
            np.tile(lo, M), np.tile(hi, M))


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
    Returns weight blocks (R, 3, n+1) over control points, the segment of
    each and the bounds.
    """
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    M = durations.size
    K = config.n_curv_samples
    if not (np.isfinite(config.kappa_min) or np.isfinite(config.kappa_max)):
        return np.zeros((0, 3, n + 1)), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
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
    return (W.reshape(-1, 3, n + 1), np.repeat(np.arange(M), K),
            config.kappa_min - c0, config.kappa_max - c0)


def assemble(wps: WaypointSequence, config: PlannerConfig,
             prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0):
    """Build the stacked QP for a waypoint sequence.

    Returns (problem, durations, coordinates). The problem's variables are
    the free junction derivatives and middle control points; `coordinates`
    turns them into control points. The problem is posed relative to the
    first waypoint, which makes the planner exactly translation-equivariant
    regardless of solver tolerances.
    """
    durations = _durations(wps, config)
    shift = wps.waypoints[0].copy()
    if prev_traj is None:
        prev_traj = straight_line_reference(wps.waypoints, config.cruise_speed, t0)

    chords = np.diff(wps.waypoints, axis=0)
    chords /= np.linalg.norm(chords, axis=1)[:, None]

    T = build_continuity_constraints(config, durations)
    cols, fixed = _coordinates(wps, shift, config, durations.size)
    Q, q, jerk_offset = _quadratic(build_cost(config, durations), T, cols, fixed)
    W_db, seg_db, l_db, u_db = build_derivative_bounds(config, durations, chords)
    W_cv, seg_cv, l_cv, u_cv = build_curvature_constraints(prev_traj, config, durations, t0)
    A, offset = _layout(np.concatenate([W_db, W_cv]), np.concatenate([seg_db, seg_cv]),
                        T, cols, fixed)
    l = np.concatenate([l_db, l_cv]) - offset
    u = np.concatenate([u_db, u_cv]) - offset
    return (qp.QpProblem(Q, q, A, l, u), durations,
            Coordinates(T, cols, fixed, shift, jerk_offset))


def plan(wps: WaypointSequence, config: PlannerConfig,
         prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0,
         warm: qp.QpSolution | None = None) -> PlanResult:
    """Assemble and solve the stacked trajectory QP.

    Returns a PlanResult; solver failures come back as a non-ok result so
    callers can keep flying the previous trajectory.
    """
    prob, durations, coords = assemble(wps, config, prev_traj, t0)
    if warm is not None and (warm.x.shape[0] != prob.n or warm.y.shape[0] != prob.m):
        warm = None
    sol = qp.solve_qp(prob, warm_start=warm)

    result = PlanResult(
        trajectory=None,
        status=sol.status,
        iterations=sol.iterations,
        objective=2.0 * sol.objective + coords.jerk_offset,
        solve_time=sol.solve_time,
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        n_vars=prob.n,
        n_constraints=prob.m,
        qp_solution=sol,
    )
    if sol.status != "solved":
        return result

    # Junction points come from the same entries on both sides: identical.
    t = np.cumsum(np.concatenate([[t0], durations]))
    result.trajectory = PiecewiseTrajectory(
        [BernsteinSegment(p, a, b)
         for p, a, b in zip(coords.control_points(sol.x), t[:-1], t[1:])])
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
