"""Minimum-jerk piecewise-Bernstein trajectory planner.

Assembles one stacked QP over all segments and axes: jerk-integral cost,
convex-hull derivative box bounds, and planar-curvature inequalities
linearized about the previous trajectory. The QP's variables are the
junctions' derivatives 0..continuity_order on each axis and each segment's
middle control points (Richter, Bry & Roy, ISRR 2013). A segment's control
points are a fixed map of its junctions and middle points, and neighbouring
segments share a junction, so continuity holds by construction. Waypoints
and the boundary velocity and acceleration are fixed entries, substituted
out, so the QP has no equality rows. A segment's blocks depend on its
duration d only through powers of d, so each shape caches them at unit
duration and a plan scales them. Replanning re-solves from a handoff
state a short horizon ahead so the swap is continuous.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import qp
from .bernstein import (
    PiecewiseTrajectory,
    basis_row,
    difference_stencil,
    derivative_scale,
    elevated_stencil,
    gram_matrix,
)
from .flatness import FlatnessSingularityError, V_EPS

# Seconds after a replan's handoff within which a waypoint counts as reached:
# by passage time in the mission executive, at cruise speed in `replan`.
WAYPOINT_LEAD = 0.5


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

    def __post_init__(self):
        # Coerce first, as QpSettings does; each `not` test also rejects NaN.
        for name in ("degree", "n_curv_samples", "continuity_order"):
            v = getattr(self, name)
            if not float(v).is_integer():
                raise ValueError(f"{name} must be an integer, got {v!r}")
            setattr(self, name, int(v))
        for name in ("cruise_speed", "v_min", "kappa_min", "kappa_max"):
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
        return np.full(3, self.v_max, dtype=float)

    def a_max_vec(self) -> np.ndarray:
        return np.full(3, self.a_max, dtype=float)


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
    # Read-only chord lengths |waypoints[i+1] - waypoints[i]|, at least 1 m.
    gaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        if W.ndim != 2 or W.shape[1] != 3:
            raise ValueError(f"waypoints must be (N, 3) points, got shape {W.shape}")
        if W.shape[0] < 2:
            raise ValueError("need at least two waypoints")
        ends = (("start", self.boundary_start), ("end", self.boundary_end))
        vecs = [v for _, b in ends for v in (b.position, b.velocity, b.acceleration)]
        if any(v.shape != (3,) for v in vecs):
            raise ValueError("boundary position, velocity and acceleration must be 3-vectors")
        finite = np.isfinite(np.vstack([W, *vecs])).all(axis=1)
        if not finite.all():
            i = int(finite.argmin())
            raise ValueError(f"waypoint {i} is not finite" if i < len(W) else
                             f"boundary {ends[(i - len(W)) // 3][0]} state is not finite")
        gaps = np.linalg.norm(np.diff(W, axis=0), axis=1)
        if np.any(gaps < 1.0):
            raise ValueError(f"consecutive waypoints closer than 1 m (min {gaps.min():.3f})")
        gaps.setflags(write=False)
        self.gaps = gaps
        for (name, bnd), wp in zip(ends, (W[0], W[-1])):
            if np.linalg.norm(bnd.position - wp) > 1e-3:
                raise ValueError(f"boundary {name} position disagrees with the {name} waypoint")


@dataclass
class PlanResult:
    """A plan and its solve. `status` is "solved" (the one status with a
    trajectory), the solver's own status, such as "max-iterations", or
    "rejected: <cause>" when no plan could be made (`problem` is then None)."""

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
    problem: qp.QpProblem | None = None

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
    return np.cumsum(wps.gaps / cruise_speed)


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


# Planner QP shapes whose `_Shape` stays cached: a mission plans in a few
# (one per segment count), a bench in one per size.
_SHAPES_KEPT = 32

@dataclass(frozen=True)
class _Shape:
    """What a planner QP's shape fixes, built once per shape, read-only.

    The window layout of `Coordinates`: `window` indexes the full decision
    vector of `size` entries. It runs junction 0, segment 0's middle
    points, junction 1, ..., junction M, each by axis and then by order or
    point, so a segment's variables lie together and a long plan's QP
    stays banded.
    Fixed are the boundary position, velocity and acceleration at both ends
    (entries `start` and `end`) and the waypoint position at each interior
    junction (`waypoints`); the rest become the QP's variables, in the same
    order, and `cols` is -1 at a fixed entry.

    The unit blocks are one segment's, at duration 1, in window
    coordinates, from the public builders: `T` is T(1); `bounds`,
    (R, 1, n+1), the derivative-bound rows times T(1) on their own axis
    `axis`, (R, 1); `chord`, (n, 3, n+1), the chord rows (on every axis,
    as for a chord of ones) times T(1); `curv`, (2, K, n+1), the curvature
    samples' velocity and acceleration rows times T(1); `cost`
    T(1)'G(1)T(1). The derivative maps scale exactly as n!/(n-k)!/d**k, so
    at duration d a block is its unit block with window column j times
    d**k[j], `k` holding each column's derivative order, and each row of
    derivative order r times d**-r: r is `order` for the bound rows, 1 for
    the chord rows and 1 and 2 for the curvature rows' velocity and
    acceleration parts. The Gram takes the column factors on both sides
    and d**-5 overall ((d**-3)**2 from the jerk, d from the integral).
    Entry r of `bound_of` picks row r's bound from (v_max, a_max, v_min)
    over all segments, with their chord rows.

    The rest are scatter indices. Assemble's `n_rows` rows come in two
    families: each segment's bound rows and then its chord rows, then each
    segment's curvature rows, on x and y. `_layout` gathers each family
    from its own blocks, laid side by side per segment, at its structural
    nonzeros only: `row_src` holds, per family, the flat positions of the
    variable entries whose unit weight is nonzero. They land at `row_dst`
    of the flat A. Each segment's T'GT block on each axis adds entries
    `gram_src` to Q at `gram_dst[gram_sum]`, and its fixed-entry products
    `fixed_src` to q at `fixed_dst`.
    `row_dst` and `gram_dst` hold each position once, in row-major order,
    and `row_ptr`, `row_col`, `gram_ptr` and `gram_col` are the CSR row
    pointers and column indices of those positions.
    """

    window: np.ndarray
    size: int
    start: np.ndarray
    end: np.ndarray
    waypoints: np.ndarray
    cols: np.ndarray
    n_vars: int
    T: np.ndarray
    bounds: np.ndarray
    axis: np.ndarray
    chord: np.ndarray
    curv: np.ndarray
    cost: np.ndarray
    k: np.ndarray
    order: np.ndarray
    bound_of: np.ndarray
    n_rows: int
    row_src: tuple
    row_dst: np.ndarray
    row_ptr: np.ndarray
    row_col: np.ndarray
    gram_src: np.ndarray
    gram_sum: np.ndarray
    gram_dst: np.ndarray
    gram_ptr: np.ndarray
    gram_col: np.ndarray
    fixed_src: np.ndarray
    fixed_dst: np.ndarray


def _finite(config: PlannerConfig) -> tuple:
    """Which of (v_max, a_max) on x, y, z are finite."""
    return tuple(np.isfinite(np.concatenate([config.v_max_vec(), config.a_max_vec()])).tolist())


def _curved(config: PlannerConfig) -> bool:
    """Whether config bounds curvature, so that plans carry curvature rows."""
    return math.isfinite(config.kappa_min) or math.isfinite(config.kappa_max)


def _shape_of(config: PlannerConfig, M: int) -> _Shape:
    """The `_Shape` of an M-segment plan under config."""
    return _shape(config.degree, config.continuity_order, M, _finite(config),
                  _curved(config), config.n_curv_samples)


def _bound_rows(n: int, finite: tuple):
    """One segment's derivative-bound rows: the unscaled weight
    blocks (R, 3, n+1), the velocity and acceleration difference stencils
    on each axis less the rows whose bound is infinite; each row's
    derivative order; and which of (v_max, a_max, v_min) bounds each row,
    followed by the segment's n chord rows (v_min)."""
    axis = np.arange(3)[:, None]
    S = np.concatenate([difference_stencil(n, 1), difference_stencil(n, 2)])
    blocks = np.zeros((3, 2 * n - 1, 3, n + 1))
    for a in range(3):
        blocks[a, :, a] = S
    order = np.tile(np.repeat([1, 2], [n, n - 1]), 3)
    bound_of = (axis + np.repeat([0, 3], [n, n - 1])).ravel()
    keep = np.asarray(finite)[bound_of]
    return (blocks.reshape(-1, 3, n + 1)[keep], order[keep],
            np.concatenate([bound_of[keep], np.full(n, 6)]))


@functools.lru_cache(maxsize=_SHAPES_KEPT)
def _shape(n: int, c: int, M: int, finite: tuple, curved: bool, K: int) -> _Shape:
    c1 = c + 1
    mid = n + 1 - 2 * c1
    step = 3 * (c1 + mid)  # one junction and one segment's middle points
    axis = np.arange(3)[:, None]
    jct = np.arange(M + 1)[:, None, None] * step + axis * c1 + np.arange(c1)
    mids = np.arange(M)[:, None, None] * step + 3 * c1 + axis * mid + np.arange(mid)
    window = np.concatenate([jct[:-1], mids, jct[1:]], axis=2)
    start, end, waypoints = jct[0, :, :3], jct[M, :, :3], jct[1:-1, :, 0]
    size = M * step + 3 * c1
    is_fixed = np.zeros(size, dtype=bool)
    for fixed in (start, end, waypoints):
        is_fixed[fixed] = True
    var = np.cumsum(~is_fixed) - 1
    var[is_fixed] = -1
    cols = var[window]
    N = int(cols.max(initial=-1)) + 1

    # The unit blocks, from the builders at d = 1, which read only the
    # degree, the order, the samples and which bounds are finite.
    lim = tuple(1.0 if f else math.inf for f in finite)
    unit = PlannerConfig(degree=n, continuity_order=c, n_curv_samples=K,
                         v_max=lim[:3], a_max=lim[3:])
    T = build_continuity_constraints(unit, [1.0])[0]
    W = build_derivative_bounds(unit, [1.0], np.ones((1, 3)))[0] @ T
    _, w_v, w_a = _curvature_basis(n, K)
    _, order, bound_of = _bound_rows(n, finite)
    axis = bound_of[:order.size, None] % 3  # v_max and a_max are per axis
    bounds, chord = np.take_along_axis(W[:order.size], axis[..., None], 1), W[order.size:]
    curv = np.stack([derivative_scale(n, 1, 1.0) * w_v, derivative_scale(n, 2, 1.0) * w_a]) @ T
    cost = T.T @ build_cost(unit, [1.0])[0] @ T
    k = np.concatenate([np.arange(c1), np.zeros(mid, dtype=int), np.arange(c1)])

    # Each row family's variable entries whose unit weight is nonzero, by
    # CSR position; a family's parts (unit weights, window columns) lie
    # side by side per segment, as `_layout` lays their weights.
    curv_nz = np.repeat((curv != 0).any(axis=0)[:, None], 2, axis=1)[:K if curved else 0]
    row_src, row_dst, first = [], [], 0
    for parts in (((bounds != 0, cols[:, axis]), (chord != 0, cols[:, None])),
                  ((curv_nz, cols[:, None, :2]),)):
        at, R = [], 0  # each entry's flat position in its segment's rows
        for nz, window_cols in parts:
            row = R + np.arange(len(nz))[:, None, None]
            at.append(np.where(nz & (window_cols >= 0), row * N + window_cols, -1).reshape(M, -1))
            R += len(nz)
        at = np.concatenate(at, axis=1)
        m, e = np.nonzero(at >= 0)
        dst = (first + m * R) * N + at[m, e]
        by_dst = np.argsort(dst)
        row_src.append((m * at.shape[1] + e)[by_dst])
        row_dst.append(dst[by_dst])
        first += M * R
    row_dst = np.concatenate(row_dst)
    Gx_at = np.arange(M * (n + 1) ** 2).reshape(M, 1, n + 1, n + 1)
    row, col = cols[..., :, None], cols[..., None, :]
    pair = (row >= 0) & (col >= 0)
    gram_dst, gram_sum = np.unique((row * N + col)[pair], return_inverse=True)
    row_ptr, row_col = _csr_pattern(row_dst, first, N)
    gram_ptr, gram_col = _csr_pattern(gram_dst, N, N)
    shape = _Shape(
        window=window, size=size, start=start, end=end, waypoints=waypoints, cols=cols, n_vars=N,
        T=T, bounds=bounds, axis=axis, chord=chord, curv=curv, cost=cost, k=k, order=order,
        bound_of=np.tile(bound_of, M), n_rows=first,
        row_src=tuple(row_src), row_dst=row_dst, row_ptr=row_ptr,
        row_col=row_col, gram_src=np.broadcast_to(Gx_at, pair.shape)[pair], gram_sum=gram_sum,
        gram_dst=gram_dst, gram_ptr=gram_ptr, gram_col=gram_col,
        fixed_src=np.flatnonzero(cols >= 0), fixed_dst=cols[cols >= 0])
    for arr in (*vars(shape).values(), *shape.row_src):
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return shape


def _powers(x) -> np.ndarray:
    """(M, 6) running products x**0, ..., x**5 of each entry of x: the
    powers a unit block's scaling reads, the Gram's d**-5 the highest."""
    p = np.ones((x.size, 6))
    p[:, 1:] = x[:, None]
    return np.cumprod(p, axis=1)


def _csr_pattern(dst, n_rows: int, n_cols: int):
    """CSR row pointers and column indices of the flat positions dst
    (sorted, each once) in an (n_rows, n_cols) matrix, in the index dtype
    that scipy.sparse gives a dense matrix of that shape and fill."""
    idx = np.int32 if max(n_rows, n_cols, dst.size) <= np.iinfo(np.int32).max else np.int64
    row, col = np.divmod(dst, n_cols)
    ptr = np.zeros(n_rows + 1, dtype=idx)
    ptr[1:] = np.cumsum(np.bincount(row, minlength=n_rows))
    return ptr, col.astype(idx)


def _matrix(values, dst, ptr, col, shape, sparse: bool):
    """The matrix of the given shape with values at the flat positions dst
    and zeros elsewhere: dense, or CSR with the exact zeros among values
    dropped, as `sp.csr_array` of the dense matrix stores it. ptr and col
    are dst's `_csr_pattern`."""
    if not sparse:
        out = np.zeros(shape[0] * shape[1])
        out[dst] = values
        return out.reshape(shape)
    zero = values == 0.0
    if zero.any():
        gone = np.concatenate(([0], np.cumsum(zero)))
        keep = ~zero
        values, col, ptr = values[keep], col[keep], ptr - gone[ptr].astype(ptr.dtype)
    return sp.csr_array((values, col, ptr), shape=shape)


def _coordinates(wps: WaypointSequence, shift, shape: _Shape) -> np.ndarray:
    """The fixed entries of `Coordinates`' windows, from the boundary
    states and interior waypoints relative to shift."""
    value = np.zeros(shape.size)
    for at, bnd in ((shape.start, wps.boundary_start), (shape.end, wps.boundary_end)):
        value[at.T] = (bnd.position - shift, bnd.velocity, bnd.acceleration)
    value[shape.waypoints] = wps.waypoints[1:-1] - shift
    return value[shape.window]


def _layout(families, shape: _Shape, sparse: bool):
    """QP rows, dense or CSR, and their offsets, from window blocks.

    families holds each row family's parts, (W, F) pairs in row order. W,
    (M, R, axes, n+1), weighs R rows of each segment m over its window
    entries F[m] (laid out as in `Coordinates`; F broadcasts to W), and a
    segment's rows run through the family's parts in turn. The variable
    entries that shape.row_src picks from the parts, laid side by side
    per segment, fill the rows' columns, and the fixed entries sum to
    each row's offset, which the bounds lose.
    """
    offset, values = [], []
    for parts, src in zip(families, shape.row_src):
        offset.append(np.concatenate([(W * F).sum(axis=(2, 3)) for W, F in parts], axis=1))
        values.append(np.concatenate([W.reshape(len(W), -1) for W, _ in parts], axis=1).ravel()[src])
    rows = _matrix(np.concatenate(values), shape.row_dst, shape.row_ptr, shape.row_col,
                   (shape.n_rows, shape.n_vars), sparse)
    return rows, np.concatenate([off.ravel() for off in offset])


def _quadratic(Gx, fixed, shape: _Shape, sparse: bool):
    """Q, dense or CSR, q and the offset for which the window Gram blocks
    Gx, (M, n+1, n+1), summed over segments and axes, give
    x'Qx + 2q'x + offset. Each segment adds Gx on each axis: between its
    variables to Q, and where fixed entries take part to q and the
    offset."""
    N = shape.n_vars
    g = (Gx[:, None] @ fixed[..., None])[..., 0]  # Gx times the fixed entries
    # bincount sums each position's entries in the order they come.
    sums = np.bincount(shape.gram_sum, Gx.ravel()[shape.gram_src], minlength=shape.gram_dst.size)
    Q = _matrix(sums, shape.gram_dst, shape.gram_ptr, shape.gram_col, (N, N), sparse)
    q = np.bincount(shape.fixed_dst, g.ravel()[shape.fixed_src], minlength=N)
    return Q, q, float(fixed.ravel() @ g.ravel())


def build_cost(config: PlannerConfig, durations) -> np.ndarray:
    """Jerk Gram block of each segment, (M, n+1, n+1): p'G[m]p is the
    squared-jerk integral of segment m's control points p on one axis."""
    n = config.degree
    durations = np.asarray(durations, dtype=float)
    S3 = difference_stencil(n, 3)
    # One scalar call per segment, as in build_derivative_bounds.
    scale2 = np.array([derivative_scale(n, 3, d) ** 2 for d in durations])
    return scale2[:, None, None] * (S3.T @ gram_matrix(n - 3, durations) @ S3)


def build_continuity_constraints(config: PlannerConfig, durations) -> np.ndarray:
    """Maps T, (M, n+1, n+1), that impose C0..Cc across the junctions.

    T[m] takes segment m's window on one axis (the derivatives 0..c at its
    start junction, its n+1-2(c+1) middle control points, the derivatives
    0..c at its end junction) to its control points: the inverses of the
    first and last c+1 rows of the derivative maps 0..c at the ends (map k
    is derivative_scale(n, k, d) * difference_stencil(n, k)), the identity
    in the middle. Segments that share a junction share its derivatives,
    so they agree to order c.
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
    blocks, order, bound_of = _bound_rows(n, _finite(config))
    bound_of = np.tile(bound_of, M)
    # Column k scales order k. One scalar call per segment and order:
    # numpy's power on arrays does not round like its scalar power on every
    # host, and each scale must equal a scalar derivative_scale call's.
    scale = np.array([[0.0, derivative_scale(n, 1, d), derivative_scale(n, 2, d)]
                      for d in durations])
    W = scale[:, order, None, None] * blocks
    lo, hi = _limits(config, bound_of)
    if chords is None:
        keep = bound_of < 6
        lo, hi = lo[keep], hi[keep]
    else:
        D1 = scale[:, 1, None, None] * difference_stencil(n, 1)
        W_chord = np.asarray(chords, dtype=float)[:, None, :, None] * D1[:, :, None, :]
        W = np.concatenate([W, W_chord], axis=1)
    return W.reshape(-1, 3, n + 1), np.repeat(np.arange(M), W.shape[1]), lo, hi


def _limits(config: PlannerConfig, bound_of):
    """Lower and upper bounds of derivative-bound rows: entry r of bound_of
    picks row r's from v_max (0-2, by axis), a_max (3-5) or v_min (6)."""
    lim = np.concatenate([config.v_max_vec(), config.a_max_vec()])
    return np.append(-lim, config.v_min)[bound_of], np.append(lim, np.inf)[bound_of]


def curvature(v_xy, a_xy):
    """Planar curvature and its gradient wrt (vx, vy, ax, ay).

    Takes one sample as 2-vectors, giving a scalar curvature and a (4,)
    gradient, or S samples as (S, 2) arrays, giving (S,) and (S, 4).
    """
    v = np.asarray(v_xy, dtype=float)
    a = np.asarray(a_xy, dtype=float)
    vx, vy = v[..., 0], v[..., 1]
    ax, ay = a[..., 0], a[..., 1]
    s2 = vx * vx + vy * vy
    slow = np.flatnonzero(s2 < V_EPS * V_EPS)
    if slow.size:
        raise FlatnessSingularityError(
            f"planar speed {np.sqrt(np.ravel(s2)[slow[0]]):.3f} m/s below {V_EPS} m/s"
        )
    c = vx * ay - vy * ax
    s15 = s2**1.5
    s25 = s2**2.5
    kappa = c / s15
    grad = np.empty(np.shape(c) + (4,))
    grad[..., 0] = ay / s15 - 3.0 * vx * c / s25
    grad[..., 1] = -ax / s15 - 3.0 * vy * c / s25
    grad[..., 2] = -vy / s15
    grad[..., 3] = vx / s15
    return kappa, grad


def straight_line_reference(waypoints, cruise_speed: float, t0: float = 0.0):
    """Degree-1 piecewise trajectory through the waypoints at cruise speed."""
    waypoints = np.atleast_2d(np.asarray(waypoints, dtype=float))
    knots = [t0]
    for a, b in zip(waypoints, waypoints[1:]):
        knots.append(knots[-1] + float(np.linalg.norm(b - a)) / cruise_speed)
    return PiecewiseTrajectory(np.stack([waypoints[:-1], waypoints[1:]], axis=1), knots)


@functools.lru_cache(maxsize=None)
def _curvature_basis(n: int, n_samples: int):
    """Sample parameters and unscaled velocity/acceleration rows, read-only.

    At u_k = (k + 1/2)/n_samples, row k of the two (n_samples, n+1) arrays
    is basis_row(n, u_k) @ elevated_stencil(n, j) for j = 1, 2: the same
    degree-n kernel that evaluates trajectories. A segment's rows are these
    times derivative_scale.
    """
    u = (np.arange(n_samples) + 0.5) / n_samples
    rows = basis_row(n, u)
    w_v = rows @ elevated_stencil(n, 1)
    w_a = rows @ elevated_stencil(n, 2)
    for arr in (u, w_v, w_a):
        arr.setflags(write=False)
    return u, w_v, w_a


def _linearization(prev_traj: PiecewiseTrajectory, config: PlannerConfig, durations, t0: float):
    """Where the curvature rows linearize: the gradient (M, K, 4) of the
    curvature wrt (vx, vy, ax, ay), and kbar - grad.(vx, vy, ax, ay), (M*K,),
    at each segment's samples.

    The points come from prev_traj evaluated at the matching absolute times
    (clamped to its domain), all in one batch.
    """
    M, K = durations.size, config.n_curv_samples
    u = _curvature_basis(config.degree, K)[0]
    seg_start = np.cumsum(np.concatenate([[t0], durations]))[:-1]
    t_abs = seg_start[:, None] + u * durations[:, None]
    t_prev = np.minimum(np.maximum(t_abs, prev_traj.t_start), prev_traj.t_end)
    vel, acc = prev_traj.velocity_acceleration(t_prev.ravel())
    kbar, grad = curvature(vel[:, :2], acc[:, :2])
    # kbar - grad.(vx, vy, ax, ay), the products summed left to right.
    va = np.concatenate([vel[:, :2], acc[:, :2]], axis=1)
    return grad.reshape(M, K, 4), kbar - np.add.accumulate(grad * va, axis=1)[:, -1]


def _curvature_rows(grad, W_v, W_a) -> np.ndarray:
    """Curvature weight blocks on the x and y axes, (M, K, 2, n+1), from
    the gradient (M, K, 4) and each sample's velocity and acceleration rows
    W_v and W_a, (M, K, n+1): g_vx*W_v + g_ax*W_a and g_vy*W_v + g_ay*W_a.
    A curvature row does not touch z."""
    return grad[..., :2, None] * W_v[:, :, None] + grad[..., 2:, None] * W_a[:, :, None]


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
    if not _curved(config):
        return np.zeros((0, 3, n + 1)), np.zeros(0, dtype=int), np.zeros(0), np.zeros(0)
    grad, c0 = _linearization(prev_traj, config, durations, t0)
    _, w_v, w_a = _curvature_basis(n, K)
    W = np.zeros((M * K, 3, n + 1))
    W[:, :2] = _curvature_rows(grad, derivative_scale(n, 1, durations)[:, None, None] * w_v,
                               derivative_scale(n, 2, durations)[:, None, None] * w_a
                               ).reshape(-1, 2, n + 1)
    return W, np.repeat(np.arange(M), K), config.kappa_min - c0, config.kappa_max - c0


def assemble(wps: WaypointSequence, config: PlannerConfig,
             prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0):
    """Build the stacked QP for a waypoint sequence.

    Returns (problem, durations, coordinates). The problem's variables are
    the free junction derivatives and middle control points; `coordinates`
    turns them into control points. The problem is posed relative to the
    first waypoint, which makes the planner exactly translation-equivariant
    regardless of solver tolerances.

    Every block is the shape's unit-duration block with its rows and
    columns scaled by powers of the segment durations, so no T(d), W @ T
    or T'GT is formed per plan.
    """
    durations = wps.gaps / config.cruise_speed
    shift = wps.waypoints[0].copy()
    chords = (wps.waypoints[1:] - wps.waypoints[:-1]) / wps.gaps[:, None]

    shape = _shape_of(config, durations.size)
    # Built in the form the solve works on: a large QP never exists dense.
    sparse = qp.csr_form(shape.n_rows, shape.n_vars)
    fixed = _coordinates(wps, shift, shape)
    up, down = _powers(durations), _powers(1.0 / durations)
    col = up[:, shape.k]  # window column j of segment m scales by d_m**k[j]
    Q, q, jerk_offset = _quadratic(shape.cost * down[:, 5, None, None] * col[:, :, None]
                                   * col[:, None, :], fixed, shape, sparse)
    W = shape.bounds * (down[:, shape.order, None, None] * col[:, None, None, :])
    chord = shape.chord * (down[:, 1, None, None, None] * col[:, None, None, :])
    families = [[(W, fixed[:, shape.axis]), (chord * chords[:, None, :, None], fixed[:, None])]]
    lo, hi = _limits(config, shape.bound_of)
    if _curved(config):
        if prev_traj is None:
            prev_traj = straight_line_reference(wps.waypoints, config.cruise_speed, t0)
        grad, c0 = _linearization(prev_traj, config, durations, t0)
        va = shape.curv * (down[:, 1:3, None, None] * col[:, None, None, :])
        families.append([(_curvature_rows(grad, va[:, 0], va[:, 1]), fixed[:, None, :2])])
        lo = np.concatenate([lo, config.kappa_min - c0])
        hi = np.concatenate([hi, config.kappa_max - c0])
    A, offset = _layout(families, shape, sparse)
    T = shape.T * col[:, None, :]
    return (qp.QpProblem(Q, q, A, lo - offset, hi - offset), durations,
            Coordinates(T, shape.cols, fixed, shift, jerk_offset))


def plan(wps: WaypointSequence, config: PlannerConfig,
         prev_traj: PiecewiseTrajectory | None = None, t0: float = 0.0,
         warm: qp.QpSolution | None = None) -> PlanResult:
    """Assemble and solve the stacked trajectory QP.

    Raises for no failure, so callers can keep flying the previous
    trajectory: a ValueError (`qp.IllPosedProblem` among them) or
    FlatnessSingularityError met while the QP is assembled or solved or its
    trajectory built comes back non-ok as "rejected: <message>", a solver
    failure with its status.
    """
    try:
        prob, durations, coords = assemble(wps, config, prev_traj, t0)
        if warm is not None and (warm.x.shape[0] != prob.n or warm.y.shape[0] != prob.m):
            warm = None
        sol = qp.solve_qp(prob, warm_start=warm)
        # Junction points come from the same entries on both sides: identical.
        traj = (PiecewiseTrajectory(coords.control_points(sol.x),
                                    np.cumsum(np.concatenate([[t0], durations])))
                if sol.status == "solved" else None)
    except (ValueError, FlatnessSingularityError) as exc:
        return PlanResult(None, f"rejected: {exc}")
    return PlanResult(traj, sol.status, iterations=sol.iterations,
                      objective=2.0 * sol.objective + coords.jerk_offset,
                      solve_time=sol.solve_time, primal_residual=sol.primal_residual,
                      dual_residual=sol.dual_residual, n_vars=prob.n, n_constraints=prob.m,
                      qp_solution=sol, problem=prob)


def replan(current: PiecewiseTrajectory, t_now: float, t_opt_est: float,
           wps_remaining, config: PlannerConfig, boundary_end: BoundaryState,
           warm: qp.QpSolution | None = None) -> PlanResult:
    """Re-solve from the state the reference will occupy after t_opt_est.

    wps_remaining holds the waypoints still ahead; the last one is the leg
    end, where the plan meets boundary_end. Waypoints the handoff point has
    effectively reached are dropped. A replan that cannot be made (a
    handoff outside the current trajectory or within 1 m of the leg end,
    or a ValueError or FlatnessSingularityError while the handoff sequence
    is built or planned) comes back non-ok with a status that starts
    "rejected: " and names the cause; the caller keeps the current
    trajectory. Solver failures keep the solver's status.
    """
    t_h = t_now + t_opt_est
    if t_h > current.t_end or t_h < current.t_start:
        return PlanResult(None, f"rejected: handoff t={t_h:.3f} s outside the current "
                                f"trajectory [{current.t_start:.3f}, {current.t_end:.3f}] s")

    pos, vel, acc = np.asarray(current.eval(t_h)[:3])
    remaining = np.atleast_2d(np.asarray(wps_remaining, dtype=float))
    dist = np.linalg.norm(remaining - pos, axis=1)
    # Drop the leading waypoints within reach, keeping at least the last.
    near = dist[:-1] < max(1.0, WAYPOINT_LEAD * config.cruise_speed)
    first = near.size if near.all() else int(near.argmin())
    remaining, dist = remaining[first:], dist[first:]
    if not dist.size or dist[-1] < 1.0:
        return PlanResult(None, "rejected: handoff within 1 m of the leg end")

    try:
        wps = WaypointSequence(np.vstack([pos[None, :], remaining]),
                               BoundaryState(pos, vel, acc), boundary_end)
    except ValueError as exc:
        return PlanResult(None, f"rejected: {exc}")
    return plan(wps, config, prev_traj=current, t0=t_h, warm=warm)
