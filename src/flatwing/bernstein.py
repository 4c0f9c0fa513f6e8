"""Bernstein polynomial segments, piecewise trajectories, and integral machinery."""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import binom

MIN_DURATION = 1e-6


class DomainError(ValueError):
    """Raised when a trajectory or segment is queried outside its time domain."""


def basis_eval(n: int, i: int, u: float) -> float:
    """Evaluate the degree-n Bernstein basis function with index i at u in [0, 1].

    Computed by de Casteljau recursion on an indicator coefficient vector,
    which stays stable for high degrees where naive binomial/power products
    lose accuracy.
    """
    if not 0 <= i <= n:
        raise ValueError(f"basis index {i} out of range for degree {n}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"basis argument u={u} outside [0, 1]")
    b = np.zeros(n + 1)
    b[i] = 1.0
    for r in range(n):
        b[: n - r] = (1.0 - u) * b[: n - r] + u * b[1 : n - r + 1]
    return float(b[0])


def basis_row(n: int, u: float) -> np.ndarray:
    """All degree-n Bernstein basis values at u as a length n+1 row."""
    row = np.zeros(n + 1)
    row[0] = 1.0
    for m in range(1, n + 1):
        for j in range(m, 0, -1):
            row[j] = u * row[j - 1] + (1.0 - u) * row[j]
        row[0] *= 1.0 - u
    return row


@functools.lru_cache(maxsize=None)
def difference_stencil(n: int, k: int) -> np.ndarray:
    """Unscaled k-th forward-difference stencil, shape (n+1-k, n+1).

    Maps control points to the (unscaled) control points of the k-th
    derivative; repeated convolution with [-1, 1]. Every row sums to zero.
    Cached per (n, k) and returned read-only.
    """
    if k < 0 or k > n:
        raise ValueError(f"difference order {k} invalid for degree {n}")
    S = np.eye(n + 1)
    for _ in range(k):
        m = S.shape[0]
        idx = np.arange(m - 1)
        D = np.zeros((m - 1, m))
        D[idx, idx] = -1.0
        D[idx, idx + 1] = 1.0
        S = D @ S
    S.setflags(write=False)
    return S


def derivative_scale(n: int, k: int, duration: float) -> float:
    """Falling-factorial scale n!/(n-k)! divided by duration**k."""
    s = 1.0
    for j in range(k):
        s *= n - j
    return s / duration**k


@dataclass(frozen=True)
class DifferenceMatrix:
    """Scaled map from control points to k-th-derivative control points."""

    order: int
    matrix: np.ndarray  # (n+1-k, n+1), includes n!/(n-k)!/(tf-t0)^k

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.matrix @ points


def derivative_map(n: int, k: int, duration: float) -> DifferenceMatrix:
    if duration <= 0:
        raise ValueError("duration must be positive")
    return DifferenceMatrix(k, derivative_scale(n, k, duration) * difference_stencil(n, k))


@dataclass(frozen=True)
class BernsteinSegment:
    """One polynomial segment: control points on the time interval [t0, tf].

    Control points may be scalars (shape (n+1,)) or d-vectors (shape
    (n+1, d)); the degree is inferred from the leading dimension.
    """

    control_points: np.ndarray
    t0: float
    tf: float

    def __post_init__(self):
        pts = np.asarray(self.control_points, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[0] < 1:
            raise ValueError("control_points must be a (n+1,) or (n+1, d) array")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "control_points", pts)
        if not self.tf - self.t0 >= MIN_DURATION:
            raise ValueError(
                f"segment duration {self.tf - self.t0} below minimum {MIN_DURATION}"
            )

    @property
    def degree(self) -> int:
        return self.control_points.shape[0] - 1

    @property
    def duration(self) -> float:
        return self.tf - self.t0


def _de_casteljau(points: np.ndarray, u):
    """De Casteljau recursion at u: a scalar, or a 1-D array of S samples.

    For an array the samples lead the result's shape, (S,) or (S, d), and
    each sample goes through the same floating-point operations as a
    scalar call, so the two agree bit for bit.
    """
    b = points
    if np.ndim(u):
        u = np.asarray(u, dtype=float).reshape((1, -1) + (1,) * (points.ndim - 1))
        b = np.broadcast_to(points[:, None], points.shape[:1] + u.shape[1:2] + points.shape[1:])
    if points.shape[0] == 1:
        return np.array(b[0])  # a copy, not a view of the control points
    for _ in range(points.shape[0] - 1):
        b = (1.0 - u) * b[:-1] + u * b[1:]
    return b[0]


def eval_segment(seg: BernsteinSegment, t: float):
    """De Casteljau evaluation at time t within [t0, tf]; no extrapolation."""
    slack = 1e-9 * max(1.0, seg.duration)
    if t < seg.t0 - slack or t > seg.tf + slack:
        raise DomainError(f"t={t} outside segment domain [{seg.t0}, {seg.tf}]")
    u = (min(max(t, seg.t0), seg.tf) - seg.t0) / seg.duration
    return _de_casteljau(seg.control_points, u)


def derivative_segment(seg: BernsteinSegment, k: int) -> BernsteinSegment:
    """Segment of degree n-k whose evaluation is the k-th time derivative."""
    n = seg.degree
    if k > n:
        raise ValueError(f"derivative order {k} exceeds segment degree {n}")
    if k == 0:
        return seg
    dmap = derivative_map(n, k, seg.duration)
    return BernsteinSegment(dmap.apply(seg.control_points), seg.t0, seg.tf)


class PiecewiseTrajectory:
    """M stacked segments with matching junction times, queryable to jerk.

    Immutable after construction; a query exactly at a junction time
    evaluates the later segment.
    """

    def __init__(self, segments):
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            if abs(a.tf - b.t0) > 1e-9:
                raise ValueError(f"segment times disagree at junction: {a.tf} vs {b.t0}")
            gap = np.linalg.norm(
                np.atleast_1d(a.control_points[-1] - b.control_points[0])
            )
            if gap > 1e-9:
                raise ValueError(f"position discontinuity {gap} at junction t={b.t0}")
        self.segments = tuple(segments)
        self._t_interior = [s.tf for s in segments[:-1]]
        # Cache derivative segments up to jerk where the degree allows.
        self._derivs = tuple(
            tuple(
                derivative_segment(s, k) if k <= s.degree else None for k in range(4)
            )
            for s in segments
        )

    @property
    def t_start(self) -> float:
        return self.segments[0].t0

    @property
    def t_end(self) -> float:
        return self.segments[-1].tf

    @property
    def junction_times(self):
        return tuple(s.tf for s in self.segments)

    def segment_index(self, t: float) -> int:
        if t < self.t_start - 1e-9 or t > self.t_end + 1e-9:
            raise DomainError(f"t={t} outside trajectory domain [{self.t_start}, {self.t_end}]")
        return bisect.bisect_right(self._t_interior, t)

    def velocity_acceleration(self, ts):
        """Velocity and acceleration at each of S times: (S,) or (S, d) arrays.

        Picks segments and clamps u exactly as `eval` does, through the same
        de Casteljau kernel, so each row equals `eval`'s bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.t_start - 1e-9 or ts.max() > self.t_end + 1e-9):
            raise DomainError(
                f"times [{ts.min()}, {ts.max()}] outside trajectory domain "
                f"[{self.t_start}, {self.t_end}]"
            )
        idx = np.searchsorted(self._t_interior, ts, side="right")
        shape = (ts.size,) + self.segments[0].control_points.shape[1:]
        vel = np.zeros(shape)
        acc = np.zeros(shape)
        for j in np.unique(idx):
            sel = idx == j
            seg = self.segments[j]
            u = (np.minimum(np.maximum(ts[sel], seg.t0), seg.tf) - seg.t0) / seg.duration
            for out, dseg in zip((vel, acc), self._derivs[j][1:3]):
                if dseg is not None:
                    out[sel] = _de_casteljau(dseg.control_points, u)
        return vel, acc

    def eval(self, t: float):
        """Return (position, velocity, acceleration, jerk) at time t."""
        j = self.segment_index(t)
        seg = self.segments[j]
        u = (min(max(t, seg.t0), seg.tf) - seg.t0) / seg.duration
        zero = np.zeros(seg.control_points.shape[1:])
        return tuple(_de_casteljau(dseg.control_points, u) if dseg is not None else zero
                     for dseg in self._derivs[j])


def eval_piecewise(traj: PiecewiseTrajectory, t: float):
    """Position and first three derivatives of the stacked trajectory at t."""
    return traj.eval(t)


def gram_matrix(n: int, duration: float) -> np.ndarray:
    """Pairwise integrals of degree-n basis functions over an interval.

    Entry (i, j) = duration * C(n,i) C(n,j) / ((2n+1) C(2n, i+j)), so that
    p^T G q = integral of the two polynomials' product over the interval.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    i = np.arange(n + 1)
    bi = binom(n, i)
    G = duration * np.outer(bi, bi) / ((2 * n + 1) * binom(2 * n, np.add.outer(i, i)))
    return G


def arc_length(traj, n_samples: int = 128) -> float:
    """Chordal arc length from n_samples+1 evaluations per segment.

    Accepts a single segment or a piecewise trajectory. Monotone
    non-decreasing under dyadic refinement of n_samples and convergent
    to the true integral of the speed.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if isinstance(traj, PiecewiseTrajectory):
        return sum(arc_length(seg, n_samples) for seg in traj.segments)
    seg = traj
    u = (np.linspace(seg.t0, seg.tf, n_samples + 1) - seg.t0) / seg.duration
    pts = _de_casteljau(seg.control_points, u).reshape(n_samples + 1, -1)
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


def write_trajectory(traj: PiecewiseTrajectory, f) -> None:
    """Serialize segments as a structured text block (17 significant digits).

    f may be an open text file or a path.
    """
    if not hasattr(f, "write"):
        with open(f, "w") as fh:
            write_trajectory(traj, fh)
        return
    f.write("trajectory v1\n")
    f.write(f"segments {len(traj.segments)}\n")
    for seg in traj.segments:
        f.write(f"segment {seg.degree} {seg.t0:.17g} {seg.tf:.17g}\n")
        for p in np.atleast_2d(seg.control_points):
            f.write(" ".join(f"{c:.17g}" for c in p) + "\n")


def read_trajectory(f) -> PiecewiseTrajectory:
    """Parse one serialized trajectory block (file object or path).

    Malformed or truncated input raises ValueError naming the record that
    was expected and the line where it was missing.
    """
    if not hasattr(f, "read"):
        with open(f) as fh:
            return read_trajectory(fh)
    raw = f.read().splitlines()
    records = iter([(i, ln.strip()) for i, ln in enumerate(raw, start=1)
                    if ln.strip() and not ln.startswith("#")])

    def take(what):
        rec = next(records, None)
        if rec is None:
            raise ValueError(f"line {len(raw) + 1}: expected {what}, found end of input")
        return rec

    i, ln = take("header 'trajectory v1'")
    if ln != "trajectory v1":
        raise ValueError(f"line {i}: unrecognized trajectory header: {ln!r}")
    i, ln = take("segment count")
    tok = ln.split()
    if len(tok) != 2 or tok[0] != "segments":
        raise ValueError(f"line {i}: expected segment count, got {ln!r}")
    segs = []
    for j in range(int(tok[1])):
        i, ln = take(f"segment record {j}")
        tok = ln.split()
        if len(tok) != 4 or tok[0] != "segment":
            raise ValueError(f"line {i}: expected segment record {j}, got {ln!r}")
        n, t0, tf = int(tok[1]), float(tok[2]), float(tok[3])
        pts = [[float(c) for c in take(f"control point {r} of segment {j}")[1].split()]
               for r in range(n + 1)]
        segs.append(BernsteinSegment(np.array(pts), t0, tf))
    extra = next(records, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: expected exactly one trajectory block, "
                         f"got {extra[1]!r} after it")
    return PiecewiseTrajectory(segs)
