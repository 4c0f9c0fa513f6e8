"""Bernstein polynomial segments, piecewise trajectories, and integral machinery."""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

MIN_DURATION = 1e-6


class DomainError(ValueError):
    """Raised when a trajectory or segment is queried outside its time domain."""


def _basis_rows(n: int, u) -> list:
    """Bernstein basis rows of every degree 0..n at u, from one recursion.

    The degree-m row, rows[m], comes from the degree-(m-1) row by
    b_j <- u*b_{j-1} + (1-u)*b_j. u is a float, giving lists of floats, or a
    1-D array of S samples, giving (m+1, S) arrays whose entries go through
    the same floating-point operations as a float's: the array branch
    updates every j of one degree at once, from the previous degree's row.
    """
    w = 1.0 - u
    if isinstance(u, float):
        row = [1.0]
        rows = [row[:]]
        for m in range(1, n + 1):
            row.append(0.0)
            for j in range(m, 0, -1):
                row[j] = u * row[j - 1] + w * row[j]
            row[0] = row[0] * w
            rows.append(row[:])
        return rows
    # The previous degree's row sits between two zero rows, so that
    # b_0 = u*0.0 + w*b_0 and b_m = u*b_(m-1) + w*0.0: exactly the float
    # branch's values, as every term is non-negative.
    pad = np.zeros((n + 2, u.size))
    pad[1] = 1.0
    rows = [pad[1:2].copy()]
    for m in range(1, n + 1):
        row = u * pad[: m + 1] + w * pad[1 : m + 2]
        pad[1 : m + 2] = row
        rows.append(row)
    return rows


def basis_row(n: int, u: float) -> np.ndarray:
    """All degree-n Bernstein basis values at u as a length n+1 row."""
    return np.array(_basis_rows(n, float(u))[n])


def _columns(points: np.ndarray) -> list:
    """Control points as one list of Python floats per coordinate."""
    return points.reshape(points.shape[0], -1).T.tolist()


def _combine(row, cols) -> list:
    """Per column, sum_i row[i]*col[i] accumulated from i = 0 upward.

    Works on float rows (one evaluation, a column per coordinate) and on
    rows of sample arrays (a batch, whose one column may hold every
    coordinate) with the same products and sums, so the two agree bit for
    bit.
    """
    out = []
    for col in cols:
        s = row[0] * col[0]
        for i in range(1, len(row)):
            s = s + row[i] * col[i]
        out.append(s)
    return out


def _point(vals: list, ndim: int):
    """One evaluation from `_combine`, shaped like a control point."""
    return np.array(vals) if ndim == 2 else np.float64(vals[0])


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


def derivative_map(n: int, k: int, duration: float) -> np.ndarray:
    """Map from control points to k-th-derivative control points, (n+1-k, n+1).

    The difference stencil scaled by n!/(n-k)!/duration**k.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    return derivative_scale(n, k, duration) * difference_stencil(n, k)


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


def eval_segment(seg: BernsteinSegment, t: float):
    """Basis row times control points at time t within [t0, tf]; no extrapolation."""
    slack = 1e-9 * max(1.0, seg.duration)
    if t < seg.t0 - slack or t > seg.tf + slack:
        raise DomainError(f"t={t} outside segment domain [{seg.t0}, {seg.tf}]")
    u = float((min(max(t, seg.t0), seg.tf) - seg.t0) / seg.duration)
    row = _basis_rows(seg.degree, u)[-1]
    return _point(_combine(row, _columns(seg.control_points)), seg.control_points.ndim)


def derivative_segment(seg: BernsteinSegment, k: int) -> BernsteinSegment:
    """Segment of degree n-k whose evaluation is the k-th time derivative."""
    n = seg.degree
    if k > n:
        raise ValueError(f"derivative order {k} exceeds segment degree {n}")
    if k == 0:
        return seg
    return BernsteinSegment(derivative_map(n, k, seg.duration) @ seg.control_points,
                            seg.t0, seg.tf)


def _check_junction(a: BernsteinSegment, b: BernsteinSegment) -> None:
    """Raise ValueError unless segment b starts where and when a ends."""
    if abs(a.tf - b.t0) > 1e-9:
        raise ValueError(f"segment times disagree at junction: {a.tf} vs {b.t0}")
    gap = np.linalg.norm(np.atleast_1d(a.control_points[-1] - b.control_points[0]))
    if gap > 1e-9:
        raise ValueError(f"position discontinuity {gap} at junction t={b.t0}")


class PiecewiseTrajectory:
    """M stacked segments with matching junction times, queryable to jerk.

    Immutable after construction; a query exactly at a junction time
    evaluates the later segment.
    """

    def __init__(self, segments):
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            _check_junction(a, b)
        self.segments = tuple(segments)
        self._t_interior = [s.tf for s in segments[:-1]]
        # Per degree n, for all its segments at once: the control points of
        # the derivative segments up to jerk where the degree allows, each
        # segment's derivative_map(n, k, duration) @ points. eval's k-th
        # derivative is the degree-(n-k) basis row times self._cols[j][k],
        # segment j's points as `_combine` columns; velocity_acceleration
        # gathers its samples' points from self._by_degree.
        cols, groups = [None] * len(segments), []
        for n in sorted({s.degree for s in segments}):
            idx = [j for j, s in enumerate(segments) if s.degree == n]
            segs = [segments[j] for j in idx]
            pts = [np.array([s.control_points for s in segs]).reshape(len(segs), n + 1, -1)]
            for k in range(1, min(n, 3) + 1):
                scale = np.array([derivative_scale(n, k, s.duration) for s in segs])
                pts.append(scale[:, None, None] * difference_stencil(n, k) @ pts[0])
            for j, c in zip(idx, zip(*(p.transpose(0, 2, 1).tolist() for p in pts))):
                cols[j] = c + (None,) * (4 - len(c))
            pos = np.full(len(segments), -1)  # each segment's place in the group
            pos[idx] = range(len(idx))
            t0, tf, dur = np.array([(s.t0, s.tf, s.duration) for s in segs]).T
            groups.append((n, pos, t0, tf, dur, [p.swapaxes(0, 1) for p in pts[1:3]]))
        self._cols = tuple(cols)
        self._by_degree = tuple(groups)

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

        Picks segments and clamps u exactly as `eval` does, then runs one
        basis recursion for all samples of a degree, each sample an entry
        of the basis arrays, with its own segment's derivative control
        points: the same products and sums as `eval`'s, so each row equals
        `eval`'s bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and (ts.min() < self.t_start - 1e-9 or ts.max() > self.t_end + 1e-9):
            raise DomainError(
                f"times [{ts.min()}, {ts.max()}] outside trajectory domain "
                f"[{self.t_start}, {self.t_end}]"
            )
        seg = np.searchsorted(self._t_interior, ts, side="right")
        shape = (ts.size,) + self.segments[0].control_points.shape[1:]
        out = np.zeros((2,) + shape)
        for n, pos, t0, tf, dur, pts in self._by_degree:
            at = pos[seg]
            sel = at >= 0
            at = at[sel]
            t0, tf, dur = t0[at], tf[at], dur[at]
            u = (np.minimum(np.maximum(ts[sel], t0), tf) - t0) / dur
            rows = _basis_rows(n, u)
            for k, p in enumerate(pts, start=1):
                (val,) = _combine(rows[n - k][..., None], [p[:, at]])
                out[k - 1, sel] = val.reshape((-1,) + shape[1:])
        return out[0], out[1]

    def eval(self, t: float):
        """Return (position, velocity, acceleration, jerk) at time t.

        One basis recursion at u yields the rows of degrees n-3..n; the k-th
        derivative is the degree-(n-k) row times the cached control points
        of the k-th derivative segment.
        """
        j = self.segment_index(t)
        seg = self.segments[j]
        u = float((min(max(t, seg.t0), seg.tf) - seg.t0) / seg.duration)
        n, ndim = seg.degree, seg.control_points.ndim
        rows = _basis_rows(n, u)
        cols = self._cols[j]
        return tuple([_point(_combine(rows[n - k], c) if k <= n else [0.0] * len(cols[0]), ndim)
                       for k, c in enumerate(cols)])


def gram_matrix(n: int, duration) -> np.ndarray:
    """Pairwise integrals of degree-n basis functions over an interval.

    Entry (i, j) = duration * C(n,i) C(n,j) / ((2n+1) C(2n, i+j)), so that
    p^T G q = integral of the two polynomials' product over the interval.
    An array of M durations gives the M matrices, (M, n+1, n+1).
    """
    duration = np.asarray(duration, dtype=float)
    if np.any(duration <= 0):
        raise ValueError("duration must be positive")
    outer, denom = _gram_parts(n)
    return duration[..., None, None] * outer / denom


@functools.lru_cache(maxsize=None)
def _gram_parts(n: int):
    """C(n,i) C(n,j) and (2n+1) C(2n, i+j) of `gram_matrix`, read-only."""
    i = np.arange(n + 1)
    bi = np.array([math.comb(n, k) for k in i], dtype=float)
    b2 = np.array([math.comb(2 * n, k) for k in range(2 * n + 1)], dtype=float)
    parts = np.outer(bi, bi), (2 * n + 1) * b2[np.add.outer(i, i)]
    for arr in parts:
        arr.setflags(write=False)
    return parts


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
    row = _basis_rows(seg.degree, u)[-1]
    (pts,) = _combine(row[..., None], [seg.control_points.reshape(seg.degree + 1, 1, -1)])
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
        for p in seg.control_points.reshape(seg.degree + 1, -1):
            f.write(" ".join(f"{c:.17g}" for c in p) + "\n")


def read_trajectory(f) -> PiecewiseTrajectory:
    """Parse one serialized trajectory block (file object or path).

    Malformed, non-finite or truncated input raises ValueError naming the
    line at fault and, for a missing record, the record that was expected.
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

    def number(i, text, kind=float):
        try:
            val = kind(text)
        except ValueError:
            raise ValueError(f"line {i}: bad number {text!r}") from None
        if not math.isfinite(val):
            raise ValueError(f"line {i}: non-finite number {text!r}")
        return val

    i, ln = take("header 'trajectory v1'")
    if ln != "trajectory v1":
        raise ValueError(f"line {i}: unrecognized trajectory header: {ln!r}")
    i, ln = take("segment count")
    tok = ln.split()
    if len(tok) != 2 or tok[0] != "segments":
        raise ValueError(f"line {i}: expected segment count, got {ln!r}")
    count = number(i, tok[1], int)
    if count < 1:
        raise ValueError(f"line {i}: segment count must be positive, got {count}")
    segs = []
    width = 0  # coordinates per control point, fixed by the first one
    for j in range(count):
        i, ln = take(f"segment record {j}")
        tok = ln.split()
        if len(tok) != 4 or tok[0] != "segment":
            raise ValueError(f"line {i}: expected segment record {j}, got {ln!r}")
        n, t0, tf = number(i, tok[1], int), number(i, tok[2]), number(i, tok[3])
        pts = []
        for r in range(n + 1):
            i_pt, ln = take(f"control point {r} of segment {j}")
            pts.append([number(i_pt, c) for c in ln.split()])
            width = width or len(pts[-1])
            if len(pts[-1]) != width:
                raise ValueError(f"line {i_pt}: control point {r} of segment {j} has "
                                 f"{len(pts[-1])} coordinates, the first has {width}")
        try:
            # one coordinate per point: a scalar trajectory, (n+1,) points
            segs.append(BernsteinSegment(np.ravel(pts) if width == 1 else pts, t0, tf))
            if j:
                _check_junction(segs[-2], segs[-1])
        except ValueError as exc:
            raise ValueError(f"line {i}: segment {j}: {exc}") from None
    extra = next(records, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: expected exactly one trajectory block, "
                         f"got {extra[1]!r} after it")
    return PiecewiseTrajectory(segs)
