"""Bernstein bases, piecewise trajectories (one control-point array and its
knot times), and integral machinery."""

from __future__ import annotations

import bisect
import functools
import math

import numpy as np

MIN_DURATION = 1e-6


class DomainError(ValueError):
    """Raised when a trajectory or segment is queried outside its time domain."""


@functools.cache
def _binomials(n: int) -> tuple:
    return tuple(float(math.comb(n, i)) for i in range(n + 1))


def _basis(n: int, u):
    """The degree-n Bernstein basis C(n,i) u^i (1-u)^(n-i), i = 0..n.

    u is a float, giving a list of floats, or a 1-D array of S samples,
    giving an (S, n+1) array. Both form the powers by repeated
    multiplication, an array by one cumulative product per power, and each
    term as (C(n,i) u^i) (1-u)^(n-i), so a sample's row equals the float's
    bit for bit. np.power would not: it rounds differently on some hosts.
    """
    if isinstance(u, float):
        w = 1.0 - u
        row = list(_binomials(n))
        p = 1.0
        for i in range(1, n + 1):
            p *= u
            row[i] *= p
        p = 1.0
        for i in range(n - 1, -1, -1):
            p *= w
            row[i] *= p
        return row
    # Running products of (1, u, u, ...) and (1, w, w, ...) are the powers
    # 0..n, each the product the float branch forms.
    p = np.ones((2,) + u.shape + (n + 1,))
    p[0, ..., 1:] = u[..., None]
    p[1, ..., 1:] = (1.0 - u)[..., None]
    p = np.cumprod(p, axis=-1)
    return np.multiply(_binomials(n), p[0]) * p[1, ..., ::-1]


def basis_row(n: int, u) -> np.ndarray:
    """All degree-n Bernstein basis values at u as a length n+1 row.

    A 1-D array of S parameters gives the (S, n+1) rows.
    """
    if np.ndim(u):
        return _basis(n, np.asarray(u, dtype=float))
    return np.array(_basis(n, float(u)))


def difference_stencil(n: int, k: int) -> np.ndarray:
    """Unscaled k-th forward-difference stencil, shape (n+1-k, n+1).

    Maps control points to the (unscaled) control points of the k-th
    derivative; repeated convolution with [-1, 1]. Every row sums to zero.
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
    return S


def derivative_scale(n: int, k: int, duration: float) -> float:
    """Falling-factorial scale n!/(n-k)! divided by duration**k."""
    s = 1.0
    for j in range(k):
        s *= n - j
    return s / duration**k


def elevated_stencil(n: int, k: int) -> np.ndarray:
    """Difference stencil raised back to degree n, E(n-k -> n) @ S_k, (n+1, n+1).

    Maps control points to the unscaled k-th derivative's control points
    degree-elevated to degree n, so that one degree-n basis row evaluates
    every derivative. Entry (i, l) is sum_j C(n-k, j) C(k, i-j) S_k[j, l]
    over C(n, i), its numerator summed in integers. Zero for k > n; the
    identity for k = 0.
    """
    E = np.zeros((n + 1, n + 1))
    if k <= n:
        m = n - k
        S = difference_stencil(n, k).astype(np.int64).tolist()
        for i in range(n + 1):
            js = range(max(0, i - k), min(m, i) + 1)
            E[i] = [sum(math.comb(m, j) * math.comb(k, i - j) * S[j][l] for j in js)
                    / math.comb(n, i) for l in range(n + 1)]
    return E


@functools.cache
def _derivative_stack(n: int) -> np.ndarray:
    """n!/(n-k)! elevated_stencil(n, k) for k = 0..3, stacked (4, n+1, n+1)
    and read-only: a segment of duration d maps its control points through
    entry k, then 1/d**k, to its k-th derivative's elevated points."""
    S = np.stack([math.perm(n, k) * elevated_stencil(n, k) for k in range(4)])
    S.setflags(write=False)
    return S


def _checked(control_points, knots):
    """control_points and knots as read-only float arrays.

    Raises ValueError unless the points are an (M, n+1, d) array, the M+1
    knots each follow the previous one by at least MIN_DURATION, and each
    segment starts where the previous one ends.
    """
    pts = np.array(control_points, dtype=float)
    knots = np.array(knots, dtype=float)
    if pts.ndim != 3 or 0 in pts.shape:
        raise ValueError(f"control_points must be an (M, n+1, d) array, got shape {pts.shape}")
    if knots.shape != (len(pts) + 1,):
        raise ValueError(f"{len(pts)} segments need {len(pts) + 1} knots, got shape {knots.shape}")
    step = np.diff(knots)
    short = np.flatnonzero(~(step >= MIN_DURATION))
    if short.size:
        k = short[0]
        raise ValueError(f"segment duration {step[k]} below minimum {MIN_DURATION} "
                         f"at t={knots[k]}")
    gap = np.linalg.norm(pts[1:, 0] - pts[:-1, -1], axis=-1)
    apart = np.flatnonzero(gap > 1e-9)
    if apart.size:
        k = apart[0]
        raise ValueError(f"position discontinuity {gap[k]} at junction t={knots[k + 1]}")
    pts.setflags(write=False)
    knots.setflags(write=False)
    return pts, knots


class PiecewiseTrajectory:
    """M Bernstein segments of one degree, queryable to jerk.

    control_points is an (M, n+1, d) array, segment i's points on the
    interval [knots[i], knots[i+1]]. Immutable after construction; a query
    exactly at an interior knot evaluates the later segment.
    """

    def __init__(self, control_points, knots):
        self.control_points, self.knots = _checked(control_points, knots)
        M, n1, d = self.control_points.shape
        self._n = n1 - 1
        self._knots = self.knots.tolist()  # bisect reads a list fastest
        # Per segment, one (n+1, 4d) table: the control points of position,
        # velocity, acceleration and jerk, each derivative degree-elevated
        # back to degree n (zero above the degree), so one degree-n basis
        # row times the table evaluates all four. 1/d**k, k = 0..3, are
        # running products of 1/d.
        scale = np.ones((M, 4))
        scale[:, 1:] = 1.0 / np.diff(self.knots)[:, None]
        scale = np.cumprod(scale, axis=1)
        # (M, 4, n+1, d) derivative control points, rearranged to (M, n+1, 4d)
        tables = scale[:, :, None, None] * (_derivative_stack(self._n)
                                            @ self.control_points[:, None])
        self._tables = tables.transpose(0, 2, 1, 3).reshape(M, n1, 4 * d)

    @property
    def t_start(self) -> float:
        return self._knots[0]

    @property
    def t_end(self) -> float:
        return self._knots[-1]

    def segment_index(self, t: float) -> int:
        if not self.t_start - 1e-9 <= t <= self.t_end + 1e-9:
            raise DomainError(f"t={t} outside trajectory domain [{self.t_start}, {self.t_end}]")
        return bisect.bisect_right(self._knots, t, 1, len(self._knots) - 1) - 1

    def velocity_acceleration(self, ts):
        """Velocity and acceleration at each of S times: two (S, d) arrays.

        Picks segments and clamps u exactly as `eval` does, then stacks each
        sample's basis row and table into one (S,1,n+1) @ (S,n+1,4d)
        product: per sample the same product as `eval`'s, so each row
        equals `eval`'s bit for bit.
        """
        ts = np.asarray(ts, dtype=float)
        outside = ~((ts >= self.t_start - 1e-9) & (ts <= self.t_end + 1e-9))
        if outside.any():
            raise DomainError(f"t={ts[outside][0]} outside trajectory domain "
                              f"[{self.t_start}, {self.t_end}]")
        seg = np.searchsorted(self.knots[1:-1], ts, side="right")
        t0, tf = self.knots[seg], self.knots[seg + 1]
        u = (np.minimum(np.maximum(ts, t0), tf) - t0) / (tf - t0)
        out = (_basis(self._n, u)[:, None] @ self._tables[seg])[:, 0]
        d = self.control_points.shape[2]
        return out[:, d:2 * d], out[:, 2 * d:3 * d]

    def eval(self, t: float):
        """Return (position, velocity, acceleration, jerk) at time t: four
        tuples of d floats.

        The degree-n basis row at t times the segment's table.
        """
        i = self.segment_index(t)
        t0, tf = self._knots[i], self._knots[i + 1]
        u = float((min(max(t, t0), tf) - t0) / (tf - t0))
        out = tuple((np.array(_basis(self._n, u)) @ self._tables[i]).tolist())
        d = len(out) // 4
        return out[:d], out[d:2 * d], out[2 * d:3 * d], out[3 * d:]


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


def _gram_parts(n: int):
    """C(n,i) C(n,j) and (2n+1) C(2n, i+j) of `gram_matrix`."""
    i = np.arange(n + 1)
    bi = np.array([math.comb(n, k) for k in i], dtype=float)
    b2 = np.array([math.comb(2 * n, k) for k in range(2 * n + 1)], dtype=float)
    return np.outer(bi, bi), (2 * n + 1) * b2[np.add.outer(i, i)]


def write_trajectory(traj: PiecewiseTrajectory, f) -> None:
    """Serialize segments as a structured text block (17 significant digits).

    f may be an open text file or a path.
    """
    if not hasattr(f, "write"):
        with open(f, "w") as fh:
            write_trajectory(traj, fh)
        return
    f.write("trajectory v1\n")
    f.write(f"segments {len(traj.control_points)}\n")
    for pts, t0, tf in zip(traj.control_points, traj.knots[:-1], traj.knots[1:]):
        f.write(f"segment {len(pts) - 1} {t0:.17g} {tf:.17g}\n")
        for p in pts:
            f.write(" ".join(f"{c:.17g}" for c in p) + "\n")


def read_trajectory(f) -> PiecewiseTrajectory:
    """Parse one serialized trajectory block (file object or path).

    Malformed, non-finite or truncated input raises ValueError naming the
    line at fault and, for a missing record, the record that was expected.
    Each segment's start time is checked against the previous segment's
    end time, which becomes their shared knot.
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
    points, knots = [], []
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
        if not j:
            knots.append(t0)
        try:
            if j and n != len(points[-1]) - 1:
                raise ValueError(f"segment degrees differ at junction t={t0}: "
                                 f"{len(points[-1]) - 1} vs {n}")
            if abs(knots[-1] - t0) > 1e-9:
                raise ValueError(f"segment times disagree at junction: {knots[-1]} vs {t0}")
            # The trajectory's own checks on this segment and its junction,
            # so that a fault names this segment's line.
            _checked(points[-1:] + [pts], knots[-2:] + [tf])
        except ValueError as exc:
            raise ValueError(f"line {i}: segment {j}: {exc}") from None
        points.append(pts)
        knots.append(tf)
    extra = next(records, None)
    if extra is not None:
        raise ValueError(f"line {extra[0]}: expected exactly one trajectory block, "
                         f"got {extra[1]!r} after it")
    return PiecewiseTrajectory(points, knots)
