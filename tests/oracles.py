"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different route than the library code:
textbook primal active-set instead of ADMM, Gauss-Legendre quadrature and
raw binomial formulas instead of closed-form Gram entries and recurrences,
finite differences instead of difference stencils.  Agreement between the
two routes is the point; none of these helpers import from flatwing.
"""

import numpy as np
from scipy.linalg import expm
from scipy.special import comb


def bernstein_basis_direct(n, i, u):
    """B_{n,i}(u) straight from the binomial definition."""
    return comb(n, i, exact=True) * u**i * (1.0 - u) ** (n - i)


def basis_eval(n, i, u):
    """B_{n,i}(u) by de Casteljau recursion on the i-th indicator vector."""
    b = np.zeros(n + 1)
    b[i] = 1.0
    for r in range(n):
        b[: n - r] = (1.0 - u) * b[: n - r] + u * b[1 : n - r + 1]
    return float(b[0])


def gram_by_quadrature(n, duration):
    """Pairwise basis inner products on [0, duration] via Gauss-Legendre.

    n+1 nodes integrate polynomials up to degree 2n+1 exactly, which covers
    every product B_i * B_j.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n + 1)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * duration
    B = np.array([[bernstein_basis_direct(n, i, uk) for uk in u] for i in range(n + 1)])
    return B @ np.diag(w) @ B.T


def fd_derivative(f, t, k, h):
    """Central finite difference of order k (k = 1, 2, or 3)."""
    if k == 1:
        return (f(t + h) - f(t - h)) / (2.0 * h)
    if k == 2:
        return (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
    if k == 3:
        return (f(t + 2 * h) - 2.0 * f(t + h) + 2.0 * f(t - h) - f(t - 2 * h)) / (
            2.0 * h**3
        )
    raise ValueError("k must be 1, 2, or 3")


def fd_richardson(f, t, k, h):
    """Richardson-extrapolated central difference: cancels the O(h^2) term,
    which matters for high-degree curves whose higher derivatives are large.
    """
    return (4.0 * fd_derivative(f, t, k, h / 2.0) - fd_derivative(f, t, k, h)) / 3.0


class OracleFailure(AssertionError):
    pass


def active_set_qp(Q, q, A, l, u, x0, tol=1e-9, max_iter=500):
    """Reference solve of min 1/2 x'Qx + q'x  s.t.  l <= Ax <= u.

    Classic primal active-set iteration for a strictly convex Q, started
    from a feasible point x0.  Returns (x, y) with the multiplier sign
    convention Qx + q + A'y = 0 (y <= 0 on active lower bounds, y >= 0 on
    active upper bounds).  The KKT conditions are checked before returning
    so a buggy oracle fails loudly instead of blessing a wrong answer.
    """
    Q = np.asarray(Q, dtype=float)
    q = np.zeros(Q.shape[0]) if q is None else np.asarray(q, dtype=float)
    A = np.asarray(A, dtype=float)
    l = np.asarray(l, dtype=float)
    u = np.asarray(u, dtype=float)
    n = Q.shape[0]
    m = A.shape[0]
    x = np.asarray(x0, dtype=float).copy()

    # One-sided rows g.x >= h.  Equality rows stay in the working set for
    # the whole solve; each finite bound of an inequality row gets its own
    # entry so the working set can hold either side.
    rows = []  # (g, h, source_row, side) with side in {-1 lower, +1 upper, 0 eq}
    for i in range(m):
        if u[i] - l[i] <= 1e-9:
            rows.append((A[i], l[i], i, 0))
            continue
        if np.isfinite(l[i]):
            rows.append((A[i], l[i], i, -1))
        if np.isfinite(u[i]):
            rows.append((-A[i], -u[i], i, +1))
    G = np.array([r[0] for r in rows]).reshape(len(rows), n)
    h = np.array([r[1] for r in rows])

    resid = G @ x - h
    if resid.min() < -1e-7:
        raise OracleFailure(f"x0 infeasible by {-resid.min():.3e}")

    work = [j for j, r in enumerate(rows) if r[3] == 0]
    work += [j for j, r in enumerate(rows) if r[3] != 0 and resid[j] <= tol]

    lam = np.zeros(0)
    for _ in range(max_iter):
        Gw = G[work]
        k = len(work)
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = Q
        kkt[:n, n:] = Gw.T
        kkt[n:, :n] = Gw
        rhs = np.concatenate([-(Q @ x + q), np.zeros(k)])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        p, lam = sol[:n], sol[n:]

        # With the (1,2) block assembled as +Gw.T the solve returns lam with
        # Qx + q + Gw.T lam = 0, so the working-set multipliers for g.x >= h
        # are mu = -lam; optimality needs every inequality lam <= 0.
        if np.max(np.abs(p), initial=0.0) < 1e-11 * max(1.0, np.abs(x).max()):
            worst, worst_j = 0.0, None
            for idx, j in enumerate(work):
                if rows[j][3] != 0 and lam[idx] > worst:
                    worst, worst_j = lam[idx], j
            if worst_j is None or worst < tol:
                break
            work.remove(worst_j)
            continue

        alpha, blocking = 1.0, None
        for j in range(len(rows)):
            if j in work:
                continue
            gp = G[j] @ p
            if gp < -1e-13:
                a = (h[j] - G[j] @ x) / gp
                if a < alpha:
                    alpha, blocking = a, j
        x = x + alpha * p
        if blocking is not None:
            work.append(blocking)
    else:
        raise OracleFailure("active-set iteration cap reached")

    # Map onto the two-sided convention Qx + q + A'y = 0: a lower row has
    # g = +A[src] so y picks up +lam (<= 0 when active), an upper row has
    # g = -A[src] so y picks up -lam (>= 0 when active).
    y = np.zeros(m)
    for idx, j in enumerate(work):
        _, _, src, side = rows[j]
        if side == +1:
            y[src] -= lam[idx]
        else:
            y[src] += lam[idx]

    scale = max(1.0, np.abs(Q @ x).max(), np.abs(q).max())
    stat = np.abs(Q @ x + q + A.T @ y).max()
    ax = A @ x
    feas = max(np.max(l - ax, initial=0.0), np.max(ax - u, initial=0.0))
    if stat > 1e-7 * scale or feas > 1e-7:
        raise OracleFailure(f"oracle KKT check failed: stat={stat:.3e} feas={feas:.3e}")
    return x, y


def random_box_qp(rng, n_max=40, m_max=30):
    """One random strictly convex instance with a known feasible point.

    Returns (Q, q, A, l, u, x_feas).  Roughly a third of the rows are
    collapsed into equalities.
    """
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x_feas = rng.normal(size=n)
    b = A @ x_feas
    lo = b - rng.uniform(0.05, 2.0, size=m)
    hi = b + rng.uniform(0.05, 2.0, size=m)
    eq = rng.random(size=m) < 0.3
    lo[eq] = b[eq]
    hi[eq] = b[eq]
    return Q, q, A, lo, hi, x_feas


# The matrix formulas that the scalar flatness and attitude kernels replaced.
ENU_TO_NED = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


def frame_from_flat_matrix(v, a, g):
    """(R, a_vx, a_vz, V, omega_vy, omega_vz) of the coordinated frame."""
    V = np.linalg.norm(v)
    r_x = v / V
    a_vx = r_x @ (a - g)
    a_n = a - g - a_vx * r_x
    a_vz = -np.linalg.norm(a_n)
    r_z = a_n / a_vz
    R = np.column_stack([r_x, np.cross(r_z, r_x), r_z])
    g_v = R.T @ g
    return R, a_vx, a_vz, V, -(a_vz + g_v[2]) / V, g_v[1] / V


def euler_zyx_matrix(R):
    """Roll, pitch, yaw of an ENU frame through the NED permutation matrix."""
    Rn = ENU_TO_NED @ R
    s_pitch = np.clip(-Rn[2, 0], -1.0, 1.0)
    theta = np.arcsin(s_pitch)
    if abs(s_pitch) > 1.0 - 1e-9:
        return 0.0, theta, np.arctan2(-Rn[0, 1], Rn[1, 1])
    return np.arctan2(Rn[2, 1], Rn[2, 2]), theta, np.arctan2(Rn[1, 0], Rn[0, 0])


def attitude_rates_matrix(R, alpha, V_a, cmd, tau_att, dt, g, v_eps, rate_limit):
    """Commanded (p, q, r) of the first-order attitude loop, clipped."""
    phi, theta_frame, _ = euler_zyx_matrix(R)
    tau = max(tau_att, dt)
    p = cmd.omega_vx + (cmd.phi_c - phi) / tau
    q = cmd.omega_vy + (cmd.theta_c - (theta_frame + alpha)) / tau
    r = (R.T @ g)[1] / max(V_a, v_eps)
    return np.clip(np.array([p, q, r]), -rate_limit, rate_limit)


def skew_matrix(w):
    """The 3x3 cross-product matrix of w."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def coordinated_step_matrix(x, R, V_a, omega_v, a_vx, wind, dt, g):
    """(x, v, R, V_a) after one step of the coordinated kinematics.

    The rotation takes two half steps R E E with E = expm(skew(omega_v) dt/2)
    as 3x3 matrix products; x_dot = V_a R e1 + w and V_a_dot = a_vx + (R'g)_x
    are integrated by RK4 along it, with stage rotations R, R E, R E, R E E.
    """
    E = expm(skew_matrix(omega_v) * (0.5 * dt))
    Rh = R @ E
    Rn = Rh @ E
    vd1, vd2, vd4 = (a_vx + (S.T @ g)[0] for S in (R, Rh, Rn))
    V2 = V_a + 0.5 * dt * vd1
    V3 = V_a + 0.5 * dt * vd2
    V4 = V_a + dt * vd2
    Vn = V_a + dt / 6.0 * (vd1 + 4.0 * vd2 + vd4)
    xn = x + dt / 6.0 * (V_a * R[:, 0] + 2.0 * (V2 + V3) * Rh[:, 0] + V4 * Rn[:, 0]
                         + 6.0 * wind)
    return xn, Vn * Rn[:, 0] + wind, Rn, Vn
