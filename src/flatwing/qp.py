"""Dense convex QP solver: ADMM with over-relaxation, equilibration, and polish.

Solves min 1/2 x'Qx + q'x subject to l <= Ax <= u, with equality rows
encoded as l == u. The KKT system is factored up front (banded Cholesky
when the reduced matrix is narrow-banded, dense Cholesky otherwise) and
refactored only when the penalty rebalances, so iterations stay cheap,
which suits repeated solves at a fixed rate with warm starting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cholesky_banded, lu_factor, lu_solve
from scipy.linalg.lapack import dpbtrs, dpotrs
from scipy.sparse.linalg import splu


class IllPosedProblem(ValueError):
    """Cost matrix is not positive semidefinite (factorization failed)."""


@dataclass
class QpSettings:
    eps_abs: float = 1e-5
    eps_rel: float = 1e-5
    max_iter: int = 4000
    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.6
    check_every: int = 25
    scaling_iters: int = 10
    polish: bool = True
    eps_infeasible: float = 1e-4
    stagnation_iters: int = 200
    adaptive_rho: bool = True
    adaptive_rho_tolerance: float = 5.0


class QpProblem:
    """Immutable dense QP data; Q is symmetrized at construction."""

    def __init__(self, Q, q, A=None, l=None, u=None):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        n = Q.shape[0]
        self.Q = 0.5 * (Q + Q.T)
        self.q = np.zeros(n) if q is None else np.asarray(q, dtype=float).reshape(-1)
        if self.q.shape[0] != n:
            raise ValueError(f"q has length {self.q.shape[0]}, expected {n}")
        if A is None:
            A = np.zeros((0, n))
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[1] != n:
            raise ValueError("A must have shape (m, n)")
        m = self.A.shape[0]
        self.l = np.full(m, -np.inf) if l is None else np.asarray(l, dtype=float).reshape(-1)
        self.u = np.full(m, np.inf) if u is None else np.asarray(u, dtype=float).reshape(-1)
        if self.l.shape[0] != m or self.u.shape[0] != m:
            raise ValueError("bound lengths must match the number of constraint rows")
        if np.any(self.l > self.u):
            raise ValueError("lower bounds exceed upper bounds")
        for arr in (self.Q, self.q, self.A, self.l, self.u):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def objective(self, x) -> float:
        return float(0.5 * x @ self.Q @ x + self.q @ x)


@dataclass
class QpSolution:
    x: np.ndarray
    y: np.ndarray
    status: str  # solved | max-iterations | primal-infeasible-detected
    iterations: int
    primal_residual: float
    dual_residual: float
    solve_time: float
    objective: float = 0.0
    polished: bool = False


def _inf_norm(v) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def kkt_residuals(prob: QpProblem, x, y):
    """Independent primal/dual residuals: constraint violation and stationarity."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != prob.n or y.shape[0] != prob.m:
        raise ValueError("residual arguments have inconsistent dimensions")
    if prob.m:
        ax = prob.A @ x
        prim = _inf_norm(ax - np.clip(ax, prob.l, prob.u))
    else:
        prim = 0.0
    dual = _inf_norm(prob.Q @ x + prob.q + prob.A.T @ y)
    return prim, dual


def _col_abs_max(M, n) -> np.ndarray:
    out = np.zeros(n)
    if M.nnz:
        np.maximum.at(out, M.indices, np.abs(M.data))
    return out


def _row_abs_max(M, m) -> np.ndarray:
    out = np.zeros(m)
    if M.nnz:
        rows = np.repeat(np.arange(m), np.diff(M.indptr))
        np.maximum.at(out, rows, np.abs(M.data))
    return out


def _scale_csr(M, row, col) -> None:
    M.data *= np.repeat(row, np.diff(M.indptr))
    M.data *= col[M.indices]


def _ruiz_equilibrate(Q, q, A, iters):
    """Modified Ruiz scaling on the stacked KKT matrix plus cost scaling.

    Large sparse constraint matrices are scaled in CSR form (and returned
    that way); everything downstream handles either representation.
    """
    n, m = Q.shape[0], A.shape[0]
    D = np.ones(n)
    E = np.ones(m)
    qs = q.copy()
    sparse = m * n > 200_000 and _density(A) < 0.3
    if sparse:
        Qs, As = sp.csr_matrix(Q), sp.csr_matrix(A)
    else:
        Qs, As = Q.copy(), A.copy()
    for _ in range(iters):
        if sparse:
            cx = np.maximum(_col_abs_max(Qs, n), _col_abs_max(As, n))
            cz = _row_abs_max(As, m)
        else:
            cx = np.maximum(
                np.abs(Qs).max(axis=0) if n else np.zeros(0),
                np.abs(As).max(axis=0) if m else np.zeros(n),
            )
            cz = np.abs(As).max(axis=1) if m else np.zeros(0)
        dx = np.minimum(np.maximum(1.0 / np.sqrt(np.maximum(cx, 1e-8)), 1e-4), 1e4)
        dz = np.minimum(np.maximum(1.0 / np.sqrt(np.maximum(cz, 1e-8)), 1e-4), 1e4)
        if sparse:
            _scale_csr(Qs, dx, dx)
            _scale_csr(As, dz, dx)
        else:
            Qs = dx[:, None] * Qs * dx[None, :]
            As = dz[:, None] * As * dx[None, :]
        qs = dx * qs
        D *= dx
        E *= dz
    col_max = _col_abs_max(Qs, n) if sparse else (np.abs(Qs).max(axis=0) if n else np.zeros(0))
    c = 1.0 / max(col_max.mean() if n else 0.0, _inf_norm(qs), 1e-8)
    c = min(max(c, 1e-6), 1e6)
    Qs = Qs * c
    qs = qs * c
    return Qs, qs, As, D, E, c


class _KktOperator:
    """Factor K = Q + sigma*I + A' diag(rho) A once; solve and matvec cheaply.

    Chooses a banded Cholesky factorization when the reduced matrix has a
    narrow band (the planner's segment-ordered problems do), otherwise a
    dense one. Large sparse constraint matrices get CSR matvecs.
    """

    def __init__(self, Q, A, rho, sigma):
        n, m = Q.shape[0], A.shape[0]
        self._sparse = sp.issparse(A) or (m * n > 200_000 and _density(A) < 0.3)
        if self._sparse:
            self._A = A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)
            self._At = self._A.T.tocsr()
            Qsp = Q if sp.issparse(Q) else sp.csr_matrix(Q)
            K = Qsp + sigma * sp.eye(n)
            if m:
                K = K + self._At @ sp.diags(rho) @ self._A
            K = K.tocoo()
            bw = int(np.max(np.abs(K.row - K.col))) if K.nnz else 0
            self.banded = 2 * (bw + 1) < n
            K = K.tocsr()
            band_diag = (lambda k: K.diagonal(-k)) if self.banded else None
            K_dense = None if self.banded else K.toarray()
        else:
            self._A = A
            self._At = A.T
            K_dense = Q + (A.T * rho) @ A if m else Q.copy()
            K_dense[np.diag_indices(n)] += sigma
            bw = _bandwidth(K_dense)
            self.banded = 2 * (bw + 1) < n
            band_diag = (lambda k: np.concatenate(
                [np.diagonal(K_dense, -k), np.zeros(0)])) if self.banded else None
        try:
            if self.banded:
                ab = np.zeros((bw + 1, n))
                for k in range(bw + 1):
                    ab[k, : n - k] = band_diag(k)
                self._factor = cholesky_banded(ab, lower=True)
            else:
                self._factor, _ = cho_factor(K_dense, lower=True)
        except np.linalg.LinAlgError as exc:
            raise IllPosedProblem(str(exc)) from exc

    def solve(self, rhs):
        # LAPACK's triangular solves on the lower factor, as scipy's
        # cho_solve/cho_solve_banded would call them, without those
        # wrappers' per-call finiteness scan of the factor (it was checked
        # when it was made), which costs more than the solve itself on a
        # replan's small systems.
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        trs = dpbtrs if self.banded else dpotrs
        x, info = trs(self._factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal {trs.__name__}")
        return x

    def ax(self, x):
        return self._A @ x

    def aty(self, y):
        return self._At @ y


def _density(A) -> float:
    return np.count_nonzero(A) / max(A.size, 1)


def _bandwidth(K) -> int:
    rows, cols = np.nonzero(K)
    return int(np.max(np.abs(rows - cols))) if rows.size else 0


def _infeasibility_certificate(prob: QpProblem, dy, eps) -> bool:
    nd = _inf_norm(dy)
    if nd < 1e-12:
        return False
    dyn = dy / nd
    if _inf_norm(prob.A.T @ dyn) > eps:
        return False
    pos = dyn > 1e-12
    neg = dyn < -1e-12
    if np.any(pos & np.isinf(prob.u)) or np.any(neg & np.isinf(prob.l)):
        return False
    support = float(prob.u[pos] @ dyn[pos]) + float(prob.l[neg] @ dyn[neg])
    return support <= -eps


def _polish(prob: QpProblem, x, y):
    """Re-solve on the detected active set for high-accuracy primal/dual values.

    Classification is by dual sign with a tolerance: converged inactive
    multipliers are zero only up to cancellation error, a dozen orders of
    magnitude below the genuine ones. Equality rows always stay active.
    """
    n = prob.n
    tol = 1e-12 * max(1.0, _inf_norm(y))
    eq = (prob.u - prob.l) < 1e-9
    low = (y < -tol) & ~eq
    upp = (y > tol) & ~eq
    A_act = np.vstack([prob.A[eq], prob.A[low], prob.A[upp]])
    b_act = np.concatenate([prob.l[eq], prob.l[low], prob.u[upp]])
    k = A_act.shape[0]
    delta = 1e-9
    rhs = np.concatenate([-prob.q, b_act])
    try:
        # Factor the regularized KKT system once; iterative refinement
        # against the unregularized one reuses the factorization. Large
        # systems (the planner's) are sparse and banded, so they go
        # through a sparse LU instead of a dense one.
        if n + k > 500:
            kkt = sp.bmat(
                [
                    [sp.csc_matrix(prob.Q) + delta * sp.eye(n), sp.csc_matrix(A_act).T],
                    [sp.csc_matrix(A_act), -delta * sp.eye(k)],
                ],
                format="csc",
            )
            factor = splu(kkt).solve
        else:
            KKT = np.zeros((n + k, n + k))
            KKT[:n, :n] = prob.Q + delta * np.eye(n)
            KKT[:n, n:] = A_act.T
            KKT[n:, :n] = A_act
            KKT[n:, n:] = -delta * np.eye(k)
            lu = lu_factor(KKT)
            factor = lambda b: lu_solve(lu, b)
        sol = factor(rhs)
        for _ in range(3):
            rx = -prob.q - prob.Q @ sol[:n] - A_act.T @ sol[n:]
            rz = b_act - A_act @ sol[:n]
            sol += factor(np.concatenate([rx, rz]))
    except (np.linalg.LinAlgError, RuntimeError):
        return None
    x_p = sol[:n]
    y_p = np.zeros(prob.m)
    n_eq, n_low = int(eq.sum()), int(low.sum())
    y_p[eq] = sol[n : n + n_eq]
    y_p[low] = sol[n + n_eq : n + n_eq + n_low]
    y_p[upp] = sol[n + n_eq + n_low :]
    return x_p, y_p


def solve_qp(prob: QpProblem, settings: QpSettings | None = None,
             warm_start: QpSolution | None = None) -> QpSolution:
    """ADMM solve of the boxed QP; returns primal/dual values and diagnostics.

    The reported residuals are recomputed on the unscaled problem with
    `kkt_residuals`, so they agree exactly with an independent check.
    """
    s = settings or QpSettings()
    t_begin = time.perf_counter()
    n, m = prob.n, prob.m

    Qs, qs, As, D, E, c = _ruiz_equilibrate(prob.Q, prob.q, prob.A, s.scaling_iters)
    ls = E * prob.l
    us = E * prob.u

    eq = np.isfinite(prob.l) & np.isfinite(prob.u) & (prob.u - prob.l < 1e-9)
    rho_base = s.rho
    rho = np.full(m, rho_base)
    rho[eq] *= 1e3

    op = _KktOperator(Qs, As, rho, s.sigma)

    if warm_start is not None:
        x = warm_start.x / D
        y = (c / E) * warm_start.y if m else np.zeros(0)
        z = np.clip(op.ax(x), ls, us) if m else np.zeros(0)
    else:
        x = np.zeros(n)
        y = np.zeros(m)
        z = np.zeros(m)

    status = "max-iterations"
    prim = dual = np.inf
    it = 0
    y_at_check = y.copy()
    best_prim = np.inf
    stagnant = 0

    while it < s.max_iter:
        it += 1
        rhs = s.sigma * x - qs + (op.aty(rho * z - y) if m else 0.0)
        x_t = op.solve(rhs)
        x = s.alpha * x_t + (1.0 - s.alpha) * x
        if m:
            z_t = op.ax(x_t)
            z_pre = s.alpha * z_t + (1.0 - s.alpha) * z
            # np.clip's arithmetic, with less per-call dispatch.
            z = np.minimum(np.maximum(z_pre + y / rho, ls), us)
            y = y + rho * (z_pre - z)

        if it % s.check_every == 0 or it == s.max_iter:
            # Residuals of the *unscaled* problem, assembled from the scaled
            # operator's matvecs so the check stays cheap on sparse problems.
            qx_u = (Qs @ x) / (c * D)
            if m:
                ax_u = op.ax(x) / E
                aty_u = op.aty(y) / (c * D)
                prim = _inf_norm(ax_u - np.clip(ax_u, prob.l, prob.u))
                eps_prim = s.eps_abs + s.eps_rel * max(
                    _inf_norm(ax_u), _inf_norm(z * (1.0 / E))
                )
            else:
                aty_u = np.zeros(n)
                prim, eps_prim = 0.0, s.eps_abs
            dual = _inf_norm(qx_u + prob.q + aty_u)
            eps_dual = s.eps_abs + s.eps_rel * max(
                _inf_norm(qx_u), _inf_norm(aty_u), _inf_norm(prob.q)
            )
            if prim <= eps_prim and dual <= eps_dual:
                status = "solved"
                break
            if prim < best_prim - 1e-12 * max(1.0, best_prim):
                best_prim = prim
                stagnant = 0
            else:
                stagnant += s.check_every
            if m and stagnant >= s.stagnation_iters:
                dy = (E / c) * (y - y_at_check)
                if _infeasibility_certificate(prob, dy, s.eps_infeasible):
                    status = "primal-infeasible-detected"
                    break
            y_at_check = y.copy()
            if s.adaptive_rho and m:
                # Rebalance the penalty when the primal and dual residuals
                # drift apart (relative to their natural scales); the KKT
                # matrix is refactored on each accepted update.
                p_rel = prim / max(_inf_norm(ax_u), _inf_norm(z * (1.0 / E)), 1e-12)
                d_rel = dual / max(
                    _inf_norm(qx_u), _inf_norm(aty_u), _inf_norm(prob.q), 1e-12
                )
                ratio = np.sqrt(max(p_rel, 1e-16) / max(d_rel, 1e-16))
                tol_r = s.adaptive_rho_tolerance
                if ratio > tol_r or ratio < 1.0 / tol_r:
                    rho_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
                    rho = np.full(m, rho_base)
                    rho[eq] *= 1e3
                    op = _KktOperator(Qs, As, rho, s.sigma)

    x_u = D * x
    y_u = (E / c) * y if m else np.zeros(0)
    polished = False
    if status == "solved" and s.polish:
        res = _polish(prob, x_u, y_u)
        if res is not None:
            p2, d2 = kkt_residuals(prob, res[0], res[1])
            if max(p2, d2) <= max(prim, dual):
                x_u, y_u = res
                prim, dual = p2, d2
                polished = True
    prim, dual = kkt_residuals(prob, x_u, y_u)

    return QpSolution(
        x=x_u,
        y=y_u,
        status=status,
        iterations=it,
        primal_residual=prim,
        dual_residual=dual,
        solve_time=time.perf_counter() - t_begin,
        objective=prob.objective(x_u),
        polished=polished,
    )


# Short alias used throughout the planner.
solve = solve_qp


def solve_time_series(probs, settings: QpSettings | None = None):
    """Wall-clock timing over a sequence of problems, grouped by size."""
    probs = list(probs)
    if not probs:
        raise ValueError("need at least one problem")
    times = []
    per_size: dict[int, list[float]] = {}
    for p in probs:
        sol = solve_qp(p, settings)
        times.append(sol.solve_time)
        per_size.setdefault(p.n, []).append(sol.solve_time)
    return {
        "times": times,
        "mean": float(np.mean(times)),
        "max": float(np.max(times)),
        "per_size": {
            k: {"mean": float(np.mean(v)), "max": float(np.max(v)), "count": len(v)}
            for k, v in sorted(per_size.items())
        },
    }


def dump_problem(prob: QpProblem, f) -> None:
    """Write dimensions, matrices, and bounds as plain text for offline debugging."""
    f.write(f"qp v1\nn {prob.n}\nm {prob.m}\n")

    def block(name, arr):
        f.write(name + "\n")
        for row in np.atleast_2d(arr):
            f.write(" ".join(f"{v:.17g}" for v in row) + "\n")

    block("Q", prob.Q)
    block("q", prob.q)
    if prob.m:
        block("A", prob.A)
        block("l", prob.l)
        block("u", prob.u)
