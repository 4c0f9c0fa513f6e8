"""Convex QP solver: ADMM with over-relaxation, equilibration, and polish.

Solves min 1/2 x'Qx + q'x subject to l <= Ax <= u, with equality rows
encoded as l == u. A problem stores Q and A in the form its solve works
on (`QpProblem`): dense when m*n is at most a size threshold, CSR above
it, where the planner's large, sparse problems fall. One routine,
`_cholesky`, factors Q + sigma*I, plus A' diag(rho) A for ADMM's KKT
system, in that form: LAPACK's dpotrf dense, dpbtrf on a CSR band. LAPACK
is called without scipy's finiteness scans, so a problem refuses
non-finite data when it is built. The KKT system is factored up front and
refactored only when the penalty rebalances, so iterations stay cheap,
which suits repeated solves at a fixed rate with warm starting.

`solved` certifies a KKT point of the unscaled problem within
eps_abs + eps_rel * scale, so of a convex QP its optimum. An ADMM iterate
passes when its dual residual and its distance |Ax - z| from ADMM's
consensus z meet it (OSQP's test, Stellato et al. 2020, section 3.4): y
lies in the box's normal cone at z, so this bounds complementarity too.
Polish is tried at a residual check whose iterate has converged or whose
active set, read off the duals, held since the previous check: one KKT
solve on that set. Its answer ends the solve if it meets the test, with
|Ax - clip(Ax)| as its primal residual, and every active multiplier has
its bound's sign; otherwise a converged iterate is returned as it is and
an unconverged one iterates on.

With polish on, every solve first tries an active-set hot start: a guess
at the active set is polished on the new problem before equilibration,
factorization or any iteration, and a point that passes the same
acceptance test is returned with zero iterations. A warm solve guesses
the set its warm start's multipliers mark, a cold one the equality rows
alone; either way the rows the polished point violates join the guess
for one more polish. Replans of one leg mostly keep their active set, and
a plan whose inequality rows are all slack at its optimum (every plan of
`bench_planner`'s field, 4 to 128 waypoints) is the optimum of its
equality rows, so most solves end there; the rest run ADMM, from the warm
start where there is one. The acceptance test certifies the optimum only
for a convex cost, so with polish on a solve first checks, once, that Q
plus a small multiple of its largest diagonal entry has a Cholesky factor
(`_cholesky` again), and raises IllPosedProblem if not, as the ADMM path's
KKT factorization does.

Every solve runs with numpy's and scipy's OpenBLAS pools on one thread:
its BLAS and LAPACK calls are small, and threads only add stalls. Solves
that run ADMM show it. On a 2-core x86_64 host (OpenBLAS 0.3.31, two
threads by default), with the pinning on and off in turn in one process,
cold dense plans of a zigzag (80 m legs, +-30 m offsets) took medians of
169-185 ms pinned against 273-294 ms unpinned at 16 waypoints (1,675
iterations) in 5 of 5 runs, and 69-122 against 87-128 ms at 12 (950
iterations), pinned faster in 4 of 5. Solves that end in the hot start
do not move: `bench_planner` plans at 4-64 waypoints, dense and CSR, took
the same medians (0.6-4.6 ms) either way.
"""

from __future__ import annotations

import ctypes
import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs, dpbtrf, dpbtrs, dpotrf, dpotrs
from scipy.sparse.linalg import splu

# Size m*n of A above which a solve works on Q and A in CSR: below it
# scipy.sparse's per-call cost outweighs what sparsity saves. Cold plans,
# dense against CSR (2-core x86_64, OpenBLAS 0.3.31, median per plan), on
# four fields whose plans end in the hot start (`bench_planner`'s at seeds
# 0 and 7, a sine and a 120 m zigzag): dense saves 0.8-1.5 ms (32-49 %)
# at 10-16 waypoints and 0.7-0.9 ms at 17 (m*n = 148,896). On three
# zigzags of 70-85 m legs whose plans end in ADMM (one infeasible): no
# consistent difference at 10-12 waypoints, dense 1-21 % slower at 13-14
# and 47-58 % at 15-16 (e.g. 54 against 37 ms), 67-95 % at 17. The switch
# sits at the smallest size that keeps 16 waypoints (130,680) dense. The
# CSR form's fixed cost makes plan time step up at the switch; with the
# switch at 50,000 (CSR from 11 waypoints) the acceptance suite's test of
# linear plan time over 4-64 waypoints fell below r^2 0.9 in 20 of 40
# runs of its procedure, against 2 of 40 with the switch here.
_SPARSE_ABOVE = 140_000


def csr_form(m: int, n: int) -> bool:
    """Whether a solve works on CSR matrices, rather than dense ones, for a
    problem with m constraint rows over n variables."""
    return m * n > _SPARSE_ABOVE


class IllPosedProblem(ValueError):
    """Cost matrix is not positive semidefinite (factorization failed)."""


# Fixed ADMM constants: the x-update's proximal weight sigma, the
# over-relaxation alpha, the Ruiz passes, the tolerance of the
# infeasibility certificate and the iteration from which every residual
# check tries it, and the primal/dual imbalance that rebalances rho.
_SIGMA = 1e-6
_ALPHA = 1.6
_SCALING_ITERS = 10
_EPS_INFEASIBLE = 1e-4
_CERTIFICATE_FROM_ITER = 200
_ADAPTIVE_RHO_TOLERANCE = 5.0


@dataclass
class QpSettings:
    eps_abs: float = 1e-5
    eps_rel: float = 1e-5
    max_iter: int = 4000
    rho: float = 0.1
    check_every: int = 25
    polish: bool = True
    adaptive_rho: bool = True

    def __post_init__(self):
        # Coerce, so an int rho cannot reach numpy's in-place float
        # updates; `not 0 < v < inf` also rejects NaN.
        for name, kind in (("eps_abs", float), ("eps_rel", float), ("rho", float),
                           ("max_iter", int), ("check_every", int)):
            v = getattr(self, name)
            if not 0.0 < v < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
            if kind(v) != v:
                raise ValueError(f"{name} must be an integer, got {v!r}")
            setattr(self, name, kind(v))


class QpProblem:
    """Immutable QP data, stored in the form its solve works on.

    Q and A may be given dense or scipy-sparse. Each is stored as `csr_form`
    says for the problem's size, dense or CSR; a matrix given in the other
    form is converted here, once. Q is then symmetrized. The solver reads
    the stored matrices. `Q` and `A` are read-only dense arrays; a matrix
    stored as CSR is densified on each access. A non-finite entry in Q, q
    or A, or a NaN bound, raises ValueError (infinite bounds are allowed).

    A, q, l and u are stored as read-only views of the caller's arrays
    where no conversion was needed (for a CSR A, views of its data,
    indices and indptr), so the caller's own arrays stay writable; writing
    to them afterwards changes the problem.
    """

    def __init__(self, Q, q, A=None, l=None, u=None):
        Q = Q if sp.issparse(Q) else np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        n = Q.shape[0]
        self.q = np.zeros(n) if q is None else np.asarray(q, dtype=float).reshape(-1)
        if self.q.shape[0] != n:
            raise ValueError(f"q has length {self.q.shape[0]}, expected {n}")
        A = np.zeros((0, n)) if A is None else A if sp.issparse(A) else np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError("A must have shape (m, n)")
        m = A.shape[0]
        csr = csr_form(m, n)
        Q, A = (sp.csr_array(M, dtype=float) if csr else
                np.asarray(M.toarray() if sp.issparse(M) else M, dtype=float) for M in (Q, A))
        self._Q = 0.5 * (Q + Q.T)
        # Views, frozen below, so the caller's arrays keep their flags.
        self._A = (sp.csr_array((A.data.view(), A.indices.view(), A.indptr.view()),
                                shape=A.shape) if sp.issparse(A) else A.view())
        self.l = np.full(m, -np.inf) if l is None else np.asarray(l, dtype=float).reshape(-1)
        self.u = np.full(m, np.inf) if u is None else np.asarray(u, dtype=float).reshape(-1)
        if self.l.shape[0] != m or self.u.shape[0] != m:
            raise ValueError("bound lengths must match the number of constraint rows")
        if not np.all(self.l <= self.u):  # also false where a bound is NaN
            nan = [k for k, b in (("l", self.l), ("u", self.u)) if np.isnan(b).any()]
            raise ValueError(f"{nan[0]} has a NaN entry" if nan
                             else "lower bounds exceed upper bounds")
        for name, M in (("Q", self._Q), ("q", self.q), ("A", self._A)):
            if not np.isfinite(M.data if sp.issparse(M) else M).all():
                raise ValueError(f"{name} has a non-finite entry")
        arrays = [self.q, self.l, self.u]
        for M in (self._Q, self._A):
            arrays += [M.data, M.indices, M.indptr] if sp.issparse(M) else [M]
        for arr in arrays:
            arr.setflags(write=False)

    @property
    def Q(self) -> np.ndarray:
        return _dense(self._Q)

    @property
    def A(self) -> np.ndarray:
        return _dense(self._A)

    @property
    def n(self) -> int:
        return self._Q.shape[0]

    @property
    def m(self) -> int:
        return self._A.shape[0]

    def objective(self, x) -> float:
        return float(0.5 * x @ self._Q @ x + self.q @ x)


def _dense(M) -> np.ndarray:
    """M as a read-only dense array: itself, or a copy of a sparse M."""
    if sp.issparse(M):
        M = M.toarray()
        M.setflags(write=False)
    return M


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


@functools.cache
def _blas_pools():
    """(get, set) thread-count functions of the OpenBLAS builds that numpy
    and scipy bundle, looked up on the first dense solve. A build without
    these symbols (MKL, a system OpenBLAS) is left as it is."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack

    pools = []
    for lib, suffix in ((_umath_linalg.__file__, "64_"), (_flapack.__file__, "")):
        try:
            handle = ctypes.CDLL(lib)
            get = getattr(handle, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(handle, "scipy_openblas_set_num_threads" + suffix)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        pools.append((get, put))
    return tuple(pools)


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's and scipy's BLAS pools on one thread each,
    then restore their counts. A solve's BLAS and LAPACK calls are too
    small to gain from threads, and on a loaded host they stall on them."""
    pools = _blas_pools()
    saved = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), k in zip(pools, saved):
            put(k)


def _residuals(prob: QpProblem, x, y):
    """Primal and dual residuals of the unscaled problem, then the scales
    their tolerances grow with: max(|Ax|, |clip(Ax)|) and
    max(|Qx|, |A'y|, |q|), then Ax itself."""
    ax = prob._A @ x
    ax_c = np.minimum(np.maximum(ax, prob.l), prob.u)  # np.clip, less dispatch
    qx, aty = prob._Q @ x, prob._A.T @ y
    return (_inf_norm(ax - ax_c), _inf_norm(qx + prob.q + aty),
            max(_inf_norm(ax), _inf_norm(ax_c)),
            max(_inf_norm(qx), _inf_norm(aty), _inf_norm(prob.q)), ax)


def _check_shapes(prob: QpProblem, x, y, what: str) -> None:
    """Raise ValueError unless x has shape (n,) and y (m,): a column vector
    would broadcast through the residuals instead of failing."""
    if np.shape(x) != (prob.n,) or np.shape(y) != (prob.m,):
        raise ValueError(f"{what} x {np.shape(x)} and y {np.shape(y)}, "
                         f"expected ({prob.n},) and ({prob.m},)")


def kkt_residuals(prob: QpProblem, x, y):
    """Constraint violation and stationarity, as `solve_qp` computes them."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_shapes(prob, x, y, "kkt_residuals got")
    return _residuals(prob, x, y)[:2]


# The CSR branches of _abs_max and _scale work on the stored entries;
# scipy's abs(M).max(axis) and diags products cost several times more.
def _abs_max(M, axis) -> np.ndarray:
    """Largest absolute entry along an axis (0.0 for an empty line)."""
    if sp.issparse(M):
        line = M.indices if axis == 0 else np.repeat(np.arange(M.shape[0]),
                                                     np.diff(M.indptr))
        out = np.zeros(M.shape[1 - axis])
        np.maximum.at(out, line, np.abs(M.data))
        return out
    return np.abs(M).max(axis=axis, initial=0.0)


def _scale(M, row, col):
    """M <- diag(row) @ M @ diag(col), in place, in M's own form (dense or CSR)."""
    if sp.issparse(M):
        M.data *= np.repeat(row, np.diff(M.indptr))
        M.data *= col[M.indices]
    else:
        M *= row[:, None]
        M *= col[None, :]


def _ruiz_equilibrate(Q, q, A, iters):
    """Modified Ruiz scaling on the stacked KKT matrix plus cost scaling.

    Q and A come dense or CSR; they are copied once, and the scaled copies
    keep their form.
    """
    Q, A = Q.copy(), A.copy()
    D = np.ones(Q.shape[0])
    E = np.ones(A.shape[0])
    qs = q.copy()
    for _ in range(iters):
        cx = np.maximum(_abs_max(Q, 0), _abs_max(A, 0))
        cz = _abs_max(A, 1)
        dx = np.minimum(np.maximum(1.0 / np.sqrt(np.maximum(cx, 1e-8)), 1e-4), 1e4)
        dz = np.minimum(np.maximum(1.0 / np.sqrt(np.maximum(cz, 1e-8)), 1e-4), 1e4)
        _scale(Q, dx, dx)
        _scale(A, dz, dx)
        qs = dx * qs
        D *= dx
        E *= dz
    col_max = _abs_max(Q, 0)
    c = 1.0 / max(col_max.mean() if col_max.size else 0.0, _inf_norm(qs), 1e-8)
    c = min(max(c, 1e-6), 1e6)
    return Q * c, qs * c, A, D, E, c


def _diagonal(v, form):
    """diag(v) as a scipy.sparse array of the given class (CSR or CSC)."""
    k = np.arange(v.size + 1)
    return form((v, k[:-1], k), shape=(v.size, v.size))


def _lower_band(K) -> np.ndarray:
    """A symmetric CSR K in LAPACK's lower band storage: row k holds K's
    k-th subdiagonal. The band comes from K's stored entries; a sparse sum
    stores no explicit zeros."""
    rows, cols = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr)), K.indices
    ab = np.zeros((int(np.abs(rows - cols).max(initial=0)) + 1, K.shape[0]))
    low = rows >= cols
    ab[rows[low] - cols[low], cols[low]] = K.data[low]
    return ab


def _cholesky(Q, shift, A=None, rho=None) -> np.ndarray:
    """LAPACK's lower Cholesky factor of K = Q + shift*I, plus A' diag(rho) A
    when rows A are given, in Q's stored form: dpotrf on a dense K, dpbtrf
    on a CSR K's lower band, without scipy's wrappers, whose finiteness
    scans every solve would pay for. Raises IllPosedProblem unless K is
    positive definite."""
    n = Q.shape[0]
    if not n:  # nothing to factor
        return np.zeros((1, 0))
    if sp.issparse(Q):
        # The sum builds shift*I and diag(rho) directly as the CSR and CSC
        # arrays that scipy would convert dia matrices to; Q alone is
        # shifted on its band, with no sparse sum.
        ab = _lower_band(Q if A is None else Q + _diagonal(np.full(n, shift), sp.csr_array)
                         + A.T @ _diagonal(rho, sp.csc_array) @ A)
        if A is None:
            ab[0] += shift  # row 0 is the diagonal
        factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    else:
        # Fortran order is LAPACK's, so dpotrf factors Q's copy in place.
        K = Q.copy(order="F") if A is None else Q + (A.T * rho) @ A
        K.flat[:: n + 1] += shift
        factor, info = dpotrf(K, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        rows = "" if A is None else " + A' diag(rho) A"
        raise IllPosedProblem(f"the leading minor of order {info} of Q + {shift:g}*I{rows} "
                              "is not positive definite")
    return factor


class _KktOperator:
    """Factor K = Q + sigma*I + A' diag(rho) A once (`_cholesky`, banded
    for CSR matrices); solve cheaply. The planner's segment-ordered
    problems are narrow-banded; a CSR problem that is not factors with a
    full band."""

    def __init__(self, Q, A, rho, sigma):
        self.banded = sp.issparse(A)
        self._factor = _cholesky(Q, sigma, A, rho)

    def solve(self, rhs):
        # LAPACK's triangular solves on the lower factor, without scipy's
        # per-call finiteness scan of the factor, which costs more than the
        # solve itself on a replan's small systems.
        if not np.isfinite(rhs).all():
            raise ValueError("array must not contain infs or NaNs")
        if not rhs.size:  # LAPACK rejects an empty system
            return rhs.copy()
        trs = dpbtrs if self.banded else dpotrs
        x, info = trs(self._factor, rhs, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal {trs.__name__}")
        return x


def _infeasibility_certificate(prob: QpProblem, dy, eps) -> bool:
    nd = _inf_norm(dy)
    if nd < 1e-12:
        return False
    dyn = dy / nd
    if _inf_norm(prob._A.T @ dyn) > eps:
        return False
    pos = dyn > 1e-12
    neg = dyn < -1e-12
    if np.any(pos & np.isinf(prob.u)) or np.any(neg & np.isinf(prob.l)):
        return False
    support = float(prob.u[pos] @ dyn[pos]) + float(prob.l[neg] @ dyn[neg])
    return support <= -eps


def _active_set(prob: QpProblem, y, eq):
    """Rows the polish treats as active, as masks (eq, low, upp).

    Classification is by dual sign with a tolerance: converged inactive
    multipliers are zero only up to cancellation error, a dozen orders of
    magnitude below the genuine ones. A row is active only on a side whose
    bound is finite; a warm start's multiplier may mark a bound that the
    new problem dropped. Equality rows, masked by eq, always stay active.
    """
    tol = 1e-12 * max(1.0, _inf_norm(y))
    return (eq, (y < -tol) & ~eq & np.isfinite(prob.l),
            (y > tol) & ~eq & np.isfinite(prob.u))


def _polish(prob: QpProblem, active):
    """Re-solve on the active set for high-accuracy primal/dual values.

    Works on the problem's unscaled matrices in their stored form; a dense
    KKT system goes through LAPACK's LU (getrf/getrs), a CSR one through a
    sparse LU. Returns x, y and the five values of `_residuals` at them
    (four residuals and scales, then Ax), or None when the KKT
    factorization fails. The result depends on the active set alone, not
    on the ADMM iterate that suggested it.
    """
    n, Q, A = prob.n, prob._Q, prob._A
    eq, low, upp = active
    rows = np.concatenate([np.flatnonzero(eq), np.flatnonzero(low), np.flatnonzero(upp)])
    A_act = A[rows]
    b_act = np.concatenate([prob.l[eq], prob.l[low], prob.u[upp]])
    k = rows.size
    delta = 1e-9
    rhs = np.concatenate([-prob.q, b_act])
    # Factor the regularized KKT system once; iterative refinement against
    # the unregularized one reuses the factorization.
    if sp.issparse(A):
        # [[Q + delta*I, A_act'], [A_act, -delta*I]] from COO triplets: the
        # CSC conversion sums the diagonal into Q's, as sp.bmat would build
        # it, without bmat's per-block cost.
        Qc, Ac = Q.tocoo(), A_act.tocoo()
        ii = np.arange(n + k)
        kkt = sp.coo_array(
            (np.concatenate([Qc.data, Ac.data, Ac.data, np.repeat([delta, -delta], [n, k])]),
             (np.concatenate([Qc.row, Ac.col, n + Ac.row, ii]),
              np.concatenate([Qc.col, n + Ac.row, Ac.col, ii]))),
            shape=(n + k, n + k)).tocsc()
        try:
            factor = splu(kkt).solve
        except RuntimeError:
            return None
    elif n + k:
        KKT = np.zeros((n + k, n + k), order="F")  # LAPACK's order: no copy
        KKT[:n, :n] = Q + delta * np.eye(n)
        KKT[:n, n:] = A_act.T
        KKT[n:, :n] = A_act
        KKT[n:, n:] = -delta * np.eye(k)
        # LAPACK directly, as scipy's lu_factor/lu_solve would call it,
        # without their finiteness scans and dispatch, which cost more than
        # the factorization on a replan's small systems.
        lu, piv, info = dgetrf(KKT, overwrite_a=1)
        if info != 0:
            return None
        factor = lambda b: dgetrs(lu, piv, b)[0]
    else:  # no variables and no active rows: LAPACK rejects an empty system
        factor = np.copy
    sol = factor(rhs)
    for _ in range(3):
        rx = rhs[:n] - Q @ sol[:n] - A_act.T @ sol[n:]
        rz = b_act - A_act @ sol[:n]
        sol += factor(np.concatenate([rx, rz]))
    x_p = sol[:n]
    y_p = np.zeros(prob.m)
    y_p[rows] = sol[n:]
    return (x_p, y_p, *_residuals(prob, x_p, y_p))


def _require_convex(Q) -> None:
    """Raise IllPosedProblem unless Q + shift*I has a Cholesky factor. The
    shift is _SIGMA times Q's largest diagonal magnitude, and at least
    _SIGMA, so that it does not vanish in rounding on a semidefinite Q with
    large entries, as the ADMM factor's sigma does not on the scaled Q."""
    _cholesky(Q, _SIGMA * max(1.0, _inf_norm(Q.diagonal())))


def _polish_is_optimal(s: QpSettings, active, y, prim, dual, p_scale, d_scale) -> bool:
    """Acceptance test for a polished point: its residuals within the
    tolerances, and every active multiplier's sign matching its bound
    (a wrong active set can meet the residual tests with a wrong sign)."""
    _, low, upp = active
    return (prim <= s.eps_abs + s.eps_rel * p_scale
            and dual <= s.eps_abs + s.eps_rel * d_scale
            and bool(np.all(y[low] <= 0.0)) and bool(np.all(y[upp] >= 0.0)))


def solve_qp(prob: QpProblem, settings: QpSettings | None = None,
             warm_start: QpSolution | None = None) -> QpSolution:
    """ADMM solve of the boxed QP; returns primal/dual values and diagnostics.

    With polish on, every solve first hot-starts: an active set is polished
    before any ADMM work, the warm start's (which must have this problem's
    sizes) or, with none, the equality rows alone. Every answer reports the
    residuals that `kkt_residuals` gives at it; the module docstring says
    what `solved` certifies.
    """
    s = settings or QpSettings()
    t_begin = time.perf_counter()
    if warm_start is not None:
        _check_shapes(prob, warm_start.x, warm_start.y, "warm start has")

    # Every stage follows the problem's stored form, on one BLAS thread.
    with _one_blas_thread():
        return _solve(prob, s, warm_start, t_begin)


def _solve(prob: QpProblem, s: QpSettings, warm_start, t_begin) -> QpSolution:
    """The hot start, then ADMM, on the problem's stored matrices."""
    n, m = prob.n, prob.m
    eq = np.isfinite(prob.l) & np.isfinite(prob.u) & (prob.u - prob.l < 1e-9)
    if s.polish:
        # The acceptance test makes a polished point the optimum only for a
        # convex cost, and the hot start skips the KKT factorization that
        # would refuse a non-convex one (a Q that A'rho A makes definite
        # there is not convex either), so Q is certified first, once.
        _require_convex(prob._Q)
        # Hot start: the previous answer's active set, polished on this
        # problem, or with no previous answer the equality rows alone. The
        # rows its point violates join the set, on the side they violate,
        # for one more polish: the new optimum often needs a row the
        # previous one did not, and a violation inside the tolerance would
        # pass the acceptance test. A point that passes it is the optimum,
        # so ADMM, its scaling and its factorization are skipped.
        active = _active_set(prob, np.zeros(m) if warm_start is None else warm_start.y, eq)
        res = _polish(prob, active)
        if res is not None:
            ax = res[-1]  # A @ x, from the polish's residuals
            low = (ax < prob.l) & ~eq & ~active[1]
            upp = (ax > prob.u) & ~eq & ~active[2]
            if low.any() or upp.any():
                active = (eq, active[1] | low, active[2] | upp)
                res = _polish(prob, active)
        if res is not None and _polish_is_optimal(s, active, *res[1:6]):
            x_p, y_p, prim, dual = res[:4]
            return QpSolution(x=x_p, y=y_p, status="solved", iterations=0,
                              primal_residual=prim, dual_residual=dual,
                              solve_time=time.perf_counter() - t_begin,
                              objective=prob.objective(x_p), polished=True)

    Qs, qs, As, D, E, c = _ruiz_equilibrate(prob._Q, prob.q, prob._A, _SCALING_ITERS)
    At = As.T
    ls = E * prob.l
    us = E * prob.u

    rho_eq = np.where(eq, 1e3, 1.0)
    rho_base = s.rho
    rho = rho_base * rho_eq
    op = _KktOperator(Qs, As, rho, _SIGMA)

    if warm_start is not None:
        x = warm_start.x / D
        y = (c / E) * warm_start.y
        z = np.clip(As @ x, ls, us)
    else:
        x, y, z = np.zeros(n), np.zeros(m), np.zeros(m)

    status = "max-iterations"
    it = 0
    y_at_check = y.copy()
    polished = False
    prev_active = None
    tried = False

    while it < s.max_iter:
        it += 1
        x_t = op.solve(_SIGMA * x - qs + At @ (rho * z - y))
        x = _ALPHA * x_t + (1.0 - _ALPHA) * x
        z_pre = _ALPHA * (As @ x_t) + (1.0 - _ALPHA) * z
        # np.clip's arithmetic, with less per-call dispatch.
        z = np.minimum(np.maximum(z_pre + y / rho, ls), us)
        y = y + rho * (z_pre - z)

        if it % s.check_every == 0 or it == s.max_iter:
            # The unscaled iterate, its residuals and the scales that the
            # tolerances and the penalty balance measure them against.
            x_u, y_u, z_u = D * x, (E / c) * y, z / E
            prim, dual, p_scale, d_scale, ax = _residuals(prob, x_u, y_u)
            # Ax against z, not clip(Ax), or a slack row may keep a multiplier.
            gap, z_scale = _inf_norm(ax - z_u), max(p_scale, _inf_norm(z_u))
            converged = (gap <= s.eps_abs + s.eps_rel * z_scale
                         and dual <= s.eps_abs + s.eps_rel * d_scale)
            if s.polish:
                # One KKT solve on the active set gives the optimum that
                # ADMM only approaches linearly. It depends on the set
                # alone, so a set tried and rejected is not tried again
                # while it holds.
                active = _active_set(prob, y_u, eq)
                held = (prev_active is not None
                        and np.array_equal(active[1], prev_active[1])
                        and np.array_equal(active[2], prev_active[2]))
                tried = tried and held
                if (converged or held) and not tried:
                    tried = True
                    res = _polish(prob, active)
                    polished = res is not None and _polish_is_optimal(s, active, *res[1:6])
                    if polished:
                        x_u, y_u, prim, dual = res[:4]
                prev_active = active
            if converged or polished:
                status = "solved"
                break
            if it >= _CERTIFICATE_FROM_ITER:
                dy = (E / c) * (y - y_at_check)
                if _infeasibility_certificate(prob, dy, _EPS_INFEASIBLE):
                    status = "primal-infeasible-detected"
                    break
            y_at_check = y.copy()
            if s.adaptive_rho and m:
                # Rebalance the penalty when the primal and dual residuals
                # drift apart (relative to their natural scales); the KKT
                # matrix is refactored on each accepted update.
                p_rel = gap / max(z_scale, 1e-12)
                d_rel = dual / max(d_scale, 1e-12)
                ratio = np.sqrt(max(p_rel, 1e-16) / max(d_rel, 1e-16))
                if ratio > _ADAPTIVE_RHO_TOLERANCE or ratio < 1.0 / _ADAPTIVE_RHO_TOLERANCE:
                    rho_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
                    rho = rho_base * rho_eq
                    op = _KktOperator(Qs, As, rho, _SIGMA)

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


def dump_problem(prob: QpProblem, f) -> None:
    """Write the problem as plain text for offline debugging: n and m, the
    nonzero entries of Q and A as `row col value` lines in row-major order,
    read from the stored form (a dense and a CSR problem dump alike), then
    q, l and u."""
    f.write(f"qp v2\nn {prob.n}\nm {prob.m}\n")
    for name, M in (("Q", prob._Q), ("A", prob._A)):
        C = sp.coo_array(M)
        nz = np.flatnonzero(C.data)
        nz = nz[np.lexsort((C.col[nz], C.row[nz]))]
        f.write(f"{name} {nz.size}\n")
        f.writelines(f"{i} {j} {x:.17g}\n" for i, j, x in
                     zip(C.row[nz].tolist(), C.col[nz].tolist(), C.data[nz].tolist()))
    for name, vec in (("q", prob.q), ("l", prob.l), ("u", prob.u)):
        f.write(name + "\n" + " ".join(f"{x:.17g}" for x in vec.tolist()) + "\n")
