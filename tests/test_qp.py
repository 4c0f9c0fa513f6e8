import io

import numpy as np
import pytest
from scipy.linalg import solve as dense_solve

from flatwing import qp
from oracles import active_set_qp, random_box_qp


def test_unconstrained_stationary_point():
    sol = qp.solve_qp(qp.QpProblem(np.eye(2), np.array([-1.0, -1.0])))
    assert sol.status == "solved"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_active_box_bound():
    # minimize (x-2)^2 subject to x <= 1
    prob = qp.QpProblem(
        np.array([[2.0]]), np.array([-4.0]),
        np.array([[1.0]]), np.array([-np.inf]), np.array([1.0]),
    )
    sol = qp.solve_qp(prob)
    assert sol.status == "solved"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.y[0] > 0  # upper bound active: positive dual


def test_equality_constrained_matches_direct_kkt_solve():
    # random PSD 20-var problem with 10 equality rows against the plain
    # saddle-point linear system
    rng = np.random.default_rng(11)
    n, k = 20, 10
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.2 * np.eye(n)
    qv = rng.normal(size=n)
    A = rng.normal(size=(k, n))
    b = rng.normal(size=k)

    kkt = np.block([[Q, A.T], [A, np.zeros((k, k))]])
    ref = dense_solve(kkt, np.concatenate([-qv, b]))

    sol = qp.solve_qp(qp.QpProblem(Q, qv, A, b, b))
    assert sol.status == "solved"
    assert np.abs(sol.x - ref[:n]).max() < 1e-5


def test_reported_residuals_match_independent_recompute():
    rng = np.random.default_rng(12)
    for _ in range(10):
        prob = qp.QpProblem(*random_box_qp(rng)[:5])
        sol = qp.solve_qp(prob)
        prim, dual = qp.kkt_residuals(prob, sol.x, sol.y)
        assert abs(prim - sol.primal_residual) <= 1e-9
        assert abs(dual - sol.dual_residual) <= 1e-9


def test_solved_residuals_below_configured_tolerance():
    rng = np.random.default_rng(13)
    s = qp.QpSettings(eps_abs=1e-6, eps_rel=1e-6)
    for _ in range(10):
        Q, qv, A, lo, hi, _ = random_box_qp(rng)
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi), s)
        assert sol.status == "solved"
        scale_p = max(np.abs(A @ sol.x).max(), 1.0)
        scale_d = max(np.abs(Q @ sol.x).max(), np.abs(qv).max(), 1.0)
        assert sol.primal_residual <= 1e-6 + 1e-6 * scale_p
        assert sol.dual_residual <= 1e-6 + 1e-6 * scale_d


def test_kkt_residuals_trivial_cases():
    prob = qp.QpProblem(np.eye(2), np.array([-1.0, 0.0]))
    prim, dual = qp.kkt_residuals(prob, np.array([1.0, 0.0]), np.zeros(0))
    assert prim == 0.0 and dual == 0.0

    prob2 = qp.QpProblem(
        np.eye(1), None, np.array([[1.0]]), np.array([2.0]), np.array([2.0])
    )
    prim, _ = qp.kkt_residuals(prob2, np.array([1.5]), np.zeros(1))
    assert prim >= 0.5 - 1e-15


def test_dual_sign_convention():
    # minimize (x-2)^2 with l <= x <= u: lower-active dual <= 0, upper >= 0
    Q = np.array([[2.0]])
    A = np.array([[1.0]])
    low = qp.solve_qp(qp.QpProblem(Q, np.array([-4.0]), A, np.array([3.0]), np.array([5.0])))
    assert low.x[0] == pytest.approx(3.0, abs=1e-8)
    assert low.y[0] < 0
    up = qp.solve_qp(qp.QpProblem(Q, np.array([-4.0]), A, np.array([0.0]), np.array([1.0])))
    assert up.x[0] == pytest.approx(1.0, abs=1e-8)
    assert up.y[0] > 0


def test_objective_not_beaten_by_random_feasible_points():
    rng = np.random.default_rng(14)
    n = 6
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.3 * np.eye(n)
    qv = rng.normal(size=n)
    lo, hi = -np.ones(n), np.ones(n)
    prob = qp.QpProblem(Q, qv, np.eye(n), lo, hi)
    sol = qp.solve_qp(prob)
    assert sol.status == "solved"
    samples = rng.uniform(lo, hi, size=(1000, n))
    objs = 0.5 * np.einsum("ij,jk,ik->i", samples, Q, samples) + samples @ qv
    assert sol.objective <= objs.min() + 1e-9


def test_warm_start_cuts_iterations():
    rng = np.random.default_rng(15)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    cold = qp.solve_qp(prob)
    warm = qp.solve_qp(prob, warm_start=cold)
    assert warm.status == "solved"
    assert warm.iterations <= cold.iterations


def test_determinism_bitwise():
    rng = np.random.default_rng(16)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    prob = qp.QpProblem(Q, qv, A, lo, hi)
    a = qp.solve_qp(prob)
    b = qp.solve_qp(prob)
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_infeasible_problem_detected():
    # x >= 1 and x <= -1 simultaneously
    prob = qp.QpProblem(
        np.array([[1.0]]), None,
        np.array([[1.0], [1.0]]),
        np.array([1.0, -np.inf]),
        np.array([np.inf, -1.0]),
    )
    sol = qp.solve_qp(prob)
    assert sol.status == "primal-infeasible-detected"


def test_problem_validation():
    with pytest.raises(ValueError):
        qp.QpProblem(np.zeros((2, 3)), None)
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(2), None, np.ones((1, 3)), [0.0], [1.0])
    with pytest.raises(ValueError):
        qp.QpProblem(np.eye(1), None, np.eye(1), [2.0], [1.0])  # l > u


def test_q_symmetrized_at_construction():
    prob = qp.QpProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), None)
    assert np.array_equal(prob.Q, prob.Q.T)


def test_non_psd_cost_raises_ill_posed():
    with pytest.raises(qp.IllPosedProblem):
        qp.solve_qp(qp.QpProblem(np.array([[-1.0]]), None))


def test_equality_rows_satisfied_tightly():
    rng = np.random.default_rng(17)
    n = 12
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    A = rng.normal(size=(5, n))
    b = rng.normal(size=5)
    sol = qp.solve_qp(qp.QpProblem(Q, rng.normal(size=n), A, b, b))
    assert sol.status == "solved"
    assert np.abs(A @ sol.x - b).max() < 1e-9


def test_banded_structure_agrees_with_oracle():
    # block-banded cost/constraints of the kind the trajectory planner emits
    rng = np.random.default_rng(18)
    n = 60
    Q = np.zeros((n, n))
    for i in range(0, n, 6):
        B = rng.normal(size=(6, 6))
        Q[i : i + 6, i : i + 6] = B @ B.T + 0.4 * np.eye(6)
    A = np.zeros((20, n))
    for r in range(20):
        j = 3 * r
        A[r, j : j + 3] = rng.normal(size=3)
    x0 = rng.normal(size=n)
    b = A @ x0
    lo, hi = b - 0.5, b + 0.5
    xo, _ = active_set_qp(Q, None, A, lo, hi, x0)
    sol = qp.solve_qp(qp.QpProblem(Q, None, A, lo, hi))
    assert sol.status == "solved"
    assert np.abs(sol.x - xo).max() < 1e-6


def test_polish_reaches_machine_precision_on_clean_instances():
    rng = np.random.default_rng(19)
    hits = 0
    for _ in range(10):
        Q, qv, A, lo, hi, _ = random_box_qp(rng)
        sol = qp.solve_qp(qp.QpProblem(Q, qv, A, lo, hi))
        if sol.polished:
            hits += 1
            assert max(sol.primal_residual, sol.dual_residual) < 1e-9
    assert hits >= 8  # polish is expected to succeed on almost all of these


def test_solve_alias():
    assert qp.solve is qp.solve_qp


def test_solve_time_series_stats():
    rng = np.random.default_rng(20)
    probs = []
    for n in (5, 5, 9):
        M = rng.normal(size=(n, n))
        probs.append(qp.QpProblem(M @ M.T + np.eye(n), rng.normal(size=n)))
    stats = qp.solve_time_series(probs)
    assert len(stats["times"]) == 3
    assert stats["max"] >= stats["mean"] > 0
    assert stats["per_size"][5]["count"] == 2
    one = qp.solve_time_series(probs[:1])
    assert one["mean"] == one["max"]
    with pytest.raises(ValueError):
        qp.solve_time_series([])


def test_dump_problem_contains_full_description():
    prob = qp.QpProblem(
        np.eye(2), np.array([0.5, -0.25]),
        np.array([[1.0, 1.0]]), np.array([1.0]), np.array([2.0]),
    )
    buf = io.StringIO()
    qp.dump_problem(prob, buf)
    text = buf.getvalue()
    assert "n 2" in text and "m 1" in text
    assert "0.5" in text and "-0.25" in text


def test_max_iterations_status_is_honest():
    rng = np.random.default_rng(21)
    Q, qv, A, lo, hi, _ = random_box_qp(rng)
    sol = qp.solve_qp(
        qp.QpProblem(Q, qv, A, lo, hi),
        qp.QpSettings(max_iter=3, check_every=1, polish=False),
    )
    assert sol.status == "max-iterations"
    assert sol.iterations == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kkt_solve_rejects_non_finite_right_hand_side(bad):
    rng = np.random.default_rng(4)
    for n, A in ((6, rng.normal(size=(3, 6))),  # dense factor
                 (40, np.eye(40))):  # narrow band: banded factor
        op = qp._KktOperator(np.eye(n), A, np.full(A.shape[0], 0.1), 1e-6)
        assert op.banded == (n == 40)
        rhs = np.ones(n)
        assert np.all(np.isfinite(op.solve(rhs)))
        rhs[n // 2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            op.solve(rhs)
